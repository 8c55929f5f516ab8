"""Dense function tables over finite product domains, with product measures.

A function f: Sigma^n -> codomain is stored as a dense table of length s^n,
where Sigma = {0, ..., s-1}.  Points are encoded in mixed radix with
coordinate 0 least significant: index(x) = sum_i x[i] * s**i.  Coordinates
are 0-based everywhere in code; the text file format is 1-based.

Codomains: 'bit' ({0,1}), 'sym' (Sigma itself), 'real' ([0,1]).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ResourceError, ValidationError

NORM_TOL = 1e-12
TABLE_CAP = 1 << 22   # max entries of a dense table
BINARY_N_CAP = 20     # max n for s = 2

CODOMAINS = ("bit", "sym", "real")


def encode_point(x: Sequence[int], s: int) -> int:
    """Mixed-radix index of a point, coordinate 0 least significant."""
    idx = 0
    for i in reversed(range(len(x))):
        idx = idx * s + int(x[i])
    return idx


def decode_point(idx: int, n: int, s: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % s)
        idx //= s
    return tuple(out)


def points_in_index_order(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """Yield all points of Sigma^n in increasing index order."""
    for t in itertools.product(range(s), repeat=n):
        yield t[::-1]


class Measure:
    """A probability distribution on a single coordinate alphabet."""

    def __init__(self, probs: Sequence[float]):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError("measure needs at least two symbols")
        if not np.all(arr >= 0):
            raise ValidationError("measure has a negative or NaN weight")
        if abs(float(arr.sum()) - 1.0) > NORM_TOL:
            raise ValidationError(
                f"measure not normalized: sum = {float(arr.sum())!r}")
        self.probs = arr
        self.s = arr.size

    @classmethod
    def uniform(cls, s: int) -> "Measure":
        return cls(np.full(s, 1.0 / s))

    @classmethod
    def bernoulli(cls, p: float) -> "Measure":
        """Binary measure with Pr[1] = p."""
        return cls([1.0 - p, p])

    @property
    def full_support(self) -> bool:
        return bool(np.all(self.probs > 0))

    def __eq__(self, other):
        return isinstance(other, Measure) and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        return f"Measure({self.probs.tolist()})"


class ProductMeasure:
    """An independent product of per-coordinate measures."""

    def __init__(self, measures: Sequence[Measure]):
        if not measures:
            raise ValidationError("empty product measure")
        s = measures[0].s
        if any(m.s != s for m in measures):
            raise ValidationError("mixed alphabet sizes in product measure")
        self.measures = tuple(measures)
        self.n = len(measures)
        self.s = s
        self._weights: np.ndarray | None = None

    @classmethod
    def iid(cls, measure: Measure, n: int) -> "ProductMeasure":
        return cls([measure] * n)

    @classmethod
    def uniform(cls, n: int, s: int = 2) -> "ProductMeasure":
        return cls.iid(Measure.uniform(s), n)

    @classmethod
    def p_biased(cls, p, n: int) -> "ProductMeasure":
        """Binary product measure; p is a scalar or one bias per coordinate."""
        if np.isscalar(p):
            return cls.iid(Measure.bernoulli(float(p)), n)
        ps = list(p)
        if len(ps) != n:
            raise ValidationError("need one bias per coordinate")
        return cls([Measure.bernoulli(float(q)) for q in ps])

    def weights(self) -> np.ndarray:
        """Dense weight vector of length s^n in point-index order."""
        if self._weights is None:
            self._weights = reduce(
                np.kron, (m.probs for m in reversed(self.measures)))
        return self._weights

    def weight_of(self, x: Sequence[int]) -> float:
        w = 1.0
        for i, m in enumerate(self.measures):
            w *= float(m.probs[x[i]])
        return w

    def subset(self, coords: Iterable[int]) -> "ProductMeasure":
        """Product of the marginals at the given coordinates, in given order."""
        return ProductMeasure([self.measures[i] for i in coords])

    @property
    def full_support(self) -> bool:
        return all(m.full_support for m in self.measures)

    def __eq__(self, other):
        return (isinstance(other, ProductMeasure)
                and self.measures == other.measures)


class PartialAssignment:
    """A point of (Sigma union {*})^n; None marks a free coordinate."""

    def __init__(self, entries: Sequence[int | None], s: int = 2):
        self.entries = tuple(entries)
        self.s = s
        for v in self.entries:
            if v is not None and not (0 <= v < s):
                raise DomainError(f"symbol {v} outside alphabet of size {s}")

    @classmethod
    def from_dict(cls, n: int, fixed: dict[int, int], s: int = 2) -> "PartialAssignment":
        entries: list[int | None] = [None] * n
        for i, v in fixed.items():
            if not (0 <= i < n):
                raise DomainError(f"coordinate {i} outside range(0, {n})")
            entries[i] = v
        return cls(entries, s)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.entries) if v is None)

    @property
    def fixed(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.entries) if v is not None)

    def __eq__(self, other):
        return (isinstance(other, PartialAssignment)
                and self.entries == other.entries and self.s == other.s)

    def __repr__(self):
        body = "".join("*" if v is None else str(v) for v in self.entries)
        return f"PartialAssignment({body})"


class FunctionTable:
    """A dense table for f: Sigma^n -> codomain."""

    def __init__(self, n: int, s: int, codomain: str, values):
        if codomain not in CODOMAINS:
            raise ValidationError(f"unknown codomain {codomain!r}")
        if s < 2:
            raise ValidationError("alphabet needs at least two symbols")
        if n < 1:
            raise ValidationError("need at least one coordinate")
        if s == 2 and n > BINARY_N_CAP:
            raise ResourceError(f"binary n = {n} exceeds cap {BINARY_N_CAP}")
        if s ** n > TABLE_CAP:
            raise ResourceError(f"table size {s}^{n} exceeds cap {TABLE_CAP}")
        raw = np.asarray(values)
        if raw.shape != (s ** n,):
            raise ValidationError(
                f"table needs {s ** n} entries, got shape {raw.shape}")
        # range checks run before the cast, so negative or oversized entries
        # cannot wrap around in uint8, and NaN fails every comparison
        lo, hi = raw.min(), raw.max()
        if codomain == "bit" and not (0 <= lo and hi <= 1):
            raise DomainError("bit table contains entries outside {0,1}")
        if codomain == "sym" and not (0 <= lo and hi < s):
            raise DomainError("sym table contains symbols outside the alphabet")
        if codomain == "real" and not (0.0 <= lo and hi <= 1.0):
            raise DomainError("real table contains entries outside [0, 1] or NaN")
        arr = raw.astype(np.float64 if codomain == "real" else np.uint8,
                         copy=False)
        self.n = n
        self.s = s
        self.codomain = codomain
        self.values = arr

    def eval(self, x: Sequence[int]):
        if len(x) != self.n:
            raise DomainError(f"point has {len(x)} coordinates, expected {self.n}")
        for v in x:
            if not (0 <= v < self.s):
                raise DomainError(f"symbol {v} outside alphabet of size {self.s}")
        v = self.values[encode_point(x, self.s)]
        return float(v) if self.codomain == "real" else int(v)

    def restrict(self, assignment: PartialAssignment) -> "FunctionTable":
        """Sub-table on the free coordinates, reindexed in increasing order."""
        if assignment.n != self.n:
            raise DomainError("assignment length mismatch")
        s = self.s
        base = 0
        for i in assignment.fixed:
            base += assignment.entries[i] * s ** i
        free = assignment.free
        if not free:
            raise DomainError("restriction fixes every coordinate")
        k = len(free)
        rem = np.arange(s ** k)
        idx = np.full(s ** k, base, dtype=np.int64)
        for j, i in enumerate(free):
            idx += ((rem // s ** j) % s) * s ** i
        return FunctionTable(k, s, self.codomain, self.values[idx])

    def as_real(self) -> np.ndarray:
        return self.values.astype(np.float64)

    def equals(self, other: "FunctionTable") -> bool:
        return (self.n == other.n and self.s == other.s
                and self.codomain == other.codomain
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"FunctionTable(n={self.n}, s={self.s}, codomain={self.codomain!r})"


# -- constructors -----------------------------------------------------------

def from_values(n: int, s: int, codomain: str, values) -> FunctionTable:
    return FunctionTable(n, s, codomain, values)


def constant(n: int, value, s: int = 2, codomain: str | None = None) -> FunctionTable:
    if codomain is None:
        codomain = "real" if isinstance(value, float) and value not in (0.0, 1.0) else "bit"
        if s > 2 and codomain == "bit":
            codomain = "sym"
    dtype = np.float64 if codomain == "real" else np.uint8
    return FunctionTable(n, s, codomain, np.full(s ** n, value, dtype=dtype))


def dictator(n: int, i: int, s: int = 2) -> FunctionTable:
    """f(x) = x_i."""
    if not (0 <= i < n):
        raise DomainError(f"coordinate {i} outside range(0, {n})")
    idx = np.arange(s ** n)
    vals = (idx // s ** i) % s
    return FunctionTable(n, s, "bit" if s == 2 else "sym", vals)


def character(n: int, support: Iterable[int], offset: int = 0) -> FunctionTable:
    """Binary character: offset xor (xor of x_i over the support)."""
    supp = sorted(set(support))
    if any(not (0 <= i < n) for i in supp):
        raise DomainError("character support outside range")
    idx = np.arange(1 << n)
    vals = np.full(1 << n, offset & 1, dtype=np.uint8)
    for i in supp:
        vals ^= ((idx >> i) & 1).astype(np.uint8)
    return FunctionTable(n, 2, "bit", vals)


def and_all(n: int) -> FunctionTable:
    vals = np.zeros(1 << n, dtype=np.uint8)
    vals[-1] = 1
    return FunctionTable(n, 2, "bit", vals)


def or_all(n: int) -> FunctionTable:
    vals = np.ones(1 << n, dtype=np.uint8)
    vals[0] = 0
    return FunctionTable(n, 2, "bit", vals)


def junta(n: int, coords: Sequence[int], table: FunctionTable | Sequence[int],
          s: int = 2, codomain: str = "bit") -> FunctionTable:
    """Lift a table on |coords| coordinates to Sigma^n, reading coords in order."""
    coords = list(coords)
    if len(set(coords)) != len(coords):
        raise ValidationError("junta coordinates repeat")
    if isinstance(table, FunctionTable):
        inner, s, codomain = table.values, table.s, table.codomain
        k = table.n
    else:
        inner = np.asarray(table)
        k = len(coords)
        if inner.shape != (s ** k,):
            raise ValidationError(
                f"junta table needs {s ** k} entries, got shape {inner.shape}")
    if k != len(coords):
        raise ValidationError("junta table size does not match coordinate count")
    idx = np.arange(s ** n)
    inner_idx = np.zeros(s ** n, dtype=np.int64)
    for j, i in enumerate(coords):
        inner_idx += ((idx // s ** i) % s) * s ** j
    return FunctionTable(n, s, codomain, inner[inner_idx])


def hybrid(n: int) -> FunctionTable:
    """x1 and x2 on points of weight <= 0.6*n, x1 or x2 above."""
    if n < 2:
        raise ValidationError("hybrid needs n >= 2")
    idx = np.arange(1 << n)
    weight = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        weight += (idx >> i) & 1
    x1 = (idx & 1).astype(np.uint8)
    x2 = ((idx >> 1) & 1).astype(np.uint8)
    low = weight <= 0.6 * n
    return FunctionTable(n, 2, "bit", np.where(low, x1 & x2, x1 | x2))


# -- metrics and cell enumeration ------------------------------------------

def distance(f: FunctionTable, g: FunctionTable, nu: ProductMeasure) -> float:
    """Pr_nu[f != g] for discrete codomains, E_nu|f - g| when either is real."""
    if (f.n, f.s) != (g.n, g.s):
        raise DomainError("functions live on different domains")
    if nu.n != f.n or nu.s != f.s:
        raise DomainError("measure does not match the domain")
    w = nu.weights()
    if f.codomain == "real" or g.codomain == "real":
        return float(np.dot(w, np.abs(f.as_real() - g.as_real())))
    return float(np.dot(w, (f.values != g.values).astype(np.float64)))


def expectation(f: FunctionTable, nu: ProductMeasure) -> float:
    if nu.n != f.n or nu.s != f.s:
        raise DomainError("measure does not match the domain")
    return float(np.dot(nu.weights(), f.as_real()))


def enumerate_cells(f: FunctionTable, J: Iterable[int], nu_J: ProductMeasure,
                    cap: int = TABLE_CAP):
    """Yield (assignment over sorted J, weight, subfunction on the rest).

    nu_J carries one measure per J coordinate, ordered by increasing
    coordinate index.  Weights sum to one over the yielded cells.
    """
    J = sorted(set(J))
    if any(not (0 <= i < f.n) for i in J):
        raise DomainError("cell coordinates outside range")
    if len(J) >= f.n:
        raise DomainError("cell coordinates must leave at least one free coordinate")
    if nu_J.n != len(J) or nu_J.s != f.s:
        raise DomainError("cell measure does not match J")
    if f.s ** len(J) > cap:
        raise ResourceError(f"{f.s}^{len(J)} cells exceed cap {cap}")
    for cell in points_in_index_order(len(J), f.s):
        weight = nu_J.weight_of(cell)
        assignment = PartialAssignment.from_dict(
            f.n, dict(zip(J, cell)), s=f.s)
        yield cell, weight, f.restrict(assignment)


# -- text file format --------------------------------------------------------

def parse_numbers(tokens: Sequence[str], kind, where: str) -> list:
    """Convert every token with kind (int, float or Fraction).  A token that
    does not convert, or a non-finite float, raises ValidationError naming
    where."""
    try:
        out = [kind(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    if kind is float and not all(map(math.isfinite, out)):
        raise ValidationError(f"{where}: numbers must be finite")
    return out


def read_fields(tokens: Iterable[str], types: dict, where: str,
                required: Sequence[str] = ()) -> dict:
    """The key=value tokenizer shared by every text format.

    Each token splits at its first '='; key and value are stripped and a
    later key overrides an earlier one.  Keys named in types are converted
    by parse_numbers, the rest stay strings.  A token without '=' or a
    missing required key raises ValidationError naming where.
    """
    out = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ValidationError(f"{where}: expected key=value, got {tok!r}")
        key, value = key.strip(), value.strip()
        if key in types:
            value = parse_numbers([value], types[key], f"{where}: {key}")[0]
        out[key] = value
    missing = [k for k in required if k not in out]
    if missing:
        raise ValidationError(f"{where}: missing {', '.join(missing)}")
    return out


def text_lines(text: str) -> list[str]:
    """Stripped non-empty lines that are not '#' comments."""
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def format_function(f: FunctionTable) -> str:
    header = f"fn n={f.n} sigma={f.s} codomain={f.codomain}"
    if f.codomain == "real":
        body = " ".join(repr(float(v)) for v in f.values)
    else:
        body = " ".join(str(int(v)) for v in f.values)
    return f"{header}\ntable {body}\n"


def parse_function(text: str) -> FunctionTable:
    """Parse the function file format.

    Line 1: ``fn n=<n> sigma=<s> codomain=<bit|sym|real>``.
    Line 2: either ``table <entries...>`` or one constructor of
    ``char S=1,2 b=0``, ``dictator i=3``, ``hybrid``, ``and``, ``or``,
    ``const v``.  Constructor coordinates are 1-based.
    """
    lines = text_lines(text)
    if len(lines) < 2 or not lines[0].startswith("fn "):
        raise ValidationError("function file needs a 'fn' header and a body line")
    head = read_fields(lines[0].split()[1:], {"n": int, "sigma": int},
                       "function header", required=("n", "sigma", "codomain"))
    n, s, codomain = head["n"], head["sigma"], head["codomain"]
    word, *rest = lines[1].split()
    kind = float if codomain == "real" else int
    if word == "table":
        return FunctionTable(n, s, codomain, parse_numbers(rest, kind, "table"))
    if word == "char":
        opts = read_fields(rest, {"b": int}, "char")
        supp = parse_numbers(opts["S"].split(","), int, "char S") \
            if opts.get("S") else []
        return character(n, [i - 1 for i in supp], opts.get("b", 0))
    if word == "dictator":
        opts = read_fields(rest, {"i": int}, "dictator", required=("i",))
        return dictator(n, opts["i"] - 1, s)
    if word == "hybrid":
        return hybrid(n)
    if word == "and":
        return and_all(n)
    if word == "or":
        return or_all(n)
    if word == "const":
        if len(rest) != 1:
            raise ValidationError("const needs exactly one value")
        return constant(n, parse_numbers(rest, kind, "const")[0], s, codomain)
    raise ValidationError(f"unknown function body line: {lines[1]!r}")


def load_function(path) -> FunctionTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_function(fh.read())


def save_function(path, f: FunctionTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_function(f))
