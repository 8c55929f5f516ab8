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
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (DomainError, ResourceError, UnsupportedError,
                     ValidationError)

NORM_TOL = 1e-12
TABLE_CAP = 1 << 22   # max entries of a dense table
BINARY_N_CAP = 20     # max n for s = 2
FRACTION_EXP_CAP = 400  # max |exponent| of a rational token, past any float
SYMBOL_CAP = 256      # max alphabet of bit and sym tables (uint8 entries)

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


# -- cell layout -------------------------------------------------------------
#
# Every function on Sigma^n shares one layout: a cell of a coordinate set J
# is a point of Sigma^J, indexed least significant first over sorted J, and
# the free coordinates F outside J index the points of each cell the same way.

def _kron(vecs) -> np.ndarray:
    """Product weights of per-coordinate vectors given in coordinate order,
    laid out in point-index order; the empty product is [1.0].  Factors
    multiply from the last coordinate down, as np.kron over the reversed
    list does."""
    out = np.ones(1)
    for v in reversed(list(vecs)):
        out = np.multiply.outer(out, v).ravel()
    return out


def _check_size(n: int, s: int, name: str = "n") -> tuple:
    """Size gate of a dense array over Sigma^n, run before it is allocated;
    messages call n by name.  Returns (n, s) as ints (see _integer)."""
    n, s = _integer(n, name), _integer(s, "alphabet size")
    if s < 2:
        raise ValidationError("alphabet needs at least two symbols")
    if n < 1:
        raise ValidationError("need at least one coordinate")
    if s == 2 and n > BINARY_N_CAP:
        raise ResourceError(f"binary {name} = {n} exceeds cap {BINARY_N_CAP}")
    # s >= 2, so n past TABLE_CAP's bit length is over the cap already; the
    # power of a huge parsed n would run for minutes before the comparison
    if n > TABLE_CAP.bit_length() or s ** n > TABLE_CAP:
        raise ResourceError(f"table size {s}^{n} exceeds cap {TABLE_CAP}")
    return n, s


def _digits(n: int, s: int) -> np.ndarray:
    """After the size gate, shape (n, s^n): row i holds the digit at
    coordinate i of every point index, in the smallest unsigned dtype that
    holds s - 1."""
    _check_size(n, s)
    return np.indices((s,) * n, dtype=np.min_scalar_type(s - 1)).reshape(
        n, -1)[::-1]


def _digit_index(n: int, s: int, coords) -> np.ndarray:
    """For every point index of Sigma^n, the index of its digits at coords,
    read with coords[0] least significant."""
    digits = _digits(n, s)
    out = np.zeros(s ** n, dtype=np.int64)
    for k, c in enumerate(coords):
        out += digits[c] * np.int64(s ** k)
    return out


def _cell_view(values: np.ndarray, n: int, s: int, J) -> tuple:
    """Reshape a flat table to (cells of J, free points), both indexed in
    the usual least-significant-first digit order over sorted coordinates;
    a (T, s^n) stack gives (T, cells, free points), each table laid out as
    it would be alone.  Returns (view, sorted J, free coordinates)."""
    Js = sorted(J)
    F = [i for i in range(n) if i not in Js]
    arr = values.reshape((-1,) + (s,) * n)  # axis 1 holds coordinate n - 1
    perm = [0] + [n - j for j in reversed(Js)] + [n - i for i in reversed(F)]
    G = arr.transpose(perm).reshape(values.shape[:-1] + (-1, s ** len(F)))
    return G, Js, F


def _cell_averages(values: np.ndarray, n: int, s: int, J, entries,
                   marginal: "Measure") -> np.ndarray:
    """The restricted cell law: a table's average over every cell of sorted
    J, each coordinate c outside J fixed to the symbol entries[c] or, if
    that is None (a star), drawn from the marginal.  A (T, s^n) stack gives
    (T, cells), one matrix-vector product per table as for a lone table."""
    G, _, F = _cell_view(values, n, s, J)
    return G @ _kron(marginal.probs if entries[c] is None
                     else np.eye(s)[entries[c]] for c in F)


def _indicators(f: "FunctionTable") -> np.ndarray:
    """The (s, s^n) stack of the events f(x) = sigma, symbol-major."""
    return (f.values == np.arange(f.s)[:, None]).astype(np.float64)


def _orthonormal_basis(probs: np.ndarray) -> np.ndarray:
    """Rows e_0 = 1, e_1, ..., orthonormal under the weighted inner product
    of full-support probs.  Binary measures get e_1(x) = (x - p) /
    sqrt(p (1 - p)) exactly."""
    s = probs.size
    if s == 2:
        p = float(probs[1])
        sigma = np.sqrt(p * (1.0 - p))
        return np.array([[1.0, 1.0], [(0.0 - p) / sigma, (1.0 - p) / sigma]])
    # complete sqrt(nu) to an orthonormal basis of R^s, then unweight
    root = np.sqrt(probs)
    mat = np.eye(s)
    mat[:, 0] = root
    q, _ = np.linalg.qr(mat)
    if q[0, 0] * root[0] < 0:
        q = -q
    basis = q.T / root[np.newaxis, :]
    basis[0] = 1.0
    return basis


class _Frozen:
    """Base of the immutable value types: _freeze sets every slot once, in
    slot order, and later writes or deletes raise AttributeError.  Each
    subclass rebuilds through its constructor in __reduce__, so pickle and
    copy run its checks again."""

    __slots__ = ()

    def _freeze(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Measure(_Frozen):
    """A probability distribution on a single coordinate alphabet.

    Immutable: it keeps a read-only copy of probs and builds once, when
    every symbol has positive mass, the orthonormal basis (rows e_0 = 1,
    e_1, ...) and the forward matrix basis * probs that takes values
    along a coordinate to coefficients; both are None otherwise."""

    __slots__ = ("probs", "s", "full_support", "basis", "forward")

    def __init__(self, probs: Sequence[float]):
        arr = np.array(probs, dtype=np.float64)  # a copy the caller cannot edit
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError("measure needs at least two symbols")
        if not np.all(arr >= 0):
            raise ValidationError("measure has a negative or NaN weight")
        if abs(float(arr.sum()) - 1.0) > NORM_TOL:
            raise ValidationError(
                f"measure not normalized: sum = {float(arr.sum())!r}")
        full = bool(np.all(arr > 0))
        basis = _orthonormal_basis(arr) if full else None
        forward = basis * arr[np.newaxis, :] if full else None
        for a in (arr, basis, forward):
            if a is not None:
                a.flags.writeable = False
        self._freeze(arr, arr.size, full, basis, forward)

    def __reduce__(self):
        return Measure, (self.probs,)

    @classmethod
    def uniform(cls, s: int) -> "Measure":
        return cls(np.full(_integer(s, "alphabet size"), 1.0 / s))

    @classmethod
    def bernoulli(cls, p: float) -> "Measure":
        """Binary measure with Pr[1] = p."""
        return cls([1.0 - p, p])

    def __eq__(self, other):
        return isinstance(other, Measure) and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        return f"Measure({self.probs.tolist()})"


class ProductMeasure(_Frozen):
    """An independent product of per-coordinate measures.  Immutable; its
    dense weight vector is built on first use and is read-only."""

    __slots__ = ("measures", "n", "s", "full_support", "_weights")

    def __init__(self, measures: Sequence[Measure]):
        measures = tuple(measures)
        if not measures:
            raise ValidationError("empty product measure")
        if not all(isinstance(m, Measure) and m.s == measures[0].s
                   for m in measures):
            raise ValidationError("product measure needs Measure entries on "
                                  "one alphabet")
        self._freeze(measures, len(measures), measures[0].s,
                     all(m.full_support for m in measures), None)

    def __reduce__(self):
        return ProductMeasure, (self.measures,)

    @classmethod
    def iid(cls, measure: Measure, n: int) -> "ProductMeasure":
        return cls([measure] * _integer(n, "n"))

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
        """Dense read-only weight vector of length s^n in point-index order."""
        if self._weights is None:
            w = _kron([m.probs for m in self.measures])
            w.flags.writeable = False
            object.__setattr__(self, "_weights", w)
        return self._weights

    def subset(self, coords: Iterable[int]) -> "ProductMeasure":
        """Product of the marginals at the given coordinates, in given order."""
        return ProductMeasure([self.measures[i]
                               for i in _coordinates(coords, self.n)])

    def __eq__(self, other):
        return (isinstance(other, ProductMeasure)
                and self.measures == other.measures)


def _integer(v, what: str) -> int:
    """v as an int; a float such as 0.5 or NaN raises, as does anything
    else that is not an integer (numpy integers and bools are)."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError(f"{what} {v!r} is not an integer") from None


def _coordinates(coords, n: int) -> list:
    """coords as ints, in the given order with any repeats, by the integer
    rule of _integer; one outside range(n) raises DomainError."""
    out = [_integer(i, "coordinate") for i in coords]
    for i in out:
        if not 0 <= i < n:
            raise DomainError(f"coordinate {i} outside range(0, {n})")
    return out


def _symbol(v, s: int) -> int:
    """v as an int in range(s), by the integer rule of _integer."""
    k = _integer(v, "symbol")
    if not 0 <= k < s:
        raise DomainError(f"symbol {v} outside alphabet of size {s}")
    return k


class PartialAssignment(_Frozen):
    """A point of (Sigma union {*})^n; None marks a free coordinate."""

    __slots__ = ("entries", "s")

    def __init__(self, entries: Sequence[int | None], s: int = 2):
        self._freeze(tuple(None if v is None else _symbol(v, s)
                           for v in entries), s)

    def __reduce__(self):
        return PartialAssignment, (self.entries, self.s)

    @classmethod
    def from_dict(cls, n: int, fixed: dict[int, int], s: int = 2) -> "PartialAssignment":
        n = _integer(n, "n")
        entries: list[int | None] = [None] * n
        for k, v in zip(_coordinates(fixed, n), fixed.values()):
            entries[k] = v
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


class FunctionTable(_Frozen):
    """A dense table for f: Sigma^n -> codomain.  Immutable; values is a
    read-only copy of the entries."""

    __slots__ = ("n", "s", "codomain", "values")

    def __init__(self, n: int, s: int, codomain: str, values):
        if codomain not in CODOMAINS:
            raise ValidationError(f"unknown codomain {codomain!r}")
        n, s = _check_size(n, s)
        if codomain != "real" and s > SYMBOL_CAP:
            raise ResourceError(f"{codomain} table alphabet {s} exceeds cap "
                                f"{SYMBOL_CAP} of its uint8 entries")
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
        if codomain != "real" and raw.dtype.kind not in "biu" \
                and np.any(raw % 1 != 0):
            raise DomainError(f"{codomain} table contains non-integral entries")
        # a read-only copy, so no later write, by the caller or through
        # values, bypasses the checks above
        arr = raw.astype(np.float64 if codomain == "real" else np.uint8)
        arr.flags.writeable = False
        self._freeze(n, s, codomain, arr)

    def eval(self, x: Sequence[int]):
        if len(x) != self.n:
            raise DomainError(f"point has {len(x)} coordinates, expected {self.n}")
        point = [_symbol(v, self.s) for v in x]
        v = self.values[encode_point(point, self.s)]
        return float(v) if self.codomain == "real" else int(v)

    def restrict(self, assignment: PartialAssignment) -> "FunctionTable":
        """Sub-table on the free coordinates, reindexed in increasing order."""
        if assignment.n != self.n:
            raise DomainError("assignment length mismatch")
        if not assignment.free:
            raise DomainError("restriction fixes every coordinate")
        # axis 0 of the reshaped table holds coordinate n - 1
        key = tuple(slice(None) if v is None else v
                    for v in reversed(assignment.entries))
        sub = self.values.reshape((self.s,) * self.n)[key].ravel()
        return FunctionTable(len(assignment.free), self.s, self.codomain, sub)

    def as_real(self) -> np.ndarray:
        return self.values.astype(np.float64)

    def equals(self, other: "FunctionTable") -> bool:
        return (self.n == other.n and self.s == other.s
                and self.codomain == other.codomain
                and np.array_equal(self.values, other.values))

    def __reduce__(self):
        # copies and pickles rebuild through the checks and the read-only copy
        return FunctionTable, (self.n, self.s, self.codomain, self.values)

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
    _check_size(n, s)
    # no dtype here: the table's own range check runs before its cast
    return FunctionTable(n, s, codomain, np.full(s ** n, value))


def dictator(n: int, i: int, s: int = 2) -> FunctionTable:
    """f(x) = x_i."""
    i, = _coordinates([i], n)
    return FunctionTable(n, s, "bit" if s == 2 else "sym", _digits(n, s)[i])


def character(n: int, support: Iterable[int], offset: int = 0) -> FunctionTable:
    """Binary character: offset xor (xor of x_i over the support).  A
    repeated coordinate raises ValidationError, as x_i xor x_i is the
    constant 0 and not x_i."""
    supp = _coordinates(support, n)
    if len(set(supp)) != len(supp):
        raise ValidationError("character support repeats a coordinate")
    digits = _digits(n, 2)
    vals = np.full(1 << n, _integer(offset, "offset") & 1, dtype=np.uint8)
    for i in supp:
        vals ^= digits[i]
    return FunctionTable(n, 2, "bit", vals)


def and_all(n: int) -> FunctionTable:
    _check_size(n, 2)
    vals = np.zeros(1 << n, dtype=np.uint8)
    vals[-1] = 1
    return FunctionTable(n, 2, "bit", vals)


def or_all(n: int) -> FunctionTable:
    _check_size(n, 2)
    vals = np.ones(1 << n, dtype=np.uint8)
    vals[0] = 0
    return FunctionTable(n, 2, "bit", vals)


def junta(n: int, coords: Sequence[int], table: FunctionTable | Sequence[int],
          s: int = 2, codomain: str = "bit") -> FunctionTable:
    """Lift a table on |coords| coordinates to Sigma^n, reading coords in order."""
    coords = _coordinates(coords, n)
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
    return FunctionTable(n, s, codomain, inner[_digit_index(n, s, coords)])


def hybrid(n: int) -> FunctionTable:
    """x1 and x2 on points of weight <= 0.6*n, x1 or x2 above."""
    if n < 2:
        raise ValidationError("hybrid needs n >= 2")
    x = _digits(n, 2)
    low = x.sum(axis=0, dtype=np.int64) <= 0.6 * n
    return FunctionTable(n, 2, "bit", np.where(low, x[0] & x[1], x[0] | x[1]))


# -- metrics -----------------------------------------------------------------

def _tables(fs, m=None, s=None, codomains=CODOMAINS) -> tuple:
    """(n, s) of a list or tuple of FunctionTable on one Sigma^n, of m
    tables over s symbols where given: the gate of every table argument.
    A codomain outside codomains raises UnsupportedError, any other
    mismatch DomainError."""
    if not (isinstance(fs, (list, tuple)) and fs
            and all(isinstance(f, FunctionTable) for f in fs)):
        raise DomainError("need a nonempty list or tuple of FunctionTable")
    n, s = fs[0].n, fs[0].s if s is None else s
    if len(fs) != (m or len(fs)) or any((f.n, f.s) != (n, s) for f in fs):
        raise DomainError(f"need {m or len(fs)} functions on {s}^{n}, got "
                          f"{', '.join(f'{f.s}^{f.n}' for f in fs)}")
    if any(f.codomain not in codomains for f in fs):
        raise UnsupportedError(f"only {', '.join(codomains)} tables are "
                               f"supported here, got {[f.codomain for f in fs]}")
    return n, s


def _measure(nu, n: int, s: int) -> None:
    """The gate of every product-measure argument."""
    if not isinstance(nu, ProductMeasure) or (nu.n, nu.s) != (n, s):
        raise DomainError(f"measure must be a ProductMeasure on {s}^{n}")


def distance(f: FunctionTable, g: FunctionTable, nu: ProductMeasure) -> float:
    """Pr_nu[f != g] for discrete codomains, E_nu|f - g| when either is real."""
    _measure(nu, *_tables([f, g]))
    w = nu.weights()
    if f.codomain == "real" or g.codomain == "real":
        return float(np.dot(w, np.abs(f.as_real() - g.as_real())))
    return float(np.dot(w, (f.values != g.values).astype(np.float64)))


def expectation(f: FunctionTable, nu: ProductMeasure) -> float:
    _measure(nu, *_tables([f]))
    return float(np.dot(nu.weights(), f.as_real()))


def _once_per_table(fn, fs, measures) -> list:
    """fn(f, nu) at every position; a position whose table is the same
    object as an earlier position's, under an equal measure, reuses that
    result."""
    out = []
    for i, (f, nu) in enumerate(zip(fs, measures)):
        k = next((k for k in range(i) if fs[k] is f
                  and measures[k].measures == nu.measures), i)
        out.append(fn(f, nu) if k == i else out[k])
    return out


# -- text file format --------------------------------------------------------

def parse_numbers(tokens: Sequence[str], kind, where: str) -> list:
    """Convert every token with kind (int, float or Fraction).  A token that
    does not convert, a non-finite float, or a Fraction whose exponent is
    past FRACTION_EXP_CAP raises ValidationError naming where; Fraction
    would compute 10 ** exponent first, for minutes on a huge one."""
    try:
        if kind is Fraction and any(
                abs(int(e)) > FRACTION_EXP_CAP
                for t in tokens for e in re.findall(r"[eE]([-+]?[\d_]+)", t)):
            raise ValueError("exponent out of range")
        out = [kind(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    if kind is float and not all(map(math.isfinite, out)):
        raise ValidationError(f"{where}: numbers must be finite")
    return out


def parse_coordinates(tokens: Sequence[str], n: int, where: str) -> list:
    """1-based coordinate tokens as 0-based indices.  A coordinate outside
    1..n raises DomainError and a repeated one ValidationError, each naming
    the token as written."""
    coords = []
    for tok, i in zip(tokens, parse_numbers(tokens, int, where)):
        if not 1 <= i <= n:
            raise DomainError(f"{where}: coordinate {tok.strip()} outside "
                              f"1..{n}")
        if i - 1 in coords:
            raise ValidationError(f"{where}: coordinate {tok.strip()} repeats")
        coords.append(i - 1)
    return coords


def read_fields(tokens: Iterable[str], types: dict, where: str,
                required: Sequence[str] = ()) -> dict:
    """The key=value tokenizer shared by every text format.

    Each token splits at its first '='; key and value are stripped and a
    later key overrides an earlier one.  types names every key the tokens
    may carry, each with the kind parse_numbers converts its value by (str
    keeps it as written).  A token without '=', a key that types does not
    name, or a missing required key raises ValidationError naming where.
    """
    out = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ValidationError(f"{where}: expected key=value, got {tok!r}")
        key = key.strip()
        if key not in types:
            raise ValidationError(f"{where}: unknown key {key!r}")
        out[key] = parse_numbers([value.strip()], types[key],
                                 f"{where}: {key}")[0]
    missing = [k for k in required if k not in out]
    if missing:
        raise ValidationError(f"{where}: missing {', '.join(missing)}")
    return out


def text_lines(text: str) -> list[str]:
    """The line scanner shared by every text format: each line is cut at
    its first '#', as a comment runs to the end of its line, and stripped;
    lines left empty are dropped."""
    lines = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
    return [ln for ln in lines if ln]


def read_header(lines: Sequence[str], word: str, types: dict) -> dict:
    """The header of a text format: the first line's first token is word,
    and its other tokens carry every key of types (see read_fields)."""
    head = lines[0].split() if lines else []
    if head[:1] != [word]:
        raise ValidationError(f"{word} file needs a {word!r} header")
    return read_fields(head[1:], types, f"{word} header",
                       required=tuple(types))


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
    Line 2, the last: either ``table <entries...>`` or one constructor of
    ``char S=1,2 b=0``, ``dictator i=3``, ``hybrid``, ``and``, ``or``,
    ``const v``.  Constructor coordinates are 1-based.
    """
    lines = text_lines(text)
    head = read_header(lines, "fn", {"n": int, "sigma": int, "codomain": str})
    if len(lines) != 2:
        raise ValidationError("function file needs one body line after its "
                              "header")
    n, s, codomain = head["n"], head["sigma"], head["codomain"]
    word, *rest = lines[1].split()
    kind = float if codomain == "real" else int
    if word == "table":
        f = FunctionTable(n, s, codomain, parse_numbers(rest, kind, "table"))
    elif word == "char":
        opts = read_fields(rest, {"S": str, "b": int}, "char")
        supp = parse_coordinates(opts["S"].split(","), n, "char S") \
            if opts.get("S") else []
        f = character(n, supp, opts.get("b", 0))
    elif word == "dictator":
        opts = read_fields(rest, {"i": str}, "dictator", required=("i",))
        f = dictator(n, parse_coordinates([opts["i"]], n, "dictator i")[0], s)
    elif word in ("hybrid", "and", "or"):
        read_fields(rest, {}, word)  # these take no fields
        f = {"hybrid": hybrid, "and": and_all, "or": or_all}[word](n)
    elif word == "const":
        if len(rest) != 1:
            raise ValidationError("const needs exactly one value")
        f = constant(n, parse_numbers(rest, kind, "const")[0], s, codomain)
    else:
        raise ValidationError(f"unknown function body line: {lines[1]!r}")
    # a constructor builds its own alphabet and codomain; the header must
    # name the ones it built
    if (f.s, f.codomain) != (s, codomain):
        raise ValidationError(
            f"fn header says sigma={s} codomain={codomain}, but {word!r} "
            f"builds sigma={f.s} codomain={f.codomain}")
    return f


def load_function(path) -> FunctionTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_function(fh.read())


def save_function(path, f: FunctionTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_function(f))
