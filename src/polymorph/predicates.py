"""Predicates on Sigma^m with full-support distributions, and star laws.

A predicate P is a nonempty subset of Sigma^m carrying a distribution mu
that is strictly positive exactly on the members.  Weights are kept as
exact rationals (floats are converted losslessly and the total is
renormalized to one), so star-law bookkeeping is exact whenever the
inputs are rational.

A star law nu is a distribution over P together with star patterns
w_(j,*): drawing a pattern and replacing a star at coordinate j by a
symbol drawn from the marginal mu|_j reproduces mu exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DomainError, ResourceError, UnsupportedError,
                     ValidationError)
from .funcspace import (SYMBOL_CAP, Measure, _coordinates, _Frozen,
                        _integer, parse_numbers, read_fields, read_header,
                        text_lines)

RELATION_M_CAP = 16


def _to_fraction(w) -> Fraction:
    if isinstance(w, str):  # as in the .pred format: exponent capped
        return parse_numbers([w], Fraction, f"weight {w!r}")[0]
    if isinstance(w, (Fraction, int, float)):
        try:
            return Fraction(w)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValidationError(f"cannot read weight {w!r}")


class Predicate(_Frozen):
    """A weighted predicate: members of Sigma^m with positive rational
    weights.  Immutable; its O(|P| m) numeric views are built once, but no
    table over Sigma^m, which m = 40 could not hold."""

    __slots__ = ("m", "s", "members", "weights", "member_array",
                 "float_weights", "_marginals", "_measures", "_index")

    def __init__(self, m: int, s: int, members, weights=None):
        m, s = _integer(m, "arity m"), _integer(s, "alphabet size s")
        if m < 1 or s < 2:
            raise ValidationError("need m >= 1 coordinates and s >= 2 symbols")
        if s > SYMBOL_CAP:  # no symbol table holds it; marginals are m x s
            raise ResourceError(f"predicate alphabet {s} exceeds cap "
                                f"{SYMBOL_CAP} of symbol tables")
        members = tuple(tuple(_integer(v, "symbol") for v in w)
                        for w in members)
        if not members:
            raise ValidationError("empty predicate")
        if len(set(members)) != len(members):
            raise ValidationError("repeated member tuples")
        for w in members:
            if len(w) != m:
                raise ValidationError(f"member {w} has wrong arity")
            if any(not (0 <= v < s) for v in w):
                raise DomainError(f"member {w} uses symbols outside range({s})")
        if weights is None:
            weights = [Fraction(1, len(members))] * len(members)
        weights = [_to_fraction(w) for w in weights]
        if len(weights) != len(members):
            raise ValidationError("need one weight per member")
        # above 1 the sum check fails anyway, and float(total) could overflow
        if any(not 0 < w <= 1 for w in weights):
            raise ValidationError("member weights must lie in (0, 1]")
        total = sum(weights)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {float(total)}, not 1")
        weights = tuple(w / total for w in weights)
        marginals = [[Fraction(0)] * s for _ in range(m)]
        for w, p in zip(members, weights):
            for marg, v in zip(marginals, w):
                marg[v] += p
        measures = tuple(Measure([float(p) for p in marg])
                         for marg in marginals)
        member_array = np.array(members, dtype=np.int64)
        float_weights = np.array([float(p) for p in weights])
        for arr in (member_array, float_weights):
            arr.flags.writeable = False
        self._freeze(m, s, members, weights, member_array, float_weights,
                     tuple(map(tuple, marginals)), measures,
                     {w: i for i, w in enumerate(members)})

    def __reduce__(self):
        return Predicate, (self.m, self.s, self.members, self.weights)

    # -- basic queries -------------------------------------------------------

    def __contains__(self, w) -> bool:
        return tuple(w) in self._index

    def __len__(self) -> int:
        return len(self.members)

    def weight(self, w) -> Fraction:
        i = self._index.get(tuple(w))
        return self.weights[i] if i is not None else Fraction(0)

    @property
    def min_weight(self) -> Fraction:
        return min(self.weights)

    def marginal(self, j: int) -> list[Fraction]:
        """Distribution of w_j, one entry per symbol (exact)."""
        j, = _coordinates([j], self.m)
        return list(self._marginals[j])

    def marginal_measure(self, j: int) -> Measure:
        """mu|_j as a shared Measure with read-only probs."""
        j, = _coordinates([j], self.m)
        return self._measures[j]

    def project(self, I) -> "Predicate":
        """Pushforward onto the coordinates in I, in increasing order."""
        I = sorted(set(_coordinates(I, self.m)))
        if not I:
            raise DomainError("projection needs at least one coordinate")
        acc: dict[tuple, Fraction] = {}
        for w, p in zip(self.members, self.weights):
            key = tuple(w[j] for j in I)
            acc[key] = acc.get(key, Fraction(0)) + p
        members = sorted(acc)
        return Predicate(len(I), self.s, members, [acc[w] for w in members])

    def __repr__(self):
        return f"Predicate(m={self.m}, s={self.s}, |P|={len(self.members)})"


def _predicate(P) -> None:
    """The gate of every predicate argument of the checks and pipelines."""
    if not isinstance(P, Predicate):
        raise DomainError(f"need a Predicate, got {type(P).__name__}")


@dataclass(frozen=True, slots=True)
class ValidationReport:
    m: int
    s: int
    size: int
    min_weight: float
    marginals: tuple
    degenerate_coordinates: tuple


def validate(P: Predicate) -> ValidationReport:
    """Report the marginals P stores and the degenerate coordinates."""
    margs = tuple(tuple(float(p) for p in P.marginal(j)) for j in range(P.m))
    degenerate = tuple(j for j in range(P.m)
                       if sum(1 for p in P.marginal(j) if p > 0) == 1)
    return ValidationReport(P.m, P.s, len(P), float(P.min_weight),
                            margs, degenerate)


# -- standard constructions --------------------------------------------------

def nand_predicate(m: int, weights=None) -> Predicate:
    """All binary tuples except all-ones."""
    members = [w for w in itertools.product((0, 1), repeat=m)
               if any(v == 0 for v in w)]
    return Predicate(m, 2, sorted(members), weights)


def parity_predicate(m: int, b: int = 0, weights=None) -> Predicate:
    """Binary tuples of fixed parity b."""
    members = [w for w in itertools.product((0, 1), repeat=m)
               if sum(w) % 2 == b]
    return Predicate(m, 2, sorted(members), weights)


def nae_predicate(m: int = 3, weights=None) -> Predicate:
    """Not-all-equal binary tuples."""
    members = [w for w in itertools.product((0, 1), repeat=m)
               if len(set(w)) > 1]
    return Predicate(m, 2, sorted(members), weights)


def full_predicate(m: int, s: int = 2, weights=None) -> Predicate:
    members = sorted(itertools.product(range(s), repeat=m))
    return Predicate(m, s, members, weights)


def exclude_point_predicate(m: int, s: int, point, weights=None) -> Predicate:
    """All of Sigma^m except one point."""
    point = tuple(point)
    members = sorted(w for w in itertools.product(range(s), repeat=m)
                     if w != point)
    return Predicate(m, s, members, weights)


def functional_predicate(inner, weights=None) -> Predicate:
    """Graph predicate {(x, f(x))} of a binary table f on m-1 coordinates."""
    k = inner.n
    members = []
    for w in itertools.product((0, 1), repeat=k):
        members.append(w + (inner.eval(w),))
    return Predicate(k + 1, 2, sorted(members), weights)


def one_hot_predicate(m: int, weights=None) -> Predicate:
    """Tuples with exactly one coordinate equal to one."""
    members = sorted(tuple(1 if i == j else 0 for i in range(m))
                     for j in range(m))
    return Predicate(m, 2, members, weights)


# -- affine relations and coordinate structure -------------------------------

def affine_relations(P: Predicate) -> list[tuple[frozenset, int]]:
    """All (S, b) with xor of w_j over S equal to b for every member.

    Binary predicates only; results sorted by (|S|, sorted support).
    """
    if P.s != 2:
        raise UnsupportedError("affine relations are defined for binary alphabets")
    if P.m > RELATION_M_CAP:
        raise ResourceError(f"m = {P.m} exceeds relation cap {RELATION_M_CAP}")
    out = []
    for r in range(1, P.m + 1):
        for S in itertools.combinations(range(P.m), r):
            acc = {sum(w[j] for j in S) % 2 for w in P.members}
            if len(acc) == 1:
                out.append((frozenset(S), acc.pop()))
    out.sort(key=lambda t: (len(t[0]), tuple(sorted(t[0]))))
    return out


@dataclass(frozen=True, slots=True)
class ShortRelationClassification:
    """Size-1 and size-2 affine relations, reduced to representatives.

    constants: coordinate -> its constant value.
    classes: representative -> {coordinate: negation bit} (rep maps to 0).
    representatives: sorted non-constant class representatives; the
    projection of P onto them has no affine relation of size < 3.
    """

    constants: dict
    classes: dict
    representatives: tuple


def classify_short_relations(P: Predicate) -> ShortRelationClassification:
    if P.s != 2:
        raise UnsupportedError("short relations are defined for binary alphabets")
    constants = {}
    for j in range(P.m):
        vals = {w[j] for w in P.members}
        if len(vals) == 1:
            constants[j] = vals.pop()
    rest = [j for j in range(P.m) if j not in constants]
    classes: dict[int, dict[int, int]] = {}
    assigned: dict[int, tuple[int, int]] = {}
    for j in rest:
        if j in assigned:
            continue
        classes[j] = {j: 0}
        assigned[j] = (j, 0)
        for k in rest:
            if k <= j or k in assigned:
                continue
            diffs = {(w[j] ^ w[k]) for w in P.members}
            if len(diffs) == 1:
                neg = diffs.pop()
                classes[j][k] = neg
                assigned[k] = (j, neg)
    reps = tuple(sorted(classes))
    return ShortRelationClassification(constants, classes, reps)


@dataclass(frozen=True, slots=True)
class FlexibleCoordinate:
    coordinate: int
    flexible: bool
    witnesses: tuple | None  # witnesses[sigma] = member with j <- sigma


def flexible_coordinates(P: Predicate) -> list[FlexibleCoordinate]:
    """Coordinate j is flexible when some member stays in P under every
    substitution at j.  The reported witness base is the lexicographically
    least such member normalized to have 0 at j."""
    out = []
    for j in range(P.m):
        found = None
        # the first valid base in sorted order necessarily has 0 at j,
        # because replacing w_j by 0 in a valid base stays valid and
        # only moves it earlier lexicographically
        for w in sorted(P.members):
            if all((w[:j] + (sigma,) + w[j + 1:]) in P for sigma in range(P.s)):
                found = tuple(w[:j] + (sigma,) + w[j + 1:]
                              for sigma in range(P.s))
                break
        out.append(FlexibleCoordinate(j, found is not None, found))
    return out


def maxterms(P: Predicate) -> list[frozenset]:
    """Supports of the minimal excluded points of a monotone binary predicate."""
    if P.s != 2:
        raise UnsupportedError("maxterms are defined for binary alphabets")
    for w in P.members:
        for j in range(P.m):
            if w[j] == 1 and (w[:j] + (0,) + w[j + 1:]) not in P:
                raise ValidationError(
                    f"predicate is not monotone: {w} in P but not its "
                    f"lowering at coordinate {j}")
    out = []
    for x in itertools.product((0, 1), repeat=P.m):
        if x in P:
            continue
        lowers_ok = all(
            (x[:j] + (0,) + x[j + 1:]) in P
            for j in range(P.m) if x[j] == 1)
        if lowers_ok and any(x):
            out.append(frozenset(j for j in range(P.m) if x[j] == 1))
    out.sort(key=lambda S: (len(S), tuple(sorted(S))))
    return out


# -- star laws ----------------------------------------------------------------

STAR = None  # star marker inside patterns


@dataclass(frozen=True, slots=True)
class StarLaw:
    """A distribution over members of P plus one star pattern per flexible j."""

    predicate: Predicate
    q: Fraction
    patterns: tuple         # tuples over Sigma union {None}
    probs: tuple            # exact Fractions, sum to one
    star_coords: tuple      # None for members, j for star at j

    def __post_init__(self):
        total = sum(self.probs)
        if total != 1:
            raise ValidationError(f"star-law probabilities sum to {total}")

    def compose(self) -> dict:
        """Exact pushforward after substituting each star from mu|_j."""
        out: dict[tuple, Fraction] = {}
        for pat, prob, j in zip(self.patterns, self.probs, self.star_coords):
            if prob == 0:
                continue
            if j is None:
                out[pat] = out.get(pat, Fraction(0)) + prob
            else:
                marg = self.predicate.marginal(j)
                for sigma in range(self.predicate.s):
                    if marg[sigma] == 0:
                        continue
                    w = pat[:j] + (sigma,) + pat[j + 1:]
                    out[w] = out.get(w, Fraction(0)) + prob * marg[sigma]
        return out

    def sample_indices(self, rng, size: int) -> np.ndarray:
        return rng.choice(len(self.patterns), size=size,
                          p=np.array([float(p) for p in self.probs]))

    def __repr__(self):
        stars = sum(1 for j in self.star_coords if j is not None)
        return f"StarLaw(|patterns|={len(self.patterns)}, stars={stars}, q={self.q})"


def star_law(P: Predicate, q=None) -> StarLaw:
    """Build the star law with per-coordinate star mass q.

    A star pattern sits at every flexible coordinate, on the
    lexicographically least witness base.  Default q is min-weight(P) / m.
    A negative residual probability names the offending pattern.
    """
    if q is None:
        q = P.min_weight / P.m
    q = _to_fraction(q)
    if q < 0:
        raise ValidationError("q must be nonnegative")
    bases = {fc.coordinate: fc.witnesses
             for fc in flexible_coordinates(P) if fc.flexible}

    deductions: dict[tuple, Fraction] = {}
    for j, witnesses in bases.items():
        marg = P.marginal(j)
        for sigma in range(P.s):
            w = witnesses[sigma]
            deductions[w] = deductions.get(w, Fraction(0)) + q * marg[sigma]

    patterns, probs, star_coords = [], [], []
    for w, p in zip(P.members, P.weights):
        residual = p - deductions.get(w, Fraction(0))
        if residual < 0:
            raise ValidationError(
                f"q = {q} is too large: member pattern {w} would get "
                f"probability {residual}")
        patterns.append(w)
        probs.append(residual)
        star_coords.append(None)
    for j in sorted(bases):
        base = bases[j][0]
        pat = base[:j] + (STAR,) + base[j + 1:]
        patterns.append(pat)
        probs.append(q)
        star_coords.append(j)
    return StarLaw(P, q, tuple(patterns), tuple(probs), tuple(star_coords))


# -- text file format ----------------------------------------------------------

def _format_weight(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def format_predicate(P: Predicate) -> str:
    lines = [f"pred m={P.m} sigma={P.s}"]
    for w, p in zip(P.members, P.weights):
        lines.append(f"w={''.join(map(str, w))} p={_format_weight(p)}")
    return "\n".join(lines) + "\n"


def parse_predicate(text: str) -> Predicate:
    """Parse: header ``pred m=<m> sigma=<s>``, then ``w=<digits> p=<weight>``
    lines; weights may be decimals or rationals like ``1/3``."""
    lines = text_lines(text)
    head = read_header(lines, "pred", {"m": int, "sigma": int})
    if head["sigma"] > 10:
        raise UnsupportedError("digit-string members support sigma <= 10")
    members, weights = [], []
    for ln in lines[1:]:
        where = f"member line {ln!r}"
        fields = read_fields(ln.split(), {"w": str, "p": Fraction}, where,
                             required=("w", "p"))
        members.append(parse_numbers(list(fields["w"]), int, where))
        weights.append(fields["p"])
    return Predicate(head["m"], head["sigma"], members, weights)


def load_predicate(path) -> Predicate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_predicate(fh.read())


def save_predicate(path, P: Predicate) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_predicate(P))
