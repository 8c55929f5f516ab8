"""Violation oracles for generalized polymorphisms, exact and Monte Carlo.

A column tuple draws one member of P per input coordinate; function j reads
row j of the columns.  The violation probability is the mu^n-mass of column
tuples whose output tuple leaves P.  Two exact engines are provided: an
odometer scan over all |P|^n column tuples, and a coordinate-by-coordinate
tensor contraction whose state is indexed by the joint inputs of functions
2..m (feasible when s^((m-1) n) is small).  Both produce the full joint
output distribution; they are cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedError
from .funcspace import (FunctionTable, PartialAssignment, ProductMeasure,
                        decode_point, encode_point)
from .predicates import Predicate, StarLaw

ODOMETER_CAP = 1 << 24
CONTRACTION_CAP = 1 << 22
CHUNK = 1 << 16
WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class Counterexample:
    """Concrete violating inputs: columns are members, outputs leave P."""

    inputs: tuple          # m input vectors, one per function
    outputs: tuple

    @classmethod
    def from_columns(cls, fs, columns) -> "Counterexample":
        """Function j reads row j of the columns; outputs are unchecked."""
        inputs = tuple(tuple(c[j] for c in columns) for j in range(len(fs)))
        return cls(inputs=inputs,
                   outputs=tuple(f.eval(x) for f, x in zip(fs, inputs)))

    def columns(self) -> list[tuple]:
        n = len(self.inputs[0])
        return [tuple(x[i] for x in self.inputs) for i in range(n)]


@dataclass(frozen=True)
class ViolationReport:
    probability: float
    method: str
    samples: int | None = None
    half_width: float | None = None
    interval: tuple | None = None
    counterexample: Counterexample | None = None


def _check_functions(P: Predicate, fs) -> tuple[int, int]:
    if len(fs) != P.m:
        raise DomainError(f"predicate has m={P.m}, got {len(fs)} functions")
    n = fs[0].n
    for f in fs:
        if f.n != n:
            raise DomainError("functions disagree on n")
        if f.s != P.s:
            raise DomainError("function alphabet does not match predicate")
        if f.codomain == "real":
            raise UnsupportedError("membership tests need discrete outputs")
    return n, P.s


def _member_array(P: Predicate) -> np.ndarray:
    return np.array(P.members, dtype=np.int64)


def _member_table(P: Predicate) -> np.ndarray:
    table = np.zeros(P.s ** P.m, dtype=bool)
    for w in P.members:
        table[encode_point(w, P.s)] = True
    return table


def evaluate_columns(fs, columns) -> tuple:
    """Outputs of the functions on explicit columns (one member per coordinate)."""
    return Counterexample.from_columns(fs, columns).outputs


# -- exact engines -------------------------------------------------------------

def joint_output_distribution(P: Predicate, fs, cap: int = ODOMETER_CAP):
    """Exact joint law of the output tuple, by scanning all |P|^n columns.

    Returns (Q, first_violating_code): Q is indexed by output code
    (coordinate 0 least significant), the code is the first column-tuple
    index whose outputs leave P, or None.
    """
    n, s = _check_functions(P, fs)
    K = len(P)
    total = K ** n
    if total > cap:
        raise ResourceError(
            f"|P|^n = {K}^{n} exceeds cap {cap}; use violation_mc or the "
            f"contraction engine")
    memb = _member_array(P)
    muvec = np.array([float(w) for w in P.weights])
    in_p = _member_table(P)
    powers = s ** np.arange(n, dtype=np.int64)
    values = [f.values for f in fs]
    Q_chunks = []
    first_bad = None
    Q = np.zeros(s ** P.m)
    for lo in range(0, total, CHUNK):
        hi = min(lo + CHUNK, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        w = np.ones(hi - lo)
        X = np.zeros((P.m, hi - lo), dtype=np.int64)
        rem = codes.copy()
        for i in range(n):
            d = rem % K
            rem //= K
            w *= muvec[d]
            for j in range(P.m):
                X[j] += memb[d, j] * powers[i]
        out_code = np.zeros(hi - lo, dtype=np.int64)
        for j in range(P.m):
            out_code += values[j][X[j]].astype(np.int64) * s ** j
        np.add.at(Q, out_code, w)
        if first_bad is None:
            bad = np.nonzero(~in_p[out_code])[0]
            if bad.size:
                first_bad = int(codes[bad[0]])
        Q_chunks.append(float(w.sum()))
    mass = math.fsum(Q_chunks)
    if abs(mass - 1.0) > 1e-9:
        raise ResourceError(f"enumeration mass drifted to {mass}")
    return Q, first_bad


@lru_cache(maxsize=32)
def _others_indices(n: int, s: int, m: int) -> tuple:
    """Input index of each function j >= 1 as a function of the joint prefix."""
    t = s ** (m - 1)
    size = t ** n
    idx = np.arange(size, dtype=np.int64)
    out = []
    for j in range(1, m):
        xj = np.zeros(size, dtype=np.int64)
        for i in range(n):
            e = (idx // t ** i) % t
            xj += ((e // s ** (j - 1)) % s) * s ** i
        out.append(xj)
    return tuple(out)


def _contract(P: Predicate, fs, weights, dtype, combine, cap: int):
    n, s = _check_functions(P, fs)
    m = P.m
    t = s ** (m - 1)
    if t ** n > cap:
        raise ResourceError(
            f"contraction state {s}^{(m - 1) * n} exceeds cap {cap}")
    C = np.zeros((s ** n, 1, s), dtype=dtype)
    C[np.arange(s ** n), 0, fs[0].values.astype(np.int64)] = 1
    T = 1
    others = [encode_point(w[1:], s) for w in P.members]
    for _ in range(n):
        R = C.shape[0]
        Cv = C.reshape(R // s, s, T, s)
        C2 = np.zeros((R // s, t, T, s), dtype=dtype)
        for w, e, weight in zip(P.members, others, weights):
            combine(C2[:, e], Cv[:, w[0]], weight)
        T *= t
        C = C2.reshape(R // s, T, s)
    A = C.reshape(T, s)
    base = np.zeros(T, dtype=np.int64)
    for j, xj in enumerate(_others_indices(n, s, m), start=1):
        base += fs[j].values[xj].astype(np.int64) * s ** j
    Q = np.zeros(s ** m, dtype=dtype)
    for a0 in range(s):
        np.add.at(Q, base + a0, A[:, a0])
    return Q


def joint_output_distribution_contracted(P: Predicate, fs,
                                         cap: int = CONTRACTION_CAP) -> np.ndarray:
    """Exact joint output law by tensor contraction (no column scan)."""
    weights = [float(w) for w in P.weights]

    def combine(dst, src, weight):
        dst += weight * src

    return _contract(P, fs, weights, np.float64, combine, cap)


def violation_probability(P: Predicate, fs, cap: int = ODOMETER_CAP,
                          contraction_cap: int = CONTRACTION_CAP) -> float:
    """Exact violation probability; prefers the contraction engine and
    falls back to the odometer when the contraction state is too large."""
    try:
        Q = joint_output_distribution_contracted(P, fs, contraction_cap)
        return float(Q[~_member_table(P)].sum())
    except ResourceError:
        return violation_exact(P, fs, cap).probability


def achievable_outputs(P: Predicate, fs, cap: int = CONTRACTION_CAP) -> np.ndarray:
    """Boolean table over output codes: reachable from some valid column tuple."""
    weights = [True] * len(P)

    def combine(dst, src, _weight):
        np.logical_or(dst, src, out=dst)

    return _contract(P, fs, weights, bool, combine, cap)


def violation_exact(P: Predicate, fs, cap: int = ODOMETER_CAP) -> ViolationReport:
    """Exact violation probability over all |P|^n column tuples."""
    Q, first_bad = joint_output_distribution(P, fs, cap)
    prob = float(Q[~_member_table(P)].sum())
    ce = None
    if first_bad is not None:
        ce = _counterexample_from_code(P, fs, first_bad)
    return ViolationReport(probability=prob, method="exhaustive", counterexample=ce)


def _counterexample_from_code(P: Predicate, fs, code: int) -> Counterexample:
    n = fs[0].n
    K = len(P)
    cols = [P.members[d] for d in decode_point(code, n, K)]
    ce = Counterexample.from_columns(fs, cols)
    if any(c not in P for c in cols) or ce.outputs in P:
        raise AssertionError("internal error: counterexample failed verification")
    return ce


def _search_counterexample(P: Predicate, fs, alpha_code: int,
                           cap: int) -> Counterexample:
    """Rebuild an explicit violating column tuple by fixing coordinates."""
    n, s = fs[0].n, fs[0].s
    chosen = []
    cur = list(fs)
    for _ in range(n):
        rem = cur[0].n
        hit = None
        for w in P.members:
            if rem == 1:
                outs = tuple(f.eval((w[j],)) for j, f in enumerate(cur))
                if encode_point(outs, s) == alpha_code:
                    hit = w
                    break
            else:
                nxt = [f.restrict(PartialAssignment.from_dict(rem, {0: w[j]}, s=s))
                       for j, f in enumerate(cur)]
                if achievable_outputs(P, nxt, cap)[alpha_code]:
                    hit = w
                    cur = nxt
                    break
        if hit is None:
            raise AssertionError("internal error: achievable output lost")
        chosen.append(hit)
    ce = Counterexample.from_columns(fs, chosen)
    if ce.outputs != decode_point(alpha_code, P.m, s):
        raise AssertionError("internal error: rebuilt outputs disagree")
    return ce


def is_generalized_polymorphism(P: Predicate, fs, cap: int = ODOMETER_CAP,
                                contraction_cap: int = CONTRACTION_CAP):
    """(exact flag, counterexample).  Prefers the contraction engine; falls
    back to the odometer when the contraction state would be too large."""
    n, s = _check_functions(P, fs)
    try:
        reach = achievable_outputs(P, fs, contraction_cap)
        bad = np.nonzero(reach & ~_member_table(P))[0]
        if bad.size == 0:
            return True, None
        return False, _search_counterexample(P, fs, int(bad[0]), contraction_cap)
    except ResourceError:
        report = violation_exact(P, fs, cap)
        return report.probability == 0.0, report.counterexample


# -- Monte Carlo ---------------------------------------------------------------

def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if trials <= 0:
        raise DomainError("need a positive number of trials")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def violation_mc(P: Predicate, fs, samples: int, seed: int) -> ViolationReport:
    """Monte Carlo violation estimate with a Wilson 95% interval."""
    n, s = _check_functions(P, fs)
    if samples < 1:
        raise DomainError("need at least one sample")
    memb = _member_array(P)
    muvec = np.array([float(w) for w in P.weights])
    muvec = muvec / muvec.sum()
    in_p = _member_table(P)
    powers = s ** np.arange(n, dtype=np.int64)
    # counter-based generator: streams are reproducible across platforms
    rng = np.random.Generator(np.random.Philox(key=seed))
    bad = 0
    done = 0
    while done < samples:
        take = min(CHUNK, samples - done)
        d = rng.choice(len(P), size=(take, n), p=muvec)
        out_code = np.zeros(take, dtype=np.int64)
        for j, f in enumerate(fs):
            xj = (memb[d, j] * powers[np.newaxis, :]).sum(axis=1)
            out_code += f.values[xj].astype(np.int64) * s ** j
        bad += int((~in_p[out_code]).sum())
        done += take
    lo, hi = wilson_interval(bad, samples)
    return ViolationReport(probability=bad / samples, method="monte_carlo",
                           samples=samples, half_width=(hi - lo) / 2,
                           interval=(lo, hi))


# -- restrictions and joint values -----------------------------------------------

class ColumnRestriction:
    """One star-law pattern per coordinate; row j restricts function j."""

    def __init__(self, patterns, s: int):
        self.patterns = tuple(tuple(p) for p in patterns)
        self.s = s

    @property
    def n(self) -> int:
        return len(self.patterns)

    def assignment_for(self, j: int) -> PartialAssignment:
        return PartialAssignment(
            [p[j] for p in self.patterns], s=self.s)


def draw_restriction(law: StarLaw, n: int, rng) -> ColumnRestriction:
    idx = law.sample_indices(rng, n)
    return ColumnRestriction([law.patterns[i] for i in idx], law.predicate.s)


def restricted_value_distribution(f: FunctionTable, assignment: PartialAssignment,
                                  marginal) -> np.ndarray:
    """Law of f(x) when free coordinates draw i.i.d. from the marginal."""
    if f.codomain == "real":
        raise UnsupportedError("value distributions need discrete outputs")
    free = assignment.free
    if not free:
        v = f.eval([int(a) for a in assignment.entries])
        out = np.zeros(f.s if f.codomain == "sym" else 2)
        out[int(v)] = 1.0
        return out
    sub = f.restrict(assignment)
    nu = ProductMeasure.iid(marginal, len(free))
    w = nu.weights()
    out = np.zeros(f.s if f.codomain == "sym" else 2)
    for sigma in range(out.size):
        out[sigma] = float(w[sub.values == sigma].sum())
    return out


def joint_value_probability(P: Predicate, fs, alpha, restriction=None,
                            cap: int = ODOMETER_CAP) -> float:
    """Exact Pr[every f_j outputs alpha_j] over coupled columns.

    Without a restriction the columns are i.i.d. mu; with one, each
    coordinate is pinned to its pattern and only star positions stay
    random (independently, from the star-conditional marginals), so the
    probability factors across functions.
    """
    if len(alpha) != P.m:
        raise DomainError("alpha must assign one output per function")
    if restriction is None:
        Q, _ = joint_output_distribution(P, fs, cap)
        return float(Q[encode_point(alpha, P.s)])
    prob = 1.0
    for j, f in enumerate(fs):
        dist = restricted_value_distribution(
            f, restriction.assignment_for(j), P.marginal_measure(j))
        prob *= float(dist[int(alpha[j])])
    return prob
