"""Violation oracles for generalized polymorphisms, exact and Monte Carlo.

A column tuple draws one member of P per input coordinate; function j reads
row j of the columns.  The violation probability is the mu^n-mass of column
tuples whose output tuple leaves P.  Two exact engines are provided: an
odometer scan over all |P|^n column tuples, and a coordinate-by-coordinate
tensor contraction whose state is indexed by the residual classes of the
read inputs of functions 2..m (at most s^((m-1) n) joint classes).  Both
produce the full joint output distribution; they are cross-checked in the
tests.
violation_probability runs whichever is cheaper by estimated cost.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedError
from .funcspace import (FunctionTable, PartialAssignment, ProductMeasure,
                        decode_point, encode_point)
from .predicates import Predicate, StarLaw

ODOMETER_CAP = 1 << 24
CONTRACTION_CAP = 1 << 22
CHUNK = 1 << 16
GUIDE_CELLS = 1 << 10        # Monte Carlo guide-table cells
MC_GROUP_CAP = 1 << 12       # column codes per Monte Carlo group table
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

def _digits_within(K: int, n: int, limit: int) -> int:
    """The largest c <= n with K^c <= limit."""
    return next(c for c in range(n, -1, -1) if K ** c <= limit)


def _column_tables(memb: np.ndarray, muvec: np.ndarray, c: int, s: int):
    """(x, w) indexed by the code of a tuple of c columns (column 0 least
    significant): x[j] is function j's input code on it, w its weight, built
    one column at a time; weights multiply in column order like a scan."""
    x = np.zeros((memb.shape[1], 1), dtype=np.int64)
    w = np.ones(1)
    for i in range(c):
        # entry d * K^i + e is column i drawing member d after entry e
        x = (x[:, None, :] + memb.T[:, :, None] * s ** i).reshape(len(x), -1)
        w = (w[None, :] * muvec[:, None]).ravel()
    return x, w


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
    values = [f.values for f in fs]
    # inputs and weights of the low c digits, built once; each block of
    # K^c column codes adds the high digits as scalar offsets, multiplying
    # weights in the same digit order as a full scan
    c = _digits_within(K, n, CHUNK)
    block = K ** c
    low_x, low_w = _column_tables(memb, muvec, c, s)
    masses = []
    first_bad = None
    Q = np.zeros(s ** P.m)
    for high in range(total // block):
        w = low_w
        offset = np.zeros(P.m, dtype=np.int64)
        for i, d in enumerate(decode_point(high, n - c, K), start=c):
            w = w * muvec[d]
            offset += memb[d] * s ** i
        out_code = np.zeros(block, dtype=np.int64)
        for j in range(P.m):
            x = low_x[j] + offset[j]
            out_code += values[j][x].astype(np.int64) * s ** j
        np.add.at(Q, out_code, w)
        if first_bad is None:
            bad = np.nonzero(~in_p[out_code])[0]
            if bad.size:
                first_bad = high * block + int(bad[0])
        masses.append(float(w.sum()))
    mass = math.fsum(masses)
    if abs(mass - 1.0) > 1e-9:
        raise ResourceError(f"enumeration mass drifted to {mass}")
    return Q, first_bad


def _state_cells(P: Predicate, n: int) -> int:
    """Worst-case cells of the contraction state, one per joint input of
    functions 1..m-1; residual classes never need more."""
    return P.s ** ((P.m - 1) * n)


def _residual_transitions(values: np.ndarray, n: int, s: int) -> list:
    """Residual classes of a table's read prefixes, as transition tables.

    Two prefixes (coordinates 0..k-1) share a class when they leave the
    same subfunction on coordinates k..n-1.  Classes are labelled bottom-up:
    a full input's class is its value, and a k-digit prefix's class is the
    tuple of the classes of its s one-digit extensions, relabelled one digit
    at a time, so codes stay below s^(2n).  T[k][w, c] is the level-(k+1)
    class of a level-k prefix of class c extended by digit w.
    """
    cls = values.astype(np.int64)
    T = []
    for k in range(n - 1, -1, -1):
        ext = cls.reshape(s, s ** k)       # row w: prefixes p + w * s^k
        radix = int(cls.max()) + 1
        label = ext[0]
        for w in range(1, s):
            _, first, label = np.unique(label * radix + ext[w],
                                        return_index=True, return_inverse=True)
        T.append(ext[:, first])
        cls = label
    return T[::-1]


def _contract(P: Predicate, fs, weights, cap: int, trans=None, prefix=()):
    """Joint output law of fs, one coordinate at a time; with weights None,
    the boolean table of reachable outputs instead.  With a prefix of
    member columns, the law of the outputs given those first columns.

    The state has one axis over f_0's unread inputs, one axis per function
    j >= 1 over the residual classes of its read prefixes (trans[j - 1],
    from _residual_transitions), and one axis over f_0's value.  Every
    member w moves the slice at f_0's next digit w_0 to the new digits
    w_1..w_{m-1}; each function's axis is then merged by class in a stable
    order.  After the last coordinate the classes are the values.
    """
    n, s = _check_functions(P, fs)
    m = P.m
    if _state_cells(P, n) > cap:
        raise ResourceError(
            f"contraction state {s}^{(m - 1) * n} exceeds cap {cap}")
    if trans is None:
        trans = [_residual_transitions(f.values, n, s) for f in fs[1:]]
    reach = weights is None
    reduceat = np.logical_or.reduceat if reach else np.add.reduceat
    t = len(prefix)
    labels = []
    for j, T in enumerate(trans, start=1):
        c = 0
        for k, w in enumerate(prefix):
            c = T[k][w[j], c]
        labels.append(np.array([c]))
    low = encode_point([w[0] for w in prefix], s)
    v0 = fs[0].values.reshape(s ** (n - t), s ** t)[:, low]
    C = np.zeros((s ** (n - t),) + (1,) * (m - 1) + (s,),
                 dtype=bool if reach else np.float64)
    C.reshape(-1, s)[np.arange(v0.size), v0] = 1
    targets = [(slice(None),) + sum(((v, slice(None)) for v in w[1:]), ())
               for w in P.members]
    for k in range(t, n):
        sizes = tuple(len(lab) for lab in labels)
        Cv = C.reshape((s ** (n - k - 1), s) + sizes + (s,))
        C = np.zeros(Cv.shape[:1] + sum(((s, K) for K in sizes), ()) + (s,),
                     dtype=C.dtype)
        for i, (w, target) in enumerate(zip(P.members, targets)):
            # += on booleans is logical or
            C[target] += Cv[:, w[0]] if reach else weights[i] * Cv[:, w[0]]
        C = C.reshape(Cv.shape[:1] + tuple(s * K for K in sizes) + (s,))
        for j, T in enumerate(trans):
            # entry (w, e) of the axis goes to class T[k][w, labels[e]];
            # all classes distinct: the labels follow the entries unmerged
            keys = T[k][:, labels[j]].ravel()
            counts = np.bincount(keys)
            if counts.max() > 1:
                order = np.argsort(keys, kind="stable")
                keys = np.flatnonzero(counts)
                starts = (np.cumsum(counts) - counts)[keys]
                C = reduceat(C.take(order, axis=j + 1), starts, axis=j + 1)
            labels[j] = keys
    # the last classes are values; a table may never take some value
    A = np.zeros((s,) * m, dtype=C.dtype)
    A[np.ix_(*labels, np.arange(s))] = C.reshape(C.shape[1:])
    # axes are (a_1, ..., a_{m-1}, a_0); output codes put a_0 lowest
    return A.transpose(list(range(m - 2, -1, -1)) + [m - 1]).ravel()


def joint_output_distribution_contracted(P: Predicate, fs,
                                         cap: int = CONTRACTION_CAP) -> np.ndarray:
    """Exact joint output law by tensor contraction (no column scan)."""
    return _contract(P, fs, [float(w) for w in P.weights], cap)


def violation_probability(P: Predicate, fs, cap: int = ODOMETER_CAP,
                          contraction_cap: int = CONTRACTION_CAP) -> float:
    """Exact violation probability from the cheaper engine: the odometer
    costs about |P|^n * n, the contraction |P| * s^((m-1) n); the odometer
    also runs whenever the contraction state exceeds its cap."""
    n, _ = _check_functions(P, fs)
    columns, cells = len(P) ** n, _state_cells(P, n)
    if columns <= cap and (columns * n <= len(P) * cells
                           or cells > contraction_cap):
        Q, _ = joint_output_distribution(P, fs, cap)
    else:
        Q = joint_output_distribution_contracted(P, fs, contraction_cap)
    return float(Q[~_member_table(P)].sum())


def achievable_outputs(P: Predicate, fs, cap: int = CONTRACTION_CAP) -> np.ndarray:
    """Boolean table over output codes: reachable from some valid column tuple."""
    return _contract(P, fs, None, cap)


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
    """Rebuild an explicit violating column tuple by fixing coordinates in
    order, each to the first member that keeps alpha reachable."""
    n, s = fs[0].n, fs[0].s
    trans = [_residual_transitions(f.values, n, s) for f in fs[1:]]
    chosen = []
    for _ in range(n):
        for w in P.members:
            if _contract(P, fs, None, cap, trans, chosen + [w])[alpha_code]:
                chosen.append(w)
                break
        else:
            raise AssertionError("internal error: achievable output lost")
    ce = Counterexample.from_columns(fs, chosen)
    if ce.outputs != decode_point(alpha_code, P.m, s):
        raise AssertionError("internal error: rebuilt outputs disagree")
    return ce


def is_generalized_polymorphism(P: Predicate, fs, cap: int = ODOMETER_CAP,
                                contraction_cap: int = CONTRACTION_CAP):
    """(exact flag, counterexample).  Reachability by contraction whenever
    its state fits contraction_cap, else the odometer scan."""
    n, _ = _check_functions(P, fs)
    if _state_cells(P, n) > contraction_cap:
        report = violation_exact(P, fs, cap)
        return report.probability == 0.0, report.counterexample
    reach = achievable_outputs(P, fs, contraction_cap)
    bad = np.nonzero(reach & ~_member_table(P))[0]
    if bad.size == 0:
        return True, None
    return False, _search_counterexample(P, fs, int(bad[0]), contraction_cap)


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


def _choice_sampler(p: np.ndarray):
    """draw(rng, shape) returns rng.choice(len(p), size=shape, p=p): from
    the same uniforms u = rng.random(shape), the count of cdf points at or
    below u.  A guide table (Chen and Asau) holds it for each of GUIDE_CELLS
    cells of [0, 1) with no cdf point inside, -1 for cells whose draws search
    the cdf; u * GUIDE_CELLS is exact in binary floating point."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
    start = cdf.searchsorted(edges[:-1], side="right")
    end = cdf.searchsorted(edges[1:], side="left")
    cell_index = np.where(start == end, start, -1).astype(np.int32)

    def draw(rng, shape) -> np.ndarray:
        u = rng.random(shape)
        d = cell_index[(u * GUIDE_CELLS).astype(np.intp)]
        split = np.flatnonzero(d < 0)
        d.ravel()[split] = cdf.searchsorted(u.ravel()[split], side="right")
        return d

    return draw


def violation_mc(P: Predicate, fs, samples: int, seed: int) -> ViolationReport:
    """Monte Carlo violation estimate with a Wilson 95% interval."""
    n, s = _check_functions(P, fs)
    if not isinstance(samples, numbers.Integral) or samples < 1:
        raise DomainError(f"samples must be a positive integer, got {samples!r}")
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 128:
        raise DomainError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    K = len(P)
    memb = _member_array(P)
    muvec = np.array([float(w) for w in P.weights])
    muvec = muvec / muvec.sum()
    in_p = _member_table(P)
    draw = _choice_sampler(muvec)
    # inputs of every function on each group of c coordinates, one table
    # per group width, read by the group's column code
    c = max(1, _digits_within(K, n, MC_GROUP_CAP))
    tables = {g: _column_tables(memb, muvec, g, s)[0] for g in {c, n % c or c}}
    # counter-based generator: streams are reproducible across platforms
    rng = np.random.Generator(np.random.Philox(key=seed))
    bad = 0
    done = 0
    while done < samples:
        take = min(CHUNK, samples - done)
        d = draw(rng, (take, n))
        x = np.zeros((P.m, take), dtype=np.int64)
        for a in range(0, n, c):
            b = min(a + c, n)
            code = d[:, b - 1]
            for i in range(b - 2, a - 1, -1):
                code = code * K + d[:, i]
            x += tables[b - a].take(code, axis=1) * s ** a
        out_code = np.zeros(take, dtype=np.int64)
        for j, f in enumerate(fs):
            out_code += f.values[x[j]].astype(np.int64) * s ** j
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
