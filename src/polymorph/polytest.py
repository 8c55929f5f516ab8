"""Violation oracles for generalized polymorphisms, exact and Monte Carlo.

A column tuple draws one member of P per input coordinate; function j reads
row j of the columns.  The violation probability is the mu^n-mass of column
tuples whose output tuple leaves P.  Three exact engines produce the full
joint output distribution, and the tests cross-check them: an odometer scan
over all |P|^n column tuples; a coordinate-by-coordinate tensor contraction
whose state is indexed by the residual classes of the read inputs of
functions 2..m (at most s^((m-1) n) joint classes); and a forward pass over
the joint residual class tuples of all m functions, whose last level is the
outputs.  _plan checks the caps, then picks the cheapest engine from the
real class counts, for violation_probability (the law) and for
is_generalized_polymorphism (reachability, then a backward pass or
per-prefix contractions for a counterexample).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedError
from .funcspace import (FunctionTable, PartialAssignment, ProductMeasure,
                        _check_size, decode_point, encode_point)
from .predicates import Predicate

ODOMETER_CAP = 1 << 24
CONTRACTION_CAP = 1 << 22
CHUNK = 1 << 14              # elements per odometer or Monte Carlo block
# fitted engine costs in ns (README, "Which one runs"): per odometer column,
# per member and contraction cell, per member and joint class tuple, and per
# np.unique call of the residual transitions
ODOMETER_NS = 12.0
CONTRACT_NS = 6.0
CLASS_NS = 8.0
LABEL_NS = 25_000.0
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
    _check_size(P.m, P.s, "m")
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


def joint_output_distribution(P: Predicate, fs):
    """Exact joint law of the output tuple, by scanning all |P|^n columns
    (at most ODOMETER_CAP).

    Returns (Q, first_violating_code): Q is indexed by output code
    (coordinate 0 least significant), the code is the first column-tuple
    index whose outputs leave P, or None.
    """
    n, s = _check_functions(P, fs)
    K = len(P)
    total = K ** n
    if total > ODOMETER_CAP:
        raise ResourceError(
            f"|P|^n = {K}^{n} exceeds ODOMETER_CAP = {ODOMETER_CAP}; use "
            f"violation_mc or the contraction engine")
    memb = _member_array(P)
    muvec = np.array([float(w) for w in P.weights])
    in_p = _member_table(P)
    # f_j's output digit in place (values * s^j), in the narrowest dtype
    # that holds every output code
    code_t = np.min_scalar_type(s ** P.m - 1)
    shifted = [(f.values.astype(np.int64) * s ** j).astype(code_t)
               for j, f in enumerate(fs)]
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
        out_code = shifted[0][offset[0]:].take(low_x[0])
        for j in range(1, P.m):
            out_code += shifted[j][offset[j]:].take(low_x[j])
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


def _contract(P: Predicate, fs, weights, trans=None, prefix=()):
    """Joint output law of fs, one coordinate at a time; with weights None,
    the boolean table of reachable outputs instead.  With a prefix of
    member columns, the law of the outputs given those first columns.

    The state has one axis over f_0's unread inputs, one axis per function
    j >= 1 over the residual classes of its read prefixes (trans[j - 1],
    from _residual_transitions), and one axis over f_0's value.  Every
    member w moves the slice at f_0's next digit w_0 to the new digits
    w_1..w_{m-1}; each function's axis is then merged by class in a stable
    order.  After the last coordinate the classes are the values.  The
    caller checks the worst-case state against CONTRACTION_CAP.
    """
    n, s = _check_functions(P, fs)
    m = P.m
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


# -- planning and the class-tuple pass -----------------------------------------

def _transitions(P: Predicate, fs):
    """(trans, sizes): every function's residual transitions, f_0's
    included, computed once per call; sizes[k] holds each function's class
    count at level k = 0..n (at level n the classes are the values)."""
    n, s = _check_functions(P, fs)
    trans = [_residual_transitions(f.values, n, s) for f in fs]
    sizes = [tuple(T[k].shape[1] for T in trans) for k in range(n)]
    sizes.append((s,) * P.m)
    return trans, sizes


@dataclass(frozen=True)
class _Plan:
    """An exact engine ("odometer", "contraction" or "classes"), why it was
    picked, the largest state it holds (odometer columns per block,
    contraction cells or joint class tuples), and the transitions and class
    counts it was costed from (None for an odometer picked before them)."""

    engine: str
    reason: str
    peak: int
    trans: list | None = field(default=None, repr=False)
    sizes: list | None = None


def _plan(P: Predicate, fs, odometer: bool = True) -> _Plan:
    """The cheapest exact engine for fs by estimated cost (README, "Which
    one runs").  The caps are checked before any allocation: past
    CONTRACTION_CAP only the odometer can run.  The odometer also runs,
    with no transitions, when it costs less than labelling them.  Else each
    engine costs its constant times its work from the real class counts:
    |P|^n columns, sum_k |P| s^(n-k+1) prod_{j>=1} K_k^j contraction cells,
    or sum_k |P| prod_j K_k^j joint class tuples.  With odometer False (the
    check, whose counterexample the odometer finds in another order) the
    odometer runs only past the contraction's cap."""
    n, s = _check_functions(P, fs)
    K = len(P)
    columns, block = K ** n, K ** _digits_within(K, n, CHUNK)
    scan = ODOMETER_NS * columns if columns <= ODOMETER_CAP else math.inf
    if _state_cells(P, n) > CONTRACTION_CAP:
        if scan == math.inf:
            raise ResourceError(
                f"|P|^n = {K}^{n} exceeds ODOMETER_CAP = {ODOMETER_CAP} and "
                f"the contraction state {s}^{(P.m - 1) * n} exceeds "
                f"CONTRACTION_CAP = {CONTRACTION_CAP}; use violation_mc")
        return _Plan("odometer", "contraction state over CONTRACTION_CAP",
                     block)
    labelling = LABEL_NS * P.m * n * (s - 1)
    if odometer and scan <= labelling:
        return _Plan("odometer", f"estimated odometer {scan / 1e6:.3g} ms, "
                     f"transitions alone {labelling / 1e6:.3g} ms", block)
    trans, sizes = _transitions(P, fs)
    state = [s ** (n - k + 1) * math.prod(z[1:]) for k, z in enumerate(sizes)]
    joint = [math.prod(z) for z in sizes]
    est = {"classes": (CLASS_NS * K * sum(joint), max(joint)),
           "contraction": (CONTRACT_NS * K * sum(state), max(state))}
    if odometer and scan < math.inf:
        est["odometer"] = (scan, block)
    ranked = sorted(est, key=est.get)
    reason = "estimated " + ", ".join(f"{e} {est[e][0] / 1e6:.3g} ms"
                                      for e in ranked)
    return _Plan(ranked[0], reason, est[ranked[0]][1], trans, sizes)


def _member_chunks(memb: np.ndarray, cells: int):
    """Row blocks of the member array, at most CHUNK // cells rows each."""
    step = max(1, CHUNK // max(cells, 1))
    return (memb[a:a + step] for a in range(0, len(memb), step))


def _class_steps(trans, sizes, k: int) -> list:
    """Each T_j[k] times axis j's stride in the flat (row-major) code of a
    level-(k+1) class tuple: the flat next code is the sum over j."""
    strides = np.cumprod((1,) + sizes[k + 1][:0:-1])[::-1]
    return [T[k] * int(st) for T, st in zip(trans, strides)]


def _forward_by_classes(P: Predicate, trans, sizes, weights=None):
    """Push the all-zero class tuple forward one coordinate at a time:
    every member moves each live level-k tuple to its level-(k+1) tuple.
    The level-n tuples are the outputs.  With weights None the result is
    the boolean reachable-output table, so the check never turns on float
    underflow; with member weights it is the joint output law, one weighted
    np.bincount per block of members."""
    memb = _member_array(P)
    R = np.ones(1, dtype=bool if weights is None else np.float64)
    for k in range(len(sizes) - 1):
        live = np.flatnonzero(R)
        tuples = np.unravel_index(live, sizes[k])
        steps = [S[:, c] for S, c in zip(_class_steps(trans, sizes, k), tuples)]
        size = math.prod(sizes[k + 1])
        if weights is None:
            R = np.zeros(size, dtype=bool)
            for w in _member_chunks(memb, live.size):
                # (member, tuple) grid of next codes; repeats all store True
                R[sum(S[w[:, j]] for j, S in enumerate(steps))] = True
        else:
            mass, R = R[live], np.zeros(size)
            for w, p in zip(_member_chunks(memb, live.size),
                            _member_chunks(weights, live.size)):
                code = sum(S[w[:, j]] for j, S in enumerate(steps))
                R += np.bincount(code.ravel(), (p[:, None] * mass).ravel(),
                                 size)
    # axes are (a_0, ..., a_{m-1}); output codes put a_0 lowest
    return R.reshape(sizes[-1]).ravel(order="F")


def _search_by_classes(P: Predicate, trans, sizes, alpha_code: int) -> list:
    """The columns _search_by_prefixes finds, from one backward pass:
    B[k] marks the level-k class tuples from which alpha is reachable, so
    a prefix keeps alpha reachable exactly when its tuple is in B."""
    m, n = P.m, len(sizes) - 1
    memb = _member_array(P)
    B = [np.zeros(sizes[n], dtype=bool)]
    B[0][decode_point(alpha_code, m, P.s)] = True
    for k in range(n - 1, -1, -1):
        steps = _class_steps(trans, sizes, k)
        b = np.zeros(sizes[k], dtype=bool)
        for w in _member_chunks(memb, math.prod(sizes[k])):
            # (member, class tuple) grid: axis j adds T_j[k][w_j]
            code = sum(S[w[:, j]].reshape(
                (len(w),) + tuple(-1 if i == j else 1 for i in range(m)))
                for j, S in enumerate(steps))
            b |= B[-1].ravel()[code].any(axis=0)
        B.append(b)
    B.reverse()
    tup, chosen = (0,) * m, []
    for k in range(n):
        nxt = tuple(T[k][memb[:, j], c]
                    for j, (T, c) in enumerate(zip(trans, tup)))
        hit = np.flatnonzero(B[k + 1][nxt])
        if hit.size == 0:
            raise AssertionError("internal error: achievable output lost")
        tup = tuple(x[hit[0]] for x in nxt)
        chosen.append(P.members[hit[0]])
    return chosen


def _search_by_prefixes(P: Predicate, fs, alpha_code: int, trans) -> list:
    """Fix coordinates in order, each to the first member that keeps alpha
    reachable, by one contraction from each tried prefix (trans holds the
    transitions of functions 1..m-1)."""
    chosen = []
    for _ in range(fs[0].n):
        for w in P.members:
            if _contract(P, fs, None, trans, chosen + [w])[alpha_code]:
                chosen.append(w)
                break
        else:
            raise AssertionError("internal error: achievable output lost")
    return chosen


def joint_output_distribution_contracted(P: Predicate, fs) -> np.ndarray:
    """Exact joint output law by tensor contraction (no column scan), with
    a worst-case state of at most CONTRACTION_CAP cells."""
    n, _ = _check_functions(P, fs)
    if _state_cells(P, n) > CONTRACTION_CAP:
        raise ResourceError(
            f"contraction state {P.s}^{(P.m - 1) * n} exceeds "
            f"CONTRACTION_CAP = {CONTRACTION_CAP}")
    return _contract(P, fs, [float(w) for w in P.weights])


def violation_probability(P: Predicate, fs) -> float:
    """Exact violation probability from the engine _plan picks."""
    plan = _plan(P, fs)
    if plan.engine == "odometer":
        Q, _ = joint_output_distribution(P, fs)
    else:
        weights = np.array([float(w) for w in P.weights])
        Q = (_forward_by_classes(P, plan.trans, plan.sizes, weights)
             if plan.engine == "classes"
             else _contract(P, fs, weights, plan.trans[1:]))
    return float(Q[~_member_table(P)].sum())


def violation_exact(P: Predicate, fs) -> ViolationReport:
    """Exact violation probability over all |P|^n column tuples."""
    Q, first_bad = joint_output_distribution(P, fs)
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


def is_generalized_polymorphism(P: Predicate, fs):
    """(exact flag, counterexample).  Reachability and the counterexample
    search by joint residual classes or by contraction, as _plan decides;
    the odometer scan only when the contraction state exceeds
    CONTRACTION_CAP."""
    plan = _plan(P, fs, odometer=False)
    if plan.engine == "odometer":
        report = violation_exact(P, fs)
        return report.probability == 0.0, report.counterexample
    trans, sizes = plan.trans, plan.sizes
    by_classes = plan.engine == "classes"
    reach = _forward_by_classes(P, trans, sizes) if by_classes \
        else _contract(P, fs, None, trans[1:])
    bad = np.nonzero(reach & ~_member_table(P))[0]
    if bad.size == 0:
        return True, None
    alpha = int(bad[0])
    columns = _search_by_classes(P, trans, sizes, alpha) if by_classes \
        else _search_by_prefixes(P, fs, alpha, trans[1:])
    ce = Counterexample.from_columns(fs, columns)
    if ce.outputs != decode_point(alpha, P.m, P.s):
        raise AssertionError("internal error: rebuilt outputs disagree")
    return False, ce


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
    block = max(1, CHUNK // n)
    bad = 0
    done = 0
    while done < samples:
        take = min(block, samples - done)
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


def joint_value_probability(P: Predicate, fs, alpha,
                            restriction=None) -> float:
    """Exact Pr[every f_j outputs alpha_j] over coupled columns.

    Without a restriction the columns are i.i.d. mu; with one, each
    coordinate is pinned to its pattern and only star positions stay
    random (independently, from the star-conditional marginals), so the
    probability factors across functions.
    """
    if len(alpha) != P.m:
        raise DomainError("alpha must assign one output per function")
    if restriction is None:
        Q, _ = joint_output_distribution(P, fs)
        return float(Q[encode_point(alpha, P.s)])
    prob = 1.0
    for j, f in enumerate(fs):
        dist = restricted_value_distribution(
            f, restriction.assignment_for(j), P.marginal_measure(j))
        prob *= float(dist[int(alpha[j])])
    return prob
