"""Violation oracles for generalized polymorphisms, exact and Monte Carlo.

A column tuple draws one member of P per input coordinate; function j reads
row j of the columns.  The violation probability is the mu^n-mass of column
tuples whose output tuple leaves P.  Three exact engines answer it, and the
tests cross-check them: an odometer scan over all |P|^n column tuples and a
coordinate-by-coordinate tensor contraction, whose state is indexed by the
residual classes of the read inputs of functions 2..m, both give the joint
output law; a backward pass over the joint residual class tuples of all m
functions carries a value from each output back to the root, the mass of
the marked outputs or the lowest reachable violating one.  _plan admits
each engine by the largest array it allocates and runs the cheapest
admitted one, for the law and for is_generalized_polymorphism (one
backward pass, or reachability and per-prefix contractions for a
counterexample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError
from .funcspace import (FunctionTable, Measure, PartialAssignment,
                        _cell_averages, _check_size, _coordinates, _Frozen,
                        _indicators, _integer, _tables, decode_point,
                        encode_point)
from .predicates import Predicate, _predicate

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
# the previous _transitions call's residual transitions, by table content
_LABELLED: dict = {}


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ViolationReport:
    probability: float
    method: str
    samples: int | None = None
    half_width: float | None = None
    interval: tuple | None = None
    counterexample: Counterexample | None = None


def _check_functions(P: Predicate, fs) -> tuple[int, int]:
    """(n, s) of the (P, fs) arguments of the public checks and laws."""
    _predicate(P)
    _check_size(P.m, P.s, "m")
    return _tables(fs, P.m, P.s, ("bit", "sym"))


def _member_table(P: Predicate) -> np.ndarray:
    """Membership over Sigma^m by output code; the caller gates s^m."""
    table = np.zeros(P.s ** P.m, dtype=bool)
    table[P.member_array @ P.s ** np.arange(P.m)] = True
    return table


def evaluate_columns(fs, columns) -> tuple:
    """Outputs of the functions on explicit columns (one member per coordinate)."""
    return Counterexample.from_columns(fs, columns).outputs


# -- exact engines -------------------------------------------------------------

def _digits_within(K: int, n: int, limit: int) -> int:
    """The largest c <= n with K^c <= limit."""
    return next(c for c in range(n, -1, -1) if K ** c <= limit)


def _column_tables(memb: np.ndarray, c: int, s: int) -> np.ndarray:
    """x indexed by the code of a tuple of c columns (column 0 least
    significant): x[j] is function j's input code on it, in the narrowest
    dtype that holds s^c codes, built one column at a time."""
    code_t = np.min_scalar_type(s ** c - 1)
    digits = memb.T.astype(code_t)[:, :, None]
    x = np.zeros((memb.shape[1], 1), dtype=code_t)
    for i in range(c):
        # entry d * K^i + e is column i drawing member d after entry e; in
        # C order the sum runs along e (order K runs along d, 6x slower)
        x = np.add(x[:, None, :], digits * s ** i,
                   order="C").reshape(len(x), -1)
    return x


def _column_weights(mu: np.ndarray, c: int) -> np.ndarray:
    """The weights of _column_tables' codes, multiplied in column order
    like a scan (funcspace._kron multiplies in reverse order)."""
    w = np.ones(1)
    for _ in range(c):
        w = (w[None, :] * mu[:, None]).ravel()
    return w


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
            f"violation_probability or violation_mc")
    memb, mu = P.member_array, P.float_weights.tolist()
    in_p = _member_table(P)
    # a block is the K^c column codes of the low c digits; the high n - c
    # digits pick it.  Function j's rows hold its output digit in place
    # (values * s^j, in the narrowest dtype that holds every output code)
    # on the low columns, one row per distinct input of its high digits, so
    # a block's output codes are a sum of one row per function
    c = _digits_within(K, n, CHUNK)
    block = K ** c
    low_x = _column_tables(memb, c, s)
    low_w = _column_weights(P.float_weights, c)
    high_x = _column_tables(memb, n - c, s)
    code_t = np.min_scalar_type(s ** P.m - 1)
    rows, picks = [], []
    for j, f in enumerate(fs):
        inputs, pick = np.unique(high_x[j], return_inverse=True)
        # each row gathers its low columns straight from the table
        table, cols = f.values.reshape(-1, s ** c), low_x[j].astype(np.intp)
        r = np.empty((inputs.size, block), dtype=f.values.dtype)
        for row, i in zip(r, inputs):
            table[i].take(cols, out=row)
        r = r.astype(code_t, copy=False)
        r *= s ** j
        rows.append(r)
        picks.append(pick)
    del low_x, cols                 # the rows hold all the scan reads of it
    masses = []
    first_bad = None
    Q = np.zeros(s ** P.m)
    factors = None
    for high in range(total // block):
        # weights multiply in the same digit order as a full scan; a block
        # whose high digits weigh what the last block's did reuses its
        # weights and mass (every block, when the weights are uniform)
        step = [mu[d] for d in decode_point(high, n - c, K)]
        if step != factors:
            factors, w = step, low_w
            for factor in step:
                w = w * factor
            mass = float(w.sum())
        out_code = rows[0][picks[0][high]]
        for j in range(1, P.m):
            out_code = out_code + rows[j][picks[j][high]]
        # np.add.at is fastest on an intp index
        out_code = out_code.astype(np.intp)
        np.add.at(Q, out_code, w)
        if first_bad is None:
            bad = np.nonzero(~in_p[out_code])[0]
            if bad.size:
                first_bad = high * block + int(bad[0])
        masses.append(mass)
    mass = math.fsum(masses)
    if abs(mass - 1.0) > 1e-9:
        raise ResourceError(f"enumeration mass drifted to {mass}")
    return Q, first_bad


def _residual_transitions(values: np.ndarray, n: int, s: int) -> list:
    """Residual classes of a table's read prefixes, as transition tables.

    Two prefixes (coordinates 0..k-1) share a class when they leave the
    same subfunction on coordinates k..n-1.  Classes are labelled bottom-up:
    a full input's class is its value, and a k-digit prefix's class is the
    tuple of the classes of its s one-digit extensions, relabelled one digit
    at a time, so codes stay below s^(2n).  T[k][w, c] is the level-(k+1)
    class of a level-k prefix of class c extended by digit w.  The engines
    reach it only through _transitions, which runs it once per distinct
    table content and hands its tables on to the next call.
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


def _contract(P: Predicate, fs, weights, trans, prefix=()):
    """Joint output law of fs, one coordinate at a time; with weights None,
    the boolean table of reachable outputs instead.  With a prefix of
    member columns, the law of the outputs given those first columns.

    The state has one axis over f_0's unread inputs, one axis per function
    j >= 1 over the residual classes of its read prefixes (trans[j - 1],
    from _residual_transitions), and one axis over f_0's value.  Every
    member w moves the slice at f_0's next digit w_0 to the new digits
    w_1..w_{m-1}; each function's axis is then merged by class in a stable
    order.  After the last coordinate the classes are the values.  The
    caller admits the pre-merge buffer (_contraction_cells) first.
    """
    n, s, m = fs[0].n, P.s, P.m
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
    included; sizes[k] holds each function's class count at level k =
    0..n (at level n the classes are the values).  Each distinct table is
    labelled once; the call takes its hits from _LABELLED, releases the
    rest, and leaves its own labels there, read-only, for the next call.
    Keys are the table bytes, never the object, so equal tables held by
    different objects share labels (README, "Which one runs")."""
    global _LABELLED
    n, s = fs[0].n, P.s
    keys = [(n, s, f.values.dtype.str, f.values.tobytes()) for f in fs]
    # a published memo is never changed in place, so threads need no lock
    last, _LABELLED = _LABELLED, {}
    held = {key: last[key] for key in keys if key in last}
    del last
    for f, key in zip(fs, keys):
        if key not in held:
            held[key] = tuple(_residual_transitions(f.values, n, s))
            for T in held[key]:
                T.flags.writeable = False
    _LABELLED = held
    trans = [held[key] for key in keys]
    sizes = [tuple(T[k].shape[1] for T in trans) for k in range(n)]
    sizes.append((s,) * P.m)
    return trans, sizes


def _contraction_cells(s: int, sizes) -> int:
    """The contraction's largest array, its pre-merge buffer (README, "Exact
    engines"): max_{k<n} s^(n-k+max(m-1,1)) prod_{j>=1} K_k^j cells."""
    n, m = len(sizes) - 1, len(sizes[0])
    return max(s ** (n - k + max(m - 1, 1)) * math.prod(z[1:])
               for k, z in enumerate(sizes[:-1]))


@dataclass(frozen=True, slots=True)
class _Plan:
    """An exact engine ("odometer", "contraction" or "classes"), why, the
    largest array it was admitted by, and the transitions and class counts
    it was costed from (None for an odometer picked before them)."""

    engine: str
    reason: str
    peak: int
    trans: list | None = field(default=None, repr=False)
    sizes: list | None = None


def _plan(P: Predicate, fs, odometer: bool = True) -> _Plan:
    """The cheapest admitted exact engine for fs (README, "Which one
    runs").  The odometer runs, unlabelled, when it costs less than the
    transitions.  Else the class counts K_k^j admit the class pass (max_k
    prod_j K_k^j tuples) and the contraction (_contraction_cells) under
    CONTRACTION_CAP, and the odometer (|P|^n columns) under ODOMETER_CAP;
    with odometer False (the check) the odometer only when neither fits.
    Each costs its constant times its work: |P|^n columns, sum_k |P|
    s^(n-k+1) prod_{j>=1} K_k^j cells, or sum_k |P| prod_j K_k^j tuples.
    A refused call empties _LABELLED, so its labels are not kept alive."""
    global _LABELLED
    n, s = fs[0].n, P.s
    K = len(P)
    columns, c = K ** n, _digits_within(K, n, CHUNK)
    # the odometer's largest array: a function's rows, one per distinct
    # input of the high digits, each as long as a block
    rows = K ** c * max(len(set(v)) for v in zip(*P.members)) ** (n - c)
    scan = ODOMETER_NS * columns if columns <= ODOMETER_CAP else math.inf
    labelling = LABEL_NS * P.m * n * (s - 1)
    if odometer and scan <= labelling:
        return _Plan("odometer", f"estimated odometer {scan / 1e6:.3g} ms, "
                     f"transitions alone {labelling / 1e6:.3g} ms", rows)
    trans, sizes = _transitions(P, fs)
    state = [s ** (n - k + 1) * math.prod(z[1:]) for k, z in enumerate(sizes)]
    joint = [math.prod(z) for z in sizes]
    labelled = {"classes": (CLASS_NS * K * sum(joint), max(joint)),
                "contraction": (CONTRACT_NS * K * sum(state),
                                _contraction_cells(s, sizes))}
    est = {e: v for e, v in labelled.items() if v[1] <= CONTRACTION_CAP}
    if scan < math.inf and (odometer or not est):
        est["odometer"] = (scan, rows)
    if not est:
        _LABELLED = {}
        raise ResourceError(
            f"|P|^n = {K}^{n} exceeds ODOMETER_CAP = {ODOMETER_CAP} and "
            f"{min(v[1] for v in labelled.values())} cells exceed "
            f"CONTRACTION_CAP = {CONTRACTION_CAP}; use violation_mc")
    ranked = sorted(est, key=est.get)
    reason = "estimated " + ", ".join(f"{e} {est[e][0] / 1e6:.3g} ms"
                                      for e in ranked)
    return _Plan(ranked[0], reason, est[ranked[0]][1], trans, sizes)


def _backward_by_classes(P: Predicate, trans, sizes, top, weights=None):
    """Values of the class tuples, from top (a value per output code) back
    to the root: a level-k tuple combines the values of its |P| level-(k+1)
    successors, by minimum with weights None (every level is kept, root
    first), or as the member-weighted sum (only the root level is kept).
    At level n the classes are the values, so the last level is top.  A
    level goes in blocks of rows of its longest axis, all members each:
    CHUNK grid cells, or one row, the least that broadcasting allows."""
    m, n, K = P.m, len(sizes) - 1, len(P)
    memb = P.member_array
    # axes are (a_0, ..., a_{m-1}); output codes put a_0 lowest
    levels = [top.reshape(sizes[n], order="F")]
    for k in range(n - 1, -1, -1):
        z = sizes[k]
        # (member, class tuple) grid of flat (row-major) successor codes:
        # axis j adds T_j[k][w_j] times its stride at level k + 1
        strides = np.cumprod((1,) + sizes[k + 1][:0:-1])[::-1]
        grids = [(T[k][memb[:, j]] * int(st)).reshape(
            (K,) + tuple(-1 if i == j else 1 for i in range(m)))
            for j, (T, st) in enumerate(zip(trans, strides))]
        j = z.index(max(z))
        along, nxt = grids.pop(j), levels[-1].ravel()
        rest = sum(grids)
        b = np.empty(z, dtype=nxt.dtype)
        rows = max(1, CHUNK // (K * (math.prod(z) // z[j])))
        for a in range(0, z[j], rows):
            cut = (slice(None),) * j + (slice(a, a + rows),)
            succ = nxt[along[(slice(None),) + cut] + rest]
            b[cut] = succ.min(axis=0) if weights is None else \
                (weights @ succ.reshape(K, -1)).reshape(succ.shape[1:])
        if weights is None:
            levels.append(b)
        else:
            levels = [b]
    return levels[::-1]


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
    """Exact joint output law by tensor contraction (no column scan), when
    its pre-merge buffer fits CONTRACTION_CAP."""
    _check_functions(P, fs)
    trans, sizes = _transitions(P, fs)
    cells = _contraction_cells(P.s, sizes)
    if cells > CONTRACTION_CAP:
        raise ResourceError(f"contraction buffer of {cells} cells exceeds "
                            f"CONTRACTION_CAP = {CONTRACTION_CAP}")
    return _contract(P, fs, P.float_weights, trans[1:])


def _mass(P: Predicate, fs, outputs: np.ndarray) -> float:
    """Exact mu-mass of the output codes that outputs marks, from the
    engine _plan picks."""
    plan = _plan(P, fs)
    if plan.engine == "classes":
        return _backward_by_classes(P, plan.trans, plan.sizes,
                                    outputs.astype(np.float64),
                                    P.float_weights)[0].item()
    law = joint_output_distribution(P, fs)[0] if plan.engine == "odometer" \
        else _contract(P, fs, P.float_weights, plan.trans[1:])
    return float(law[outputs].sum())


def violation_probability(P: Predicate, fs) -> float:
    """Exact violation probability from the engine _plan picks."""
    _check_functions(P, fs)       # the gate on s^m comes before the table
    return _mass(P, fs, ~_member_table(P))


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
    """(exact flag, counterexample).  By joint residual classes, or by
    contraction with a per-prefix search, as _plan decides; the odometer
    scan only when neither fits CONTRACTION_CAP.  The class pass puts each
    output's code on outputs outside P and the sentinel s^m on members, so
    the root holds the lowest reachable violating output alpha; a walk
    forward then takes, at each coordinate, the first member whose
    successor still holds alpha."""
    _check_functions(P, fs)
    plan = _plan(P, fs, odometer=False)
    if plan.engine == "odometer":
        report = violation_exact(P, fs)
        return report.probability == 0.0, report.counterexample
    trans, sizes, in_p = plan.trans, plan.sizes, _member_table(P)
    if plan.engine == "classes":
        top = np.where(in_p, in_p.size, np.arange(in_p.size)).astype(
            np.min_scalar_type(in_p.size))
        levels = _backward_by_classes(P, trans, sizes, top)
        alpha = levels[0].item()
        if alpha == in_p.size:
            return True, None
        tup, columns = (0,) * P.m, []
        for k, level in enumerate(levels[1:]):
            succ = tuple(T[k][P.member_array[:, j], c]
                         for j, (T, c) in enumerate(zip(trans, tup)))
            first = int(np.argmax(level[succ] == alpha))
            tup = tuple(x[first] for x in succ)
            columns.append(P.members[first])
    else:
        bad = np.flatnonzero(_contract(P, fs, None, trans[1:]) & ~in_p)
        if bad.size == 0:
            return True, None
        alpha = int(bad[0])
        columns = _search_by_prefixes(P, fs, alpha, trans[1:])
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
    """draw(bitgen, shape) returns Generator(bitgen).choice(len(p),
    size=shape, p=p) from the same raw words.  choice counts the cdf points
    at or below u = (word >> 11) * 2^-53, the uniform Generator.random
    makes of a word; u >= cdf_i exactly when word >> 11 >= ceil(cdf_i *
    2^53), so the count is that of integer thresholds at or below word >>
    11.  A guide table (Chen and Asau) holds it for each of GUIDE_CELLS
    cells, read from the word's top bits, with no threshold inside, -1 for
    cells whose words search the thresholds."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cuts = np.ceil(cdf * 2.0 ** 53).astype(np.uint64)
    shift = 65 - GUIDE_CELLS.bit_length()      # word >> shift is its cell
    edges = np.arange(GUIDE_CELLS + 1, dtype=np.uint64) << (shift - 11)
    start = cuts.searchsorted(edges[:-1], side="right")
    end = cuts.searchsorted(edges[1:] - 1, side="right")
    cell_index = np.where(start == end, start, -1).astype(np.int32)

    def draw(bitgen, shape) -> np.ndarray:
        words = bitgen.random_raw(shape)
        # an int64 index gathers about twice as fast as a uint64 one
        d = cell_index[(words >> shift).view(np.int64)]
        split = np.flatnonzero(d < 0)
        d.ravel()[split] = cuts.searchsorted(words.ravel()[split] >> 11,
                                             side="right")
        return d

    return draw


def violation_mc(P: Predicate, fs, samples: int, seed: int) -> ViolationReport:
    """Monte Carlo violation estimate with a Wilson 95% interval."""
    n, s = _check_functions(P, fs)
    samples, seed = _integer(samples, "samples"), _integer(seed, "seed")
    if samples < 1:
        raise DomainError(f"samples must be a positive integer, got {samples!r}")
    if not 0 <= seed < 2 ** 128:
        raise DomainError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    K = len(P)
    in_p = _member_table(P)
    draw = _choice_sampler(P.float_weights / P.float_weights.sum())
    # coordinates a..b-1 form a group of at most c; its column code, the
    # digits times K^(i-a) summed (one float product, exact below
    # MC_GROUP_CAP), reads every function's input on the group times s^a
    c = max(1, _digits_within(K, n, MC_GROUP_CAP))
    starts = range(0, n, c)
    radix = np.zeros((len(starts), n))
    by_width = {g: _column_tables(P.member_array, g, s)
                for g in {c, n % c or c}}
    tables = []
    for g, a in enumerate(starts):
        b = min(a + c, n)
        radix[g, a:b] = float(K) ** np.arange(b - a)
        tables.append(by_width[b - a].astype(np.intp) * s ** a)
    # counter-based generator: streams are reproducible across platforms
    bitgen = np.random.Philox(key=seed)
    block = max(1, CHUNK // n)
    bad = 0
    done = 0
    while done < samples:
        take = min(block, samples - done)
        codes = (radix @ draw(bitgen, (take, n)).T).astype(np.intp)
        x = tables[0].take(codes[0], axis=1)
        for T, code in zip(tables[1:], codes[1:]):
            x += T.take(code, axis=1)
        out_code = np.zeros(take, dtype=np.int64)
        for j, f in enumerate(fs):
            out_code += f.values[x[j]].astype(np.int64) * s ** j
        bad += take - int(np.count_nonzero(in_p[out_code]))
        done += take
    lo, hi = wilson_interval(bad, samples)
    return ViolationReport(probability=bad / samples, method="monte_carlo",
                           samples=samples, half_width=(hi - lo) / 2,
                           interval=(lo, hi))


# -- restrictions and joint values -----------------------------------------------

class ColumnRestriction(_Frozen):
    """One star-law pattern per coordinate; row j restricts function j.
    Built only from entries None (a star) or in range(s), in patterns of
    one length (else DomainError), as the cell law reads rows as stored."""

    __slots__ = ("patterns", "s")

    def __init__(self, patterns, s: int):
        s = _integer(s, "alphabet size")
        rows = tuple(PartialAssignment(p, s).entries for p in patterns)
        if len(set(map(len, rows))) > 1:
            raise DomainError("restriction patterns differ in length")
        self._freeze(rows, s)

    def __reduce__(self):
        return ColumnRestriction, (self.patterns, self.s)

    @property
    def n(self) -> int:
        return len(self.patterns)

    def assignment_for(self, j: int) -> PartialAssignment:
        """Entry j of every pattern, for a coordinate j of the predicate."""
        j, = _coordinates([j], len(self.patterns[0]) if self.patterns else 0)
        return PartialAssignment([p[j] for p in self.patterns], s=self.s)


def _restriction_rows(rho, m: int, n: int, s: int) -> list:
    """Row j of rho for each of m functions on Sigma^n, once rho is checked
    to be a ColumnRestriction of n patterns over s symbols, m entries each."""
    if not (isinstance(rho, ColumnRestriction) and (rho.n, rho.s) == (n, s)
            and all(len(p) == m for p in rho.patterns)):
        raise DomainError(f"restriction must be a ColumnRestriction of {n} "
                          f"patterns over {s} symbols, {m} entries each")
    return list(zip(*rho.patterns))


def restricted_value_distribution(f: FunctionTable, assignment: PartialAssignment,
                                  marginal) -> np.ndarray:
    """Law of f(x) over the table's alphabet when free coordinates draw
    i.i.d. from the marginal: the restricted cell law of f's symbol
    indicators on the one cell of the empty junta."""
    _tables([f], codomains=("bit", "sym"))
    if not (isinstance(marginal, Measure)
            and isinstance(assignment, PartialAssignment)
            and (marginal.s, assignment.s, assignment.n) == (f.s, f.s, f.n)):
        raise DomainError(f"need a Measure and a PartialAssignment of length "
                          f"{f.n}, both on the table's alphabet of {f.s}")
    return _cell_averages(_indicators(f), f.n, f.s, (), assignment.entries,
                          marginal)[:, 0]


def joint_value_probability(P: Predicate, fs, alpha,
                            restriction=None) -> float:
    """Exact Pr[every f_j outputs alpha_j] over coupled columns.

    Without a restriction the columns are i.i.d. mu, and the mass comes
    from the engine _plan picks.  With one, each coordinate is pinned to
    its pattern and only star positions stay random (independently, from
    the star-conditional marginals), so the probability factors across
    functions.
    """
    n, s = _check_functions(P, fs)
    alpha = tuple(_integer(a, "alpha output") for a in alpha)
    if len(alpha) != P.m or not all(0 <= a < P.s for a in alpha):
        raise DomainError(f"alpha must assign one output in range({P.s}) "
                          f"per function, got {alpha!r}")
    if restriction is None:
        outputs = np.zeros(P.s ** P.m, dtype=bool)
        outputs[encode_point(alpha, P.s)] = True
        return _mass(P, fs, outputs)
    prob = 1.0
    for j, row in enumerate(_restriction_rows(restriction, P.m, n, s)):
        dist = restricted_value_distribution(
            fs[j], PartialAssignment(row, s), P.marginal_measure(j))
        prob *= float(dist[alpha[j]])
    return prob
