"""Junta growth until restricted functions look regular in almost all cells.

The potential of a coordinate set J is the sum over functions of the
cell-averaged noise stability of the restrictions to the cells of J, each
function averaged under its own product measure.  Averaging a coordinate
into the cell partition raises the potential by (1 - rho) / rho times the
cell-averaged noisy influence of that coordinate, so any certified
irregularity forces measurable progress and the growth loop terminates
after a bounded number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ResourceError
from .funcspace import (FunctionTable, ProductMeasure, _cell_view,
                        _coordinates, _indicators, _integer, _kron,
                        decode_point)
from .harmonics import _energy

CELL_CAP = 1 << 16
GAIN_SLACK = 1e-15
WORST_CELLS = 10      # offending cells listed by cell_regular_fraction


@dataclass(frozen=True, slots=True)
class GrowthStep:
    added: tuple
    gain: float        # splitting-identity lower bound measured before the step
    required: float
    bad_mass: tuple    # per input function, before the step


@dataclass(frozen=True, slots=True)
class WorstCell:
    cell: tuple
    influence: float
    coordinate: int
    weight: float


@dataclass(frozen=True, slots=True)
class CellRegularityReport:
    regular_mass: float
    worst: tuple
    degree: int
    tau: float


@dataclass(frozen=True, slots=True)
class RegularityCertificate:
    junta: tuple
    steps: tuple
    potentials: tuple  # one value per stage, starting at the initial junta
    rho: float
    threshold: float
    eps: float
    regular: bool
    regular_mass: tuple
    step_bound: int
    mode: str
    degree: int | None = None
    tau: float | None = None


def _real_stack(f: FunctionTable) -> np.ndarray:
    """A function's real tables for the potential, shape (T, s^n): bit and
    [0,1]-real functions give one table, sym functions one indicator per
    symbol, symbol-major.  Every table is [0, 1]-valued, so the potential
    stays within [0, total table count]."""
    return _indicators(f) if f.codomain == "sym" else f.as_real()[None]


def _noise_op(probs: np.ndarray, rho: float) -> np.ndarray:
    s = probs.size
    return rho * np.eye(s) + (1 - rho) * np.tile(probs, (s, 1))


def _stab_cells(Gt, ops, w_free) -> np.ndarray:
    """Noise stability of every cell restriction at once.

    Gt has shape (cells, s, ..., s); ops[k] is the noise operator of the
    coordinate living on tensor axis k + 1.  Each product puts its new axis
    in front, ahead of the cells and of the axes still to come, so axis
    k + 1 is still the next one to read; one reversal at the end restores
    the order of Gt.
    """
    X = Gt
    for k, R in enumerate(ops):
        X = np.tensordot(R, X, axes=([1], [k + 1]))
    X = X.transpose(range(len(ops), -1, -1))
    # numpy lays a product out like its operands; with two or more free
    # axes row-major rows make the reduction round as the moveaxis loop in
    # tests/oracles.py does, and with one both loops make the same view
    order = "C" if len(ops) > 1 else "K"
    prod = np.multiply(Gt, X, order=order).reshape(Gt.shape[0], -1)
    return prod @ w_free


def _cell_influence_tables(stack, n, s, J, nu, rho):
    """Per-cell stability and noisy influences of all free coordinates, for
    a (T, s^n) stack of tables sharing the measure nu.

    The cell views of the T tables run as one batch of T * C cells, and
    each free coordinate's noise operator is built once for the pass.
    Returns (cell weights (C,), stabilities (T, C), influences (T, |F|, C),
    free list).
    """
    G, Js, F = _cell_view(stack, n, s, J)
    T, C, _ = G.shape
    f = len(F)
    w_cells = _kron(nu.measures[c].probs for c in Js)
    w_free = _kron(nu.measures[c].probs for c in F)
    Gt = G.reshape((T * C,) + (s,) * f)
    axis_coords = list(reversed(F))  # tensor axis k+1 holds this coordinate
    ops = [_noise_op(nu.measures[coord].probs, rho) for coord in axis_coords]
    stab = _stab_cells(Gt, ops, w_free)
    infs = np.zeros((T, f, C))
    for a, coord in enumerate(axis_coords, start=1):
        probs = nu.measures[coord].probs
        H = np.tensordot(probs, Gt, axes=([0], [a]))
        H = np.broadcast_to(np.expand_dims(H, a), Gt.shape)
        stab_avg = _stab_cells(H, ops, w_free)
        infs[:, F.index(coord)] = (stab - stab_avg).reshape(T, C)
    return w_cells, stab.reshape(T, C), infs, F


def _check_inputs(fs, measures, rho) -> list:
    if not fs:
        raise DomainError("need at least one function")
    n, s = fs[0].n, fs[0].s
    for f in fs:
        if (f.n, f.s) != (n, s):
            raise DomainError("functions disagree on n or alphabet")
    if isinstance(measures, ProductMeasure):
        measures = [measures] * len(fs)
    measures = list(measures)
    if len(measures) != len(fs):
        raise DomainError("need one product measure per function")
    for nu in measures:
        if nu.n != n or nu.s != s:
            raise DomainError("measure does not match the functions")
        if not nu.full_support:
            raise DomainError("regularity needs full-support measures")
    if not (0 < rho < 1):
        raise DomainError("rho must lie strictly between 0 and 1")
    return measures


def _stack_by_measure(fs, measures) -> tuple:
    """Group positions by equal measure and stack each group's distinct
    table objects once, in position order.  Returns the groups as
    (stack, measure) pairs and, per position, (group index, its rows of
    that stack); positions holding one table object in a group read the
    same rows."""
    keys, tables, rows = [], [], []
    for f, nu in zip(fs, measures):
        g = next((g for g, mu in enumerate(keys)
                  if mu.measures == nu.measures), len(keys))
        if g == len(keys):
            keys.append(nu)
            tables.append({})
        if id(f) not in tables[g]:  # fs keeps every f alive, so ids hold
            start = sum(len(t) for t, _ in tables[g].values())
            t = _real_stack(f)
            tables[g][id(f)] = (t, slice(start, start + len(t)))
        rows.append((g, tables[g][id(f)][1]))
    groups = [(np.concatenate([t for t, _ in tabs.values()]), nu)
              for nu, tabs in zip(keys, tables)]
    return groups, rows


def _growth_pass(groups, rows, n, s, J, rho) -> tuple:
    """One growth round: one pass per measure group, every position's
    (w_cells, stab, infs, F) record read off its group's rows, and the
    potential, an fsum over every position's tables."""
    recs = [_cell_influence_tables(stack, n, s, J, nu, rho)
            for stack, nu in groups]
    per_fn = []
    for g, r in rows:
        w_cells, stab, infs, F = recs[g]
        per_fn.append((w_cells, stab[r], infs[r], F))
    phi = math.fsum(float(w_cells @ row)
                    for w_cells, stab, _, _ in per_fn for row in stab)
    return per_fn, phi


def potential(fs, measures, rho: float, J) -> float:
    """Sum over functions of the cell-averaged noise stability under J,
    each function weighted by its own measure."""
    measures = _check_inputs(fs, measures, rho)
    groups, rows = _stack_by_measure(fs, measures)
    J = sorted(set(_coordinates(J, fs[0].n)))
    return _growth_pass(groups, rows, fs[0].n, fs[0].s, J, rho)[1]


def build_junta_noisy(fs, measures, rho: float, tau: float, eps: float,
                      initial=()) -> RegularityCertificate:
    """Grow a junta until, for every function, cells of total mass at least
    1 - eps restrict it to noisy influences all at most tau.

    Each growth step adds the smallest set of coordinates whose measured
    potential gain reaches (1 - rho) / rho * eps * tau; a single coordinate
    cannot always promise that much on its own, but the set of per-cell
    witnesses always can, so the step count stays below the potential
    budget.  Within a step, coordinates enter by decreasing total gain,
    ties to the lowest index.  A junta with more than CELL_CAP cells
    raises before its cells are built.
    """
    measures = _check_inputs(fs, measures, rho)
    if not (0 < eps < 1):
        raise DomainError("eps must lie strictly between 0 and 1")
    if not tau > 0:  # also refuses NaN
        raise DomainError("tau must be positive")
    n, s = fs[0].n, fs[0].s
    groups, rows = _stack_by_measure(fs, measures)
    coef = (1 - rho) / rho
    required = coef * eps * tau
    tables = sum(r.stop - r.start for _, r in rows)
    step_bound = math.floor(tables / (coef * eps * tau)) + 1
    J = sorted(set(_coordinates(initial, n)))
    steps = []
    potentials = []
    while True:
        if s ** len(J) > CELL_CAP:
            raise ResourceError(f"junta partition needs {s}^{len(J)} cells, "
                                f"above CELL_CAP = {CELL_CAP}")
        per_fn, phi = _growth_pass(groups, rows, n, s, J, rho)
        potentials.append(phi)
        F = per_fn[0][3]
        # a cell is bad for a function when any of its tables has a free
        # coordinate of noisy influence above tau there
        bad_mass = [float(w_cells[(infs > tau).any(axis=(0, 1))].sum())
                    for w_cells, _, infs, _ in per_fn]
        if all(b <= eps for b in bad_mass) or not F:
            regular = all(b <= eps for b in bad_mass)
            regular_mass = tuple(1.0 - b for b in bad_mass)
            return RegularityCertificate(
                junta=tuple(J), steps=tuple(steps), potentials=tuple(potentials),
                rho=rho, threshold=tau, eps=eps, regular=regular,
                regular_mass=regular_mass, step_bound=step_bound, mode="noisy")
        gains = np.zeros(len(F))
        for w_cells, _, infs, _ in per_fn:
            for table_infs in infs:
                gains += coef * (table_infs @ w_cells)
        order = sorted(range(len(F)), key=lambda k: (-gains[k], F[k]))
        added = []
        got = 0.0
        for k in order:
            added.append(F[k])
            got += float(gains[k])
            if got >= required - GAIN_SLACK:
                break
        if got < required - GAIN_SLACK:
            raise AssertionError(
                "internal error: witness set cannot meet the potential bound")
        steps.append(GrowthStep(added=tuple(sorted(added)), gain=got,
                                required=required, bad_mass=tuple(bad_mass)))
        J = sorted(J + added)
        if len(steps) > step_bound:
            raise ResourceError("growth exceeded its potential budget")


def _cell_influences(f: FunctionTable, J, d: int, tau: float,
                     nu: ProductMeasure):
    """Per cell of sorted J, the largest degree-at-most-d influence of the
    restriction (max over free coordinates, and over symbols for sym
    tables), with ties keeping the earliest coordinate.

    Every cell is transformed at once, those of a sym table's s indicator
    tables in one stack, and the energy of each cell (harmonics._energy)
    meets one (support x free coordinate) mask of "contains the
    coordinate and has level at most d".  Returns (cell weights, influences,
    coordinates), or None when J leaves no coordinate free: every cell is
    then a single point, hence constant and regular.
    """
    if _integer(d, "degree d") < 1:
        raise DomainError("degree must be at least 1")
    if not tau > 0:  # also refuses NaN
        raise DomainError("tau must be positive")
    n, s = f.n, f.s
    J = sorted(set(_coordinates(J, n)))
    if nu.n != n or nu.s != s:
        raise DomainError("measure does not match the function domain")
    if len(J) >= n:
        return None
    if s ** len(J) > CELL_CAP:
        raise ResourceError(f"{s}^{len(J)} cells exceed CELL_CAP = {CELL_CAP}")
    stack = _real_stack(f)
    G, _, F = _cell_view(stack, n, s, J)
    _, E, bits = _energy(G.reshape((-1,) + (s,) * len(F)),
                         [nu.measures[c] for c in F])
    low = (bits & (bits.sum(axis=0) <= d)).T.astype(np.float64)
    # columns run symbol-major, so argmax keeps the earliest on ties
    infs = (E @ low).reshape(G.shape[:2] + (len(F),)).transpose(
        1, 0, 2).reshape(G.shape[1], -1)
    k = infs.argmax(axis=1)
    return (_kron(nu.measures[c].probs for c in J), infs.max(axis=1),
            np.asarray(F)[k % len(F)])


def cell_regular_fraction(f: FunctionTable, J, d: int, tau: float,
                          nu: ProductMeasure) -> CellRegularityReport:
    """Exact mass of cells whose restriction has all degree-at-most-d
    influences at most tau, plus the WORST_CELLS worst offending cells;
    at most CELL_CAP cells."""
    out = _cell_influences(f, J, d, tau, nu)
    if out is None:
        return CellRegularityReport(1.0, (), d, tau)
    weights, infs, coords = out
    mass = math.fsum(weights[infs <= tau])
    # worst first; a run of cells whose sorted influences each lie within
    # a relative 1e-12 of the previous one is one tie, listed in cell
    # order, so cells a rounding error apart (symmetric restrictions)
    # list the same whichever way the transform rounded
    bad = np.flatnonzero(infs > tau)
    bad = bad[np.argsort(-infs[bad], kind="stable")]
    v = infs[bad]
    prev = np.concatenate((v[:1], v[:-1]))
    tie = np.cumsum(v < prev * (1 - 1e-12))
    bad = bad[np.lexsort((bad, tie))]
    k = len(set(J))
    worst = tuple(WorstCell(cell=decode_point(int(c), k, f.s),
                            influence=float(infs[c]),
                            coordinate=int(coords[c]),
                            weight=float(weights[c]))
                  for c in bad[:WORST_CELLS])
    return CellRegularityReport(regular_mass=mass, worst=worst, degree=d, tau=tau)


def regular_cell_mask(f: FunctionTable, J, d: int, tau: float,
                      nu: ProductMeasure) -> np.ndarray:
    """Boolean flag per cell of sorted J (least-significant-first cell
    index order): True when the restriction to the cell has every
    degree-at-most-d influence at most tau; at most CELL_CAP cells."""
    out = _cell_influences(f, J, d, tau, nu)
    if out is None:
        return np.ones(f.s ** f.n, dtype=bool)
    return out[1] <= tau


def build_junta_lowdeg(fs, measures, d: int, tau: float, eps: float,
                       initial=()) -> RegularityCertificate:
    """Low-degree regularity via the noisy proxy.

    With rho = 1 - 1/d (rho = 1/2 when d = 1), a noisy influence at most
    tau * rho^d forces every influence of degree at most d to be at most
    tau, so the noisy growth loop certifies the low-degree property.
    """
    d = _integer(d, "degree d")
    if d < 1:
        raise DomainError("degree must be at least 1")
    rho = 0.5 if d == 1 else 1.0 - 1.0 / d
    theta = tau * rho ** d
    cert = build_junta_noisy(fs, measures, rho, theta, eps, initial=initial)
    return replace(cert, mode="lowdeg", degree=d, tau=tau)
