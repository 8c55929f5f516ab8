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
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ResourceError
from .funcspace import FunctionTable, ProductMeasure, enumerate_cells
from .harmonics import efron_stein, indicator_table

CELL_CAP = 1 << 16
GAIN_SLACK = 1e-15
WORST_CELLS = 10      # offending cells listed by cell_regular_fraction


@dataclass(frozen=True)
class GrowthStep:
    added: tuple
    gain: float        # splitting-identity lower bound measured before the step
    required: float
    bad_mass: tuple    # per input function, before the step


@dataclass(frozen=True)
class WorstCell:
    cell: tuple
    influence: float
    coordinate: int
    weight: float


@dataclass(frozen=True)
class CellRegularityReport:
    regular_mass: float
    worst: tuple
    degree: int
    tau: float


@dataclass(frozen=True)
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
    direct_regular_mass: tuple | None = None


def _expand_real(fs) -> tuple[list, list]:
    """Real-valued tables for the potential: bit and [0,1]-real functions
    stand alone, sym functions contribute one indicator per symbol."""
    tables = []
    owners = []
    for j, f in enumerate(fs):
        if f.codomain == "sym":
            for sigma in range(f.s):
                tables.append(indicator_table(f, sigma).as_real())
                owners.append(j)
        else:
            # real tables are [0, 1]-valued by construction, so every
            # expanded table keeps the potential within [0, len(tables)]
            tables.append(f.as_real())
            owners.append(j)
    return tables, owners


def _kron_weights(nu: ProductMeasure, coords) -> np.ndarray:
    if not coords:
        return np.ones(1)
    return reduce(np.kron, [nu.measures[c].probs for c in reversed(coords)])


def _cell_view(values: np.ndarray, n: int, s: int, J) -> tuple:
    """Reshape a flat table to (cells of J, free points), both indexed in
    the usual least-significant-first digit order over sorted coordinates."""
    Js = sorted(J)
    F = [i for i in range(n) if i not in Js]
    arr = values.reshape((s,) * n)
    perm = [n - 1 - j for j in reversed(Js)] + [n - 1 - i for i in reversed(F)]
    G = arr.transpose(perm).reshape(s ** len(Js), s ** len(F))
    return G, Js, F


def _noise_op(probs: np.ndarray, rho: float) -> np.ndarray:
    s = probs.size
    return rho * np.eye(s) + (1 - rho) * np.tile(probs, (s, 1))


def _stab_cells(Gt, axis_coords, nu, rho, w_free) -> np.ndarray:
    """Noise stability of every cell restriction at once.

    Gt has shape (cells, s, ..., s); axis_coords[k] names the coordinate
    living on tensor axis k + 1.
    """
    X = Gt
    for a, coord in enumerate(axis_coords, start=1):
        R = _noise_op(nu.measures[coord].probs, rho)
        X = np.moveaxis(np.tensordot(R, X, axes=([1], [a])), 0, a)
    C = Gt.shape[0]
    prod = (Gt * X).reshape(C, -1)
    return prod @ w_free


def _cell_influence_tables(values, n, s, J, nu, rho):
    """Per-cell stability and noisy influences of all free coordinates.

    Returns (cell weights, stabilities (C,), influences (|F|, C), free list).
    """
    G, Js, F = _cell_view(values, n, s, J)
    f = len(F)
    C = G.shape[0]
    w_cells = _kron_weights(nu, Js)
    w_free = _kron_weights(nu, F)
    Gt = G.reshape((C,) + (s,) * f)
    axis_coords = list(reversed(F))  # tensor axis k+1 holds this coordinate
    stab = _stab_cells(Gt, axis_coords, nu, rho, w_free)
    infs = np.zeros((f, C))
    for a, coord in enumerate(axis_coords, start=1):
        probs = nu.measures[coord].probs
        H = np.tensordot(probs, Gt, axes=([0], [a]))
        H = np.broadcast_to(np.expand_dims(H, a), Gt.shape)
        stab_avg = _stab_cells(H, axis_coords, nu, rho, w_free)
        infs[F.index(coord)] = stab - stab_avg
    return w_cells, stab, infs, F


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


def potential(fs, measures, rho: float, J) -> float:
    """Sum over functions of the cell-averaged noise stability under J,
    each function weighted by its own measure."""
    measures = _check_inputs(fs, measures, rho)
    tables, owners = _expand_real(fs)
    n, s = fs[0].n, fs[0].s
    total = 0.0
    for vals, j in zip(tables, owners):
        w_cells, stab, _, _ = _cell_influence_tables(vals, n, s, J, measures[j], rho)
        total += float(w_cells @ stab)
    return total


def build_junta_noisy(fs, measures, rho: float, tau: float, eps: float,
                      cell_cap: int = CELL_CAP,
                      initial=()) -> RegularityCertificate:
    """Grow a junta until, for every function, cells of total mass at least
    1 - eps restrict it to noisy influences all at most tau.

    Each growth step adds the smallest set of coordinates whose measured
    potential gain reaches (1 - rho) / rho * eps * tau; a single coordinate
    cannot always promise that much on its own, but the set of per-cell
    witnesses always can, so the step count stays below the potential
    budget.  Within a step, coordinates enter by decreasing total gain,
    ties to the lowest index.
    """
    measures = _check_inputs(fs, measures, rho)
    if not (0 < eps < 1):
        raise DomainError("eps must lie strictly between 0 and 1")
    if not tau > 0:  # also refuses NaN
        raise DomainError("tau must be positive")
    n, s = fs[0].n, fs[0].s
    tables, owners = _expand_real(fs)
    coef = (1 - rho) / rho
    required = coef * eps * tau
    step_bound = math.floor(len(tables) / (coef * eps * tau)) + 1
    J = sorted(set(initial))
    if any(not (0 <= i < n) for i in J):
        raise DomainError("initial junta outside coordinate range")
    steps = []
    potentials = []
    while True:
        if s ** len(J) > cell_cap:
            raise ResourceError(
                f"junta partition needs {s}^{len(J)} cells, above cap {cell_cap}")
        per_table = [
            _cell_influence_tables(vals, n, s, J, measures[j], rho)
            for vals, j in zip(tables, owners)]
        phi = math.fsum(
            float(w_cells @ stab) for w_cells, stab, _, _ in per_table)
        potentials.append(phi)
        F = per_table[0][3]
        bad_mass = [0.0] * len(fs)
        if F:
            bad_masks: dict[int, np.ndarray] = {}
            for (w_cells, _, infs, _), j in zip(per_table, owners):
                mask = (infs > tau).any(axis=0)
                prev = bad_masks.get(j)
                bad_masks[j] = mask if prev is None else prev | mask
            for (w_cells, _, _, _), j in zip(per_table, owners):
                bad_mass[j] = float(w_cells[bad_masks[j]].sum())
        if all(b <= eps for b in bad_mass) or not F:
            regular = all(b <= eps for b in bad_mass)
            regular_mass = tuple(1.0 - b for b in bad_mass)
            return RegularityCertificate(
                junta=tuple(J), steps=tuple(steps), potentials=tuple(potentials),
                rho=rho, threshold=tau, eps=eps, regular=regular,
                regular_mass=regular_mass, step_bound=step_bound, mode="noisy")
        gains = np.zeros(len(F))
        for w_cells, _, infs, _ in per_table:
            gains += coef * (infs @ w_cells)
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


def _cell_pieces(f: FunctionTable, J, nu: ProductMeasure, cap: int):
    """Yield (cell, weight, sub-tables) over the cells of sorted J; sym
    tables expand into one indicator per symbol.  An empty J yields the
    whole domain as a single cell of weight one."""
    subs = [f] if f.codomain != "sym" else [
        indicator_table(f, sigma) for sigma in range(f.s)]
    if not J:
        yield (), 1.0, subs
        return
    nu_J = nu.subset(J)
    for pieces in zip(*(enumerate_cells(g, J, nu_J, cap=cap) for g in subs)):
        yield pieces[0][0], pieces[0][1], [p[2] for p in pieces]


def _cell_influence_records(f: FunctionTable, J, d: int, tau: float,
                            nu: ProductMeasure, cap: int) -> list | None:
    """Per cell of sorted J, the largest degree-at-most-d influence of the
    restriction (max over free coordinates, and over symbols for sym
    tables), with ties keeping the earliest coordinate.  None when J
    leaves no coordinate free: every cell is then a single point, hence
    constant and regular."""
    if d < 1:
        raise DomainError("degree must be at least 1")
    if not tau > 0:  # also refuses NaN
        raise DomainError("tau must be positive")
    J = sorted(set(J))
    if len(J) >= f.n:
        return None
    if f.s ** len(J) > cap:
        raise ResourceError("too many cells to enumerate")
    F = [i for i in range(f.n) if i not in J]
    nu_F = nu.subset(F)
    records = []
    for cell, weight, subs in _cell_pieces(f, J, nu, cap):
        best = (-1.0, -1)
        for sub in subs:
            dec = efron_stein(sub, nu_F)
            for k, coord in enumerate(F):
                v = dec.low_degree_influence(k, d)
                if v > best[0]:
                    best = (v, coord)
        records.append(WorstCell(cell=cell, influence=best[0],
                                 coordinate=best[1], weight=weight))
    return records


def cell_regular_fraction(f: FunctionTable, J, d: int, tau: float,
                          nu: ProductMeasure,
                          cap: int = CELL_CAP) -> CellRegularityReport:
    """Exact mass of cells whose restriction has all degree-at-most-d
    influences at most tau, plus the WORST_CELLS worst offending cells."""
    records = _cell_influence_records(f, J, d, tau, nu, cap)
    if records is None:
        return CellRegularityReport(1.0, (), d, tau)
    mass = math.fsum(r.weight if r.influence <= tau else 0.0 for r in records)
    worst = tuple(sorted((r for r in records if r.influence > tau),
                         key=lambda r: -r.influence)[:WORST_CELLS])
    return CellRegularityReport(regular_mass=mass, worst=worst, degree=d, tau=tau)


def regular_cell_mask(f: FunctionTable, J, d: int, tau: float,
                      nu: ProductMeasure, cap: int = CELL_CAP) -> np.ndarray:
    """Boolean flag per cell of sorted J (least-significant-first cell
    index order): True when the restriction to the cell has every
    degree-at-most-d influence at most tau."""
    records = _cell_influence_records(f, J, d, tau, nu, cap)
    if records is None:
        return np.ones(f.s ** f.n, dtype=bool)
    return np.array([r.influence <= tau for r in records], dtype=bool)


def build_junta_lowdeg(fs, measures, d: int, tau: float, eps: float,
                       cell_cap: int = CELL_CAP,
                       initial=()) -> RegularityCertificate:
    """Low-degree regularity via the noisy proxy.

    With rho = 1 - 1/d (rho = 1/2 when d = 1), a noisy influence at most
    tau * rho^d forces every influence of degree at most d to be at most
    tau, so the noisy growth loop certifies the low-degree property; the
    direct per-cell check is re-run at the end and reported alongside.
    """
    if d < 1:
        raise DomainError("degree must be at least 1")
    rho = 0.5 if d == 1 else 1.0 - 1.0 / d
    theta = tau * rho ** d
    cert = build_junta_noisy(fs, measures, rho, theta, eps,
                             cell_cap=cell_cap, initial=initial)
    ms = _check_inputs(fs, measures, rho)
    direct = tuple(
        cell_regular_fraction(f, cert.junta, d, tau, nu, cap=cell_cap).regular_mass
        for f, nu in zip(fs, ms))
    return RegularityCertificate(
        junta=cert.junta, steps=cert.steps, potentials=cert.potentials,
        rho=rho, threshold=theta, eps=eps, regular=cert.regular,
        regular_mass=cert.regular_mass, step_bound=cert.step_bound,
        mode="lowdeg", degree=d, tau=tau, direct_regular_mass=direct)
