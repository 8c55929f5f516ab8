"""Rounding approximate polymorphisms into exact ones.

Entry points by predicate shape:

  correct_monotone         monotone binary predicates, zero out bad cells
  correct_general          binary predicates, peeling + junta + restriction
  correct_alphabet         all-flexible predicates over larger alphabets
  correct_fractional_nand  [0, 1]-valued pairs against the binary NAND

Supporting tools: character decoders (blr_decode_uniform, nearest_character),
affine-relation peeling, per-cell rounding under a sampled restriction, and
the Markov-chain agreement bound (TransitionChain, markov_agreement,
second_eigenvalue) plus the subset-family lift friedgut_regev_lift.

Everything here is exact at desk scale: corrections are verified against the
brute-force polymorphism oracle before a run is accepted.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
import math

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedError, ValidationError
from .funcspace import (FunctionTable, Measure, PartialAssignment,
                        ProductMeasure, character, constant, distance,
                        from_values)
from .harmonics import _apply_along_axis
from .predicates import (Predicate, affine_relations, classify_short_relations,
                         flexible_coordinates, maxterms, star_law)
from .polytest import (ColumnRestriction, Counterexample,
                       is_generalized_polymorphism)
from .regularity import (CELL_CAP, RegularityCertificate, _cell_view,
                         build_junta_lowdeg, regular_cell_mask)

DECODE_N_CAP = 20          # exhaustive character decoding: 2^n * 2 candidates
JUNTA_SEED_CAP = 14        # cap on the junta seeded from decoded supports
DISTANCE_BUDGET = 0.25     # per-function acceptance budget
CHAIN_TOL = 1e-12          # symmetry / stochasticity tolerance for chains


# -- result containers ---------------------------------------------------------

@dataclass(frozen=True)
class CharacterFit:
    """Closest parity character: chi(x) = offset xor (xor of x_i over support)."""

    support: tuple
    offset: int
    distance: float


@dataclass(frozen=True)
class BlrDecoding:
    support: tuple
    offset: int
    distance: float
    max_coefficient: float


@dataclass(frozen=True)
class DecodedCharacter:
    coordinate: int
    support: tuple
    offset: int
    distance: float


@dataclass(frozen=True)
class PeelingResult:
    """Outcome of iterated affine-relation peeling.

    free: coordinates never touched by a relation (no character decoded).
    active: coordinates still active when no relation remained.
    characters: decoded characters for every coordinate that appeared in a
    used relation, active or not.  relations lists (support, b, deactivated)
    in peel order.  unique_extension records that every member of the
    projection onto the active set lifts back to exactly one member.
    """

    free: tuple
    active: tuple
    characters: tuple
    relations: tuple
    conflicts: tuple
    unique_extension: bool


@dataclass(frozen=True)
class RoundedCells:
    """Cell-rounded tables plus the per-function cell coloring.

    colors[j][c] is 0 or 1 when cell c of function j was fixed to that
    constant and -1 when the cell kept its original values.  decisions
    holds the same information as strings ("fixed-0", "fixed-1", "kept").
    """

    gs: tuple
    colors: tuple
    decisions: tuple


@dataclass(frozen=True)
class RestrictionAttempt:
    index: int
    exact: bool
    characters_preserved: bool
    total_distance: float


@dataclass(frozen=True)
class CorrectionTrace:
    junta: tuple
    eta: float | None
    restriction: ColumnRestriction | None
    decisions: tuple
    roles: tuple
    attempts: tuple = ()
    peeling: PeelingResult | None = None
    certificate: RegularityCertificate | None = None
    negated: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class CorrectionResult:
    """Corrected tuple with verification and audit trail.

    distances[j] is Pr[g_j != f_j] under the product of the j-th member
    marginal.  exact records the brute-force polymorphism check of gs;
    accepted additionally requires the run's side conditions (per-function
    distances within budget, decoded characters preserved).
    """

    gs: tuple
    distances: tuple
    exact: bool
    accepted: bool
    counterexample: Counterexample | None
    trace: CorrectionTrace


@dataclass(frozen=True)
class FractionalCorrection:
    """Boolean junta pair replacing a fractional NAND polymorphism.

    losses[j] = E[(1 - g_j) f_j], the mass of f_j written off by g_j.
    """

    gs: tuple
    losses: tuple
    exact: bool
    accepted: bool
    counterexample: Counterexample | None
    trace: CorrectionTrace


@dataclass(frozen=True)
class AgreementReport:
    """Nearly invariant functions are nearly constant: the certificate."""

    symbol: int
    disagreement: float
    lam: float
    bound: float
    miss_probability: float


# -- shared helpers ------------------------------------------------------------

def _attempt_rng(seed: int, attempt: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), attempt % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _require_tables(fs, m: int, codomains=("bit",)) -> tuple[int, int]:
    if len(fs) != m:
        raise DomainError(f"need {m} functions, got {len(fs)}")
    n, s = fs[0].n, fs[0].s
    for f in fs:
        if f.n != n or f.s != s:
            raise DomainError("functions disagree on domain")
        if f.codomain not in codomains:
            raise UnsupportedError(f"codomain {f.codomain!r} is not supported here")
    return n, s


def _cell_index_map(n: int, s: int, J) -> np.ndarray:
    """Point index -> cell index over sorted J (least significant first)."""
    idx = np.arange(s ** n)
    out = np.zeros(s ** n, dtype=np.int64)
    for k, c in enumerate(sorted(J)):
        out += ((idx // s ** c) % s) * s ** k
    return out


def _free_weights(n: int, s: int, free, assignment: PartialAssignment,
                  marginal: Measure) -> np.ndarray:
    """Kronecker weights over the free axis of a cell view: fixed entries
    contribute a point mass, open entries (stars) the given marginal."""
    entries = [assignment.entries[c] for c in reversed(list(free))]
    vecs = [marginal.probs if v is None else np.eye(s)[v] for v in entries]
    return reduce(np.kron, vecs) if vecs else np.ones(1)


def _cell_averages(values: np.ndarray, f: FunctionTable, J, assignment,
                   marginal: Measure) -> np.ndarray:
    """Average of a table on f's domain over every cell of sorted J under
    the restriction; open coordinates outside J average against the
    marginal."""
    G, _, F = _cell_view(values, f.n, f.s, J)
    return G @ _free_weights(f.n, f.s, F, assignment, marginal)


def _restricted_cell_expectations(f: FunctionTable, J, assignment,
                                  marginal: Measure) -> np.ndarray:
    """E[f | cell, restriction] for every cell of sorted J at once."""
    return _cell_averages(f.as_real(), f, J, assignment, marginal)


def _restricted_value_probs(f: FunctionTable, J, assignment,
                            marginal: Measure) -> np.ndarray:
    """Shape (s, cells): probability of each output symbol per cell."""
    return np.vstack([_cell_averages((f.values == sigma).astype(float), f, J,
                                     assignment, marginal)
                      for sigma in range(f.s)])


def _iid_marginal(P: Predicate, j: int, n: int) -> ProductMeasure:
    return ProductMeasure.iid(P.marginal_measure(j), n)


def _negate_table(f: FunctionTable) -> FunctionTable:
    """Flip all inputs and the output; an involution on binary tables."""
    if f.s != 2 or f.codomain != "bit":
        raise UnsupportedError("negation normalization needs binary tables")
    return from_values(f.n, 2, "bit", 1 - f.values[::-1])


def _negate_predicate(P: Predicate, N) -> Predicate:
    members = [tuple(w[j] ^ (1 if j in N else 0) for j in range(P.m))
               for w in P.members]
    return Predicate(P.m, P.s, members, list(P.weights))


def _forced_input_rejection(P: Predicate, fs, eta: float, roles: tuple,
                            note: str) -> CorrectionResult:
    """Reject a run whose function is wrong on the forced input of a
    constant coordinate.  The counterexample repeats one member in every
    column, which pins each constant coordinate to its forced value."""
    ce = Counterexample.from_columns(fs, [P.members[0]] * fs[0].n)
    trace = CorrectionTrace(junta=(), eta=eta, restriction=None,
                            decisions=tuple(() for _ in fs), roles=roles,
                            notes=(note,))
    return CorrectionResult(gs=tuple(fs), distances=(0.0,) * P.m, exact=False,
                            accepted=False, counterexample=ce, trace=trace)


def _symmetry_notes(P: Predicate, fs, gs) -> tuple:
    notes = []
    for i in range(P.m):
        for j in range(i + 1, P.m):
            if fs[i].equals(fs[j]) and P.marginal(i) == P.marginal(j):
                if not gs[i].equals(gs[j]):
                    notes.append(f"symmetry broken: f_{i} = f_{j} under equal "
                                 f"marginals but g_{i} != g_{j}")
    return tuple(notes)


# -- character decoding --------------------------------------------------------

def _pick_character(transform: np.ndarray, n: int) -> tuple[tuple, int, float]:
    """Largest |coefficient| wins; exact ties resolve to the smallest
    sorted support, then to offset 0."""
    mags = np.abs(transform)
    top = mags.max()
    best = None
    for mask in np.flatnonzero(mags == top):
        sup = tuple(i for i in range(n) if (int(mask) >> i) & 1)
        v = transform[mask]
        b = 0 if v > 0 else (1 if v < 0 else 0)
        key = (sup, b)
        if best is None or key < best[0]:
            best = (key, sup, b)
    return best[1], best[2], float(top)


def blr_decode_uniform(f: FunctionTable) -> BlrDecoding:
    """Decode the nearest parity character under the uniform measure.

    Exact integer transform of (-1)^f; returns the winning character, its
    exact distance to f, and the top coefficient magnitude.  When f is
    delta-close to a character with delta below 1/4, that character is the
    unique winner and the reported distance equals delta.
    """
    if f.s != 2 or f.codomain != "bit":
        raise UnsupportedError("BLR decoding needs Boolean tables")
    n = f.n
    arr = (1 - 2 * f.values.astype(np.int64)).reshape((2,) * n)
    H = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for axis in range(n):
        arr = _apply_along_axis(H, arr, axis)
    W = arr.reshape(-1)
    sup, b, top = _pick_character(W, n)
    denom = 1 << n
    return BlrDecoding(support=sup, offset=b,
                       distance=(denom - top) / (2.0 * denom),
                       max_coefficient=top / denom)


def nearest_character(f: FunctionTable, nu: ProductMeasure) -> CharacterFit:
    """Exhaustive nearest parity character under a product measure.

    Minimizes Pr_nu[f != chi] over all 2^n supports and both offsets via
    one weighted transform; ties as in blr_decode_uniform.
    """
    if f.s != 2 or f.codomain != "bit":
        raise UnsupportedError("character decoding needs Boolean tables")
    if nu.n != f.n or any(mu.s != 2 for mu in nu.measures):
        raise DomainError("measure does not match the function domain")
    if f.n > DECODE_N_CAP:
        raise ResourceError(f"n = {f.n} exceeds the decoding cap {DECODE_N_CAP}")
    n = f.n
    arr = (1.0 - 2.0 * f.as_real()).reshape((2,) * n)
    for i in range(n):
        p0, p1 = nu.measures[i].probs
        M = np.array([[p0, p1], [p0, -p1]])
        arr = _apply_along_axis(M, arr, n - 1 - i)
    T = arr.reshape(-1)
    sup, b, top = _pick_character(T, n)
    return CharacterFit(support=sup, offset=b, distance=(1.0 - top) / 2.0)


# -- affine-relation peeling ---------------------------------------------------

def peel_affine_relations(P: Predicate, fs, eps: float) -> PeelingResult:
    """Peel affine relations of P, decoding a character per touched function.

    Repeatedly picks the smallest remaining relation supported on active
    coordinates (ties lexicographic), decodes every function on it to its
    nearest character under the matching member marginal, and deactivates
    the largest coordinate of the relation.  Requires that P has no
    relation of size below 3 (normalize with classify_short_relations
    first); projections then never create short relations either, since a
    relation of the projection is a relation of P inside the active set.

    Conflicts are reported, not repaired: a used relation whose decoded
    characters cannot satisfy it (mismatched supports or offsets), or a
    decoded character further than eps from its function.
    """
    n, _ = _require_tables(fs, P.m)
    rels = affine_relations(P)
    if any(len(S) < 3 for S, _ in rels):
        raise ValidationError("P has affine relations of size < 3; "
                              "normalize them away first")
    active = set(range(P.m))
    fits: dict[int, CharacterFit] = {}
    used = []
    conflicts = []
    while True:
        pick = next(((S, b) for S, b in rels if S <= active), None)
        if pick is None:
            break
        S, b = pick
        for j in sorted(S):
            if j not in fits:
                fits[j] = nearest_character(fs[j], _iid_marginal(P, j, n))
                if fits[j].distance > eps:
                    conflicts.append(
                        f"coordinate {j}: decoded character distance "
                        f"{fits[j].distance:.4g} exceeds eps = {eps:g}")
        sups = {fits[j].support for j in S}
        if len(sups) > 1:
            conflicts.append(f"relation {tuple(sorted(S))}: decoded supports "
                             f"disagree")
        else:
            common = next(iter(sups))
            off = (len(common) % 2) * b
            for j in S:
                off ^= fits[j].offset
            if off != b:
                conflicts.append(f"relation {tuple(sorted(S))}: decoded "
                                 f"offsets violate the relation")
        drop = max(S)
        active.remove(drop)
        used.append((tuple(sorted(S)), b, drop))
    proj = P.project(sorted(active)) if len(active) < P.m else P
    unique = len(proj.members) == len(P.members)
    chars = tuple(DecodedCharacter(j, fits[j].support, fits[j].offset,
                                   fits[j].distance)
                  for j in sorted(fits))
    free = tuple(j for j in range(P.m) if j not in fits)
    return PeelingResult(free=free, active=tuple(sorted(active)),
                         characters=chars, relations=tuple(used),
                         conflicts=tuple(conflicts), unique_extension=unique)


# -- cell rounding under a restriction -----------------------------------------

def _as_assignments(rho, m: int, n: int, s: int) -> list[PartialAssignment]:
    if isinstance(rho, ColumnRestriction):
        out = [rho.assignment_for(j) for j in range(m)]
    else:
        out = list(rho)
    if len(out) != m:
        raise DomainError(f"need one restriction row per function, got {len(out)}")
    for a in out:
        if a.n != n or a.s != s:
            raise DomainError("restriction rows do not match the functions")
    return out


def round_general_cell(fs, J, rho, eta: float, P: Predicate) -> RoundedCells:
    """Round every cell of J by its restricted expectation.

    For each function j the expectation of f_j on a cell, with coordinates
    outside J read from rho (stars average against the member marginal
    mu|_j), decides the cell: at most eta fixes constant 0, at least
    1 - eta fixes constant 1, anything else keeps the original values on
    the whole cell.  A row without stars makes every expectation 0 or 1,
    so such a function is always fixed cell by cell.
    """
    if not 0.0 <= eta < 0.5:
        raise DomainError("eta must lie in [0, 1/2)")
    n, s = _require_tables(fs, P.m)
    if s != 2 or P.s != 2:
        raise UnsupportedError("cell rounding is defined for binary alphabets")
    assignments = _as_assignments(rho, P.m, n, s)
    cell_idx = _cell_index_map(n, s, J)
    gs, colors, decisions = [], [], []
    names = {0: "fixed-0", 1: "fixed-1", -1: "kept"}
    for j, f in enumerate(fs):
        E = _restricted_cell_expectations(f, J, assignments[j],
                                          P.marginal_measure(j))
        col = np.where(E <= eta, 0, np.where(E >= 1.0 - eta, 1, -1)).astype(np.int8)
        mapped = col[cell_idx]
        gvals = np.where(mapped < 0, f.values, mapped).astype(np.uint8)
        gs.append(from_values(n, 2, "bit", gvals))
        colors.append(col)
        decisions.append(tuple(names[int(c)] for c in col))
    return RoundedCells(gs=tuple(gs), colors=tuple(colors),
                        decisions=tuple(decisions))


# -- cells kept by regularity and mass ----------------------------------------

def _regular_heavy_cells(P: Predicate, fs, coords, d: int, tau: float,
                         eps: float):
    """Grow one regularity junta J for the functions at coords, then flag,
    per function, the cells of J that are regular and have expectation
    above eps / 2: the only cells the monotone and fractional rules keep.

    Returns (certificate, point -> cell index map, one flag array per
    function in coords).
    """
    n = fs[0].n
    measures = [_iid_marginal(P, j, n) for j in coords]
    cert = build_junta_lowdeg([fs[j] for j in coords], measures, d, tau, eps,
                              cell_cap=CELL_CAP)
    J = cert.junta
    everywhere = PartialAssignment([None] * n, 2)
    keep = []
    for j, nu in zip(coords, measures):
        regular = regular_cell_mask(fs[j], J, d, tau, nu, cap=CELL_CAP)
        E = _restricted_cell_expectations(fs[j], J, everywhere,
                                          P.marginal_measure(j))
        keep.append(regular & (E > eps / 2))
    return cert, _cell_index_map(n, 2, J), keep


# -- monotone predicates -------------------------------------------------------

def correct_monotone(P: Predicate, fs, eps: float, d: int,
                     tau: float) -> CorrectionResult:
    """Correct an approximate polymorphism of a monotone binary predicate.

    Builds one junta J making every non-constant-coordinate function
    cell-regular, then zeroes each cell that is irregular or has
    expectation at most eps / 2 and keeps the rest verbatim.  Functions on
    always-zero coordinates are kept as they are; their input is forced to
    the all-zero point, so f_j(0, ..., 0) = 1 is an immediate violation
    and rejects the run.  The output never exceeds the input pointwise.
    """
    if P.s != 2:
        raise UnsupportedError("monotone correction is defined for binary alphabets")
    maxterms(P)  # raises unless P is monotone
    n, _ = _require_tables(fs, P.m)
    if eps <= 0:
        raise DomainError("eps must be positive")
    consts = classify_short_relations(P).constants
    roles = tuple("constant-coordinate" if j in consts else "cells"
                  for j in range(P.m))
    for j, b in consts.items():
        if b != 0:
            raise ValidationError("monotone predicate with a constant-one "
                                  "coordinate")
        if fs[j].eval((0,) * n) != 0:
            return _forced_input_rejection(
                P, fs, eps / 2, roles, f"f_{j} is 1 on the forced all-zero "
                f"input of constant coordinate {j}")
    rest = [j for j in range(P.m) if j not in consts]
    cert = None
    J: tuple = ()
    gs = list(fs)
    decisions: list[tuple] = [() for _ in fs]
    if rest:
        cert, cell_idx, keep = _regular_heavy_cells(P, fs, rest, d, tau, eps)
        J = cert.junta
        for j, kept in zip(rest, keep):
            gvals = np.where(kept[cell_idx], fs[j].values, 0).astype(np.uint8)
            gs[j] = from_values(n, 2, "bit", gvals)
            decisions[j] = tuple("kept" if k else "zeroed" for k in kept)
    exact, ce = is_generalized_polymorphism(P, gs)
    dists = tuple(float(distance(fs[j], gs[j], _iid_marginal(P, j, n)))
                  for j in range(P.m))
    trace = CorrectionTrace(junta=tuple(J), eta=eps / 2, restriction=None,
                            decisions=tuple(decisions), roles=roles,
                            certificate=cert)
    return CorrectionResult(gs=tuple(gs), distances=dists, exact=exact,
                            accepted=exact, counterexample=ce, trace=trace)


# -- restriction search --------------------------------------------------------

def _draw_outside(law, n: int, J, rng) -> ColumnRestriction:
    """Sample one star-law pattern per coordinate outside J; coordinates in
    J stay entirely free (they are the cell axes)."""
    m = law.predicate.m
    outside = [i for i in range(n) if i not in J]
    patterns: list[tuple] = [(None,) * m] * n
    if outside:
        idx = law.sample_indices(rng, len(outside))
        for i, k in zip(outside, idx):
            patterns[i] = law.patterns[int(k)]
    return ColumnRestriction(patterns, law.predicate.s)


@dataclass(frozen=True)
class _Rounding:
    """The winning attempt of a restriction search."""

    restriction: ColumnRestriction
    gs: tuple
    decisions: tuple
    exact: bool
    counterexample: Counterexample | None
    preserved: bool
    distances: tuple


def _search_restrictions(P: Predicate, fs, measures, J, round_cells, *,
                         seed: int, attempts: int, preserve: dict) -> tuple:
    """The restriction loop shared by correct_general and correct_alphabet.

    Attempt a draws a star-law restriction of P outside J from the
    (seed, a) stream, and round_cells(restriction) turns it into
    (tables, per-cell decisions).  The tables are checked exactly against
    P, compared with the tables named in preserve (position -> table that
    must come out unchanged), and measured against fs under measures.
    Attempts rank by (not exact, not preserved, total distance, index); the
    loop stops at the first exact, preserving attempt whose every distance
    is within DISTANCE_BUDGET.  Returns (winning _Rounding, attempt log).
    """
    n = fs[0].n
    law = star_law(P, "general")
    best = None
    log = []
    for a in range(attempts):
        restriction = _draw_outside(law, n, J, _attempt_rng(seed, a))
        gs, decisions = round_cells(restriction)
        ok, ce = is_generalized_polymorphism(P, gs)
        preserved = all(gs[q].equals(g) for q, g in preserve.items())
        dists = tuple(float(distance(f, g, nu))
                      for f, g, nu in zip(fs, gs, measures))
        total = math.fsum(dists)
        log.append(RestrictionAttempt(index=a, exact=ok,
                                      characters_preserved=preserved,
                                      total_distance=total))
        key = (not ok, not preserved, total, a)
        if best is None or key < best[0]:
            best = (key, _Rounding(restriction, tuple(gs), tuple(decisions),
                                   ok, ce, preserved, dists))
        if ok and preserved and all(t <= DISTANCE_BUDGET for t in dists):
            break
    return best[1], tuple(log)


# -- general binary predicates -------------------------------------------------

def _seed_junta(supports, cap: int) -> tuple:
    """Union of decoded supports, greedily by (size, lex) under a cap."""
    out: set = set()
    for sup in sorted(supports, key=lambda t: (len(t), t)):
        if len(out | set(sup)) <= cap:
            out |= set(sup)
    return tuple(sorted(out))


def correct_general(P: Predicate, fs, eps: float, eta: float | None = None,
                    d: int = 2, tau: float = 0.1, attempts: int = 64,
                    seed: int = 0) -> CorrectionResult:
    """Correct an approximate polymorphism of a binary predicate.

    Pipeline: normalize short affine relations away (always-constant
    coordinates and negation-equal pairs), peel the remaining relations
    while decoding characters, seed a junta from the decoded supports and
    grow it until the character-free functions are cell-regular, then
    sample restrictions from the star law until rounding the cells yields
    an exact polymorphism of the projected predicate that also preserves
    the decoded characters and keeps every distance within
    DISTANCE_BUDGET.  The winner extends back over peeled, constant and
    duplicate coordinates and is re-verified against the full predicate.

    Runs with no exact attempt are rejected and carry per-attempt
    diagnostics; symmetry between equal functions is reported when broken
    but not repaired.
    """
    if P.s != 2:
        raise UnsupportedError("general correction is defined for binary alphabets")
    n, _ = _require_tables(fs, P.m)
    if eps <= 0:
        raise DomainError("eps must be positive")
    if eta is None:
        eta = eps / 2
    if not 0.0 <= eta < 0.5:
        raise DomainError("eta must lie in [0, 1/2)")
    if attempts < 1:
        raise DomainError("need at least one restriction attempt")
    m = P.m
    cls = classify_short_relations(P)

    # forced constant inputs are a hard premise, checked in original polarity
    for j, b in cls.constants.items():
        if fs[j].eval((b,) * n) != b:
            return _forced_input_rejection(
                P, fs, eta, (None,) * m, f"f_{j} disagrees with constant "
                f"coordinate {j} on its forced input")

    negated = {j for j, b in cls.constants.items() if b == 1}
    dup_of: dict[int, int] = {}
    for rep, members in cls.classes.items():
        for k, neg in members.items():
            if k != rep:
                dup_of[k] = rep
                if neg == 1:
                    negated.add(k)
    P_neg = _negate_predicate(P, negated) if negated else P
    fs_neg = [(_negate_table(f) if j in negated else f)
              for j, f in enumerate(fs)]

    reps = list(cls.representatives)
    P_rep = P_neg.project(reps) if len(reps) < m else P_neg
    fs_rep = [fs_neg[j] for j in reps]
    peel = peel_affine_relations(P_rep, fs_rep, eps)
    char_of = {c.coordinate: c for c in peel.characters}

    f_prime = [character(n, char_of[r].support, char_of[r].offset)
               if r in char_of else fs_rep[r] for r in range(len(reps))]
    I_pos = list(peel.active)
    F_pos = list(peel.free)
    J0 = _seed_junta([char_of[r].support for r in I_pos if r in char_of],
                     JUNTA_SEED_CAP)
    cert = None
    if F_pos:
        cert = build_junta_lowdeg([f_prime[r] for r in F_pos],
                                  [_iid_marginal(P_rep, r, n) for r in F_pos],
                                  d, tau, eps, cell_cap=CELL_CAP, initial=J0)
        J = tuple(cert.junta)
    else:
        J = J0

    P_I = P_rep.project(I_pos) if len(I_pos) < len(reps) else P_rep
    fs_I = [f_prime[r] for r in I_pos]

    def round_cells(restriction):
        rounded = round_general_cell(fs_I, J, restriction, eta, P_I)
        return rounded.gs, rounded.decisions

    win, attempt_log = _search_restrictions(
        P_I, [fs_rep[r] for r in I_pos],
        [_iid_marginal(P_I, q, n) for q in range(len(I_pos))], J, round_cells,
        seed=seed, attempts=attempts,
        preserve={q: f_prime[r] for q, r in enumerate(I_pos) if r in char_of})

    # extend over peeled coordinates, then duplicates and constants, then
    # undo the negation normalization
    gs_neg: list = [None] * m
    roles: list = [None] * m
    decisions: list = [()] * m
    for q, r in enumerate(I_pos):
        j = reps[r]
        gs_neg[j], decisions[j] = win.gs[q], win.decisions[q]
        roles[j] = "character" if r in char_of else "rounded"
    for r in range(len(reps)):
        if r not in I_pos:
            gs_neg[reps[r]], roles[reps[r]] = f_prime[r], "character"
    for k, rep in dup_of.items():
        gs_neg[k], roles[k] = gs_neg[rep], f"duplicate-of-{rep}"
    for j, b in cls.constants.items():
        gs_neg[j], roles[j] = constant(n, 0, 2, "bit"), f"constant-{b}"
    gs = tuple(_negate_table(g) if j in negated else g
               for j, g in enumerate(gs_neg))

    exact, ce = is_generalized_polymorphism(P, gs)
    dists = tuple(float(distance(fs[j], gs[j], _iid_marginal(P, j, n)))
                  for j in range(m))
    accepted = (exact and win.exact and win.preserved
                and all(t <= DISTANCE_BUDGET for t in dists))

    notes = list(peel.conflicts)
    if not peel.unique_extension:
        notes.append("projection onto the active coordinates is not uniquely "
                     "extendable")
    notes.extend(_symmetry_notes(P, fs, gs))
    trace = CorrectionTrace(junta=tuple(J), eta=eta, restriction=win.restriction,
                            decisions=tuple(decisions), roles=tuple(roles),
                            attempts=attempt_log, peeling=peel,
                            certificate=cert, negated=tuple(sorted(negated)),
                            notes=tuple(notes))
    return CorrectionResult(gs=gs, distances=dists, exact=exact,
                            accepted=accepted, counterexample=ce, trace=trace)


# -- larger alphabets, all coordinates flexible ---------------------------------

def correct_alphabet(P: Predicate, fs, eps: float, eta: float | None = None,
                     d: int = 2, tau: float = 0.1, attempts: int = 64,
                     seed: int = 0) -> CorrectionResult:
    """Correct an approximate polymorphism over any alphabet, assuming
    every coordinate of P is flexible.

    Cells come from one joint regularity junta; under a sampled
    restriction each cell keeps the output symbols whose restricted
    probability reaches eta and remaps the rest to the most likely
    survivor (ties to the smallest symbol).  With eta at most 1/|Sigma|
    the survivor set is never empty.  Attempts are accepted exactly as in
    correct_general; the winner's check is the run's verdict.
    """
    flex = flexible_coordinates(P)
    bad = [fc.coordinate for fc in flex if not fc.flexible]
    if bad:
        raise ValidationError(f"coordinates {bad} are not flexible")
    codoms = ("bit", "sym") if P.s == 2 else ("sym",)
    n, s = _require_tables(fs, P.m, codomains=codoms)
    if s != P.s:
        raise DomainError("function alphabet does not match the predicate")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if eta is None:
        eta = min(eps / 2, 1.0 / s)
    if not 0.0 < eta <= 1.0 / s:
        raise DomainError("eta must lie in (0, 1/|Sigma|]")
    if attempts < 1:
        raise DomainError("need at least one restriction attempt")
    m = P.m
    measures = [_iid_marginal(P, j, n) for j in range(m)]
    cert = build_junta_lowdeg(fs, measures, d, tau, eps, cell_cap=CELL_CAP)
    J = tuple(cert.junta)
    cell_idx = _cell_index_map(n, s, J)

    def round_cells(restriction):
        gs, decisions = [], []
        for j, f in enumerate(fs):
            probs = _restricted_value_probs(f, J, restriction.assignment_for(j),
                                            P.marginal_measure(j))
            survivors = probs >= eta
            sigma0 = np.argmax(probs, axis=0)
            keep = survivors[f.values, cell_idx]
            gvals = np.where(keep, f.values, sigma0[cell_idx]).astype(np.uint8)
            changed = np.zeros(probs.shape[1], dtype=bool)
            np.logical_or.at(changed, cell_idx, gvals != f.values)
            decisions.append(tuple(
                f"rounded-to-{int(sigma0[c])}" if changed[c] else "kept"
                for c in range(probs.shape[1])))
            gs.append(from_values(n, s, f.codomain, gvals))
        return gs, decisions

    win, attempt_log = _search_restrictions(
        P, fs, measures, J, round_cells, seed=seed, attempts=attempts,
        preserve={})
    accepted = win.exact and all(t <= DISTANCE_BUDGET for t in win.distances)
    trace = CorrectionTrace(junta=J, eta=eta, restriction=win.restriction,
                            decisions=win.decisions, roles=("rounded",) * m,
                            attempts=attempt_log, certificate=cert,
                            notes=_symmetry_notes(P, fs, win.gs))
    return CorrectionResult(gs=win.gs, distances=win.distances,
                            exact=win.exact, accepted=accepted,
                            counterexample=win.counterexample, trace=trace)


# -- Markov-chain agreement ------------------------------------------------------

def second_eigenvalue(M) -> float:
    """Second largest eigenvalue of a symmetric bistochastic matrix.

    Signed: a lazy two-state chain [[1-a, a], [a, 1-a]] gives 1 - 2a.  The
    identity gives 1.0, flagging a chain that does not mix.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 2:
        raise ValidationError("need a square matrix of size at least 2")
    if np.max(np.abs(A - A.T)) > CHAIN_TOL:
        raise ValidationError("matrix is not symmetric")
    if A.min() < -CHAIN_TOL:
        raise ValidationError("matrix has negative entries")
    if np.max(np.abs(A.sum(axis=1) - 1.0)) > 1e-9:
        raise ValidationError("rows do not sum to 1")
    eigs = np.linalg.eigvalsh(A)
    return float(eigs[-2])


class TransitionChain:
    """A product chain: one symmetric bistochastic factor per coordinate.

    factors are square matrices on a common state space with strictly
    positive entries; assignment[i] names the factor acting on coordinate
    i.  Symmetric bistochastic factors leave the uniform distribution
    invariant, so the stationary law of the product chain is uniform.
    """

    def __init__(self, factors, assignment):
        factors = [np.asarray(M, dtype=float) for M in factors]
        if not factors:
            raise ValidationError("need at least one factor")
        size = factors[0].shape[0] if factors[0].ndim == 2 else 0
        for M in factors:
            if M.ndim != 2 or M.shape != (size, size) or size < 2:
                raise ValidationError("factors must be square matrices on a "
                                      "common state space")
            if np.max(np.abs(M - M.T)) > CHAIN_TOL:
                raise ValidationError("factor is not symmetric")
            if np.max(np.abs(M.sum(axis=1) - 1.0)) > CHAIN_TOL:
                raise ValidationError("factor rows do not sum to 1")
            if M.min() <= 0:
                raise ValidationError("factor entries must be strictly positive")
        assignment = tuple(int(t) for t in assignment)
        if not assignment:
            raise ValidationError("need at least one coordinate")
        if any(not 0 <= t < len(factors) for t in assignment):
            raise ValidationError("assignment names a missing factor")
        self.factors = tuple(factors)
        self.assignment = assignment
        self.size = size
        self.n = len(assignment)

    def lam(self) -> float:
        """Upper bound on the product chain's second eigenvalue: the largest
        magnitude among non-top eigenvalues of the factors in use.  The
        magnitude matters because negative factor eigenvalues multiply into
        positive ones across coordinates."""
        out = 0.0
        for t in sorted(set(self.assignment)):
            eigs = np.linalg.eigvalsh(self.factors[t])
            out = max(out, float(np.max(np.abs(eigs[:-1]))))
        return out

    def __repr__(self):
        return (f"TransitionChain(factors={len(self.factors)}, "
                f"size={self.size}, n={self.n})")


def markov_agreement(chain: TransitionChain, f: FunctionTable) -> AgreementReport:
    """If f rarely changes along one step of the chain, f is nearly constant.

    Computes the exact one-step disagreement Pr[f(x) != f(y)] with x
    uniform and y one step of the product chain, the eigenvalue bound lam,
    and the most likely value sigma of f under the uniform stationary law.
    The returned report certifies Pr[f != sigma] <= disagreement / (1 - lam).
    """
    if f.s != chain.size or f.n != chain.n:
        raise DomainError("function does not match the chain")
    if f.codomain == "real":
        raise UnsupportedError("agreement needs discrete outputs")
    lam = chain.lam()
    if lam >= 1.0:
        raise ValidationError("chain does not mix (lam >= 1)")
    s, n = f.s, f.n
    total = s ** n
    agree = 0.0
    counts = np.bincount(f.values.astype(np.int64), minlength=s)
    for sigma in range(s):
        h = (f.values == sigma).astype(float)
        arr = h.reshape((s,) * n)
        for i in range(n):
            arr = _apply_along_axis(chain.factors[chain.assignment[i]], arr,
                              n - 1 - i)
        agree += float(h @ arr.reshape(-1)) / total
    disagreement = max(0.0, 1.0 - agree)
    sigma = int(np.argmax(counts))
    miss = float(1.0 - counts[sigma] / total)
    bound = disagreement / (1.0 - lam)
    if miss > bound + 1e-9:
        raise AssertionError("agreement bound violated; chain validation "
                             "must be broken")
    return AgreementReport(symbol=sigma, disagreement=disagreement, lam=lam,
                           bound=bound, miss_probability=miss)


# -- lifting set families to cube functions -------------------------------------

def friedgut_regev_lift(family, k: int, n: int | None = None) -> FunctionTable:
    """Lift a family of k-subsets to a [0, 1]-valued cube function.

    f(x) is the fraction of k-subsets of x that lie in the family, and 0
    when x has fewer than k elements.  family is either a Boolean table
    supported on weight-k points or an iterable of k-subsets (then n is
    required).  One zeta transform computes all subset counts at once.
    """
    if isinstance(family, FunctionTable):
        if family.s != 2 or family.codomain != "bit":
            raise UnsupportedError("family indicator must be a Boolean table")
        if n is not None and n != family.n:
            raise DomainError("n disagrees with the family table")
        n = family.n
        counts = family.values.astype(np.int64).copy()
    else:
        if n is None:
            raise DomainError("n is required when the family is a subset list")
        counts = np.zeros(2 ** n, dtype=np.int64)
        for S in family:
            S = frozenset(int(i) for i in S)
            if len(S) != k or any(not 0 <= i < n for i in S):
                raise ValidationError(f"{tuple(sorted(S))} is not a k-subset "
                                      f"of range({n})")
            counts[sum(1 << i for i in S)] = 1
    if not 1 <= k <= n:
        raise DomainError("k must lie in [1, n]")
    widths = np.zeros(2 ** n, dtype=np.int64)
    for i in range(n):
        widths += (np.arange(2 ** n) >> i) & 1
    if np.any(counts[widths != k] != 0):
        raise ValidationError("family indicator is supported off weight k")
    arr = counts.reshape((2,) * n)
    for axis in range(n):
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[axis], hi[axis] = 0, 1
        arr[tuple(hi)] += arr[tuple(lo)]
    counts = arr.reshape(-1)
    denom = np.array([math.comb(int(w), k) if w >= k else 1 for w in widths],
                     dtype=np.float64)
    vals = np.where(widths >= k, counts / denom, 0.0)
    return from_values(n, 2, "real", vals)


# -- fractional NAND -------------------------------------------------------------

def correct_fractional_nand(f1: FunctionTable, f2: FunctionTable, p: float,
                            eps: float, d: int,
                            tau: float) -> FractionalCorrection:
    """Round a fractional NAND polymorphism pair to Boolean juntas.

    Under the p-biased measure (0 < p < 1/2) a joint regularity junta J is
    built; each cell becomes constant 0 when irregular or of expectation
    at most eps / 2 and constant 1 otherwise.  The pair is verified
    exactly against the NAND predicate weighted (1 - 2p, p, p) and the
    loss E[(1 - g_j) f_j] is reported per function.  Equal inputs receive
    equal outputs by construction.
    """
    if not 0.0 < p < 0.5:
        raise DomainError("p must lie in (0, 1/2)")
    if eps <= 0:
        raise DomainError("eps must be positive")
    fs = [f1, f2]
    n, _ = _require_tables(fs, 2, codomains=("bit", "real"))
    pf = Fraction(p)
    P = Predicate(2, 2, [(0, 0), (0, 1), (1, 0)], [1 - 2 * pf, pf, pf])
    cert, cell_idx, keep = _regular_heavy_cells(P, fs, (0, 1), d, tau, eps)
    gs, decisions, losses = [], [], []
    for j, (f, one) in enumerate(zip(fs, keep)):
        gvals = one[cell_idx].astype(np.uint8)
        gs.append(from_values(n, 2, "bit", gvals))
        decisions.append(tuple("fixed-1" if v else "zeroed" for v in one))
        w = _iid_marginal(P, j, n).weights()
        losses.append(float(w @ ((1.0 - gvals) * f.as_real())))
    if f1.equals(f2) and not gs[0].equals(gs[1]):
        raise AssertionError("equal inputs produced different outputs")
    exact, ce = is_generalized_polymorphism(P, gs)
    trace = CorrectionTrace(junta=cert.junta, eta=eps / 2, restriction=None,
                            decisions=tuple(decisions), roles=("cells", "cells"),
                            certificate=cert)
    return FractionalCorrection(gs=tuple(gs), losses=tuple(losses),
                                exact=exact, accepted=exact,
                                counterexample=ce, trace=trace)
