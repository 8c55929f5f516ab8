"""Rounding approximate polymorphisms into exact ones.

Entry points by predicate shape:

  correct_monotone         monotone binary predicates, zero out bad cells
  correct_general          binary predicates, peeling + junta + restriction
  correct_alphabet         all-flexible predicates over larger alphabets
  correct_fractional_nand  [0, 1]-valued pairs against the binary NAND

Supporting tools: character decoders (blr_decode_uniform, nearest_character),
affine-relation peeling, per-cell rounding under a sampled restriction, and
the Markov-chain agreement bound (TransitionChain, markov_agreement) plus
the subset-family lift friedgut_regev_lift.

Everything here is exact at desk scale: corrections are verified against the
brute-force polymorphism oracle before a run is accepted.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedError, ValidationError
from .funcspace import (FunctionTable, ProductMeasure, _cell_averages,
                        _check_size, _coordinates, _digit_index, _digits,
                        _indicators, _integer, _once_per_table, character,
                        constant, decode_point, distance, from_values)
from .harmonics import _transform
from .predicates import (Predicate, affine_relations, classify_short_relations,
                         flexible_coordinates, maxterms, star_law)
from .polytest import (ColumnRestriction, Counterexample, _restriction_rows,
                       is_generalized_polymorphism)
from .regularity import (RegularityCertificate, build_junta_lowdeg,
                         regular_cell_mask)

DECODE_N_CAP = 20          # exhaustive character decoding: 2^n * 2 candidates
JUNTA_SEED_CAP = 14        # cap on the junta seeded from decoded supports
DISTANCE_BUDGET = 0.25     # per-function acceptance budget
CHAIN_TOL = 1e-12          # symmetry / stochasticity tolerance for chains


# -- result containers ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CharacterFit:
    """Closest parity character: chi(x) = offset xor (xor of x_i over support)."""

    support: tuple
    offset: int
    distance: float


@dataclass(frozen=True, slots=True)
class BlrDecoding:
    support: tuple
    offset: int
    distance: float
    max_coefficient: float


@dataclass(frozen=True, slots=True)
class DecodedCharacter:
    coordinate: int
    support: tuple
    offset: int
    distance: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RoundedCells:
    """Cell-rounded tables plus the per-function cell decisions:
    decisions[j][c] is "fixed-0" or "fixed-1" when cell c of function j
    was fixed to that constant and "kept" when it kept its original values.
    """

    gs: tuple
    decisions: tuple


@dataclass(frozen=True, slots=True)
class RestrictionAttempt:
    index: int
    exact: bool
    characters_preserved: bool
    total_distance: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _iid_marginal(P: Predicate, j: int, n: int) -> ProductMeasure:
    return ProductMeasure.iid(P.marginal_measure(j), n)


def _negate_table(f: FunctionTable) -> FunctionTable:
    """Flip all inputs and the output; an involution on binary tables."""
    if f.s != 2 or f.codomain != "bit":
        raise UnsupportedError("negation normalization needs binary tables")
    return from_values(f.n, 2, "bit", 1 - f.values[::-1])


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
    sup, b = min((tuple(np.flatnonzero(decode_point(int(mask), n, 2)).tolist()),
                  int(transform[mask] < 0))
                 for mask in np.flatnonzero(mags == top))
    return sup, b, float(top)


def blr_decode_uniform(f: FunctionTable) -> BlrDecoding:
    """Decode the nearest parity character under the uniform measure.

    nearest_character under the uniform measure: every intermediate of
    its transform is a multiple of 2^-n, so the distance and the top
    coefficient magnitude 1 - 2 * distance are exact.  When f is
    delta-close to a character with delta below 1/4, that character is the
    unique winner and the reported distance equals delta.
    """
    fit = nearest_character(f, ProductMeasure.uniform(f.n))
    return BlrDecoding(support=fit.support, offset=fit.offset,
                       distance=fit.distance,
                       max_coefficient=1.0 - 2.0 * fit.distance)


def nearest_character(f: FunctionTable, nu: ProductMeasure) -> CharacterFit:
    """Exhaustive nearest parity character under a product measure.

    Minimizes Pr_nu[f != chi] over all 2^n supports and both offsets via
    one weighted transform; exact ties go to the smallest sorted support,
    then to offset 0.
    """
    if f.s != 2 or f.codomain != "bit":
        raise UnsupportedError("character decoding needs Boolean tables")
    if nu.n != f.n or any(mu.s != 2 for mu in nu.measures):
        raise DomainError("measure does not match the function domain")
    if f.n > DECODE_N_CAP:
        raise ResourceError(f"n = {f.n} exceeds the decoding cap {DECODE_N_CAP}")
    n = f.n
    mats = [np.array([[p0, p1], [p0, -p1]])
            for p0, p1 in (mu.probs for mu in nu.measures)]
    arr = (1.0 - 2.0 * f.as_real()).reshape((1,) + (2,) * n)
    sup, b, top = _pick_character(_transform(arr, mats).reshape(-1), n)
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

def round_general_cell(fs, J, rho, eta: float, P: Predicate) -> RoundedCells:
    """Round every cell of J by its restricted expectation.

    For each function j the expectation of f_j on a cell, with coordinates
    outside J read from row j of the ColumnRestriction rho (stars average
    against the member marginal mu|_j), decides the cell: at most eta fixes
    constant 0, at least 1 - eta fixes constant 1, anything else keeps the
    original values on the whole cell.  A row without stars makes every
    expectation 0 or 1, so such a function is always fixed cell by cell.
    """
    if not 0.0 <= eta < 0.5:
        raise DomainError("eta must lie in [0, 1/2)")
    n, s = _require_tables(fs, P.m)
    if s != 2 or P.s != 2:
        raise UnsupportedError("cell rounding is defined for binary alphabets")
    rows = _restriction_rows(rho, P.m, n, s)
    J = sorted(set(_coordinates(J, n)))
    cell_idx = _digit_index(n, s, J)
    gs, decisions = [], []
    names = {0: "fixed-0", 1: "fixed-1", -1: "kept"}
    for j, (f, row) in enumerate(zip(fs, rows)):
        E = _cell_averages(f.as_real(), n, s, J, row, P.marginal_measure(j))
        col = np.where(E <= eta, 0, np.where(E >= 1.0 - eta, 1, -1)).astype(np.int8)
        mapped = col[cell_idx]
        gvals = np.where(mapped < 0, f.values, mapped).astype(np.uint8)
        gs.append(from_values(n, 2, "bit", gvals))
        decisions.append(tuple(names[int(c)] for c in col))
    return RoundedCells(gs=tuple(gs), decisions=tuple(decisions))


# -- cells kept by regularity and mass ----------------------------------------

def _regular_heavy_cells(P: Predicate, fs, coords, d: int, tau: float,
                         eps: float, kept: str):
    """Grow one regularity junta J for the functions at coords, then round
    each function cell by cell: a cell that is regular and has expectation
    above eps / 2 is kept, as the function's values when kept == "kept" and
    as constant 1 when kept == "fixed-1"; every other cell is zeroed.

    Returns (certificate, one (output, cell decisions) pair per function
    in coords).  A position holding the same table object as an earlier
    one, under an equal measure, shares that position's pair.
    """
    n = fs[0].n
    measures = [_iid_marginal(P, j, n) for j in coords]
    cert = build_junta_lowdeg([fs[j] for j in coords], measures, d, tau, eps)
    J = cert.junta
    cell_idx = _digit_index(n, 2, J)

    def round_cells(f, nu):
        E = _cell_averages(f.as_real(), n, 2, J, [None] * n, nu.measures[0])
        on = regular_cell_mask(f, J, d, tau, nu) & (E > eps / 2)
        gvals = np.where(on[cell_idx], f.values if kept == "kept" else 1, 0)
        return (from_values(n, 2, "bit", gvals.astype(np.uint8)),
                tuple(kept if k else "zeroed" for k in on))

    return cert, _once_per_table(round_cells, [fs[j] for j in coords],
                                 measures)


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
    if not 0 < eps < math.inf:  # phrased so that NaN fails it
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
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
        cert, outs = _regular_heavy_cells(P, fs, rest, d, tau, eps, "kept")
        J = cert.junta
        for j, out in zip(rest, outs):
            gs[j], decisions[j] = out
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


@dataclass(frozen=True, slots=True)
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
    law = star_law(P)
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

def _seed_junta(supports) -> tuple:
    """Union of decoded supports, greedily by (size, lex), of at most
    JUNTA_SEED_CAP coordinates."""
    out: set = set()
    for sup in sorted(supports, key=lambda t: (len(t), t)):
        if len(out | set(sup)) <= JUNTA_SEED_CAP:
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
    if not 0 < eps < math.inf:  # phrased so that NaN fails it
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    if eta is None:
        eta = eps / 2
    if not 0.0 <= eta < 0.5:
        raise DomainError("eta must lie in [0, 1/2)")
    d = _integer(d, "degree d")  # growth may not run to check it
    attempts, seed = _integer(attempts, "attempts"), _integer(seed, "seed")
    if attempts < 1:
        raise DomainError("need at least one restriction attempt")
    m = P.m
    cls = classify_short_relations(P)

    # forced constant inputs are a hard premise
    for j, b in cls.constants.items():
        if fs[j].eval((b,) * n) != b:
            return _forced_input_rejection(
                P, fs, eta, (None,) * m, f"f_{j} disagrees with constant "
                f"coordinate {j} on its forced input")

    # constant-1 and anti-equal coordinates are never representatives, so
    # they are negated only where the outputs are assembled
    reps = list(cls.representatives)
    P_rep = P.project(reps) if len(reps) < m else P
    fs_rep = [fs[j] for j in reps]
    peel = peel_affine_relations(P_rep, fs_rep, eps)
    char_of = {c.coordinate: c for c in peel.characters}

    f_prime = [character(n, char_of[r].support, char_of[r].offset)
               if r in char_of else fs_rep[r] for r in range(len(reps))]
    I_pos = list(peel.active)
    F_pos = list(peel.free)
    J0 = _seed_junta([char_of[r].support for r in I_pos if r in char_of])
    cert = None
    if F_pos:
        cert = build_junta_lowdeg([f_prime[r] for r in F_pos],
                                  [_iid_marginal(P_rep, r, n) for r in F_pos],
                                  d, tau, eps, initial=J0)
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

    # extend over peeled coordinates, then duplicates and constants
    gs: list = [None] * m
    roles: list = [None] * m
    decisions: list = [()] * m
    for q, r in enumerate(I_pos):
        j = reps[r]
        gs[j], decisions[j] = win.gs[q], win.decisions[q]
        roles[j] = "character" if r in char_of else "rounded"
    for r in range(len(reps)):
        if r not in I_pos:
            gs[reps[r]], roles[reps[r]] = f_prime[r], "character"
    for rep, members in cls.classes.items():
        for k, neg in members.items():
            if k != rep:
                gs[k] = _negate_table(gs[rep]) if neg else gs[rep]
                roles[k] = f"duplicate-of-{rep}"
    for j, b in cls.constants.items():
        gs[j], roles[j] = constant(n, b, 2, "bit"), f"constant-{b}"
    negated = [j for j, b in cls.constants.items() if b] + [
        k for members in cls.classes.values() for k, neg in members.items()
        if neg]

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
    return CorrectionResult(gs=tuple(gs), distances=dists, exact=exact,
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
    if not 0 < eps < math.inf:  # phrased so that NaN fails it
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    if eta is None:
        eta = min(eps / 2, 1.0 / s)
    if not 0.0 < eta <= 1.0 / s:
        raise DomainError("eta must lie in (0, 1/|Sigma|]")
    attempts, seed = _integer(attempts, "attempts"), _integer(seed, "seed")
    if attempts < 1:
        raise DomainError("need at least one restriction attempt")
    m = P.m
    measures = [_iid_marginal(P, j, n) for j in range(m)]
    cert = build_junta_lowdeg(fs, measures, d, tau, eps)
    J = tuple(cert.junta)
    cell_idx = _digit_index(n, s, sorted(J))

    def round_cells(restriction):
        gs, decisions = [], []
        rows = _restriction_rows(restriction, m, n, s)
        for j, (f, row) in enumerate(zip(fs, rows)):
            probs = _cell_averages(_indicators(f), n, s, J, row,
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
            # each check is phrased so that a NaN entry fails it
            if not np.max(np.abs(M - M.T)) <= CHAIN_TOL:
                raise ValidationError("factor is not symmetric")
            if not np.max(np.abs(M.sum(axis=1) - 1.0)) <= CHAIN_TOL:
                raise ValidationError("factor rows do not sum to 1")
            if not M.min() > 0:
                raise ValidationError("factor entries must be strictly positive")
        assignment = tuple(_integer(t, "factor index") for t in assignment)
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
    mats = [chain.factors[t] for t in chain.assignment]
    for h in _indicators(f):
        arr = _transform(h.reshape((1,) + (s,) * n), mats)
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
    k = _integer(k, "k")
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
        n, _ = _check_size(n, 2)
        counts = np.zeros(2 ** n, dtype=np.int64)
        for S in family:
            S = frozenset(_coordinates(S, n))
            if len(S) != k:
                raise ValidationError(f"{tuple(sorted(S))} is not a k-subset "
                                      f"of range({n})")
            counts[sum(1 << i for i in S)] = 1
    if not 1 <= k <= n:
        raise DomainError("k must lie in [1, n]")
    widths = _digits(n, 2).sum(axis=0, dtype=np.int64)
    if np.any(counts[widths != k] != 0):
        raise ValidationError("family indicator is supported off weight k")
    # zeta transform: each coordinate adds the x_i = 0 entry to x_i = 1
    zeta = np.array([[1, 0], [1, 1]], dtype=np.int64)
    counts = _transform(counts.reshape((1,) + (2,) * n), [zeta] * n).reshape(-1)
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
    if not 0 < eps < math.inf:  # phrased so that NaN fails it
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    fs = [f1, f2]
    n, _ = _require_tables(fs, 2, codomains=("bit", "real"))
    pf = Fraction(p)
    P = Predicate(2, 2, [(0, 0), (0, 1), (1, 0)], [1 - 2 * pf, pf, pf])
    cert, outs = _regular_heavy_cells(P, fs, (0, 1), d, tau, eps, "fixed-1")
    gs, decisions = zip(*outs)
    losses = tuple(float(_iid_marginal(P, j, n).weights()
                         @ ((1.0 - g.values) * f.as_real()))
                   for j, (f, g) in enumerate(zip(fs, gs)))
    if f1.equals(f2) and not gs[0].equals(gs[1]):
        raise AssertionError("equal inputs produced different outputs")
    exact, ce = is_generalized_polymorphism(P, gs)
    trace = CorrectionTrace(junta=cert.junta, eta=eps / 2, restriction=None,
                            decisions=tuple(decisions), roles=("cells", "cells"),
                            certificate=cert)
    return FractionalCorrection(gs=tuple(gs), losses=tuple(losses),
                                exact=exact, accepted=exact,
                                counterexample=ce, trace=trace)
