import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import polymorph.corrector as co
import polymorph.funcspace as fs
import polymorph.polytest as pt
import polymorph.predicates as pr
from polymorph.errors import (DomainError, ResourceError, UnsupportedError,
                             ValidationError)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _flip(f, rate, seed):
    rng = _rng(seed)
    mask = (rng.random(f.values.size) < rate).astype(np.uint8)
    return fs.from_values(f.n, 2, "bit", f.values ^ mask)


def _flip_exact(f, count, seed):
    rng = _rng(seed)
    idx = rng.choice(f.values.size, size=count, replace=False)
    vals = f.values.copy()
    vals[idx] ^= 1
    return fs.from_values(f.n, 2, "bit", vals)


def _sym_noise(f, rate, seed):
    rng = _rng(seed)
    mask = rng.random(f.values.size) < rate
    noise = rng.integers(0, f.s, f.values.size)
    return fs.from_values(f.n, f.s, "sym",
                          np.where(mask, noise, f.values).astype(np.uint8))


# -- character decoding ----------------------------------------------------------


def test_blr_pure_character():
    for seed in range(5):
        rng = _rng(seed)
        n = int(rng.integers(3, 9))
        sup = tuple(sorted(rng.choice(n, size=rng.integers(0, n + 1),
                                      replace=False).tolist()))
        b = int(rng.integers(0, 2))
        dec = co.blr_decode_uniform(fs.character(n, sup, b))
        assert dec.support == sup
        assert dec.offset == b
        assert dec.distance == 0.0
        assert dec.max_coefficient == 1.0


def test_blr_planted_flips_distance_is_flip_fraction():
    n = 10
    for seed, rate in [(0, 0.01), (1, 0.05), (2, 0.05)]:
        k = int(rate * 2 ** n)
        f = _flip_exact(fs.character(n, (1, 4, 7), 1), k, seed)
        dec = co.blr_decode_uniform(f)
        assert dec.support == (1, 4, 7)
        assert dec.offset == 1
        assert dec.distance == k / 2 ** n  # exact dyadic arithmetic


def test_blr_majority_of_three():
    maj = fs.from_values(3, 2, "bit", [0, 0, 0, 1, 0, 1, 1, 1])
    dec = co.blr_decode_uniform(maj)
    # three singletons tie at distance 1/4; lexicographic pick
    assert dec.support == (0,)
    assert dec.offset == 0
    assert dec.distance == 0.25
    assert dec.max_coefficient == 0.5


def test_blr_minimality_against_enumeration():
    n = 5
    nu = fs.ProductMeasure.uniform(n)
    for seed in range(10):
        vals = _rng(seed).integers(0, 2, 2 ** n)
        f = fs.from_values(n, 2, "bit", vals)
        dec = co.blr_decode_uniform(f)
        best = min(
            fs.distance(f, fs.character(n, sup, b), nu)
            for r in range(n + 1)
            for sup in itertools.combinations(range(n), r)
            for b in (0, 1))
        assert abs(dec.distance - best) < 1e-12


@pytest.mark.parametrize("kind", ["random", "constant", "majority", "hybrid"])
def test_blr_ties_match_brute_force_exactly(kind):
    # uniform distances are multiples of 2^-n, so the decoder's distance
    # equals the best of all 2^(n+1) characters exactly, and its pick is
    # the lexicographically first (support, offset) at that distance
    for n in range(1, 7):
        nu = fs.ProductMeasure.uniform(n)
        tables = {
            "random": [fs.from_values(n, 2, "bit",
                                      _rng(10 * n + k).integers(0, 2, 2 ** n))
                       for k in range(4)],
            "constant": [fs.constant(n, 0), fs.constant(n, 1)],
            "majority": [fs.from_values(n, 2, "bit", [
                int(2 * sum(fs.decode_point(x, n, 2)) > n)
                for x in range(2 ** n)])],
            "hybrid": [fs.hybrid(n)] if n >= 2 else [],
        }[kind]
        for f in tables:
            dec = co.blr_decode_uniform(f)
            cands = [(fs.distance(f, fs.character(n, sup, b), nu), sup, b)
                     for r in range(n + 1)
                     for sup in itertools.combinations(range(n), r)
                     for b in (0, 1)]
            best = min(d for d, _, _ in cands)
            assert dec.distance == best
            first = min((sup, b) for d, sup, b in cands if d == best)
            assert (dec.support, dec.offset) == first
            assert dec.max_coefficient == 1.0 - 2.0 * best


def test_blr_rejects_real_tables():
    with pytest.raises(UnsupportedError):
        co.blr_decode_uniform(fs.constant(3, 0.5, codomain="real"))


def test_nearest_character_matches_blr_under_uniform():
    n = 6
    nu = fs.ProductMeasure.uniform(n)
    for seed in range(10):
        f = fs.from_values(n, 2, "bit", _rng(seed).integers(0, 2, 2 ** n))
        a = co.blr_decode_uniform(f)
        b = co.nearest_character(f, nu)
        assert a.support == b.support
        assert a.offset == b.offset
        assert abs(a.distance - b.distance) < 1e-12


def test_nearest_character_biased_brute_force():
    n = 5
    for seed in range(8):
        rng = _rng(100 + seed)
        nu = fs.ProductMeasure([fs.Measure.bernoulli(p)
                                for p in rng.uniform(0.2, 0.8, n)])
        f = fs.from_values(n, 2, "bit", rng.integers(0, 2, 2 ** n))
        fit = co.nearest_character(f, nu)
        cands = []
        for r in range(n + 1):
            for sup in itertools.combinations(range(n), r):
                for b in (0, 1):
                    d = fs.distance(f, fs.character(n, sup, b), nu)
                    cands.append((d, sup, b))
        best = min(d for d, _, _ in cands)
        assert abs(fit.distance - best) < 1e-9
        # the winner must be the lexicographically first optimum
        tied = sorted((sup, b) for d, sup, b in cands if d < best + 1e-12)
        assert (fit.support, fit.offset) == tied[0]


def test_nearest_character_zero_function():
    fit = co.nearest_character(fs.constant(4, 0), fs.ProductMeasure.uniform(4))
    assert fit == co.CharacterFit(support=(), offset=0, distance=0.0)


def test_nearest_character_permutation_equivariance():
    n = 6
    rng = _rng(9)
    ps = rng.uniform(0.25, 0.75, n)
    f = _flip(fs.character(n, (0, 3), 1), 0.05, 17)
    perm = [2, 0, 5, 3, 1, 4]  # image of each coordinate
    # permuted function: h(y) = f(x) with y_perm[i] = x_i
    vals = np.empty(2 ** n, dtype=np.uint8)
    for idx in range(2 ** n):
        x = fs.decode_point(idx, n, 2)
        y = [0] * n
        for i in range(n):
            y[perm[i]] = x[i]
        vals[fs.encode_point(y, 2)] = f.values[idx]
    h = fs.from_values(n, 2, "bit", vals)
    nup = [0.0] * n
    for i in range(n):
        nup[perm[i]] = ps[i]
    fit_f = co.nearest_character(
        f, fs.ProductMeasure([fs.Measure.bernoulli(p) for p in ps]))
    fit_h = co.nearest_character(
        h, fs.ProductMeasure([fs.Measure.bernoulli(p) for p in nup]))
    assert fit_h.support == tuple(sorted(perm[i] for i in fit_f.support))
    assert fit_h.offset == fit_f.offset
    assert abs(fit_h.distance - fit_f.distance) < 1e-12


# -- eigenvalues and agreement ---------------------------------------------------


def test_transition_chain_validation():
    with pytest.raises(ValidationError):
        co.TransitionChain([np.eye(2)], [0])  # zero entries do not mix
    with pytest.raises(ValidationError):
        co.TransitionChain([[[0.5, 0.5], [0.9, 0.1]]], [0])
    with pytest.raises(ValidationError):
        co.TransitionChain([np.full((2, 2), 0.5)], [0, 1])  # missing factor


@pytest.mark.parametrize("factor", [
    [[np.nan, 0.5], [0.5, 0.5]],
    [[0.5, np.nan], [np.nan, 0.5]],
    np.full((2, 2), np.nan),
])
def test_transition_chain_refuses_nan_entries(factor):
    # NaN fails every comparison, so checks phrased as "> tol raises" let
    # it through, and markov_agreement then raised a bare AssertionError
    with pytest.raises(ValidationError):
        co.TransitionChain([factor], [0, 0])


def test_transition_chain_keeps_its_own_read_only_factors():
    # the chain once kept the caller's array, so a NaN written after
    # construction got past the symmetry, row-sum and positivity checks
    M = np.full((2, 2), 0.5)
    chain = co.TransitionChain([M], [0, 0])
    M[0, 0] = np.nan
    with pytest.raises(ValueError):
        chain.factors[0][0, 0] = np.nan
    assert chain.factors[0].tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert co.markov_agreement(chain, fs.dictator(2, 0)).lam == 0.0


def test_markov_agreement_constant_function():
    chain = co.TransitionChain([np.full((3, 3), 1 / 3)], [0, 0])
    rep = co.markov_agreement(chain, fs.constant(2, 1, s=3, codomain="sym"))
    assert rep.disagreement == pytest.approx(0.0, abs=1e-12)
    assert rep.miss_probability == 0.0
    assert rep.symbol == 1


def test_markov_agreement_dictator_under_uniform_resample():
    chain = co.TransitionChain([np.full((2, 2), 0.5)], [0] * 3)
    rep = co.markov_agreement(chain, fs.dictator(3, 1))
    # fresh uniform pair: disagreement 1/2, lambda 0, and the bound is tight
    assert rep.disagreement == pytest.approx(0.5, abs=1e-12)
    assert rep.lam == pytest.approx(0.0, abs=1e-12)
    assert rep.bound == pytest.approx(0.5, abs=1e-12)
    assert rep.miss_probability == pytest.approx(0.5, abs=1e-12)


def test_markov_agreement_negative_eigenvalue_factors():
    # anti-lazy factors have eigenvalue -0.8; two of them compound to +0.64,
    # so the bound must use magnitudes. Parity makes the disagreement exact.
    a = 0.9
    chain = co.TransitionChain([[[1 - a, a], [a, 1 - a]]], [0, 0])
    rep = co.markov_agreement(chain, fs.character(2, (0, 1)))
    assert rep.lam == pytest.approx(0.8)
    assert rep.disagreement == pytest.approx(2 * a * (1 - a), abs=1e-12)
    assert rep.miss_probability == pytest.approx(0.5)
    assert rep.miss_probability <= rep.bound + 1e-9


def test_markov_agreement_random_instances_respect_bound():
    for seed in range(60):
        rng = _rng(300 + seed)
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 3))
        factors = []
        for _ in range(t):
            a = float(rng.uniform(0.05, 0.95))
            factors.append([[1 - a, a], [a, 1 - a]])
        chain = co.TransitionChain(factors, rng.integers(0, t, n).tolist())
        f = fs.from_values(n, 2, "bit", rng.integers(0, 2, 2 ** n))
        rep = co.markov_agreement(chain, f)  # raises if the bound breaks
        assert rep.miss_probability <= rep.bound + 1e-9


def test_markov_agreement_oracle_small():
    # independent double loop over (x, y) pairs as the second route
    rng = _rng(77)
    a, b = 0.3, 0.65
    chain = co.TransitionChain(
        [[[1 - a, a], [a, 1 - a]], [[1 - b, b], [b, 1 - b]]], [0, 1, 0])
    f = fs.from_values(3, 2, "bit", rng.integers(0, 2, 8))
    M = [np.array(chain.factors[t]) for t in chain.assignment]
    total = 0.0
    for xi in range(8):
        x = fs.decode_point(xi, 3, 2)
        for yi in range(8):
            y = fs.decode_point(yi, 3, 2)
            w = (1 / 8) * math.prod(M[i][x[i], y[i]] for i in range(3))
            if f.values[xi] != f.values[yi]:
                total += w
    rep = co.markov_agreement(chain, f)
    assert rep.disagreement == pytest.approx(total, abs=1e-12)


# -- subset-family lift ----------------------------------------------------------


def test_lift_full_family_is_threshold():
    n, k = 6, 3
    F = co.friedgut_regev_lift(itertools.combinations(range(n), k), k, n=n)
    for idx in range(2 ** n):
        w = bin(idx).count("1")
        assert F.values[idx] == (1.0 if w >= k else 0.0)


def test_lift_empty_family_is_zero():
    F = co.friedgut_regev_lift([], 2, n=5)
    assert np.all(F.values == 0.0)


def test_lift_star_family_closed_form():
    n, k, e = 7, 2, 3
    fam = [{e, i} for i in range(n) if i != e]
    F = co.friedgut_regev_lift(fam, k, n=n)
    for idx in range(2 ** n):
        x = fs.decode_point(idx, n, 2)
        w = sum(x)
        if w < k:
            assert F.values[idx] == 0.0
        elif x[e] == 1:
            assert F.values[idx] == pytest.approx(k / w)
        else:
            assert F.values[idx] == 0.0


def test_lift_matches_direct_count():
    n, k = 8, 3
    rng = _rng(5)
    fam = set()
    while len(fam) < 12:
        fam.add(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
    F = co.friedgut_regev_lift([set(S) for S in fam], k, n=n)
    for idx in range(0, 2 ** n, 7):
        x = fs.decode_point(idx, n, 2)
        ones = [i for i in range(n) if x[i]]
        if len(ones) < k:
            assert F.values[idx] == 0.0
            continue
        hits = sum(1 for S in itertools.combinations(ones, k)
                   if tuple(sorted(S)) in fam)
        assert F.values[idx] == pytest.approx(hits / math.comb(len(ones), k))


def test_lift_validation():
    with pytest.raises(ValidationError):
        co.friedgut_regev_lift([{0, 1, 2}], 2, n=4)  # wrong subset size
    bad = fs.from_values(3, 2, "bit", [1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValidationError):
        co.friedgut_regev_lift(bad, 2)  # supported on weight 0
    with pytest.raises(DomainError):
        co.friedgut_regev_lift([{0}], 1)  # n missing for subset lists


def test_lift_subset_list_gates_size_before_allocating():
    # 2^40 subset counts cannot be allocated, so only the gate can raise
    with pytest.raises(ResourceError, match="cap"):
        co.friedgut_regev_lift([(0,)], 1, n=40)


# -- restricted cell expectations (kernel oracle) --------------------------------


def test_restricted_cell_expectations_against_value_distribution():
    n = 6
    J = (1, 3)
    rng = _rng(42)
    f = fs.from_values(n, 2, "bit", rng.integers(0, 2, 2 ** n))
    marg = fs.Measure.bernoulli(0.35)
    entries = [None] * n
    entries[0], entries[4] = 1, 0  # coordinates 2, 5 stay free (stars)
    E = fs._cell_averages(f.as_real(), n, 2, J, entries, marg)
    for c in range(4):
        cell = fs.decode_point(c, 2, 2)
        merged = list(entries)
        merged[1], merged[3] = cell[0], cell[1]
        law = pt.restricted_value_distribution(
            f, fs.PartialAssignment(merged, 2), marg)
        assert E[c] == pytest.approx(law[1], abs=1e-12)


def test_restricted_value_probs_against_value_distribution():
    n, s = 4, 3
    J = (0, 2)
    rng = _rng(43)
    f = fs.from_values(n, s, "sym", rng.integers(0, s, s ** n))
    marg = fs.Measure([0.5, 0.2, 0.3])
    entries = [None, 1, None, None]  # coordinate 3 is a star
    probs = fs._cell_averages(fs._indicators(f), n, s, J, entries, marg)
    for c in range(s ** 2):
        cell = fs.decode_point(c, 2, s)
        merged = list(entries)
        merged[0], merged[2] = cell[0], cell[1]
        law = pt.restricted_value_distribution(
            f, fs.PartialAssignment(merged, s), marg)
        for sigma in range(s):
            assert probs[sigma, c] == pytest.approx(law[sigma], abs=1e-12)


# -- affine-relation peeling ------------------------------------------------------


def test_peel_parity3_planted():
    n = 8
    P = pr.parity_predicate(3, 0)
    sup = (0, 2, 5)
    funcs = [_flip(fs.character(n, sup, b), 0.02, 60 + b3)
             for b3, b in enumerate((1, 0, 1))]
    out = co.peel_affine_relations(P, funcs, eps=0.1)
    assert out.active == (0, 1)
    assert out.free == ()
    assert out.relations == (((0, 1, 2), 0, 2),)
    assert len(out.characters) == 3
    assert all(c.support == sup for c in out.characters)
    assert out.conflicts == ()
    assert out.unique_extension


def test_peel_no_relations():
    P = pr.nand_predicate(3)
    funcs = [fs.dictator(5, 0)] * 3
    out = co.peel_affine_relations(P, funcs, eps=0.1)
    assert out.free == (0, 1, 2)
    assert out.active == (0, 1, 2)
    assert out.characters == ()
    assert out.relations == ()


def test_peel_parity4_single_round():
    P = pr.parity_predicate(4, 1)
    funcs = [fs.character(6, (1, 2), b) for b in (1, 0, 0, 0)]
    out = co.peel_affine_relations(P, funcs, eps=0.05)
    assert out.relations == (((0, 1, 2, 3), 1, 3),)
    assert out.active == (0, 1, 2)
    assert out.free == ()
    # planted offsets xor to 1 = b with even common support: consistent
    assert out.conflicts == ()


def test_peel_flags_inconsistent_offsets():
    P = pr.parity_predicate(3, 0)
    funcs = [fs.character(6, (0, 1), b) for b in (1, 0, 0)]  # xor is 1 != 0
    out = co.peel_affine_relations(P, funcs, eps=0.05)
    assert any("offsets" in c for c in out.conflicts)


def test_peel_flags_disagreeing_supports():
    P = pr.parity_predicate(3, 0)
    funcs = [fs.character(6, (0, 1), 0), fs.character(6, (0, 2), 0),
             fs.character(6, (0, 1), 0)]
    out = co.peel_affine_relations(P, funcs, eps=0.05)
    assert any("supports" in c for c in out.conflicts)


def test_peel_requires_normalized_predicate():
    P = pr.Predicate(3, 2, [(0, 0, 0), (0, 1, 1)])  # constant coordinate
    with pytest.raises(ValidationError):
        co.peel_affine_relations(P, [fs.constant(4, 0)] * 3, eps=0.1)


# -- cell rounding -----------------------------------------------------------------


def test_round_eta_zero_keeps_unless_deterministic():
    n = 5
    P = pr.full_predicate(1, 2)
    f = fs.from_values(n, 2, "bit", _rng(3).integers(0, 2, 2 ** n))
    rho = pt.ColumnRestriction([(None,)] * n, 2)  # everything is a star
    out = co.round_general_cell([f], (0,), rho, 0.0, P)
    E = fs._cell_averages(f.as_real(), n, 2, (0,), [None] * n,
                          P.marginal_measure(0))
    for c in range(2):
        if 0.0 < E[c] < 1.0:
            assert out.decisions[0][c] == "kept"
        else:
            assert out.decisions[0][c] in ("fixed-0", "fixed-1")


def test_round_starless_rows_always_fix():
    n = 4
    P = pr.full_predicate(1, 2)
    f = fs.from_values(n, 2, "bit", _rng(4).integers(0, 2, 2 ** n))
    rho = pt.ColumnRestriction([(None,), (1,), (0,), (1,)], 2)  # no stars
    out = co.round_general_cell([f], (0,), rho, 0.1, P)
    assert all(d in ("fixed-0", "fixed-1") for d in out.decisions[0])
    # fixed to the actual restricted values
    for c in (0, 1):
        assert out.gs[0].eval((c, 1, 0, 1)) == f.eval((c, 1, 0, 1))


def test_round_balanced_cell_is_kept():
    n = 3
    P = pr.full_predicate(1, 2)
    f = fs.character(n, (1,))  # expectation 1/2 in every cell of (0,)
    rho = pt.ColumnRestriction([(None,)] * n, 2)
    out = co.round_general_cell([f], (0,), rho, 0.1, P)
    assert out.decisions[0] == ("kept", "kept")
    assert out.gs[0].equals(f)


def test_round_eta_range_checked():
    P = pr.full_predicate(1, 2)
    f = fs.constant(3, 0)
    rho = pt.ColumnRestriction([(None,)] * 3, 2)
    with pytest.raises(DomainError):
        co.round_general_cell([f], (0,), rho, 0.5, P)


@pytest.mark.parametrize("rho", [
    [fs.PartialAssignment([None] * 3, 2)],     # the list form is gone
    pt.ColumnRestriction([(None,)] * 4, 2),    # another n
    pt.ColumnRestriction([(None, None)] * 3, 2),  # two rows for one function
])
def test_round_refuses_a_restriction_off_the_functions(rho):
    P = pr.full_predicate(1, 2)
    with pytest.raises(DomainError, match="ColumnRestriction"):
        co.round_general_cell([fs.constant(3, 0)], (0,), rho, 0.1, P)


@pytest.mark.parametrize("J", [(7,), (-1,), (0.5,)])
def test_round_checks_the_junta_coordinates(J):
    # these raised a bare IndexError or ValueError from the cell layout
    P = pr.full_predicate(1, 2)
    rho = pt.ColumnRestriction([(None,)] * 3, 2)
    with pytest.raises(DomainError, match="coordinate"):
        co.round_general_cell([fs.dictator(3, 0)], J, rho, 0.1, P)


def test_round_reads_a_repeated_junta_coordinate_once():
    P = pr.full_predicate(1, 2)
    f = fs.from_values(3, 2, "bit", _rng(5).integers(0, 2, 8))
    rho = pt.ColumnRestriction([(None,)] * 3, 2)
    once = co.round_general_cell([f], (2, 0), rho, 0.1, P)
    twice = co.round_general_cell([f], (0, 2, 0), rho, 0.1, P)
    assert once.decisions == twice.decisions and len(once.decisions[0]) == 4
    assert once.gs[0].equals(twice.gs[0])


# -- monotone correction -----------------------------------------------------------


def test_monotone_clean_dictators_pass_through():
    n = 8
    P = pr.nand_predicate(2)
    f = fs.dictator(n, 2)
    res = co.correct_monotone(P, [f, f], eps=0.1, d=2, tau=0.2)
    assert res.exact and res.accepted
    assert res.distances == (0.0, 0.0)
    assert res.gs[0].equals(f)


def test_monotone_zero_functions():
    P = pr.nand_predicate(3)
    z = fs.constant(6, 0)
    res = co.correct_monotone(P, [z, z, z], eps=0.1, d=1, tau=0.1)
    assert res.exact and res.accepted
    assert all(np.all(g.values == 0) for g in res.gs)


def test_monotone_noisy_dictators():
    n = 10
    P = pr.nand_predicate(2)
    for seed in range(6):
        f = _flip(fs.dictator(n, 3), 0.01, 700 + seed)
        res = co.correct_monotone(P, [f, f], eps=0.1, d=2, tau=0.2)
        assert res.exact and res.accepted
        assert all(d <= 0.1 for d in res.distances)
        for g in res.gs:
            assert np.all(g.values <= f.values)  # zeroing only
        assert res.gs[0].equals(res.gs[1])  # equal inputs, equal outputs


def test_monotone_shares_the_output_of_a_shared_input():
    n = 8
    P = pr.nand_predicate(2)
    f = _flip(fs.dictator(n, 3), 0.02, 17)
    res = co.correct_monotone(P, [f, f], eps=0.1, d=2, tau=0.2)
    assert res.gs[0] is res.gs[1]
    assert res.trace.decisions[0] is res.trace.decisions[1]
    # an equal table that is another object gets its own, equal, output
    twin = fs.from_values(n, 2, "bit", f.values.copy())
    other = co.correct_monotone(P, [f, twin], eps=0.1, d=2, tau=0.2)
    assert other.gs[0] is not other.gs[1]
    assert all(g.equals(res.gs[0]) for g in other.gs)
    assert other.trace.decisions == res.trace.decisions


def test_monotone_all_ones_rejected_with_counterexample():
    P = pr.nand_predicate(2)
    one = fs.constant(5, 1)
    res = co.correct_monotone(P, [one, one], eps=0.1, d=1, tau=0.3)
    assert not res.exact and not res.accepted
    ce = res.counterexample
    assert ce is not None
    assert tuple(ce.outputs) not in P
    assert all(c in P for c in ce.columns())


def test_monotone_constant_coordinate_premise():
    P = pr.Predicate(2, 2, [(0, 0), (0, 1)])  # first coordinate always 0
    good = fs.constant(4, 0)
    bad = fs.constant(4, 1)
    res = co.correct_monotone(P, [bad, good], eps=0.1, d=1, tau=0.3)
    assert not res.accepted
    assert res.counterexample is not None
    assert tuple(res.counterexample.outputs) not in P
    ok = co.correct_monotone(P, [good, fs.dictator(4, 1)], eps=0.1, d=1, tau=0.3)
    assert ok.accepted
    assert ok.trace.roles[0] == "constant-coordinate"
    assert ok.distances[0] == 0.0


def test_monotone_past_the_old_state_gate():
    # planted NAND3 at n = 12: 7^12 columns and 2^24 worst-case contraction
    # cells once refused the final check, though the corrected juntas keep
    # a handful of residual classes
    n = 12
    P = pr.nand_predicate(3)
    funcs = [_flip(fs.dictator(n, 3), 0.01, 30 + j) for j in range(3)]
    res = co.correct_monotone(P, funcs, eps=0.1, d=2, tau=0.2)
    assert res.exact and res.accepted
    # the check ran on class tuples; the contraction confirms it
    assert pt._plan(P, res.gs, odometer=False).engine == "classes"
    Q = pt.joint_output_distribution_contracted(P, res.gs)
    assert Q[~pt._member_table(P)].sum() == 0.0


def test_monotone_rejects_non_monotone_predicate():
    with pytest.raises(ValidationError):
        co.correct_monotone(pr.parity_predicate(3, 0),
                            [fs.constant(4, 0)] * 3, eps=0.1, d=1, tau=0.1)


def test_monotone_trace_decisions_cover_cells():
    n = 8
    P = pr.nand_predicate(2)
    f = _flip(fs.dictator(n, 1), 0.01, 12)
    res = co.correct_monotone(P, [f, f], eps=0.1, d=2, tau=0.2)
    J = res.trace.junta
    for dec in res.trace.decisions:
        assert len(dec) == 2 ** len(J)
        assert set(dec) <= {"zeroed", "kept"}


# -- general correction ------------------------------------------------------------


def test_general_planted_parity_characters():
    n = 10
    P = pr.parity_predicate(3, 0)
    sup = (2, 5, 8)
    for seed in range(4):
        offs = (1, seed % 2, 1 ^ (seed % 2))  # xor to 0
        funcs = [_flip(fs.character(n, sup, b), 0.02, 40 * seed + i)
                 for i, b in enumerate(offs)]
        res = co.correct_general(P, funcs, eps=0.1, attempts=16, seed=seed)
        assert res.exact and res.accepted
        assert all(d <= 0.1 for d in res.distances)
        assert all(c.support == sup for c in res.trace.peeling.characters)
        assert (pt.violation_exact(P, res.gs).probability == 0.0)


def test_general_already_exact_is_kept():
    n = 8
    P = pr.nand_predicate(3)
    f = fs.dictator(n, 4)
    res = co.correct_general(P, [f, f, f], eps=0.1, attempts=8, seed=0)
    assert res.exact and res.accepted
    assert res.distances == (0.0, 0.0, 0.0)
    assert all(g.equals(f) for g in res.gs)


MAJ3 = fs.FunctionTable(3, 2, "bit", [int(sum(fs.decode_point(i, 3, 2)) >= 2)
                                      for i in range(8)])


@pytest.mark.parametrize("P", [
    # AND testing: P = {(0,0,0), (0,1,0), (1,0,0), (1,1,1)}
    pr.functional_predicate(fs.and_all(2)),
    pr.functional_predicate(fs.and_all(2), [Fraction(1, 2), Fraction(1, 4),
                                            Fraction(1, 8), Fraction(1, 8)]),
    # f-testing with f = MAJ3: P = {(x, MAJ3(x))}
    pr.functional_predicate(MAJ3),
    pr.nae_predicate(3, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                         Fraction(1, 16), Fraction(1, 32), Fraction(1, 32)]),
    pr.nand_predicate(2, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
], ids=["and-uniform", "and-skewed", "maj3", "nae3-skewed", "nand2-skewed"])
def test_general_corrects_the_named_testing_predicates(P):
    # a planted dictator, flipped 1% per function, on the paper's named
    # AND-testing and f-testing predicates
    n = 9
    funcs = [_flip(fs.dictator(n, 4), 0.01, 300 + j) for j in range(P.m)]
    assert pt.violation_probability(P, funcs) > 0
    res = co.correct_general(P, funcs, eps=0.1, attempts=16, seed=0)
    assert res.accepted and res.exact
    assert pt.violation_probability(P, res.gs) == 0.0
    assert all(d <= co.DISTANCE_BUDGET for d in res.distances)


def test_general_corrects_a_skewed_blr_character():
    # BLR's P_{3,0} under skewed weights; the dictator tuple is not a
    # P_{3,0} polymorphism, so the plant is a character
    P = pr.parity_predicate(3, 0, [Fraction(1, 2), Fraction(1, 4),
                                   Fraction(1, 8), Fraction(1, 8)])
    n, sup = 9, (1, 4, 6)
    funcs = [_flip(fs.character(n, sup, b), 0.02, 500 + j)
             for j, b in enumerate((1, 0, 1))]
    assert pt.violation_probability(P, funcs) > 0
    res = co.correct_general(P, funcs, eps=0.1, attempts=16, seed=0)
    assert res.accepted and res.exact
    assert pt.violation_probability(P, res.gs) == 0.0
    assert all(c.support == sup for c in res.trace.peeling.characters)


def test_general_short_relation_normalization():
    # w0 constant zero, w2 the negation of w1, w4 = w1 xor w3
    members = []
    for w1 in (0, 1):
        for w3 in (0, 1):
            members.append((0, w1, 1 ^ w1, w3, w1 ^ w3))
    P = pr.Predicate(5, 2, members)
    n = 8
    T = (0, 2, 5)
    b1, b3 = 1, 0
    dual = 1 ^ b1 ^ (len(T) % 2)
    funcs = [
        fs.constant(n, 0),
        _flip(fs.character(n, T, b1), 0.02, 11),
        _flip(fs.character(n, T, dual), 0.02, 12),
        _flip(fs.character(n, T, b3), 0.02, 13),
        _flip(fs.character(n, T, b1 ^ b3), 0.02, 14),
    ]
    res = co.correct_general(P, funcs, eps=0.1, attempts=16, seed=0)
    assert res.exact and res.accepted
    assert res.trace.negated == (2,)
    assert res.trace.roles[0] == "constant-0"
    assert res.trace.roles[2] == "duplicate-of-1"
    assert res.gs[0].equals(fs.constant(n, 0))
    # anti-equal pair: g2 is the input-and-output negation of g1
    assert res.gs[2].equals(co._negate_table(res.gs[1]))
    assert all(d <= 0.1 for d in res.distances)


def test_general_constant_one_and_anti_equal_outputs():
    # w0 constant one, w2 the negation of w1, (w1, w3) a NAND2 member
    P = pr.Predicate(4, 2, [(1, a, 1 ^ a, b)
                            for a, b in ((0, 0), (0, 1), (1, 0))])
    n = 8
    noisy_one = _flip(fs.constant(n, 1), 0.05, 21)
    vals = noisy_one.values.copy()
    vals[-1] = 1              # the forced input of a constant-1 coordinate
    funcs = [
        fs.from_values(n, 2, "bit", vals),
        _flip(fs.dictator(n, 3), 0.02, 22),
        _flip(co._negate_table(fs.dictator(n, 3)), 0.02, 23),
        _flip(fs.dictator(n, 3), 0.02, 24),
    ]
    res = co.correct_general(P, funcs, eps=0.1, attempts=16, seed=0)
    assert res.exact and res.accepted
    assert res.trace.negated == (0, 2)
    assert res.trace.roles == ("constant-1", "rounded", "duplicate-of-1",
                               "rounded")
    assert res.gs[0].equals(fs.constant(n, 1))
    assert res.gs[2].equals(co._negate_table(res.gs[1]))
    assert not res.gs[1].equals(funcs[1])


def test_general_forced_constant_premise_rejected():
    P = pr.Predicate(2, 2, [(0, 0), (0, 1)])
    funcs = [fs.constant(5, 1), fs.dictator(5, 0)]
    res = co.correct_general(P, funcs, eps=0.1, attempts=4, seed=0)
    assert not res.accepted and not res.exact
    assert res.counterexample is not None
    assert tuple(res.counterexample.outputs) not in P


def test_general_is_deterministic():
    n = 9
    P = pr.nand_predicate(2)
    f = _flip(fs.dictator(n, 5), 0.02, 33)
    r1 = co.correct_general(P, [f, f], eps=0.1, attempts=8, seed=4)
    r2 = co.correct_general(P, [f, f], eps=0.1, attempts=8, seed=4)
    assert all(a.equals(b) for a, b in zip(r1.gs, r2.gs))
    assert r1.distances == r2.distances
    assert r1.trace.junta == r2.trace.junta
    assert (r1.trace.restriction.patterns == r2.trace.restriction.patterns)


def test_general_symmetry_reported_when_broken():
    n = 9
    P = pr.nand_predicate(2)
    for seed in range(4):
        f = _flip(fs.dictator(n, 2), 0.02, 900 + seed)
        res = co.correct_general(P, [f, f], eps=0.1, attempts=8, seed=seed)
        if not res.gs[0].equals(res.gs[1]):
            assert any("symmetry" in note for note in res.trace.notes)
        else:
            assert not any("symmetry" in note for note in res.trace.notes)


def test_general_parameter_validation():
    P = pr.nand_predicate(2)
    f = fs.constant(4, 0)
    with pytest.raises(DomainError):
        co.correct_general(P, [f, f], eps=0.1, eta=0.5)
    with pytest.raises(DomainError):
        co.correct_general(P, [f, f], eps=0.1, attempts=0)
    with pytest.raises(UnsupportedError):
        co.correct_general(pr.full_predicate(2, 3),
                           [fs.constant(4, 0, s=3, codomain="sym")] * 2,
                           eps=0.1)


# -- alphabet correction -----------------------------------------------------------


def test_alphabet_full_predicate_trivially_exact():
    P = pr.full_predicate(2, 3)
    rng = _rng(8)
    funcs = [fs.from_values(4, 3, "sym", rng.integers(0, 3, 81))
             for _ in range(2)]
    res = co.correct_alphabet(P, funcs, eps=0.2, attempts=4, seed=0)
    assert res.exact  # every output tuple is in P
    assert res.accepted


def test_alphabet_perturbed_dictators():
    n, s = 6, 3
    P = pr.exclude_point_predicate(2, s, (2, 2))
    base = fs.dictator(n, 1, s=s)
    for seed in range(4):
        funcs = [_sym_noise(base, 0.02, 50 + seed), _sym_noise(base, 0.02, 150 + seed)]
        res = co.correct_alphabet(P, funcs, eps=0.1, attempts=16, seed=seed)
        assert res.exact and res.accepted
        assert all(d <= 0.1 for d in res.distances)


def test_alphabet_rare_symbol_remapped():
    # scattered rare ones vanish into the dominant symbol
    n, s = 5, 3
    P = pr.full_predicate(2, s)
    vals = np.zeros(s ** n, dtype=np.uint8)
    vals[[3, 17, 40]] = 1
    f = fs.from_values(n, s, "sym", vals)
    res = co.correct_alphabet(P, [f, f], eps=0.2, eta=0.2, attempts=4, seed=0)
    assert res.exact
    assert all(np.all(g.values == 0) for g in res.gs)
    assert all(r == "rounded" for r in res.trace.roles)


def test_alphabet_past_the_old_state_gate():
    # ternary NAE at n = 8: 24^8 columns and 3^16 worst-case contraction
    # cells once refused the final check
    n = 8
    P = pr.Predicate(3, 3, [w for w in itertools.product(range(3), repeat=3)
                            if len(set(w)) > 1])
    base = fs.dictator(n, 1, s=3)
    funcs = [_sym_noise(base, 0.02, 40 + j) for j in range(3)]
    res = co.correct_alphabet(P, funcs, eps=0.1, attempts=16, seed=0)
    assert res.exact and res.accepted
    assert pt._plan(P, res.gs, odometer=False).engine == "classes"
    Q = pt.joint_output_distribution_contracted(P, res.gs)
    assert Q[~pt._member_table(P)].sum() == 0.0


@pytest.mark.parametrize("n", [5, 6, 7])
def test_alphabet_corrects_skewed_ternary_nae(n):
    # ternary NAE with weights 1/300, ..., 24/300 on its 24 members
    members = [w for w in itertools.product(range(3), repeat=3)
               if len(set(w)) > 1]
    P = pr.Predicate(3, 3, members, [Fraction(i + 1, 300)
                                     for i in range(len(members))])
    base = fs.dictator(n, 1, s=3)
    funcs = [_sym_noise(base, 0.02, 60 + j) for j in range(3)]
    assert pt.violation_probability(P, funcs) > 0
    res = co.correct_alphabet(P, funcs, eps=0.1, attempts=16, seed=0)
    assert res.exact and res.accepted
    assert pt.violation_probability(P, res.gs) == 0.0


def test_alphabet_requires_flexibility():
    diag = pr.Predicate(2, 3, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValidationError):
        co.correct_alphabet(diag, [fs.constant(3, 0, s=3, codomain="sym")] * 2,
                            eps=0.1)


def test_alphabet_eta_validation():
    P = pr.full_predicate(2, 3)
    f = fs.constant(3, 0, s=3, codomain="sym")
    with pytest.raises(DomainError):
        co.correct_alphabet(P, [f, f], eps=0.1, eta=0.4)  # above 1/|Sigma|
    res = co.correct_alphabet(P, [f, f], eps=0.1, attempts=2, seed=0)
    assert res.trace.eta == pytest.approx(min(0.05, 1 / 3))


def test_alphabet_binary_predicates_also_work():
    n = 6
    P = pr.full_predicate(2, 2)
    f = _flip(fs.dictator(n, 0), 0.02, 5)
    res = co.correct_alphabet(P, [f, f], eps=0.1, attempts=8, seed=0)
    assert res.exact


# -- fractional NAND ----------------------------------------------------------------


def test_fractional_zero_pair():
    z = fs.constant(6, 0.0, codomain="real")
    res = co.correct_fractional_nand(z, z, p=0.25, eps=0.1, d=1, tau=0.1)
    assert res.exact and res.accepted
    assert res.losses == (0.0, 0.0)
    assert all(np.all(g.values == 0) for g in res.gs)


def test_fractional_star_family_becomes_dictator():
    n, k, e = 8, 2, 0
    F = co.friedgut_regev_lift([{e, i} for i in range(1, 5)], k, n=n)
    res = co.correct_fractional_nand(F, F, p=0.3, eps=0.2, d=2, tau=0.05)
    assert res.exact and res.accepted
    assert res.gs[0].equals(fs.dictator(n, e))
    assert res.losses == (0.0, 0.0)
    assert res.gs[0].equals(res.gs[1])


def test_fractional_constant_one_rejected():
    one = fs.constant(6, 1.0, codomain="real")
    res = co.correct_fractional_nand(one, one, p=0.25, eps=0.1, d=1, tau=0.3)
    assert not res.exact and not res.accepted
    ce = res.counterexample
    assert ce is not None and tuple(ce.outputs) not in pr.nand_predicate(2)


def test_fractional_loss_matches_direct_expectation():
    n = 7
    F = co.friedgut_regev_lift([{1, 2}, {1, 3}, {2, 3}], 2, n=n)
    res = co.correct_fractional_nand(F, F, p=0.3, eps=0.2, d=2, tau=0.05)
    nu = fs.ProductMeasure.p_biased(0.3, n)
    for g, loss in zip(res.gs, res.losses):
        direct = float(nu.weights() @ ((1.0 - g.as_real()) * F.as_real()))
        assert loss == pytest.approx(direct, abs=1e-12)


def test_fractional_outputs_are_boolean_juntas():
    n = 7
    F = co.friedgut_regev_lift([{0, 1}, {0, 2}], 2, n=n)
    res = co.correct_fractional_nand(F, F, p=0.2, eps=0.2, d=2, tau=0.05)
    J = set(res.trace.junta)
    for g in res.gs:
        assert g.codomain == "bit"
        # junta property: values depend only on J
        for idx in range(2 ** n):
            x = list(fs.decode_point(idx, n, 2))
            for i in range(n):
                if i not in J:
                    y = list(x)
                    y[i] ^= 1
                    assert g.eval(x) == g.eval(y)
            break  # one spot check per table is enough alongside equals checks


def test_fractional_p_validation():
    z = fs.constant(4, 0.0, codomain="real")
    with pytest.raises(DomainError):
        co.correct_fractional_nand(z, z, p=0.5, eps=0.1, d=1, tau=0.1)
    with pytest.raises(DomainError):
        co.correct_fractional_nand(z, z, p=0.0, eps=0.1, d=1, tau=0.1)


# -- eps of the pipelines ----------------------------------------------------------

_D4 = fs.dictator(4, 0)


@pytest.mark.parametrize("eps", [math.nan, 0.0, -0.1, math.inf])
@pytest.mark.parametrize("pipeline", [
    lambda eps: co.correct_monotone(pr.nand_predicate(2), [_D4] * 2, eps,
                                    2, 0.2),
    lambda eps: co.correct_general(pr.nand_predicate(2), [_D4] * 2, eps),
    lambda eps: co.correct_alphabet(pr.nand_predicate(2), [_D4] * 2, eps),
    lambda eps: co.correct_fractional_nand(_D4, _D4, 0.25, eps, 2, 0.2),
], ids=["monotone", "general", "alphabet", "fractional"])
def test_pipelines_refuse_eps_by_name(pipeline, eps):
    # eps = nan used to reach the eta check, whose message names eta
    with pytest.raises(DomainError, match="eps must be positive"):
        pipeline(eps)
