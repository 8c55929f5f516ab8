import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polymorph.funcspace as fs
import polymorph.harmonics as hm
import polymorph.regularity as rg
import efron_stein as es
import oracles
from polymorph.errors import DomainError, ResourceError, ValidationError


def _random_function(rng, n, s, codomain=None):
    if codomain is None:
        codomain = "bit" if s == 2 else "sym"
    if codomain == "real":
        vals = rng.uniform(0, 1, size=s ** n)
    else:
        vals = rng.integers(0, s, size=s ** n)
    return fs.from_values(n, s, codomain, vals)


def _random_measure(rng, n, s):
    ms = []
    for _ in range(n):
        w = rng.uniform(0.2, 1.0, s)
        ms.append(fs.Measure(w / w.sum()))
    return fs.ProductMeasure(ms)


def test_potential_endpoints():
    rng = np.random.default_rng(21)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        s = int(rng.integers(2, 4))
        nu = _random_measure(rng, n, s)
        rho = float(rng.uniform(0.2, 0.9))
        f = _random_function(rng, n, s)
        funcs = [f]
        subs = [f] if f.codomain != "sym" else [
            oracles.indicator_table(f, v) for v in range(s)]
        start = sum(hm.noise_stability(g, rho, nu) for g in subs)
        assert abs(rg.potential(funcs, nu, rho, ()) - start) < 1e-10
        w = nu.weights()
        end = sum(float(w @ (g.as_real() ** 2)) for g in subs)
        assert abs(rg.potential(funcs, nu, rho, range(n)) - end) < 1e-10


def test_potential_monotone_under_refinement():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        s = int(rng.integers(2, 4))
        nu = _random_measure(rng, n, s)
        rho = float(rng.uniform(0.2, 0.9))
        funcs = [_random_function(rng, n, s) for _ in range(2)]
        J = [i for i in range(n) if rng.random() < 0.4]
        rest = [i for i in range(n) if i not in J]
        if not rest:
            continue
        i = int(rng.choice(rest))
        a = rg.potential(funcs, nu, rho, J)
        b = rg.potential(funcs, nu, rho, J + [i])
        assert b >= a - 1e-12


def test_splitting_identity_drives_the_potential():
    # adding one coordinate to an empty junta gains exactly
    # (1 - rho) / rho times its noisy influence
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        s = int(rng.integers(2, 3))
        nu = _random_measure(rng, n, s)
        rho = float(rng.uniform(0.2, 0.9))
        f = _random_function(rng, n, s)
        i = int(rng.integers(0, n))
        gain = rg.potential([f], nu, rho, [i]) - rg.potential([f], nu, rho, ())
        want = (1 - rho) / rho * hm.noisy_influence(f, i, rho, nu)
        assert abs(gain - want) < 1e-10


def test_dictator_needs_exactly_one_step():
    n = 6
    f = fs.dictator(n, 3)
    nu = fs.ProductMeasure.uniform(n, 2)
    cert = rg.build_junta_noisy([f], nu, eps=0.05, tau=0.01, rho=0.5)
    assert cert.junta == (3,)
    assert len(cert.steps) == 1
    assert cert.steps[0].added == (3,)
    assert cert.regular
    assert cert.regular_mass == (1.0,)
    # the lone step was forced by bad mass 1
    assert cert.steps[0].bad_mass == (1.0,)
    assert cert.steps[0].gain >= cert.steps[0].required - 1e-15


def test_parity_is_immediately_regular():
    n = 6
    f = fs.character(n, set(range(n)))
    nu = fs.ProductMeasure.uniform(n, 2)
    # the only energy sits at the top level: noisy influence rho^n / 4
    cert = rg.build_junta_noisy([f], nu, eps=0.05, tau=0.01, rho=0.5)
    assert cert.junta == ()
    assert cert.steps == ()
    assert cert.regular
    assert abs(cert.potentials[0] - (0.25 + 0.25 * 0.5 ** n)) < 1e-12


def test_certificate_potential_trace_matches_step_gains():
    rng = np.random.default_rng(24)
    n = 7
    nu = fs.ProductMeasure.uniform(n, 2)
    vals = rng.integers(0, 2, size=2 ** n)
    noisy = fs.from_values(n, 2, "bit", vals)
    funcs = [fs.dictator(n, 0), fs.dictator(n, 5), noisy]
    cert = rg.build_junta_noisy(funcs, nu, eps=0.02, tau=0.02, rho=0.5)
    assert cert.regular
    assert len(cert.potentials) == len(cert.steps) + 1
    for k, step in enumerate(cert.steps):
        actual = cert.potentials[k + 1] - cert.potentials[k]
        assert actual >= step.gain - 1e-12
        assert step.gain >= step.required - 1e-15
    assert len(cert.steps) <= cert.step_bound
    assert all(0.0 <= p <= len(funcs) + 1e-12 for p in cert.potentials)
    assert {0, 5}.issubset(set(cert.junta))


def test_random_instances_terminate_within_budget():
    rng = np.random.default_rng(25)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        s = int(rng.integers(2, 4))
        nu = _random_measure(rng, n, s)
        funcs = [_random_function(rng, n, s) for _ in range(2)]
        cert = rg.build_junta_noisy(funcs, nu, eps=0.1, tau=0.05, rho=0.5)
        assert cert.regular
        assert len(cert.steps) <= cert.step_bound
        assert all(0 <= i < n for i in cert.junta)
        assert all(m >= 1 - 0.1 - 1e-12 for m in cert.regular_mass)


def test_certificates_are_deterministic():
    rng = np.random.default_rng(26)
    n = 6
    nu = fs.ProductMeasure.uniform(n, 2)
    f = _random_function(rng, n, 2)
    a = rg.build_junta_noisy([f], nu, eps=0.05, tau=0.02, rho=0.6)
    b = rg.build_junta_noisy([f], nu, eps=0.05, tau=0.02, rho=0.6)
    assert a == b


def test_cell_regular_fraction_frozen_and_pair():
    # f = x0 and x1 under uniform measure, cells over {0}: the x0 = 1 cell
    # restricts to a dictator with degree-1 influence 1/4
    n = 2
    f = fs.and_all(n)
    nu = fs.ProductMeasure.uniform(n, 2)
    rep = rg.cell_regular_fraction(f, [0], d=1, tau=0.1, nu=nu)
    assert abs(rep.regular_mass - 0.5) < 1e-12
    assert len(rep.worst) == 1
    w = rep.worst[0]
    assert w.cell == (1,)
    assert w.coordinate == 1
    assert abs(w.influence - 0.25) < 1e-12
    assert abs(w.weight - 0.5) < 1e-12
    # tau above the influence accepts everything
    rep2 = rg.cell_regular_fraction(f, [0], d=1, tau=0.3, nu=nu)
    assert rep2.regular_mass == 1.0 and rep2.worst == ()
    # covering junta leaves constant cells
    rep3 = rg.cell_regular_fraction(f, [0, 1], d=1, tau=0.01, nu=nu)
    assert rep3.regular_mass == 1.0


def test_worst_cells_tied_by_a_symbol_permutation_list_in_cell_order(
        monkeypatch):
    # cells x0 = 0 and x0 = 1 restrict to g and g + 1 mod 3: equal
    # influences, which the transform may return an ulp apart either way,
    # also across a boundary of rounding to 12 significant digits
    g = np.array([0, 1, 2, 1, 0, 0, 2, 2, 1])
    values = np.stack([g, (g + 1) % 3, np.zeros(9, dtype=int)], axis=1)
    f = fs.from_values(3, 3, "sym", values.ravel())
    nu = fs.ProductMeasure.uniform(3, 3)
    rep = rg.cell_regular_fraction(f, [0], d=2, tau=1e-3, nu=nu)
    assert [w.cell for w in rep.worst] == [(0,), (1,)]
    real = rg._cell_influences
    for base, direction in itertools.product(
            (None, 0.1234567890125), (-np.inf, np.inf)):
        def nudged(*args, base=base, direction=direction):
            weights, infs, coords = real(*args)
            infs = infs.copy()
            if base is not None:
                infs[0] = base
            infs[1] = np.nextafter(infs[0], direction)
            return weights, infs, coords
        monkeypatch.setattr(rg, "_cell_influences", nudged)
        rep = rg.cell_regular_fraction(f, [0], d=2, tau=1e-3, nu=nu)
        assert [w.cell for w in rep.worst] == [(0,), (1,)]


def test_sym_function_regularized_through_indicators():
    n = 4
    f = fs.dictator(n, 2, s=3)
    nu = fs.ProductMeasure.uniform(n, 3)
    cert = rg.build_junta_noisy([f], nu, eps=0.05, tau=0.05, rho=0.5)
    assert 2 in cert.junta
    assert cert.regular


def test_lowdeg_mode_verifies_directly():
    n = 6
    nu = fs.ProductMeasure.uniform(n, 2)
    funcs = [fs.dictator(n, 2), fs.character(n, {0, 1})]
    cert = rg.build_junta_lowdeg(funcs, nu, eps=0.05, d=2, tau=0.08)
    assert cert.mode == "lowdeg"
    assert cert.degree == 2 and cert.tau == 0.08
    assert cert.rho == 0.5
    assert abs(cert.threshold - 0.08 * 0.25) < 1e-15
    assert cert.regular
    for f, noisy_m in zip(funcs, cert.regular_mass):
        direct_m = rg.cell_regular_fraction(f, cert.junta, 2, 0.08,
                                            nu).regular_mass
        assert direct_m >= noisy_m - 1e-12
        assert direct_m >= 1 - 0.05 - 1e-12
    assert 2 in cert.junta


@st.composite
def lowdeg_instances(draw):
    """Up to three tables on one domain (a table may repeat), an iid or
    (for s = 2) p-biased measure per table, and d, tau, eps."""
    s = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5 if s == 2 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    funcs, measures = [], []
    for _ in range(draw(st.integers(1, 3))):
        if funcs and draw(st.booleans()):
            funcs.append(funcs[-1])
        else:
            codomain = draw(st.sampled_from(("bit", "real", "sym") if s == 2
                                            else ("sym",)))
            funcs.append(_random_function(rng, n, s, codomain))
        if s == 2 and draw(st.booleans()):
            measures.append(fs.ProductMeasure.p_biased(
                draw(st.floats(0.1, 0.9)), n))
        else:
            w = rng.uniform(0.2, 1.0, s)
            measures.append(fs.ProductMeasure.iid(fs.Measure(w / w.sum()), n))
    d = draw(st.integers(1, 3))
    tau = draw(st.floats(0.01, 0.3))
    eps = draw(st.floats(0.05, 0.5))
    return funcs, measures, d, tau, eps


@settings(max_examples=100, deadline=None)
@given(lowdeg_instances())
def test_lowdeg_proxy_mass_is_below_the_direct_mass(inst):
    # a noisy influence at most tau * rho^d forces every degree-<= d
    # influence to be at most tau, so each cell the noisy loop counts as
    # regular is regular for the direct check too
    funcs, measures, d, tau, eps = inst
    cert = rg.build_junta_lowdeg(funcs, measures, d, tau, eps)
    for f, nu, noisy_m in zip(funcs, measures, cert.regular_mass):
        direct_m = rg.cell_regular_fraction(f, cert.junta, d, tau,
                                            nu).regular_mass
        assert direct_m >= noisy_m - 1e-12


def test_lowdeg_d1_uses_half_rho():
    n = 4
    nu = fs.ProductMeasure.uniform(n, 2)
    cert = rg.build_junta_lowdeg([fs.dictator(n, 1)], nu, eps=0.1, d=1, tau=0.1)
    assert cert.rho == 0.5
    assert abs(cert.threshold - 0.05) < 1e-15
    assert cert.junta == (1,)


def _no_cell_view(*args, **kwargs):
    raise AssertionError("cells built before the cap check")


def test_input_guards(monkeypatch):
    n = 3
    f = fs.dictator(n, 0)
    nu = fs.ProductMeasure.uniform(n, 2)
    with pytest.raises(DomainError):
        rg.build_junta_noisy([], nu, rho=0.5, tau=0.1, eps=0.1)
    with pytest.raises(DomainError):
        rg.build_junta_noisy([f], nu, rho=0.5, tau=0.1, eps=0.0)
    with pytest.raises(DomainError):
        rg.build_junta_noisy([f], nu, rho=0.5, tau=0.0, eps=0.1)
    with pytest.raises(DomainError):
        rg.build_junta_noisy([f], nu, rho=1.0, tau=0.1, eps=0.1)
    with pytest.raises(DomainError):
        rg.build_junta_noisy([f], fs.ProductMeasure.uniform(n + 1, 2),
                             rho=0.5, tau=0.1, eps=0.1)
    with pytest.raises(DomainError):
        rg.build_junta_noisy([f], [nu, nu], rho=0.5, tau=0.1, eps=0.1)
    with pytest.raises(DomainError):
        rg.build_junta_noisy([f], nu, rho=0.5, tau=0.1, eps=0.1, initial=[7])
    with monkeypatch.context() as mp:
        mp.setattr(rg, "CELL_CAP", 1)
        with pytest.raises(ResourceError):
            rg.build_junta_noisy([fs.dictator(6, 0)],
                                 fs.ProductMeasure.uniform(6, 2),
                                 rho=0.5, tau=0.001, eps=0.1)
    with pytest.raises(DomainError):
        rg.cell_regular_fraction(f, [0], d=0, tau=0.1, nu=nu)
    # the per-cell check validates J and the measure before any reshape
    for check in (rg.cell_regular_fraction, rg.regular_cell_mask):
        for J in ([5], [-1], [0, 3]):
            with pytest.raises(DomainError):
                check(f, J, 1, 0.1, nu)
        for bad in (fs.ProductMeasure.uniform(n - 1, 2),
                    fs.ProductMeasure.uniform(n + 1, 2),
                    fs.ProductMeasure.uniform(n, 3)):
            with pytest.raises(DomainError):
                check(f, [0], 1, 0.1, bad)
        big = fs.hybrid(12)
        with monkeypatch.context() as mp:
            mp.setattr(rg, "CELL_CAP", 512)
            # the cap is checked before the cell view is built
            mp.setattr(rg, "_cell_view", _no_cell_view)
            with pytest.raises(ResourceError):
                check(big, range(10), 1, 0.1,
                      fs.ProductMeasure.uniform(12, 2))


def test_cell_check_fails_on_nan():
    # values is read-only; a caller that re-enables writes on purpose can
    # still put NaN in after construction, and the reader must refuse it
    f = fs.FunctionTable(4, 2, "real", np.full(16, 0.5))
    f.values.flags.writeable = True
    f.values[5] = np.nan
    with pytest.raises(ValidationError, match="Parseval"):
        rg.regular_cell_mask(f, [0], 1, 0.1, fs.ProductMeasure.uniform(4))


def test_per_function_measures():
    # one dictator judged under a 0.2-bias, the other under a 0.8-bias;
    # both coordinates must enter the junta and both end fully regular
    n = 5
    funcs = [fs.dictator(n, 0), fs.dictator(n, 4)]
    nus = [fs.ProductMeasure.p_biased(0.2, n), fs.ProductMeasure.p_biased(0.8, n)]
    cert = rg.build_junta_noisy(funcs, nus, rho=0.5, tau=0.01, eps=0.05)
    assert {0, 4}.issubset(set(cert.junta))
    assert cert.regular and cert.regular_mass == (1.0, 1.0)
    # potential start is the sum of per-measure stabilities
    import polymorph.harmonics as hm
    want = (hm.noise_stability(funcs[0], 0.5, nus[0])
            + hm.noise_stability(funcs[1], 0.5, nus[1]))
    assert abs(cert.potentials[0] - want) < 1e-10


def test_real_valued_functions_participate():
    rng = np.random.default_rng(27)
    n = 4
    nu = fs.ProductMeasure.uniform(n, 2)
    g = _random_function(rng, n, 2, codomain="real")
    cert = rg.build_junta_noisy([g], nu, eps=0.1, tau=0.2, rho=0.5)
    assert cert.regular
    assert 0.0 <= cert.potentials[-1] <= 1.0 + 1e-12


# -- the batched per-cell check against per-cell decompositions ---------------

@st.composite
def cell_instances(draw):
    """A table, a full-support measure, a cell set J leaving at least one
    coordinate free (in any order), a degree d and a threshold tau."""
    s = draw(st.sampled_from((2, 3)))
    codomain = draw(st.sampled_from(("bit", "real", "sym") if s == 2
                                    else ("sym",)))
    n = draw(st.integers(1, 6 if s == 2 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = _random_function(rng, n, s, codomain)
    nu = _random_measure(rng, n, s)
    J = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    d = draw(st.integers(1, 3))
    tau = draw(st.floats(1e-3, 0.3))
    return f, nu, J, d, tau


def _per_cell_records(f, J, d, nu):
    """(cell, weight, influence, coordinate) per cell of sorted J, in cell
    index order, from the Efron-Stein reference on every restricted table:
    the largest degree-<= d influence over free coordinates, then symbols,
    with the earliest entry winning ties."""
    Js = sorted(J)
    F = [i for i in range(f.n) if i not in Js]
    subs = [f] if f.codomain != "sym" else [
        oracles.indicator_table(f, v) for v in range(f.s)]
    out = []
    for c in range(f.s ** len(Js)):
        cell = fs.decode_point(c, len(Js), f.s)
        a = fs.PartialAssignment.from_dict(f.n, dict(zip(Js, cell)), s=f.s)
        weight = oracles.weight_of(nu.subset(Js), cell) if Js else 1.0
        infs = np.array([es.weighted_influences(
            es.component_norm2(g.restrict(a).as_real(), nu.subset(F)),
            len(F), lambda level: level <= d) for g in subs])
        k = int(infs.argmax())   # symbol-major, so the earliest entry wins
        out.append((cell, weight, float(infs.flat[k]), F[k % len(F)]))
    return out


@settings(max_examples=300, deadline=None)
@given(cell_instances())
def test_cell_check_matches_per_cell_decompositions(inst):
    f, nu, J, d, tau = inst
    want = _per_cell_records(f, J, d, nu)
    mask = rg.regular_cell_mask(f, J, d, tau, nu)
    assert mask.tolist() == [r[2] <= tau for r in want]
    rep = rg.cell_regular_fraction(f, J, d, tau, nu)
    mass = math.fsum(r[1] for r in want if r[2] <= tau)
    assert abs(rep.regular_mass - mass) < 1e-12
    assert (rep.degree, rep.tau) == (d, tau)
    bad = sorted((r for r in want if r[2] > tau),
                 key=lambda r: -r[2])[:rg.WORST_CELLS]
    # the k-th listed cell is the k-th worst, and its record is the
    # oracle's.  Cells whose influences tie exactly (say, restrictions
    # that differ by a symbol permutation) come out of either computation
    # a rounding error apart, so only their order among themselves is free
    assert len(rep.worst) == len(bad)
    assert len({w.cell for w in rep.worst}) == len(bad)
    by_cell = {r[0]: r for r in want}
    for w, r in zip(rep.worst, bad):
        own = by_cell[w.cell]
        assert w.cell == r[0] or abs(own[2] - r[2]) < 1e-12
        assert w.coordinate == own[3]
        assert abs(w.influence - own[2]) < 1e-12
        assert abs(w.weight - own[1]) < 1e-12


# -- per-cell growth figures against per-cell restrictions ----------------------

@settings(max_examples=200, deadline=None)
@given(cell_instances(), st.floats(0.05, 0.95))
def test_cell_growth_tables_match_restrictions(inst, rho):
    f, nu, J, _, _ = inst
    Js = sorted(J)
    subs = [f] if f.codomain != "sym" else [
        oracles.indicator_table(f, v) for v in range(f.s)]
    w_cells, stabs, infss, F = rg._cell_influence_tables(
        np.stack([g.as_real() for g in subs]), f.n, f.s, J, nu, rho)
    for g, stab, infs in zip(subs, stabs, infss):
        assert F == [i for i in range(f.n) if i not in Js]
        nu_free = nu.subset(F)
        for c in range(f.s ** len(Js)):
            cell = fs.decode_point(c, len(Js), f.s)
            weight = oracles.weight_of(nu.subset(Js), cell) if Js else 1.0
            assert abs(w_cells[c] - weight) < 1e-12
            a = fs.PartialAssignment.from_dict(f.n, dict(zip(Js, cell)),
                                               s=f.s)
            r = g.restrict(a)
            assert abs(stab[c] - hm.noise_stability(r, rho, nu_free)) < 1e-12
            for k in range(len(F)):
                assert abs(infs[k, c]
                           - hm.noisy_influence(r, k, rho, nu_free)) < 1e-12


@st.composite
def table_stacks(draw):
    """T real tables in [0, 1] of one domain, T in {1, ..., s}, with one
    full-support measure and a cell set J in any order."""
    s = draw(st.sampled_from((2, 3)))
    T = draw(st.integers(1, s))
    n = draw(st.integers(1, 6 if s == 2 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.uniform(0, 1, size=(T, s ** n))
    nu = _random_measure(rng, n, s)
    J = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return stack, n, s, J, nu


@settings(max_examples=200, deadline=None)
@given(table_stacks(), st.floats(0.05, 0.95))
def test_stacked_growth_pass_equals_single_table_passes(inst, rho):
    stack, n, s, J, nu = inst
    w_cells, stab, infs, F = rg._cell_influence_tables(stack, n, s, J, nu,
                                                       rho)
    assert stab.shape == (len(stack), s ** len(set(J)))
    assert infs.shape == (len(stack), len(F), s ** len(set(J)))
    for t in range(len(stack)):
        w1, stab1, infs1, F1 = rg._cell_influence_tables(stack[t:t + 1], n,
                                                         s, J, nu, rho)
        assert F1 == F
        assert np.array_equal(w1, w_cells)
        assert np.allclose(stab[t], stab1[0], rtol=0, atol=1e-12)
        assert np.allclose(infs[t], infs1[0], rtol=0, atol=1e-12)


# -- growth rounds grouped by measure ------------------------------------------

@st.composite
def grouped_positions(draw):
    """2-4 positions over one domain (s in {2, 3}) drawing their tables
    from a smaller pool, so table objects repeat, and their measures from
    1-2 distinct ones, each position holding its own equal-content copy;
    a cell set J in any order.  Returns (functions, measures, distinct
    measure count, J)."""
    s = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5 if s == 2 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 4))
    kinds = ("bit", "real", "sym") if s == 2 else ("sym", "real")
    pool = [_random_function(rng, n, s, draw(st.sampled_from(kinds)))
            for _ in range(draw(st.integers(1, m)))]
    mus = [_random_measure(rng, n, s)
           for _ in range(draw(st.integers(1, 2)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m,
                          max_size=m))
    which = draw(st.permutations(
        list(range(len(mus))) + draw(st.lists(
            st.integers(0, len(mus) - 1), min_size=m - len(mus),
            max_size=m - len(mus)))))
    funcs = [pool[i] for i in picks]
    measures = [fs.ProductMeasure(mus[w].measures) for w in which]
    J = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return funcs, measures, len(mus), J


@settings(max_examples=150, deadline=None)
@given(grouped_positions(), st.floats(0.05, 0.95))
def test_grouped_growth_round_equals_per_position_passes(inst, rho):
    funcs, measures, groups, J = inst
    n, s = funcs[0].n, funcs[0].s
    stacks, rows = rg._stack_by_measure(funcs, measures)
    calls = []
    real = rg._cell_influence_tables
    with mock.patch.object(rg, "_cell_influence_tables",
                           lambda *args: calls.append(1) or real(*args)):
        per_fn, phi = rg._growth_pass(stacks, rows, n, s, J, rho)
    assert len(calls) == groups
    alone = []
    for i, (f, nu) in enumerate(zip(funcs, measures)):
        w1, stab1, infs1, F1 = rg._cell_influence_tables(
            rg._real_stack(f), n, s, J, nu, rho)
        w_cells, stab, infs, F = per_fn[i]
        assert F == F1
        assert np.array_equal(w_cells, w1)
        assert np.allclose(stab, stab1, rtol=0, atol=1e-12)
        assert np.allclose(infs, infs1, rtol=0, atol=1e-12)
        alone.extend(float(w1 @ row) for row in stab1)
        for k in range(i):
            if funcs[k] is f and measures[k] == nu:
                assert rows[k] == rows[i]
                assert np.array_equal(per_fn[k][1], stab)
                assert np.array_equal(per_fn[k][2], infs)
    assert abs(phi - math.fsum(alone)) < 1e-12


# -- the growth loop against the moveaxis reference ----------------------------

@st.composite
def growth_stacks(draw):
    """1-9 real tables over s in {2, 3, 4}, one random full-support
    measure, and a cell set J of 0-2 coordinates in any order."""
    s = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 6, 3: 4, 4: 3}[s]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.uniform(0, 1, size=(draw(st.integers(1, 9)), s ** n))
    J = draw(st.lists(st.integers(0, n - 1), max_size=min(2, n), unique=True))
    return stack, n, s, J, _random_measure(rng, n, s)


@settings(max_examples=300, deadline=None)
@given(growth_stacks(), st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True))
def test_growth_pass_matches_the_moveaxis_loop(inst, rho):
    # same products, in a different axis order: byte-equal at s = 2, where
    # each entry is one two-term sum, and within rounding at s >= 3
    stack, n, s, J, nu = inst
    got = rg._cell_influence_tables(stack, n, s, J, nu, rho)
    want = oracles.cell_influence_tables_moveaxis(stack, n, s, J, nu, rho)
    assert got[3] == want[3]
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape
        if s == 2:
            assert a.tobytes() == b.tobytes()
        else:
            assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_growth_pass_rounds_as_the_moveaxis_loop_with_cells_fastest():
    # one table cut on its lowest coordinates has its cells as the fastest
    # axis of the cell view; numpy would then lay the product out cells
    # first, and the reduction would round differently from row-major rows
    rng = np.random.default_rng(0)
    for n, J in [(3, [0]), (4, [0]), (4, [0, 1]), (5, [0])] * 10:
        stack = rng.uniform(0, 1, size=(1, 2 ** n))
        nu = _random_measure(rng, n, 2)
        rho = float(rng.uniform(0.05, 0.95))
        got = rg._cell_influence_tables(stack, n, 2, J, nu, rho)
        want = oracles.cell_influence_tables_moveaxis(stack, n, 2, J, nu, rho)
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
