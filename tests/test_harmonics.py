"""Decompositions, influences, stability, and their exact identities."""

import itertools

import numpy as np
import pytest

from polymorph.errors import UnsupportedError, ValidationError
from polymorph import funcspace as fs
from polymorph import harmonics as hm


def _conditional_expectation(f, nu, T):
    """E[f | x_T] as a dense table, by direct summation (oracle)."""
    out = np.zeros(f.s ** f.n)
    for idx in range(f.s ** f.n):
        x = fs.decode_point(idx, f.n, f.s)
        acc, tot = 0.0, 0.0
        for y in itertools.product(range(f.s), repeat=f.n):
            if all(y[i] == x[i] for i in T):
                w = 1.0
                for i in range(f.n):
                    if i not in T:
                        w *= nu.measures[i].probs[y[i]]
                acc += w * float(f.eval(y))
                tot += w
        out[idx] = acc / tot
    return out


def _component_oracle(f, nu, S):
    """f_S by inclusion-exclusion over conditional expectations (oracle)."""
    out = np.zeros(f.s ** f.n)
    for T in itertools.chain.from_iterable(
            itertools.combinations(sorted(S), r) for r in range(len(S) + 1)):
        sign = (-1) ** (len(S) - len(T))
        out += sign * _conditional_expectation(f, nu, set(T))
    return out


def _random_table(rng, n, s=2, codomain="bit"):
    if codomain == "real":
        return fs.FunctionTable(n, s, "real", rng.random(s ** n))
    return fs.FunctionTable(n, s, codomain, rng.integers(0, 2 if codomain == "bit" else s, s ** n))


def test_dictator_fourier_coefficients():
    f = fs.dictator(3, 0)
    for p in (0.5, 0.3, 0.8):
        dec = hm.fourier_expand(f, p)
        assert dec.coefficient([]) == pytest.approx(p)
        assert dec.coefficient([0]) == pytest.approx(np.sqrt(p * (1 - p)))
        for S in ([1], [2], [0, 1], [0, 1, 2]):
            assert dec.coefficient(S) == pytest.approx(0.0, abs=1e-12)
    # at p = 1/2 both coefficients are 1/2
    dec = hm.fourier_expand(f, 0.5)
    assert dec.coefficient([]) == pytest.approx(0.5)
    assert dec.coefficient([0]) == pytest.approx(0.5)


def test_parseval_and_coefficient_norm_link():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = _random_table(rng, 5)
        p = rng.uniform(0.2, 0.8)
        dec = hm.fourier_expand(f, p)
        nu = fs.ProductMeasure.p_biased(p, 5)
        assert dec.total_norm2 == pytest.approx(
            float(np.dot(nu.weights(), f.as_real() ** 2)), abs=1e-9)
        assert float(dec.norm2_by_mask.sum()) == pytest.approx(dec.total_norm2, abs=1e-9)
        for S in ([], [0], [1, 3], [0, 2, 4]):
            assert dec.norm2(S) == pytest.approx(dec.coefficient(S) ** 2, abs=1e-12)


def test_components_match_inclusion_exclusion_oracle():
    rng = np.random.default_rng(1)
    # binary biased and ternary nonuniform, small n so the oracle is cheap
    cases = []
    f1 = _random_table(rng, 3)
    cases.append((f1, fs.ProductMeasure.p_biased([0.3, 0.5, 0.7], 3)))
    f2 = _random_table(rng, 2, s=3, codomain="real")
    m = fs.Measure([0.2, 0.3, 0.5])
    cases.append((f2, fs.ProductMeasure.iid(m, 2)))
    for f, nu in cases:
        dec = hm.efron_stein(f, nu)
        for r in range(f.n + 1):
            for S in itertools.combinations(range(f.n), r):
                got = dec.component(S)
                want = _component_oracle(f, nu, S)
                assert np.max(np.abs(got - want)) < 1e-9


def test_components_reconstruct_and_are_orthogonal():
    rng = np.random.default_rng(2)
    f = _random_table(rng, 4, s=3, codomain="sym")
    g = fs.FunctionTable(4, 3, "real", f.values / 2.0)
    nu = fs.ProductMeasure.iid(fs.Measure([0.25, 0.25, 0.5]), 4)
    dec = hm.efron_stein(g, nu)
    recon = dec.reconstruct()
    assert np.max(np.abs(recon - g.as_real())) < 1e-9
    w = nu.weights()
    comps = {S: dec.component(S) for S in
             itertools.chain.from_iterable(
                 itertools.combinations(range(4), r) for r in range(5))}
    total = np.zeros_like(recon)
    for S1, c1 in comps.items():
        total += c1
        for S2, c2 in comps.items():
            if S1 < S2:
                assert abs(float(np.dot(w, c1 * c2))) < 1e-9
    assert np.max(np.abs(total - g.as_real())) < 1e-9


def test_component_conditional_expectation_vanishes():
    rng = np.random.default_rng(3)
    f = _random_table(rng, 4)
    nu = fs.ProductMeasure.p_biased(0.35, 4)
    dec = hm.efron_stein(f, nu)
    S = (1, 3)
    comp = fs.FunctionTable(4, 2, "real", np.clip(dec.component(S) + 0.5, 0, 1))
    # fixing T not containing S averages the component to a constant 0.5 shift
    for T in [(0,), (2,), (0, 2), (1,)]:
        if set(S) <= set(T):
            continue
        for assign in itertools.product(range(2), repeat=len(T)):
            a = fs.PartialAssignment.from_dict(4, dict(zip(T, assign)))
            sub = comp.restrict(a)
            sub_nu = nu.subset(sorted(set(range(4)) - set(T)))
            avg = float(np.dot(sub_nu.weights(), sub.as_real())) - 0.5
            assert abs(avg) < 1e-9


def test_low_degree_influence_dictator_and_parity():
    f = fs.dictator(6, 0)
    for p in (0.5, 0.25):
        nu = fs.ProductMeasure.p_biased(p, 6)
        assert hm.low_degree_influence(f, 0, 1, nu) == pytest.approx(p * (1 - p))
        assert hm.low_degree_influence(f, 3, 6, nu) == pytest.approx(0.0, abs=1e-12)
    par = fs.character(6, range(6))
    nu = fs.ProductMeasure.uniform(6)
    for d in range(6):
        assert hm.low_degree_influence(par, 2, d, nu) == pytest.approx(0.0, abs=1e-12)
    assert hm.low_degree_influence(par, 2, 6, nu) == pytest.approx(0.25)


def test_noise_stability_dictator():
    f = fs.dictator(5, 0)
    nu = fs.ProductMeasure.uniform(5)
    for rho in (0.0, 0.3, 0.9, 1.0):
        assert hm.noise_stability(f, rho, nu) == pytest.approx(0.25 + rho / 4)


def test_noise_stability_two_paths_agree():
    rng = np.random.default_rng(4)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        s = int(rng.integers(2, 4))
        cod = "real" if rng.random() < 0.5 else "bit"
        f = _random_table(rng, n, s=s, codomain=cod)
        probs = rng.uniform(0.2, 1.0, s)
        nu = fs.ProductMeasure.iid(fs.Measure(probs / probs.sum()), n)
        rho = float(rng.uniform(0.0, 1.0))
        a = hm.noise_stability(f, rho, nu)
        b = hm.noise_stability_resample(f, rho, nu)
        assert abs(a - b) < 1e-9


def test_noise_stability_bounds_and_monotonicity():
    rng = np.random.default_rng(5)
    f = _random_table(rng, 5, codomain="real")
    nu = fs.ProductMeasure.p_biased(0.4, 5)
    mean = float(np.dot(nu.weights(), f.as_real()))
    second = float(np.dot(nu.weights(), f.as_real() ** 2))
    vals = [hm.noise_stability(f, rho, nu) for rho in np.linspace(0, 1, 6)]
    assert vals[0] == pytest.approx(mean ** 2, abs=1e-9)
    assert vals[-1] == pytest.approx(second, abs=1e-9)
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(5))


def test_noisy_influence_dictator():
    f = fs.dictator(4, 0)
    for p, rho in [(0.5, 0.7), (0.3, 0.4)]:
        nu = fs.ProductMeasure.p_biased(p, 4)
        assert hm.noisy_influence(f, 0, rho, nu) == pytest.approx(rho * p * (1 - p))
        assert hm.noisy_influence(f, 2, rho, nu) == pytest.approx(0.0, abs=1e-12)


def test_noisy_influence_is_stability_of_recentered_function():
    rng = np.random.default_rng(6)
    f = _random_table(rng, 4, codomain="real")
    nu = fs.ProductMeasure.p_biased(0.45, 4)
    rho = 0.6
    i = 2
    avg = hm.average_out(f, i, nu)
    diff = f.as_real() - avg.as_real()
    assert abs(float(np.dot(nu.weights(), diff))) < 1e-12
    # rescale diff into [0,1] to build a table: shifted = diff/2 + c
    c = -float(diff.min()) / 2.0
    shifted = fs.FunctionTable(4, 2, "real", diff / 2.0 + c)
    base = hm.noise_stability(shifted, rho, nu)
    # Stab[diff/2 + c] = Stab[diff]/4 + c^2 because E[diff] = 0
    got = 4.0 * (base - c * c)
    assert got == pytest.approx(hm.noisy_influence(f, i, rho, nu), abs=1e-9)


def test_splitting_identity_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        s = int(rng.integers(2, 4))
        f = _random_table(rng, n, s=s, codomain="real")
        probs = rng.uniform(0.1, 1.0, s)
        nu = fs.ProductMeasure.iid(fs.Measure(probs / probs.sum()), n)
        rho = float(rng.uniform(0.2, 0.95))
        i = int(rng.integers(0, n))
        lhs = 0.0
        for a in range(s):
            sub = f.restrict(fs.PartialAssignment.from_dict(n, {i: a}, s=s))
            sub_nu = nu.subset([j for j in range(n) if j != i])
            lhs += float(nu.measures[i].probs[a]) * hm.noise_stability(sub, rho, sub_nu)
        rhs = (hm.noise_stability(f, rho, nu)
               + (1 - rho) / rho * hm.noisy_influence(f, i, rho, nu))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_total_influence_bookkeeping():
    rng = np.random.default_rng(8)
    f = _random_table(rng, 5)
    nu = fs.ProductMeasure.p_biased(0.3, 5)
    i = 1
    avg = hm.average_out(f, i, nu)
    inf_all = hm.low_degree_influence(f, i, 5, nu)
    norm_avg = float(np.dot(nu.weights(), avg.as_real() ** 2))
    total = float(np.dot(nu.weights(), f.as_real() ** 2))
    assert inf_all + norm_avg == pytest.approx(total, abs=1e-9)


def test_average_out_properties():
    nu = fs.ProductMeasure.p_biased(0.3, 4)
    f = fs.dictator(4, 0)
    g = hm.average_out(f, 0, nu)
    assert np.allclose(g.values, 0.3)
    h = fs.hybrid(4)
    a = hm.average_out(hm.average_out(h, 0, nu), 1, nu)
    b = hm.average_out(hm.average_out(h, 1, nu), 0, nu)
    assert np.allclose(a.values, b.values)
    # idempotent
    c = hm.average_out(hm.average_out(h, 2, nu), 2, nu)
    assert np.allclose(c.values, hm.average_out(h, 2, nu).values)


def test_sym_codomain_needs_indicators():
    f = fs.dictator(3, 0, s=3)
    nu = fs.ProductMeasure.uniform(3, 3)
    with pytest.raises(UnsupportedError):
        hm.noise_stability(f, 0.5, nu)
    ind = hm.indicator_table(f, 2)
    assert ind.eval((2, 0, 0)) == 1
    assert ind.eval((1, 0, 0)) == 0


def test_fourier_expand_rejects_nonbinary():
    f = fs.dictator(3, 0, s=3)
    with pytest.raises(UnsupportedError):
        hm.fourier_expand(f, 0.5)


def test_degenerate_measure_rejected():
    f = fs.dictator(3, 0)
    bad = fs.ProductMeasure([fs.Measure([1.0, 0.0])] * 3)
    with pytest.raises(ValidationError):
        hm.efron_stein(f, bad)


def test_export_rows_format():
    dec = hm.fourier_expand(fs.dictator(2, 1), 0.5)
    rows = dec.export_rows().strip().splitlines()
    assert rows[0] == "S= norm2=0.25"
    assert rows[1] == "S=2 norm2=0.25"
    assert len(rows) == 2
    # sorted by level then lexicographically
    dec2 = hm.efron_stein(fs.hybrid(3), fs.ProductMeasure.uniform(3))
    labels = [r.split()[0] for r in dec2.export_rows().strip().splitlines()]
    assert labels == sorted(labels, key=lambda t: (
        0 if t == "S=" else len(t[2:].split(",")),
        tuple(int(c) for c in t[2:].split(",")) if t != "S=" else ()))
