import math
from fractions import Fraction

import numpy as np
import pytest

import polymorph.funcspace as fs
import polymorph.polytest as pt
import polymorph.predicates as pr
from polymorph.errors import DomainError, ResourceError, UnsupportedError


def _random_predicate(rng, m, s, weighted=True):
    total = s ** m
    k = int(rng.integers(2, total + 1))
    picks = sorted(rng.choice(total, size=k, replace=False).tolist())
    members = [fs.decode_point(c, m, s) for c in picks]
    if weighted:
        raw = [int(rng.integers(1, 6)) for _ in members]
        w = [Fraction(v, sum(raw)) for v in raw]
    else:
        w = None
    return pr.Predicate(m, s, members, weights=w)


def _random_functions(rng, m, n, s):
    out = []
    for _ in range(m):
        vals = rng.integers(0, s, size=s ** n)
        cod = "bit" if s == 2 else "sym"
        out.append(fs.from_values(n, s, cod, vals))
    return out


def _brute_violation(P, funcs):
    # direct scan, no numpy vectorization: the independent route
    n = funcs[0].n
    K = len(P)
    total = 0.0
    mu = [float(w) for w in P.weights]
    for code in range(K ** n):
        digits = fs.decode_point(code, n, K)
        cols = [P.members[d] for d in digits]
        w = 1.0
        for d in digits:
            w *= mu[d]
        outs = tuple(f.eval([c[j] for c in cols]) for j, f in enumerate(funcs))
        if outs not in P:
            total += w
    return total


def test_odometer_matches_brute_scan():
    rng = np.random.default_rng(11)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        s = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        P = _random_predicate(rng, m, s)
        funcs = _random_functions(rng, m, n, s)
        rep = pt.violation_exact(P, funcs)
        assert abs(rep.probability - _brute_violation(P, funcs)) < 1e-12


def test_contraction_matches_odometer():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        s = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4 if s == 3 else 5))
        P = _random_predicate(rng, m, s)
        funcs = _random_functions(rng, m, n, s)
        Q, _ = pt.joint_output_distribution(P, funcs)
        Qc = pt.joint_output_distribution_contracted(P, funcs)
        assert Q.shape == Qc.shape
        assert np.max(np.abs(Q - Qc)) < 1e-12
        assert abs(Q.sum() - 1.0) < 1e-12


def test_achievable_outputs_agree_with_positive_mass():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        s = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        P = _random_predicate(rng, m, s)
        funcs = _random_functions(rng, m, n, s)
        Q, _ = pt.joint_output_distribution(P, funcs)
        reach = pt.achievable_outputs(P, funcs)
        assert np.array_equal(reach, Q > 1e-15)


def test_dictators_are_polymorphisms():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        s = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        P = _random_predicate(rng, m, s)
        i = int(rng.integers(0, n))
        funcs = [fs.dictator(n, i, s=s) for _ in range(m)]
        rep = pt.violation_exact(P, funcs)
        assert rep.probability == 0.0
        assert rep.counterexample is None
        ok, ce = pt.is_generalized_polymorphism(P, funcs)
        assert ok and ce is None


def test_planted_characters_respect_parity_predicate():
    # on the even-parity predicate, matching characters with offsets
    # summing to 0 mod 2 never violate
    P = pr.parity_predicate(3, 0)
    n = 5
    support = {0, 2, 3}
    for b1 in (0, 1):
        for b2 in (0, 1):
            funcs = [fs.character(n, support, offset=b1),
                     fs.character(n, support, offset=b2),
                     fs.character(n, support, offset=b1 ^ b2)]
            assert pt.violation_exact(P, funcs).probability == 0.0
            bad = [fs.character(n, support, offset=b1),
                   fs.character(n, support, offset=b2),
                   fs.character(n, support, offset=1 ^ b1 ^ b2)]
            assert pt.violation_exact(P, bad).probability == 1.0


def test_and_pair_preserves_nand_but_or_pair_does_not():
    P = pr.nand_predicate(2)
    n = 3
    ands = [fs.and_all(n), fs.and_all(n)]
    assert pt.violation_exact(P, ands).probability == 0.0
    ors = [fs.or_all(n), fs.or_all(n)]
    ok, ce = pt.is_generalized_polymorphism(P, ors)
    assert not ok
    assert ce is not None
    for col in ce.columns():
        assert col in P
    assert ce.outputs == (1, 1)
    assert ce.outputs not in P


def test_frozen_violation_values():
    # NOT dictators on 2-ary NAND fail exactly on the (0,0) column
    P = pr.nand_predicate(2)
    nots = [fs.character(2, {0}, offset=1), fs.character(2, {0}, offset=1)]
    assert abs(pt.violation_exact(P, nots).probability - 1 / 3) < 1e-15
    # OR pair at n=2: complement is Pr[x=00 or y=00] = 4/9 + 4/9 - 1/9
    ors = [fs.or_all(2), fs.or_all(2)]
    assert abs(pt.violation_exact(P, ors).probability - 2 / 9) < 1e-14


def test_counterexample_search_through_contraction():
    rng = np.random.default_rng(15)
    found = 0
    for _ in range(25):
        m = int(rng.integers(2, 4))
        s = 2
        n = int(rng.integers(2, 5))
        P = _random_predicate(rng, m, s)
        funcs = _random_functions(rng, m, n, s)
        ok, ce = pt.is_generalized_polymorphism(P, funcs)
        assert ok == (pt.violation_exact(P, funcs).probability == 0.0)
        if not ok:
            found += 1
            assert all(c in P for c in ce.columns())
            assert ce.outputs not in P
            for j, f in enumerate(funcs):
                assert f.eval(ce.inputs[j]) == ce.outputs[j]
    assert found > 5


def test_odometer_fallback_when_contraction_too_large():
    P = pr.nand_predicate(2)
    ors = [fs.or_all(3), fs.or_all(3)]
    ok, ce = pt.is_generalized_polymorphism(P, ors, contraction_cap=1)
    assert not ok and ce is not None
    assert all(c in P for c in ce.columns())
    assert ce.outputs not in P


def test_monotone_zeroing_never_increases_violation():
    # NAND predicates are closed downward, so lowering outputs only helps
    rng = np.random.default_rng(16)
    P = pr.nand_predicate(3)
    n = 3
    for _ in range(10):
        funcs = _random_functions(rng, 3, n, 2)
        before = pt.violation_exact(P, funcs).probability
        zeroed = []
        for f in funcs:
            vals = f.values.copy()
            mask = rng.random(vals.size) < 0.4
            vals[mask] = 0
            zeroed.append(fs.from_values(n, 2, "bit", vals))
        after = pt.violation_exact(P, zeroed).probability
        assert after <= before + 1e-15


def test_single_function_predicate():
    P = pr.Predicate(1, 2, [(0,)])
    f_ok = fs.constant(3, 0)
    f_bad = fs.or_all(3)
    assert pt.violation_exact(P, [f_ok]).probability == 0.0
    rep = pt.violation_exact(P, [f_bad])
    assert rep.probability == 0.0  # all columns are 0, or_all(0,0,0) = 0
    g = fs.character(3, set(), offset=1)  # constant 1
    rep = pt.violation_exact(P, [g])
    assert rep.probability == 1.0


def test_resource_and_domain_guards():
    P = pr.nand_predicate(2)
    funcs = [fs.and_all(10), fs.and_all(10)]
    with pytest.raises(ResourceError):
        pt.violation_exact(P, funcs, cap=1000)
    with pytest.raises(ResourceError):
        pt.joint_output_distribution_contracted(P, funcs, cap=100)
    with pytest.raises(DomainError):
        pt.violation_exact(P, [fs.and_all(3)])
    with pytest.raises(DomainError):
        pt.violation_exact(P, [fs.and_all(3), fs.and_all(4)])
    h = fs.from_values(2, 2, "real", [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(UnsupportedError):
        pt.violation_exact(P, [h, fs.and_all(2)])


def test_wilson_interval_basics():
    lo, hi = pt.wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = pt.wilson_interval(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1
    lo, hi = pt.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(DomainError):
        pt.wilson_interval(0, 0)


def test_violation_mc_covers_exact_value():
    P = pr.nand_predicate(2)
    ors = [fs.or_all(2), fs.or_all(2)]
    truth = 2 / 9
    rep = pt.violation_mc(P, ors, samples=20000, seed=7)
    assert rep.method == "monte_carlo"
    assert rep.samples == 20000
    assert rep.interval[0] <= truth <= rep.interval[1]
    assert rep.half_width < 0.02
    again = pt.violation_mc(P, ors, samples=20000, seed=7)
    assert again.probability == rep.probability
    other = pt.violation_mc(P, ors, samples=20000, seed=8)
    assert other.probability != rep.probability


def test_joint_value_probability_unrestricted():
    P = pr.nand_predicate(2)
    funcs = [fs.and_all(3), fs.and_all(3)]
    # both outputs 1 is impossible; (1, 0) needs x = 111, prob (1/3)^3
    assert pt.joint_value_probability(P, funcs, (1, 1)) == 0.0
    assert abs(pt.joint_value_probability(P, funcs, (1, 0)) - 1 / 27) < 1e-15
    total = sum(pt.joint_value_probability(P, funcs, fs.decode_point(c, 2, 2))
                for c in range(4))
    assert abs(total - 1.0) < 1e-12
    with pytest.raises(DomainError):
        pt.joint_value_probability(P, funcs, (1,))


def _restricted_prob_oracle(f, pattern_row, marginal):
    # direct scan over the full table for one function
    total = np.zeros(2)
    for code in range(f.s ** f.n):
        x = fs.decode_point(code, f.n, f.s)
        w = 1.0
        ok = True
        for i, fixed in enumerate(pattern_row):
            if fixed is None:
                w *= marginal[x[i]]
            elif x[i] != fixed:
                ok = False
                break
        if ok:
            total[f.eval(x)] += w
    return total


def test_joint_value_probability_with_restriction():
    P = pr.nand_predicate(2)
    law = pr.star_law(P)
    n = 4
    rng = np.random.default_rng(18)
    funcs = _random_functions(rng, 2, n, 2)
    marg = [float(v) for v in P.marginal(0)]
    for trial in range(6):
        rho = pt.draw_restriction(law, n, rng)
        assert rho.n == n
        for alpha in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            got = pt.joint_value_probability(P, funcs, alpha, restriction=rho)
            want = 1.0
            for j in range(2):
                row = [p[j] for p in rho.patterns]
                want *= _restricted_prob_oracle(funcs[j], row, marg)[alpha[j]]
            assert abs(got - want) < 1e-12


def test_restriction_star_positions_and_assignments():
    P = pr.nand_predicate(2)
    rho = pt.ColumnRestriction([(None, 0), (0, 0), (0, None)], s=2)
    # the star positions of row j are the free coordinates of its assignment
    a0 = rho.assignment_for(0)
    assert a0.free == (0,) and a0.fixed == (1, 2)
    assert a0.entries == (None, 0, 0)
    a1 = rho.assignment_for(1)
    assert a1.free == (2,) and a1.fixed == (0, 1)
    assert a1.entries == (0, 0, None)


def test_evaluate_columns_helper():
    funcs = [fs.and_all(2), fs.or_all(2)]
    cols = [(1, 0), (1, 1)]
    assert pt.evaluate_columns(funcs, cols) == (1, 1)


def test_violation_probability_agrees_with_both_engines():
    rng = np.random.default_rng(12)
    for t in range(6):
        P = _random_predicate(rng, 2, 2)
        funcs = _random_functions(rng, 2, 4, 2)
        direct = pt.violation_exact(P, funcs).probability
        assert abs(pt.violation_probability(P, funcs) - direct) < 1e-12
        # capped contraction falls back to the odometer
        assert pt.violation_probability(P, funcs,
                                        contraction_cap=1) == direct
