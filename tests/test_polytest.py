import copy
import itertools
import math
import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polymorph.cli as cli
import polymorph.corrector as co
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


def _no_allocation(*args, **kwargs):
    raise AssertionError("work began before the cap check")


LABELLED_ENGINES = ("_contract", "_backward_by_classes", "_search_by_prefixes")


def test_odometer_fallback_when_contraction_too_large(monkeypatch):
    P = pr.nand_predicate(2)
    ors = [fs.or_all(3), fs.or_all(3)]
    monkeypatch.setattr(pt, "CONTRACTION_CAP", 1)
    # neither labelled engine fits, so neither runs
    for name in LABELLED_ENGINES:
        monkeypatch.setattr(pt, name, _no_allocation)
    ok, ce = pt.is_generalized_polymorphism(P, ors)
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


@pytest.mark.parametrize("entry", [
    pt.violation_probability,
    pt.violation_exact,
    pt.is_generalized_polymorphism,
    pt.joint_output_distribution,
    pt.joint_output_distribution_contracted,
    lambda P, funcs: pt.violation_mc(P, funcs, 10, 0),
], ids=["probability", "exact", "check", "odometer", "contraction", "mc"])
def test_oracle_entries_gate_output_arrays(entry):
    # arrays over Sigma^m with m = 40 cannot be allocated
    m = 40
    P = pr.Predicate(m, 2, [(0,) * m, (1,) * m])
    with pytest.raises(ResourceError, match="binary m = 40"):
        entry(P, [fs.dictator(2, 0)] * m)


def test_resource_and_domain_guards(monkeypatch):
    P = pr.nand_predicate(2)
    funcs = [fs.and_all(10), fs.and_all(10)]
    # each cap raises before its engine builds anything
    with monkeypatch.context() as mp:
        mp.setattr(pt, "ODOMETER_CAP", 1000)
        mp.setattr(pt, "_column_tables", _no_allocation)
        with pytest.raises(ResourceError):
            pt.violation_exact(P, funcs)
        # the text names public calls that take such inputs
        with pytest.raises(ResourceError, match="ODOMETER_CAP = 1000; use "
                           "violation_probability or violation_mc$"):
            pt.joint_output_distribution(P, funcs)
    with monkeypatch.context() as mp:
        mp.setattr(pt, "CONTRACTION_CAP", 100)
        mp.setattr(pt, "_contract", _no_allocation)
        with pytest.raises(ResourceError):
            pt.joint_output_distribution_contracted(P, funcs)
        # past both caps the planner raises before any engine allocates:
        # random tables keep 32 classes each after five coordinates
        mp.setattr(pt, "ODOMETER_CAP", 1000)
        for name in LABELLED_ENGINES + ("_column_tables",):
            mp.setattr(pt, name, _no_allocation)
        noisy = _random_functions(np.random.default_rng(19), 2, 10, 2)
        for entry in (pt.violation_probability, pt.is_generalized_polymorphism):
            with pytest.raises(ResourceError,
                               match="ODOMETER_CAP .* CONTRACTION_CAP"):
                entry(P, noisy)
    with pytest.raises(DomainError):
        pt.violation_exact(P, [fs.and_all(3)])
    with pytest.raises(DomainError):
        pt.violation_exact(P, [fs.and_all(3), fs.and_all(4)])
    h = fs.from_values(2, 2, "real", [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(UnsupportedError):
        pt.violation_exact(P, [h, fs.and_all(2)])
    for samples, seed in [(0, 1), (2.5, 1), (10, -1), (10, 2 ** 128),
                          (10, 1.5)]:
        with pytest.raises(DomainError):
            pt.violation_mc(P, funcs, samples, seed)


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
        rho = co._draw_outside(law, n, (), rng)
        assert rho.n == n
        for alpha in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            got = pt.joint_value_probability(P, funcs, alpha, restriction=rho)
            want = 1.0
            for j in range(2):
                row = [p[j] for p in rho.patterns]
                want *= _restricted_prob_oracle(funcs[j], row, marg)[alpha[j]]
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("alpha", [(2, 0), (-1, 1), (0, 7), (0.5, 0)])
@pytest.mark.parametrize("restricted", [False, True])
def test_joint_value_probability_refuses_outputs_off_the_alphabet(
        alpha, restricted):
    # unchecked, (2, 0) and (-1, 1) read the law at other output codes and
    # (0, 7) indexed past it
    P = pr.nand_predicate(2)
    funcs = [fs.dictator(3, 0)] * 2
    rho = pt.ColumnRestriction([(None, None), (0, 1), (None, 0)], 2) \
        if restricted else None
    with pytest.raises(DomainError, match="alpha"):
        pt.joint_value_probability(P, funcs, alpha, restriction=rho)


def test_restricted_value_distribution_refuses_another_alphabet():
    f = fs.from_values(2, 3, "sym", [0, 1, 2] * 3)
    free = fs.PartialAssignment([None, 1], 3)
    with pytest.raises(DomainError, match="alphabet"):
        pt.restricted_value_distribution(f, free, fs.Measure([0.5, 0.5]))
    with pytest.raises(DomainError, match="alphabet"):
        pt.restricted_value_distribution(f, fs.PartialAssignment([None, 1]),
                                         fs.Measure.uniform(3))
    law = pt.restricted_value_distribution(f, free, fs.Measure.uniform(3))
    assert np.allclose(law, [1 / 3] * 3)


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


@pytest.mark.parametrize("j", [-1, 2, 0.5])
def test_assignment_for_refuses_a_function_outside_the_patterns(j):
    # j = -1 once returned the last function's row, and j = 2 raised a
    # bare IndexError
    rho = pt.ColumnRestriction([(None, 0), (0, 0), (0, None)], s=2)
    with pytest.raises(DomainError):
        rho.assignment_for(j)


@pytest.mark.parametrize("marginal", [
    [0.5, 0.5], None, fs.ProductMeasure.uniform(1)])
def test_restricted_value_distribution_refuses_a_marginal_that_is_no_measure(
        marginal):
    # a list once raised a bare AttributeError
    with pytest.raises(DomainError):
        pt.restricted_value_distribution(
            fs.dictator(2, 0), fs.PartialAssignment([None, 1]), marginal)


@pytest.mark.parametrize("patterns", [
    [(None, -1), (0, 1)],          # -1 would read np.eye(s)[-1]
    [(None, 2), (0, 1)],           # symbol s
    [(None, 0.5), (0, 1)],         # not an integer
    [(None, 0), (0, 1, None)],     # rows of unequal length
])
def test_restriction_patterns_are_checked_when_built(patterns):
    with pytest.raises(DomainError):
        pt.ColumnRestriction(patterns, 2)


@pytest.mark.parametrize("restriction", [
    pt.ColumnRestriction([(None,)] * 3, 2),         # one entry: IndexError
    pt.ColumnRestriction([(None, None, 0)] * 3, 2),  # a third entry: ignored
    pt.ColumnRestriction([(None, None)] * 4, 2),    # another n
    [fs.PartialAssignment([None] * 3, 2)] * 2,      # not a ColumnRestriction
])
def test_joint_value_probability_refuses_a_restriction_off_the_functions(
        restriction):
    P = pr.nand_predicate(2)
    with pytest.raises(DomainError, match="ColumnRestriction"):
        pt.joint_value_probability(P, [fs.dictator(3, 0)] * 2, (0, 0),
                                   restriction=restriction)


def test_restriction_stores_plain_symbols():
    rho = pt.ColumnRestriction([(np.int64(1), None), (True, 0)], 2)
    assert rho.patterns == ((1, None), (1, 0))
    assert all(type(v) is int for p in rho.patterns for v in p if v is not None)


def test_bench_engines_never_run_the_planner(monkeypatch):
    # the benchmark checks the planner's answers against violation_exact
    # (the odometer) and joint_output_distribution_contracted; were either
    # to run _plan or the class pass, those checks would compare the
    # planner with itself
    calls = []

    def counting(name):
        real = getattr(pt, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("_plan", "_backward_by_classes"):
        monkeypatch.setattr(pt, name, counting(name))
    P = pr.nand_predicate(3)
    rng = np.random.default_rng(7)
    funcs = [fs.from_values(6, 2, "bit", rng.integers(0, 2, 64))
             for _ in range(3)]
    report = pt.violation_exact(P, funcs)
    assert report.probability > 0 and report.counterexample is not None
    pt.joint_output_distribution_contracted(P, funcs)
    assert calls == []
    # the counters do see the planner where it runs
    assert pt.violation_probability(P, funcs) == pytest.approx(
        report.probability, abs=1e-12)
    assert calls == ["_plan", "_backward_by_classes"]


def test_evaluate_columns_helper():
    funcs = [fs.and_all(2), fs.or_all(2)]
    cols = [(1, 0), (1, 1)]
    assert pt.evaluate_columns(funcs, cols) == (1, 1)


def test_violation_probability_agrees_with_both_engines(monkeypatch):
    rng = np.random.default_rng(12)
    for t in range(6):
        P = _random_predicate(rng, 2, 2)
        funcs = _random_functions(rng, 2, 4, 2)
        direct = pt.violation_exact(P, funcs).probability
        assert abs(pt.violation_probability(P, funcs) - direct) < 1e-12
        # capped contraction falls back to the odometer
        with monkeypatch.context() as mp:
            mp.setattr(pt, "CONTRACTION_CAP", 1)
            assert pt.violation_probability(P, funcs) == direct


@st.composite
def oracle_instances(draw):
    s = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(1, 4 if s == 2 else 3))
    n = draw(st.integers(1, 4 if s == 2 and m < 4 else 3))
    points = sorted(fs.points_in_index_order(m, s))
    members = draw(st.lists(st.sampled_from(points), min_size=1, unique=True))
    raw = draw(st.lists(st.integers(1, 50), min_size=len(members),
                        max_size=len(members)))
    P = pr.Predicate(m, s, members, [Fraction(w, sum(raw)) for w in raw])
    codomain = "bit" if s == 2 else "sym"
    funcs = [fs.from_values(n, s, codomain, draw(structured_values(n, s)))
             for _ in range(m)]
    return P, funcs


@settings(max_examples=100, deadline=None)
@given(oracle_instances(), st.data())
def test_predicate_views_equal_the_exact_forms(instance, data):
    P, _ = instance
    raw = data.draw(st.lists(st.integers(1, 10 ** 6), min_size=len(P),
                             max_size=len(P)))
    for P in (P, pr.Predicate(P.m, P.s, P.members,
                              [Fraction(r, sum(raw)) for r in raw])):
        assert (P.float_weights.tobytes()
                == np.array([float(w) for w in P.weights]).tobytes())
        assert P.member_array.dtype == np.int64
        assert np.array_equal(P.member_array, np.array(P.members))
        margs = [[sum((p for w, p in zip(P.members, P.weights) if w[j] == a),
                      Fraction(0)) for a in range(P.s)] for j in range(P.m)]
        assert [P.marginal(j) for j in range(P.m)] == margs
        assert [P.marginal_measure(j).probs.tobytes() for j in range(P.m)] \
            == [np.array([float(p) for p in marg]).tobytes() for marg in margs]
        for Q in (pickle.loads(pickle.dumps(P)), copy.deepcopy(P),
                  pr.parse_predicate(pr.format_predicate(P))):
            assert (Q.m, Q.s, Q.members, Q.weights) \
                == (P.m, P.s, P.members, P.weights)
            assert Q.member_array.tobytes() == P.member_array.tobytes()
            assert Q.float_weights.tobytes() == P.float_weights.tobytes()
            assert [Q.marginal(j) for j in range(P.m)] == margs
            assert [Q.marginal_measure(j) for j in range(P.m)] \
                == [P.marginal_measure(j) for j in range(P.m)]


@st.composite
def structured_values(draw, n, s):
    """A table's values: random, or built so that its residual classes
    merge at every level (constants, dictators, small juntas, tables that
    never take some symbol)."""
    kind = draw(st.sampled_from(("random", "constant", "dictator", "junta",
                                 "missing")))
    points = [fs.decode_point(x, n, s) for x in range(s ** n)]
    if kind == "constant":
        return [draw(st.integers(0, s - 1))] * s ** n
    if kind == "dictator":
        i = draw(st.integers(0, n - 1))
        return [x[i] for x in points]
    if kind == "junta":
        J = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                          unique=True))
        g = draw(st.lists(st.integers(0, s - 1), min_size=s ** len(J),
                          max_size=s ** len(J)))
        return [g[fs.encode_point([x[i] for i in J], s)] for x in points]
    symbols = list(range(s))
    if kind == "missing":
        symbols.remove(draw(st.sampled_from(symbols)))
    return draw(st.lists(st.sampled_from(symbols), min_size=s ** n,
                         max_size=s ** n))


def _forced(P, funcs, engine):
    """A patch under which _plan picks engine for these tables, whatever
    it costs, so the public entries run it."""
    trans, sizes = pt._transitions(P, funcs)
    plan = pt._Plan(engine, "forced", 0, trans, sizes)
    return mock.patch.object(pt, "_plan", lambda *args, **kwargs: plan)


@settings(max_examples=150, deadline=None)
@given(oracle_instances(), st.sampled_from((1, 5, pt.CHUNK)))
def test_exact_engines_agree(instance, chunk):
    # chunk: the class pass's block size, down to one row a block
    P, funcs = instance
    Q, _ = pt.joint_output_distribution(P, funcs)
    outside = np.array([fs.decode_point(c, P.m, P.s) not in P
                        for c in range(Q.size)])
    prob = float(Q[outside].sum())
    reach = Q > 0
    trans, sizes = pt._transitions(P, funcs)
    assert np.array_equal(pt._contract(P, funcs, None, trans[1:]), reach)
    Qc = pt.joint_output_distribution_contracted(P, funcs)
    assert np.max(np.abs(Qc - Q)) < 1e-12
    assert abs(pt.violation_probability(P, funcs) - prob) < 1e-12
    ok, ce = pt.is_generalized_polymorphism(P, funcs)
    # the class pass answers the check and both probabilities, whichever
    # engine the planner would pick
    with _forced(P, funcs, "classes"), mock.patch.object(pt, "CHUNK", chunk):
        assert pt.is_generalized_polymorphism(P, funcs) == (ok, ce)
        assert abs(pt.violation_probability(P, funcs) - prob) < 1e-12
        for code in range(Q.size):
            alpha = fs.decode_point(code, P.m, P.s)
            assert abs(pt.joint_value_probability(P, funcs, alpha)
                       - Q[code]) < 1e-12
    assert ok == (prob == 0.0)
    if ok:
        assert ce is None
        return
    alpha = int(np.nonzero(reach & outside)[0][0])
    tuples = itertools.product(P.members, repeat=funcs[0].n)
    first = next(cols for cols in tuples
                 if fs.encode_point(pt.evaluate_columns(funcs, cols), P.s)
                 == alpha)
    assert ce.columns() == list(first)
    assert pt._search_by_prefixes(P, funcs, alpha, trans[1:]) == list(first)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _nand3_tables(rate, seed: int):
    """Three n=10 tables: one dictator with each bit flipped at the rate,
    or uniformly random tables when the rate is None."""
    rng = _rng(seed)
    if rate is None:
        return [fs.from_values(10, 2, "bit", rng.integers(0, 2, 1024))
                for _ in range(3)]
    base = fs.dictator(10, 4).values
    return [fs.from_values(10, 2, "bit", base ^ (rng.random(1024) < rate))
            for _ in range(3)]


@pytest.mark.parametrize("rate, by_classes",
                         [(0.01, True), (0.07, True), (0.09, False),
                          (None, False)])
def test_check_path_follows_the_class_count_rule(rate, by_classes):
    # the planner's estimates, classes against contraction: 0.23 against
    # 1.87 ms at flip rate 0.01; 6.84 against 8.02 ms at 0.07 and 9.10
    # against 8.88 ms at 0.09, either side of the break-even; 75.8 against
    # 17.9 ms on random tables.  The class path runs one backward pass;
    # the contraction runs once for reachability and once per tried prefix.
    # Either way the result is the other path's
    P = pr.nand_predicate(3)
    funcs = _nand3_tables(rate, 190)
    calls = {}
    spied = {name: getattr(pt, name) for name in
             ("_backward_by_classes", "_contract")}

    def spy(name):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return spied[name](*args, **kwargs)
        return wrapper

    with mock.patch.multiple(pt, **{name: spy(name) for name in spied}):
        ok, ce = pt.is_generalized_polymorphism(P, funcs)
    assert not ok
    if by_classes:
        assert calls == {"_backward_by_classes": 1}
    else:
        assert set(calls) == {"_contract"} and calls["_contract"] > 10
    plan = pt._plan(P, funcs, odometer=False)
    assert plan.engine == ("classes" if by_classes else "contraction")
    trans = plan.trans
    reach = pt._contract(P, funcs, None, trans[1:])
    alpha = int(np.nonzero(reach & ~pt._member_table(P))[0][0])
    assert ce.outputs == fs.decode_point(alpha, P.m, P.s)
    assert ce.columns() == pt._search_by_prefixes(P, funcs, alpha, trans[1:])
    other = "contraction" if by_classes else "classes"
    with _forced(P, funcs, other):
        assert pt.is_generalized_polymorphism(P, funcs) == (ok, ce)


def test_check_sentinel_past_one_byte():
    # s^m = 4^4 = 256 output codes: the members' sentinel needs two bytes,
    # and in one byte it would read as output code 0
    P = pr.Predicate(4, 4, [(a,) * 4 for a in range(4)] + [(3, 3, 3, 2)])
    d = [fs.dictator(3, i, 4) for i in range(2)]
    for funcs, exact in (([d[0]] * 4, True), ([d[0]] * 3 + [d[1]], False)):
        assert pt._plan(P, funcs, odometer=False).engine == "classes"
        ok, ce = pt.is_generalized_polymorphism(P, funcs)
        report = pt.violation_exact(P, funcs)
        assert ok == exact == (report.probability == 0.0)
        if not exact:
            # outputs (a, a, a, b), b != a: the lowest code is (1, 1, 1, 0)
            assert ce.outputs == (1, 1, 1, 0) and ce.outputs not in P
            assert ce.columns() == [P.members[1], P.members[0],
                                    P.members[0]]


@st.composite
def residual_tables(draw):
    s = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5 if s == 2 else 4))
    return n, s, np.array(draw(structured_values(n, s)), dtype=np.uint8)


@settings(max_examples=100, deadline=None)
@given(residual_tables())
def test_residual_classes_are_the_distinct_subfunctions(table):
    # independent oracle: the subfunction a k-digit prefix p leaves is
    # column p of values.reshape(s^(n-k), s^k)
    n, s, values = table
    T = pt._residual_transitions(values, n, s)
    assert len(T) == n
    classes = np.zeros(1, dtype=np.int64)
    for k in range(n + 1):
        cols = values.reshape(s ** (n - k), s ** k)
        _, col_id = np.unique(cols, axis=1, return_inverse=True)
        col_id = col_id.ravel()
        if k < n:
            assert T[k].shape == (s, col_id.max() + 1)
        assert np.array_equal(classes[:, None] == classes[None, :],
                              col_id[:, None] == col_id[None, :])
        if k < n:
            # prefix p + w * s^k extends prefix p by digit w
            classes = np.concatenate([T[k][w, classes] for w in range(s)])
    # the classes of full inputs are their values
    assert np.array_equal(classes, values)


def test_float_contraction_memory_stays_small():
    # with one state axis per input instead of per residual class, this
    # call peaked at 32 MB; residual classes keep it near 1 MB
    P = pr.parity_predicate(3, 0)
    funcs = list(cli.plant_and_perturb(P, 10, "character:1,2,3:0,0,0",
                                       0.01, 1).fs)
    tracemalloc.start()
    try:
        pt.joint_output_distribution_contracted(P, funcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


ENGINES = {"odometer": "joint_output_distribution",
           "contraction": "_contract", "classes": "_backward_by_classes"}


def _count_engines(monkeypatch):
    calls = []
    for name in list(ENGINES.values()) + ["_transitions"]:
        real = getattr(pt, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pt, name, wrapper)
    return calls


@pytest.mark.parametrize("P, n, engine", [
    # 4^7 columns cost less than the transitions, which are not computed
    (pr.one_hot_predicate(4), 7, "odometer"),
    (pr.parity_predicate(3, 0), 10, "classes"),
    # past the old worst-case gate (4^12 cells), dictators keep 8 class
    # tuples: the class path, where 4^12 columns once ran
    (pr.parity_predicate(3, 0), 12, "classes"),
], ids=["one_hot_n7", "parity_n10", "parity_n12"])
def test_violation_probability_runs_the_cheaper_engine_only(monkeypatch, P, n,
                                                            engine):
    funcs = [fs.dictator(n, 1) for _ in range(P.m)]
    assert pt._plan(P, funcs).engine == engine
    calls = _count_engines(monkeypatch)
    assert pt.violation_probability(P, funcs) == 0.0
    planned = [] if engine == "odometer" else ["_transitions"]
    assert calls == planned + [ENGINES[engine]]


def _oracle_item(P, n, rate, seed):
    """P.m tables: a planted dictator on coordinate 1 with each entry moved
    to another symbol at the rate, or uniformly random when it is None."""
    rng = _rng(seed)
    base = fs.dictator(n, 1, P.s).values.astype(np.int64)
    codomain = "bit" if P.s == 2 else "sym"
    out = []
    for _ in range(P.m):
        if rate is None:
            v = rng.integers(0, P.s, P.s ** n)
        else:
            shift = np.where(rng.random(base.size) < rate,
                             rng.integers(1, P.s, base.size), 0)
            v = (base + shift) % P.s
        out.append(fs.from_values(n, P.s, codomain, v))
    return out


def test_refusal_past_both_caps_stays_small():
    # random NAND3 tables at n = 20: 7^20 columns, and both labelled
    # engines' largest arrays are over CONTRACTION_CAP; the planner labels
    # the classes, then refuses before any engine allocates
    P = pr.nand_predicate(3)
    funcs = _oracle_item(P, 20, None, 20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError,
                           match="ODOMETER_CAP .* CONTRACTION_CAP"):
            pt.is_generalized_polymorphism(P, funcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # the refused call's labels are released with it
    assert pt._LABELLED == {}


def test_joint_value_probability_reads_the_planned_law():
    # planted NAND3 at n = 12: 7^12 columns are over ODOMETER_CAP, which
    # the unrestricted entry once required
    P = pr.nand_predicate(3)
    funcs = _oracle_item(P, 12, 0.01, 7)
    assert pt._plan(P, funcs).engine == "classes"
    Q = pt.joint_output_distribution_contracted(P, funcs)
    for code in range(Q.size):
        alpha = fs.decode_point(code, P.m, P.s)
        assert abs(pt.joint_value_probability(P, funcs, alpha) - Q[code]) \
            < 1e-12


def test_noisy_parity_laws_at_n12_run_on_class_tuples():
    # the two exact laws of acceptance criterion 3, drawn as it draws them:
    # f, f, f for a character with 1% of its entries flipped
    rng = np.random.default_rng(303)
    n = 12
    P = pr.parity_predicate(3, 0)
    for _ in range(2):
        size = int(rng.integers(1, n + 1))
        S = sorted(rng.choice(n, size=size, replace=False).tolist())
        vals = fs.character(n, S, int(rng.integers(0, 2))).values.copy()
        vals[rng.choice(vals.size, size=round(0.01 * 2 ** n),
                        replace=False)] ^= 1
        funcs = [fs.from_values(n, 2, "bit", vals)] * 3
        assert pt._plan(P, funcs).engine == "classes"
        Q = pt.joint_output_distribution_contracted(P, funcs)
        assert abs(pt.violation_probability(P, funcs)
                   - Q[~pt._member_table(P)].sum()) < 1e-12


def _ternary_nae():
    return pr.Predicate(3, 3, [w for w in itertools.product(range(3), repeat=3)
                               if len(set(w)) > 1])


@pytest.mark.parametrize("P, n, rate, law, check", [
    # the oracle shapes of the benchmark, planted at flip 0.01; one-hot's
    # 4^7 columns cost less than its transitions
    (pr.nand_predicate(3), 10, 0.01, "classes", "classes"),
    (_ternary_nae(), 6, 0.01, "classes", "classes"),
    (pr.parity_predicate(3, 0), 10, 0.01, "classes", "classes"),
    (pr.one_hot_predicate(4), 7, 0.01, "odometer", "classes"),
    # noisy tables keep far more joint class tuples than contraction cells
    (pr.nand_predicate(3), 10, None, "contraction", "contraction"),
    (_ternary_nae(), 6, 0.3, "contraction", "contraction"),
    # random parity at n = 11: contraction 42-49 ms against odometer 53-59
    # ms, medians of 9 interleaved runs on four seeds (CHANGES.md); its
    # 4.68M class tuples are over CONTRACTION_CAP, so classes are not
    # admitted
    (pr.parity_predicate(3, 0), 11, None, "contraction", "contraction"),
], ids=["nand3", "nae3", "par3", "onehot", "nand3_random", "nae3_flip03",
        "par3_n11_random"])
def test_planner_picks(P, n, rate, law, check):
    funcs = _oracle_item(P, n, rate, 7)
    for plan, engine in ((pt._plan(P, funcs), law),
                         (pt._plan(P, funcs, odometer=False), check)):
        assert plan.engine == engine
        assert plan.reason.startswith(f"estimated {engine} ")
        if engine == "odometer":
            assert plan.trans is None and plan.peak == len(P) ** n
            continue
        # the contraction's pre-merge buffer at level k has an f_0 input
        # axis, a digit and class axis per function j >= 1, and f_0's value
        buffer = max(P.s ** (n - k - 1) * P.s ** (P.m - 1) * P.s
                     * math.prod(z[1:]) for k, z in enumerate(plan.sizes[:n]))
        joint = max(math.prod(z) for z in plan.sizes)
        assert plan.peak == {"contraction": buffer, "classes": joint}[engine]
        assert plan.peak <= pt.CONTRACTION_CAP


@settings(max_examples=150, deadline=None)
@given(oracle_instances(), st.sampled_from((1, 5, pt.CHUNK)))
def test_class_law_equals_the_other_engines(instance, chunk):
    # from one output's indicator the backward pass gives that output's
    # mass; from output codes at or past a bound (the sentinel below it)
    # the lowest reachable one
    P, funcs = instance
    trans, sizes = pt._transitions(P, funcs)
    Q, _ = pt.joint_output_distribution(P, funcs)
    codes = np.arange(Q.size)
    law = np.empty(Q.size)
    with mock.patch.object(pt, "CHUNK", chunk):
        for code in codes:
            law[code] = pt._backward_by_classes(
                P, trans, sizes, (codes == code).astype(np.float64),
                P.float_weights)[0].item()
            lowest = pt._backward_by_classes(
                P, trans, sizes, np.where(codes >= code, codes, Q.size))
            reached = np.flatnonzero(Q[code:] > 0)
            assert lowest[0].item() == (code + reached[0] if reached.size
                                        else Q.size)
    contracted = pt._contract(P, funcs, P.float_weights, trans[1:])
    assert np.max(np.abs(law - contracted)) < 1e-12
    assert np.max(np.abs(law - Q)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(oracle_instances(), st.integers(1, 1 << 12))
def test_admitted_engines_fit_the_contraction_cap(instance, cap):
    # a labelled engine runs only when its largest array fits the cap; the
    # check runs the odometer only when neither fits
    P, funcs = instance
    n = funcs[0].n
    Q, _ = pt.joint_output_distribution(P, funcs)
    prob = float(Q[~pt._member_table(P)].sum())
    with mock.patch.object(pt, "CONTRACTION_CAP", cap):
        for odometer in (True, False):
            plan = pt._plan(P, funcs, odometer)
            if plan.engine != "odometer":
                assert plan.peak <= cap
            elif not odometer:
                joint = max(math.prod(z) for z in plan.sizes)
                # a lone function's largest array is its first state
                buffer = max(P.s ** (n - k + max(P.m - 1, 1))
                             * math.prod(z[1:])
                             for k, z in enumerate(plan.sizes[:n]))
                assert min(joint, buffer) > cap
        assert abs(pt.violation_probability(P, funcs) - prob) < 1e-12
        assert pt.is_generalized_polymorphism(P, funcs)[0] == (prob == 0.0)


def _class_tops(P):
    """The backward pass's output values: codes with the sentinel on
    members (the check), and the violation indicator (the probability)."""
    in_p = pt._member_table(P)
    codes = np.where(in_p, in_p.size, np.arange(in_p.size)).astype(
        np.min_scalar_type(in_p.size))
    return codes, (~in_p).astype(np.float64)


def test_class_law_memory_stays_small():
    # the planted parity tuple of the contraction's bound above; its class
    # law holds one float per joint class tuple of two adjacent levels
    P = pr.parity_predicate(3, 0)
    funcs = list(cli.plant_and_perturb(P, 10, "character:1,2,3:0,0,0",
                                       0.01, 1).fs)
    trans, sizes = pt._transitions(P, funcs)
    top = _class_tops(P)[1]
    tracemalloc.start()
    try:
        pt._backward_by_classes(P, trans, sizes, top, P.float_weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 18


def test_admitted_class_pass_memory_follows_its_tuples():
    # planted NAND3 at n = 13: the widest level has 720,544 class tuples.
    # Blocks of rows leave the levels as the working set: every level at
    # one byte a tuple (the check), or two adjacent float levels (the law);
    # the forward pass's whole levels of int64 indices and next codes once
    # held 63 (check) and 76 (law) bytes per tuple here
    P = pr.nand_predicate(3)
    funcs = list(cli.plant_and_perturb(P, 13, "dictator:1", 0.02, 1).fs)
    codes, outside = _class_tops(P)
    for odometer, top, w, per_tuple in ((False, codes, None, 16),
                                        (True, outside, P.float_weights, 40)):
        plan = pt._plan(P, funcs, odometer)
        assert plan.engine == "classes" and plan.peak > 32 * pt.CHUNK
        tracemalloc.start()
        try:
            pt._backward_by_classes(P, plan.trans, plan.sizes, top, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_tuple * plan.peak


# -- column tables and the Monte Carlo sampler ---------------------------------

def _odometer_reference(P, funcs, chunk):
    # the per-digit odometer that _column_tables replaced, kept verbatim
    # but for the block size
    n, s, K = funcs[0].n, P.s, len(P)
    memb = np.array(P.members, dtype=np.int64)
    muvec = np.array([float(w) for w in P.weights])
    in_p = pt._member_table(P)
    c = 0
    while c < n and K ** (c + 1) <= chunk:
        c += 1
    block = K ** c
    low_w = np.ones(block)
    low_x = np.zeros((P.m, block), dtype=np.int64)
    rem = np.arange(block, dtype=np.int64)
    for i in range(c):
        d = rem % K
        rem //= K
        low_w *= muvec[d]
        low_x += memb[d].T * s ** i
    first_bad = None
    Q = np.zeros(s ** P.m)
    for high in range(K ** n // block):
        w = low_w
        offset = np.zeros(P.m, dtype=np.int64)
        for i, d in enumerate(fs.decode_point(high, n - c, K), start=c):
            w = w * muvec[d]
            offset += memb[d] * s ** i
        out_code = np.zeros(block, dtype=np.int64)
        for j in range(P.m):
            x = low_x[j] + offset[j]
            out_code += funcs[j].values[x].astype(np.int64) * s ** j
        np.add.at(Q, out_code, w)
        if first_bad is None:
            bad = np.nonzero(~in_p[out_code])[0]
            if bad.size:
                first_bad = high * block + int(bad[0])
    return Q, first_bad


@settings(max_examples=100, deadline=None)
@given(oracle_instances(), st.integers(0, 3))
def test_column_tables_match_a_per_digit_scan(instance, c):
    P, _ = instance
    K = len(P)
    while K ** c > 1024:
        c -= 1
    mu = [float(w) for w in P.weights]
    x = pt._column_tables(P.member_array, c, P.s)
    w = pt._column_weights(np.array(mu), c)
    ref_x = np.zeros((P.m, K ** c), dtype=np.int64)
    ref_w = np.ones(K ** c)
    for code in range(K ** c):
        digits = fs.decode_point(code, c, K)
        for j in range(P.m):
            ref_x[j, code] = fs.encode_point([P.members[d][j]
                                              for d in digits], P.s)
        for d in digits:
            ref_w[code] *= mu[d]
    assert np.array_equal(x, ref_x)
    assert w.tobytes() == ref_w.tobytes()


@settings(max_examples=100, deadline=None)
@given(oracle_instances(), st.sampled_from((4, 16, pt.CHUNK)))
def test_odometer_equals_the_per_digit_odometer(instance, chunk):
    P, funcs = instance
    with mock.patch.object(pt, "CHUNK", chunk):
        Q, first_bad = pt.joint_output_distribution(P, funcs)
    ref_Q, ref_bad = _odometer_reference(P, funcs, chunk)
    assert np.array_equal(Q, ref_Q)
    assert first_bad == ref_bad


def test_column_codes_past_one_byte_equal_the_references():
    # {(0,0),(1,1)} at n = 16: odometer blocks of 2^14 columns, and Monte
    # Carlo groups of 12 and 4 coordinates, whose input codes need two
    # bytes, and one byte before the shift by 2^12
    P = pr.Predicate(2, 2, [(0, 0), (1, 1)])
    n = 16
    funcs = _random_functions(np.random.default_rng(23), P.m, n, P.s)
    x = pt._column_tables(P.member_array, 12, P.s)
    assert x.dtype == np.uint16 and x.max() == 2 ** 12 - 1
    Q, first_bad = pt.joint_output_distribution(P, funcs)
    ref_Q, ref_bad = _odometer_reference(P, funcs, pt.CHUNK)
    assert Q.tobytes() == ref_Q.tobytes()
    assert first_bad == ref_bad
    assert (pt.violation_mc(P, funcs, 5000, 9)
            == _mc_reference(P, funcs, 5000, 9))


# kind: (alphabets, m, member count range, n range, high digit range)
ODOMETER_SHAPES = {
    "one_block": ((2,), 3, (1, 8), (3, 3), (0, 0)),
    "wide": ((2,), 3, (3, 5), (4, 5), (3, 4)),        # |P| > s
    "narrow": ((3,), 2, (1, 3), (5, 5), (1, 4)),      # |P| <= s
    "single": ((2, 3), 1, (1, 2), (5, 5), (3, 3)),
    "two_byte": ((3,), 6, (2, 4), (3, 3), (2, 2)),    # s^m = 729 codes
    "exact": ((2,), 3, (2, 4), (5, 5), (3, 3)),
}


@st.composite
def odometer_shapes(draw):
    """(P, funcs, chunk, kind): shapes that reach each part of the
    odometer's rows, with the block size that gives them high digits."""
    kind = draw(st.sampled_from(sorted(ODOMETER_SHAPES)))
    alphabets, m, (k_min, k_max), ns, highs = ODOMETER_SHAPES[kind]
    s = draw(st.sampled_from(alphabets))
    n, high = draw(st.integers(*ns)), draw(st.integers(*highs))
    points = sorted(fs.points_in_index_order(m, s))
    members = draw(st.lists(st.sampled_from(points), min_size=k_min,
                            max_size=k_max, unique=True))
    raw = draw(st.lists(st.integers(1, 50), min_size=len(members),
                        max_size=len(members)))
    P = pr.Predicate(m, s, members, [Fraction(w, sum(raw)) for w in raw])
    codomain = "bit" if s == 2 else "sym"
    if kind == "exact":
        # every function reads one coordinate: each output tuple is a member
        i = draw(st.integers(0, n - 1))
        funcs = [fs.dictator(n, i, s) for _ in range(m)]
    else:
        funcs = [fs.from_values(n, s, codomain, draw(structured_values(n, s)))
                 for _ in range(m)]
    # any block size that leaves the drawn number of high digits
    K, c = len(P), n - high
    chunk = draw(st.integers(K ** c, max(K ** c, K ** (c + 1) - 1)))
    return P, funcs, chunk, kind


@settings(max_examples=150, deadline=None)
@given(odometer_shapes())
def test_odometer_rows_equal_the_per_digit_odometer(shape):
    P, funcs, chunk, kind = shape
    n, K = funcs[0].n, len(P)
    with mock.patch.object(pt, "CHUNK", chunk):
        Q, first_bad = pt.joint_output_distribution(P, funcs)
    ref_Q, ref_bad = _odometer_reference(P, funcs, chunk)
    assert Q.tobytes() == ref_Q.tobytes()
    assert first_bad == ref_bad
    c = pt._digits_within(K, n, chunk)
    if kind == "one_block":
        assert c == n
    if kind == "wide":
        assert K > P.s and n - c >= 3
    if kind == "narrow":
        assert K <= P.s
    if kind == "two_byte":
        assert P.s ** P.m > 256
    if kind == "exact":
        assert first_bad is None and n - c >= 1


def test_odometer_memory_follows_its_rows():
    # P_{3,0} at n = 12: blocks of 4^7 columns, and 2^5 rows of one-byte
    # codes per function (1.5 MB in all).  Beside the rows the scan holds
    # one block's weights, output codes and membership flags
    P = pr.parity_predicate(3, 0)
    n = 12
    funcs = _random_functions(np.random.default_rng(20), P.m, n, P.s)
    c = pt._digits_within(len(P), n, pt.CHUNK)
    with mock.patch.object(pt, "CONTRACTION_CAP", 0):
        plan = pt._plan(P, funcs)
    assert plan.engine == "odometer"
    assert plan.peak == len(P) ** c * P.s ** (n - c) == 2 ** 19
    tracemalloc.start()
    try:
        pt.joint_output_distribution(P, funcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= P.m * plan.peak + 64 * pt.CHUNK


@pytest.mark.parametrize("weights", [
    None,                                          # every block reuses
    [Fraction(1, 5), Fraction(1, 5), Fraction(2, 5), Fraction(1, 5)],
    [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)],
], ids=["uniform", "repeats", "skewed"])
@pytest.mark.parametrize("planted", [False, True])
def test_odometer_block_weights_equal_the_per_digit_odometer(weights, planted):
    # P_{3,0} at n = 6 in blocks of 4^2 columns: 256 blocks, so block
    # weights are reused (uniform), rebuilt (skewed), or both (repeats:
    # member 3 weighs what member 0 does, so a carry out of the lowest
    # high digit keeps its factor while a higher digit's factor changes).
    # The planted tuple is a dictator with one flipped entry, whose first
    # violation lies past block 0
    P = pr.parity_predicate(3, 0, weights=weights)
    n, chunk = 6, 16
    if planted:
        vals = fs.dictator(n, 0).values.copy()
        vals[-1] ^= 1
        funcs = [fs.from_values(n, 2, "bit", vals)] + [fs.dictator(n, 0)] * 2
    else:
        funcs = _random_functions(np.random.default_rng(21), P.m, n, P.s)
    with mock.patch.object(pt, "CHUNK", chunk):
        Q, first_bad = pt.joint_output_distribution(P, funcs)
    assert len(P) ** n // len(P) ** pt._digits_within(len(P), n, chunk) >= 3
    ref_Q, ref_bad = _odometer_reference(P, funcs, chunk)
    assert Q.tobytes() == ref_Q.tobytes()
    assert first_bad == ref_bad
    assert (first_bad >= chunk) if planted else first_bad is not None


@pytest.mark.parametrize("p, shape", [
    ([1 / 4] * 4, (5000, 7)),                      # cdf points on cell edges
    ([1e-6] * 5 + [1 - 5e-6], (20000, 10)),        # five points in cell 0
    ([3 / 1024, 2 ** -30, 1 - 3 / 1024 - 2 ** -30], (3000, 3)),
    (list(range(1, 25)), (4000, 9)),               # K = 24
    ([1.0], (100, 4)),
    ([0.5, 0.5], (0, 3)),
], ids=["uniform4", "tiny", "edge_and_split", "k24", "k1", "empty"])
@pytest.mark.parametrize("key", [0, 3, 2 ** 127 + 5])
def test_guide_table_sampler_equals_generator_choice(p, shape, key):
    p = np.array(p, dtype=np.float64)
    p = p / p.sum()
    draw = pt._choice_sampler(p)
    got = draw(np.random.Philox(key=key), shape)
    want = np.random.Generator(np.random.Philox(key=key)).choice(
        len(p), size=shape, p=p)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_guide_table_sampler_breaks_ties_as_choice_does():
    # choice returns cdf.searchsorted(u, side="right") for u = (word >> 11)
    # * 2^-53: a u equal to a cdf point counts it.  Random words almost
    # never tie, so feed words whose word >> 11 sits at each threshold
    # ceil(cdf_i * 2^53) and one below, the low 11 bits clear and set, and
    # words at each cell edge j << 54 and one below.  The dyadic cdf puts
    # thresholds on cell edges (3 * 2^43) and inside cell 0 (2^23); the
    # thirds round up to their thresholds
    edges = [j << 54 for j in range(pt.GUIDE_CELLS)]

    class Fixed:
        def random_raw(self, shape):
            return words.reshape(shape)

    for p in ([1e-6] * 5 + [3 / 1024, 0.5, 0.25],                # mixed
              [2 ** -30] * 4 + [3 / 1024 - 2 ** -28, 0.5, 0.25,  # dyadic
                                0.25 - 3 / 1024],
              [1 / 3] * 3):                                       # thirds
        p = np.array(p)
        p = p / p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cuts = [math.ceil(v * 2 ** 53) for v in cdf[:-1]]
        words = [(t - d) << 11 | low for t in cuts for d in (0, 1)
                 for low in (0, 0x7FF)]
        words += edges + [e - 1 for e in edges[1:]] + [2 ** 64 - 1]
        words = np.array(words, dtype=np.uint64)
        u = (words >> 11).astype(np.float64) * 2.0 ** -53
        got = pt._choice_sampler(p)(Fixed(), (words.size,))
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))


def _mc_reference(P, funcs, samples, seed):
    # the Generator.choice loop that the guide table and the group tables
    # replaced, kept verbatim
    n, s = funcs[0].n, P.s
    memb = np.array(P.members, dtype=np.int64)
    muvec = np.array([float(w) for w in P.weights])
    muvec = muvec / muvec.sum()
    in_p = pt._member_table(P)
    powers = s ** np.arange(n, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(key=seed))
    bad = 0
    done = 0
    while done < samples:
        take = min(pt.CHUNK, samples - done)
        d = rng.choice(len(P), size=(take, n), p=muvec)
        out_code = np.zeros(take, dtype=np.int64)
        for j, f in enumerate(funcs):
            xj = (memb[d, j] * powers[np.newaxis, :]).sum(axis=1)
            out_code += f.values[xj].astype(np.int64) * s ** j
        bad += int((~in_p[out_code]).sum())
        done += take
    lo, hi = pt.wilson_interval(bad, samples)
    return pt.ViolationReport(probability=bad / samples, method="monte_carlo",
                              samples=samples, half_width=(hi - lo) / 2,
                              interval=(lo, hi))


@settings(max_examples=60, deadline=None)
@given(oracle_instances(), st.sampled_from((1, 999, pt.CHUNK + 7, None)),
       st.integers(0, 2 ** 128 - 1))
def test_violation_mc_equals_the_choice_loop(instance, samples, seed):
    # None: three whole blocks of CHUNK // n samples and a part block
    P, funcs = instance
    if samples is None:
        samples = 3 * (pt.CHUNK // funcs[0].n) + 5
    assert (pt.violation_mc(P, funcs, samples, seed)
            == _mc_reference(P, funcs, samples, seed))


def test_violation_mc_reports_python_numbers():
    # a numpy count would make every figure a numpy float, whose repr
    # (np.float64(...)) changes printed and hashed reports
    P = pr.nand_predicate(3)
    funcs = _random_functions(np.random.default_rng(22), P.m, 6, P.s)
    rep = pt.violation_mc(P, funcs, 3000, 7)
    assert 0 < rep.probability < 1
    assert all(type(v) is float
               for v in (rep.probability, rep.half_width, *rep.interval))


@pytest.mark.parametrize("samples", [200, 500])
def test_wilson_interval_covers_at_its_nominal_rate(samples):
    # OR pairs on NAND2 at n=2 violate with probability exactly 2/9
    P = pr.nand_predicate(2)
    ors = [fs.or_all(2), fs.or_all(2)]
    covered = 0
    for seed in range(400):
        lo, hi = pt.violation_mc(P, ors, samples, seed).interval
        covered += lo <= 2 / 9 <= hi
    assert 0.92 <= covered / 400 <= 0.98


# -- labelled tables reused by content -------------------------------------------


def _keys(funcs):
    return {(f.n, f.s, f.values.dtype.str, f.values.tobytes()) for f in funcs}


def _count_labellings(monkeypatch):
    calls, real = [], pt._residual_transitions

    def counted(values, n, s):
        calls.append(set(pt._LABELLED))
        return real(values, n, s)

    monkeypatch.setattr(pt, "_residual_transitions", counted)
    return calls


def test_check_then_law_labels_each_table_once(monkeypatch):
    P = pr.nand_predicate(3)
    funcs = _oracle_item(P, 8, 0.05, 41)
    calls = _count_labellings(monkeypatch)
    assert not pt.is_generalized_polymorphism(P, funcs)[0]
    assert pt.violation_probability(P, funcs) > 0
    assert len(calls) == 3


def test_equal_tables_are_labelled_once(monkeypatch):
    P = pr.nand_predicate(3)
    d = fs.dictator(8, 1)
    calls = _count_labellings(monkeypatch)
    trans, _ = pt._transitions(P, [d, d, d])
    assert len(calls) == 1
    assert trans[0] is trans[1] is trans[2]


def test_equal_content_copies_are_hits(monkeypatch):
    P = pr.nand_predicate(3)
    funcs = _oracle_item(P, 8, 0.05, 42)
    trans, sizes = pt._transitions(P, funcs)
    calls = _count_labellings(monkeypatch)
    copies = [fs.from_values(f.n, f.s, f.codomain, f.values.copy())
              for f in funcs]
    again, again_sizes = pt._transitions(P, copies)
    assert calls == [] and again_sizes == sizes
    assert all(a is b for a, b in zip(again, trans))
    # the stored tables are read-only, so an engine cannot edit them
    with pytest.raises(ValueError):
        again[0][0][0, 0] = 1


def test_mutated_table_gets_the_verdict_of_a_cleared_memo():
    # values is a read-only copy, but a caller may re-enable writes on
    # purpose; a key by content sees the edit where a key by object would not
    P = pr.nand_predicate(2)
    f = fs.dictator(6, 1)
    assert pt.is_generalized_polymorphism(P, [f, f]) == (True, None)
    f.values.flags.writeable = True
    f.values[0] ^= 1
    warm = pt.is_generalized_polymorphism(P, [f, f])
    pt._LABELLED.clear()
    cold = pt.is_generalized_polymorphism(P, [f, f])
    assert warm == cold and not cold[0]


@pytest.mark.parametrize("P, n, rate", [
    (pr.nand_predicate(3), 10, 0.01),
    (pr.nand_predicate(3), 10, None),
    (_ternary_nae(), 6, 0.3),
    (pr.one_hot_predicate(4), 7, 0.01),
], ids=["nand3", "nand3_random", "nae3_flip03", "onehot"])
def test_plan_does_not_depend_on_earlier_labelling(P, n, rate):
    # a hit is still charged the labelling, so the pick, its reason and
    # its peak are the same with a cold or a warm memo
    funcs = _oracle_item(P, n, rate, 43)
    for odometer in (True, False):
        pt._LABELLED.clear()
        cold = pt._plan(P, funcs, odometer)
        pt._transitions(P, funcs)
        warm = pt._plan(P, funcs, odometer)
        assert (warm.engine, warm.reason, warm.peak, warm.sizes) \
            == (cold.engine, cold.reason, cold.peak, cold.sizes)


def test_a_miss_is_labelled_after_the_previous_entries_are_released(
        monkeypatch):
    P = pr.nand_predicate(3)
    first = _oracle_item(P, 8, 0.05, 44)
    pt._transitions(P, first)
    before = set(pt._LABELLED)
    assert before == _keys(first)
    calls = _count_labellings(monkeypatch)
    second = first[:1] + _oracle_item(P, 8, 0.05, 45)[1:]
    pt._transitions(P, second)
    assert len(calls) == 2
    assert all(not held & before for held in calls)
    assert set(pt._LABELLED) == _keys(second)


def test_memo_holds_only_the_last_call():
    P = pr.nand_predicate(3)
    large = _oracle_item(P, 16, None, 46)
    pt._transitions(P, large)
    assert set(pt._LABELLED) == _keys(large)
    small = _oracle_item(P, 8, None, 47)
    pt._transitions(P, small)
    assert set(pt._LABELLED) == _keys(small)


def test_threads_sharing_the_memo_get_cold_results():
    # more threads than cores, switching often: every check sees a memo
    # another thread may just have replaced
    P = pr.nand_predicate(3)
    items = [_oracle_item(P, 6, 0.05, 50 + t) for t in range(4)]
    cold = []
    for funcs in items:
        pt._LABELLED.clear()
        cold.append(pt.is_generalized_polymorphism(P, funcs))
    errors = []

    def work(t):
        try:
            for _ in range(25):
                assert pt.is_generalized_polymorphism(P, items[t]) == cold[t]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


def _memo_call(kind, P, funcs, code):
    if kind == "check":
        return pt.is_generalized_polymorphism(P, funcs)
    if kind == "law":
        return pt.violation_probability(P, funcs)
    alpha = fs.decode_point(code % P.s ** P.m, P.m, P.s)
    return pt.joint_value_probability(P, funcs, alpha)


@settings(max_examples=60, deadline=None)
@given(st.lists(oracle_instances(), min_size=1, max_size=3), st.data())
def test_memoized_calls_equal_cold_calls(instances, data):
    ops = data.draw(st.lists(st.tuples(
        st.integers(0, len(instances) - 1),
        st.sampled_from(("check", "law", "joint")), st.integers(0, 80)),
        min_size=1, max_size=8))
    cold = []
    for i, kind, code in ops:
        pt._LABELLED.clear()
        cold.append(_memo_call(kind, *instances[i], code))
    pt._LABELLED.clear()
    for (i, kind, code), expected in zip(ops, cold):
        assert _memo_call(kind, *instances[i], code) == expected
        # every memoized table equals a fresh labelling of its key
        for (n, s, dtype, raw), trans in pt._LABELLED.items():
            fresh = pt._residual_transitions(
                np.frombuffer(raw, dtype=dtype), n, s)
            assert len(trans) == len(fresh)
            assert all(np.array_equal(a, b) and not a.flags.writeable
                       for a, b in zip(trans, fresh))
