"""Tables, measures, restriction, distance, cells, and the file format."""

import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polymorph.errors import (DomainError, ResourceError, ValidationError)
from polymorph import corrector as co, funcspace as fs, harmonics as hm
from polymorph import polytest as pt, predicates as pr, regularity as rg

import oracles


def _brute_distance(f, g, nu):
    total = 0.0
    for x in itertools.product(range(f.s), repeat=f.n):
        w = oracles.weight_of(nu, x)
        if f.codomain == "real" or g.codomain == "real":
            total += w * abs(float(f.eval(x)) - float(g.eval(x)))
        elif f.eval(x) != g.eval(x):
            total += w
    return total


def test_encode_decode_roundtrip():
    for n, s in [(3, 2), (4, 3), (2, 5)]:
        for idx in range(s ** n):
            x = fs.decode_point(idx, n, s)
            assert fs.encode_point(x, s) == idx
    # coordinate 0 is least significant
    assert fs.encode_point((1, 0, 0), 2) == 1
    assert fs.encode_point((0, 1, 0), 2) == 2


def test_eval_xor_table():
    f = fs.FunctionTable(2, 2, "bit", [0, 1, 1, 0])
    assert f.eval((0, 0)) == 0
    assert f.eval((1, 0)) == 1
    assert f.eval((0, 1)) == 1
    assert f.eval((1, 1)) == 0
    with pytest.raises(DomainError):
        f.eval((0, 2))


def test_measure_validation():
    with pytest.raises(ValidationError):
        fs.Measure([0.5, 0.6])
    with pytest.raises(ValidationError):
        fs.Measure([1.2, -0.2])
    m = fs.Measure.bernoulli(0.25)
    assert m.probs.tolist() == [0.75, 0.25]


def test_product_measure_refuses_entries_that_are_not_measures():
    # a float entry once raised a bare AttributeError (float has no .s)
    with pytest.raises(ValidationError):
        fs.ProductMeasure([0.5, 0.5])
    with pytest.raises(ValidationError):
        fs.ProductMeasure([fs.Measure.uniform(2), None])


def test_measure_keeps_its_own_read_only_copy():
    p = np.array([0.5, 0.5])
    m = fs.Measure(p)
    p[:] = 2.0
    nu = fs.ProductMeasure.iid(m, 3)
    assert fs.distance(fs.dictator(3, 0), fs.constant(3, 0), nu) == 0.5
    for arr in (m.probs, m.basis, m.forward):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert m.probs.tolist() == [0.5, 0.5]


def test_table_values_are_read_only():
    # a write once went through: expectation then read 1.375, and the
    # check raised a bare IndexError on the out-of-range entry
    f = fs.dictator(3, 0)
    with pytest.raises(ValueError):
        f.values[0] = 7
    assert fs.expectation(f, fs.ProductMeasure.uniform(3)) == 0.5
    assert pt.is_generalized_polymorphism(pr.nand_predicate(2),
                                          [f, fs.dictator(3, 0)]) == (True, None)
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f),
                 copy.copy(f)):
        assert twin.equals(f) and not twin.values.flags.writeable


@pytest.mark.parametrize("codomain, raw", [
    ("bit", np.array([0, 1, 1, 0], dtype=np.uint8)),
    ("sym", np.array([0, 2, 1, 0, 1, 2, 2, 1, 0], dtype=np.uint8)),
    ("real", np.array([0.0, 0.25, 0.5, 1.0]))])
def test_table_keeps_its_own_copy(codomain, raw):
    f = fs.FunctionTable(2, 3 if codomain == "sym" else 2, codomain, raw)
    kept = raw.copy()
    raw[:] = 7
    assert f.values.tobytes() == kept.tobytes()
    assert not f.values.flags.writeable


@pytest.mark.parametrize("obj, names", [
    (fs.dictator(3, 0), ("n", "s", "codomain", "values")),
    (fs.PartialAssignment([0, None, 1]), ("entries", "s")),
    (pt.ColumnRestriction([(None, 0), (0, 1)], 2), ("patterns", "s")),
    (co.TransitionChain([np.full((2, 2), 0.5)], [0, 0]),
     ("factors", "assignment", "size", "n"))],
    ids=["table", "assignment", "restriction", "chain"])
def test_value_types_refuse_attribute_writes(obj, names):
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name, None))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                 copy.copy(obj)):
        assert type(twin) is type(obj)
        for name in names:
            assert np.array_equal(getattr(twin, name), getattr(obj, name))
        with pytest.raises(AttributeError):
            setattr(twin, names[0], None)


def test_refused_writes_leave_the_checks_working():
    # each write once went through: the first made the check raise a bare
    # IndexError, the second made violation_probability raise a bare
    # ValueError (a reshape), the third put symbols outside the alphabet
    P = pr.nand_predicate(2)
    f, g = fs.dictator(3, 0), fs.dictator(3, 0)
    with pytest.raises(AttributeError):
        f.values = np.full(8, 7, np.uint8)
    with pytest.raises(AttributeError):
        g.n = 5
    assert pt.is_generalized_polymorphism(P, [f, g]) == (True, None)
    assert pt.violation_probability(P, [f, g]) == 0.0
    a = fs.PartialAssignment([0, None])
    with pytest.raises(AttributeError):
        a.entries = (5, 5)
    assert a.entries == (0, None)


def test_product_weights_are_read_only():
    nu = fs.ProductMeasure.uniform(3)
    w = nu.weights()
    with pytest.raises(ValueError):
        w[:] = 0.0
    assert fs.expectation(fs.constant(3, 1), nu) == 1.0


@pytest.mark.parametrize("obj", [fs.Measure([0.25, 0.75]),
                                 fs.ProductMeasure.p_biased(0.3, 2)])
def test_measures_are_immutable(obj):
    with pytest.raises(AttributeError):
        obj.s = 5
    with pytest.raises(AttributeError):
        del obj.s
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("obj", [
    fs.Measure([0.2, 0.3, 0.5]), fs.Measure([1.0, 0.0]),
    fs.ProductMeasure([fs.Measure([0.25, 0.75]), fs.Measure([0.6, 0.4])])])
def test_measures_pickle_and_deepcopy(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is type(obj) and twin == obj
        for a, b in zip(getattr(twin, "measures", (twin,)),
                        getattr(obj, "measures", (obj,))):
            assert (a.s, a.full_support) == (b.s, b.full_support)
            for x, y in ((a.probs, b.probs), (a.basis, b.basis),
                         (a.forward, b.forward)):
                assert (x is None and y is None) or (
                    x.tobytes() == y.tobytes() and not x.flags.writeable)
        if isinstance(obj, fs.ProductMeasure):
            assert twin.weights().tobytes() == obj.weights().tobytes()


def test_product_weights_match_pointwise():
    nu = fs.ProductMeasure.p_biased([0.25, 0.5, 0.8], 3)
    w = nu.weights()
    assert abs(w.sum() - 1.0) < 1e-12
    for idx in range(8):
        x = fs.decode_point(idx, 3, 2)
        assert abs(w[idx] - oracles.weight_of(nu, x)) < 1e-15


def test_dictator_and_character_tables():
    d = fs.dictator(4, 2)
    for x in itertools.product(range(2), repeat=4):
        assert d.eval(x) == x[2]
    c = fs.character(3, [0, 2], offset=1)
    for x in itertools.product(range(2), repeat=3):
        assert c.eval(x) == 1 ^ x[0] ^ x[2]
    # x_1 xor x_1 is the constant 0, not x_1
    with pytest.raises(ValidationError, match="repeats"):
        fs.character(3, [0, 0])


def test_hybrid_matches_definition():
    n = 5
    h = fs.hybrid(n)
    for x in itertools.product(range(2), repeat=n):
        if sum(x) <= 0.6 * n:
            assert h.eval(x) == (x[0] & x[1])
        else:
            assert h.eval(x) == (x[0] | x[1])
    # weight-2 point uses the AND branch, weight-4 point the OR branch
    assert h.eval((1, 1, 0, 0, 0)) == 1
    assert h.eval((1, 0, 1, 1, 1)) == 1
    assert h.eval((0, 1, 1, 1, 0)) == 0


def test_restrict_reindexes_free_coordinates():
    h = fs.hybrid(5)
    a = fs.PartialAssignment.from_dict(5, {2: 1, 3: 1, 4: 1})
    sub = h.restrict(a)
    assert sub.n == 2
    for x in itertools.product(range(2), repeat=2):
        assert sub.eval(x) == h.eval((x[0], x[1], 1, 1, 1))
    # composition of restrictions agrees with a single joint restriction
    f = fs.junta(6, [1, 3, 4], fs.hybrid(3))
    a1 = fs.PartialAssignment.from_dict(6, {0: 1, 4: 0})
    a2 = fs.PartialAssignment.from_dict(4, {2: 1})  # coord 3 of the original
    joint = fs.PartialAssignment.from_dict(6, {0: 1, 4: 0, 3: 1})
    assert f.restrict(a1).restrict(a2).equals(f.restrict(joint))


def test_restriction_on_sym_alphabet():
    vals = np.arange(27) % 3
    f = fs.FunctionTable(3, 3, "sym", vals)
    a = fs.PartialAssignment.from_dict(3, {1: 2}, s=3)
    sub = f.restrict(a)
    for x in itertools.product(range(3), repeat=2):
        assert sub.eval(x) == f.eval((x[0], 2, x[1]))


@pytest.mark.parametrize("bad", [0.5, np.nan, 1.0, "1"])
def test_non_integer_symbols_are_refused(bad):
    # int() would truncate 0.5 to 0, and numpy would refuse it as an index
    f = fs.dictator(3, 0)
    with pytest.raises(DomainError, match="is not an integer"):
        f.eval([bad, 0, 1])
    with pytest.raises(DomainError, match="is not an integer"):
        fs.PartialAssignment([bad, None, None], 2)


@pytest.mark.parametrize("bad", [0.5, np.nan, 1.0, "1"])
def test_non_integer_coordinates_are_refused(bad):
    # coordinates follow the symbols' integer rule
    with pytest.raises(DomainError, match="coordinate .* is not an integer"):
        fs.PartialAssignment.from_dict(3, {bad: 1})


def test_integer_like_coordinates_are_accepted():
    # numpy integers index as ints; a bool is the int it equals, as a
    # symbol is
    a = fs.PartialAssignment.from_dict(3, {np.int64(2): 1, np.uint8(0): 0})
    assert a.entries == (0, None, 1)
    assert fs.PartialAssignment.from_dict(3, {True: 1}).entries \
        == (None, 1, None)
    assert fs.PartialAssignment([True, None, False], 2).entries \
        == (1, None, 0)
    with pytest.raises(DomainError, match="outside range"):
        fs.PartialAssignment.from_dict(3, {np.int64(3): 1})


@pytest.mark.parametrize("make", [
    lambda: fs.FunctionTable(2.0, 2, "bit", [0, 1, 1, 0]),
    lambda: fs.FunctionTable(2, 2.0, "bit", [0, 1, 1, 0]),
    lambda: fs.dictator(3.0, 1),
    lambda: fs.character(3.0, [0]),
    lambda: fs.constant(2.0, 1),
    lambda: fs.Measure.uniform(2.0),
    lambda: fs.ProductMeasure.uniform(2.0),
    lambda: fs.ProductMeasure.iid(fs.Measure.uniform(2), 2.0),
], ids=["table-n", "table-s", "dictator", "character", "constant",
        "measure-uniform", "product-uniform", "product-iid"])
def test_non_integer_sizes_are_refused(make):
    # n and s follow the integer rule of symbols: a float such as 2.0 is
    # neither stored nor left to fail as a bare TypeError
    with pytest.raises(DomainError, match="is not an integer"):
        make()


def test_numpy_integer_sizes_are_accepted():
    f = fs.FunctionTable(np.int64(2), np.uint8(2), "bit", [0, 1, 1, 0])
    assert (type(f.n), type(f.s), repr(f)) \
        == (int, int, "FunctionTable(n=2, s=2, codomain='bit')")
    assert fs.dictator(np.int32(3), 1, np.int64(3)).equals(fs.dictator(3, 1, 3))
    assert fs.ProductMeasure.uniform(np.int64(3), np.int64(3)).n == 3


def test_numpy_integer_symbols_are_accepted():
    f = fs.dictator(3, 0, s=3)
    assert f.eval([np.int64(2), np.uint8(0), 1]) == 2
    a = fs.PartialAssignment([np.uint8(2), None, np.int32(1)], 3)
    assert a.entries == (2, None, 1)
    assert f.restrict(a).equals(fs.constant(1, 2, s=3))


_U3 = fs.ProductMeasure.uniform(3)
_D3 = fs.dictator(3, 0)
_NAND2 = pr.nand_predicate(2)
_NOISY = [fs.dictator(4, 0)] * 2


# every one of these raised a bare TypeError or IndexError, or was read
# as another value (seed 1.5 as seed 1, factor 0.7 as factor 0, d = 2.5 as
# rho = 0.6), before integer and coordinate arguments shared one rule
@pytest.mark.parametrize("call", [
    lambda: hm.Decomposition(_D3, _U3).norm2([0.5]),
    lambda: hm.low_degree_influence(_D3, 1.0, 2, _U3),
    lambda: hm.low_degree_influence(_D3, 1, 2.5, _U3),
    lambda: rg.regular_cell_mask(_D3, [0.5], 2, 0.1, _U3),
    lambda: rg.regular_cell_mask(_D3, [0], 2.5, 0.1, _U3),
    lambda: rg.build_junta_noisy([_D3], _U3, 0.5, 0.1, 0.1, initial=[0.5]),
    lambda: rg.build_junta_lowdeg([_D3], _U3, 2.5, 0.1, 0.1),
    lambda: rg.potential([_D3], _U3, 0.5, [0.5]),
    lambda: co.correct_general(_NAND2, _NOISY, 0.1, attempts=2.5),
    lambda: co.correct_general(_NAND2, _NOISY, 0.1, seed=1.5),
    lambda: co.correct_general(_NAND2, _NOISY, 0.1, d=2.5),
    lambda: co.correct_alphabet(_NAND2, _NOISY, 0.1, attempts=2.5),
    lambda: co.correct_alphabet(_NAND2, _NOISY, 0.1, seed=1.5),
    lambda: co.correct_alphabet(_NAND2, _NOISY, 0.1, d=2.5),
    lambda: co.friedgut_regev_lift([(0, 1)], 2.0, n=4),
    lambda: co.friedgut_regev_lift([(0, 1.0)], 2, n=4),
    lambda: co.TransitionChain([np.full((2, 2), 0.5)], [0.7]),
    lambda: fs.dictator(3, 0.5),
    lambda: fs.character(3, [0], 1.5),
    lambda: fs.junta(3, [0.5], [0, 1]),
    lambda: _U3.subset([0.5]),
], ids=["norm2", "influence-i", "influence-d", "cell-mask-J", "cell-mask-d",
        "growth-initial", "lowdeg-d", "potential-J", "general-attempts",
        "general-seed", "general-d", "alphabet-attempts", "alphabet-seed",
        "alphabet-d", "lift-k", "lift-set", "chain-assignment",
        "dictator-i", "character-offset", "junta-coords", "subset"])
def test_non_integer_arguments_are_refused(call):
    with pytest.raises(DomainError, match="is not an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: hm.Decomposition(_D3, _U3).norm2([3]),
    lambda: rg.regular_cell_mask(_D3, [-1], 2, 0.1, _U3),
    lambda: rg.build_junta_noisy([_D3], _U3, 0.5, 0.1, 0.1, initial=[3]),
    lambda: fs.junta(3, [3], [0, 1]),
    # a negative index would read the last coordinate's marginal
    lambda: _U3.subset([-1]),
], ids=["norm2", "cell-mask", "growth-initial", "junta", "subset"])
def test_coordinates_outside_the_range_are_refused(call):
    with pytest.raises(DomainError, match="outside range"):
        call()


def test_integer_like_arguments_read_as_their_ints():
    dec = hm.Decomposition(_D3, _U3)
    assert dec.norm2([np.int64(0)]) == dec.norm2([0]) == 0.25
    mask = rg.regular_cell_mask(_D3, [np.uint8(1)], 2, 0.1, _U3)
    assert np.array_equal(mask, rg.regular_cell_mask(_D3, [1], 2, 0.1, _U3))
    chain = co.TransitionChain([np.full((2, 2), 0.5)],
                               [np.int64(0), np.uint8(0)])
    assert chain.assignment == (0, 0)
    assert type(chain.assignment[0]) is int


def test_distance_dictator_to_zero_is_p():
    p = 0.3
    n = 6
    f = fs.dictator(n, 0)
    z = fs.constant(n, 0)
    nu = fs.ProductMeasure.p_biased(p, n)
    d = fs.distance(f, z, nu)
    assert abs(d - p) < 1e-12
    assert abs(d - _brute_distance(f, z, nu)) < 1e-12


def test_distance_is_a_pseudometric_and_matches_square_norm():
    rng = np.random.default_rng(7)
    n = 5
    nu = fs.ProductMeasure.p_biased(0.4, n)
    tabs = [fs.FunctionTable(n, 2, "bit", rng.integers(0, 2, 32))
            for _ in range(3)]
    f, g, h = tabs
    dfg = fs.distance(f, g, nu)
    assert dfg == fs.distance(g, f, nu)
    assert dfg <= fs.distance(f, h, nu) + fs.distance(h, g, nu) + 1e-12
    # for bit tables, Pr[f != g] equals E[(f - g)^2]
    sq = float(np.dot(nu.weights(), (f.as_real() - g.as_real()) ** 2))
    assert abs(dfg - sq) < 1e-12


def test_distance_real_codomain():
    nu = fs.ProductMeasure.uniform(2)
    f = fs.FunctionTable(2, 2, "real", [0.0, 0.5, 1.0, 0.25])
    g = fs.constant(2, 0)
    assert abs(fs.distance(f, g, nu) - (0.0 + 0.5 + 1.0 + 0.25) / 4) < 1e-12


def test_junta_checks_table_size():
    with pytest.raises(ValidationError):
        fs.junta(5, [0, 1], [0, 1, 1, 0, 1])
    g = fs.junta(5, [1, 4], [0, 1, 1, 0])
    for x in itertools.product(range(2), repeat=5):
        assert g.eval(x) == x[1] ^ x[4]


def test_codomain_guards():
    with pytest.raises(DomainError):
        fs.FunctionTable(2, 2, "bit", [0, 1, 2, 0])
    with pytest.raises(DomainError):
        fs.FunctionTable(2, 3, "sym", [0, 1, 3, 0, 0, 0, 0, 0, 0])
    with pytest.raises(DomainError):
        fs.FunctionTable(1, 2, "real", [0.5, 1.5])
    with pytest.raises(ResourceError):
        fs.FunctionTable(21, 2, "bit", np.zeros(1 << 21))


@pytest.mark.parametrize("build", [
    lambda n: fs.dictator(n, 0),
    lambda n: fs.dictator(n, 0, 3),
    lambda n: fs.character(n, [0, 1], 1),
    lambda n: fs.constant(n, 0),
    lambda n: fs.hybrid(n),
    lambda n: fs.and_all(n),
    lambda n: fs.or_all(n),
    lambda n: fs.junta(n, [0], [0, 1]),
], ids=["dictator", "dictator-s3", "character", "constant", "hybrid",
        "and", "or", "junta"])
def test_constructors_gate_size_before_allocating(build):
    # 2^40 entries cannot be allocated, so only the gate can raise here
    with pytest.raises(ResourceError, match="cap"):
        build(40)


HUGE_N = """
import time
from polymorph import funcspace as fs
from polymorph.errors import ResourceError
start = time.perf_counter()
for text in ("fn n=1000000000 sigma=3 codomain=sym\\ndictator i=2\\n",
             "fn n=1000000000 sigma=5 codomain=sym\\nconst 0\\n"):
    try:
        fs.parse_function(text)
    except ResourceError as exc:
        assert "cap" in str(exc)
    else:
        raise AssertionError("no ResourceError")
print(time.perf_counter() - start)
"""


def test_size_gate_refuses_a_huge_n_before_any_power():
    # 3 ** (10 ** 9) would run for far longer than the timeout, so a gate
    # that computed it first fails here instead of hanging the suite
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", HUGE_N], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def test_file_format_roundtrip_table():
    rng = np.random.default_rng(11)
    f = fs.FunctionTable(4, 3, "sym", rng.integers(0, 3, 81))
    g = fs.parse_function(fs.format_function(f))
    assert g.equals(f)
    r = fs.FunctionTable(3, 2, "real", rng.random(8))
    r2 = fs.parse_function(fs.format_function(r))
    assert np.array_equal(r.values, r2.values)


def test_file_format_constructors_are_one_based():
    f = fs.parse_function("fn n=4 sigma=2 codomain=bit\nchar S=1,2 b=0\n")
    assert f.equals(fs.character(4, [0, 1], 0))
    d = fs.parse_function("fn n=4 sigma=2 codomain=bit\ndictator i=3\n")
    assert d.equals(fs.dictator(4, 2))
    for line, builder in [("hybrid", fs.hybrid), ("and", fs.and_all),
                          ("or", fs.or_all)]:
        g = fs.parse_function(f"fn n=4 sigma=2 codomain=bit\n{line}\n")
        assert g.equals(builder(4))
    c = fs.parse_function("fn n=3 sigma=2 codomain=real\nconst 0.5\n")
    assert np.all(c.values == 0.5)


def test_file_format_rejects_garbage():
    with pytest.raises(ValidationError):
        fs.parse_function("not a function\n")
    with pytest.raises(ValidationError):
        fs.parse_function("fn n=2 sigma=2 codomain=bit\nfrobnicate\n")


def test_non_finite_and_out_of_range_values_rejected():
    with pytest.raises(ValidationError):
        fs.Measure([np.nan, np.nan])
    with pytest.raises(ValidationError):
        fs.Measure([np.inf, 0.0])
    with pytest.raises(ValidationError):
        fs.ProductMeasure.p_biased(np.nan, 3)
    with pytest.raises(DomainError):
        fs.FunctionTable(1, 2, "real", [np.nan, 0.5])
    with pytest.raises(DomainError):
        fs.FunctionTable(1, 2, "bit", [-1, 1])
    # entries must not wrap around in the uint8 table
    with pytest.raises(DomainError):
        fs.FunctionTable(1, 2, "bit", np.array([256, 1]))
    with pytest.raises(DomainError):
        fs.FunctionTable(1, 3, "sym", [0, -2, 1])
    # non-integral entries must not be truncated by the uint8 cast
    with pytest.raises(DomainError):
        fs.FunctionTable(1, 2, "bit", [0.5, 1])
    with pytest.raises(DomainError):
        fs.FunctionTable(1, 3, "sym", np.array([0.0, 1.25, 2.0]))
    assert fs.FunctionTable(1, 3, "sym", [0.0, 1.0, 2.0]).values.tolist() \
        == [0, 1, 2]
    # symbols past 255 do not fit the uint8 table, real entries do
    with pytest.raises(ResourceError):
        fs.dictator(1, 0, 300)
    with pytest.raises(ResourceError):
        fs.from_values(1, 300, "sym", np.arange(300))
    assert fs.FunctionTable(1, 300, "real", np.linspace(0, 1, 300)).s == 300
    with pytest.raises(ValidationError):
        fs.parse_function("fn n=1 sigma=2 codomain=real\ntable nan 0.5\n")


# -- the cell layout against point encoding ---------------------------------

@st.composite
def layouts(draw):
    """A sym table, coordinates in any order with a table over them, and
    a partial assignment leaving at least one coordinate free."""
    s = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5 if s == 2 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = fs.FunctionTable(n, s, "sym", rng.integers(0, s, s ** n))
    perm = draw(st.permutations(range(n)))
    coords = list(perm[:draw(st.integers(0, n))])
    inner = rng.integers(0, s, s ** len(coords))
    fixed = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    entries = {i: draw(st.integers(0, s - 1)) for i in fixed}
    return f, coords, inner, fs.PartialAssignment.from_dict(n, entries, s=s)


@settings(max_examples=150, deadline=None)
@given(layouts())
def test_layout_helpers_match_point_encoding(inst):
    f, coords, inner, a = inst
    n, s = f.n, f.s
    points = [fs.decode_point(i, n, s) for i in range(s ** n)]
    # restrict: free coordinates, increasing, read least significant first
    sub = f.restrict(a)
    free = a.free
    for x in points:
        if all(x[i] == v for i, v in enumerate(a.entries) if v is not None):
            y = [x[i] for i in free]
            assert sub.values[fs.encode_point(y, s)] == f.values[fs.encode_point(x, s)]
    # junta: coords read in the given order
    g = fs.junta(n, coords, inner, s=s, codomain="sym")
    idx = fs._digit_index(n, s, coords)
    for k, x in enumerate(points):
        want = fs.encode_point([x[c] for c in coords], s)
        assert idx[k] == want
        assert g.values[k] == inner[want]
    # cell view: rows are cells of sorted coords, columns free points
    G, Js, F = fs._cell_view(f.values, n, s, coords)
    assert Js == sorted(coords) and F == [i for i in range(n) if i not in Js]
    for k, x in enumerate(points):
        c = fs.encode_point([x[i] for i in Js], s)
        p = fs.encode_point([x[i] for i in F], s)
        assert G[c, p] == f.values[k]


# -- the restricted cell law ---------------------------------------------------


@st.composite
def _cell_law_cases(draw):
    n, s = draw(st.integers(1, 5)), draw(st.sampled_from([2, 3]))
    J = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    entries = draw(st.lists(st.one_of(st.none(), st.integers(0, s - 1)),
                            min_size=n, max_size=n))
    raw = np.array(draw(st.lists(st.integers(1, 9), min_size=s, max_size=s)),
                   dtype=float)
    T = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).random((T, s ** n))
    return n, s, J, entries, fs.Measure(raw / raw.sum()), values


@settings(max_examples=150, deadline=None)
@given(_cell_law_cases())
def test_cell_averages_match_pointwise_reference(case):
    n, s, J, entries, marginal, values = case
    got = fs._cell_averages(values, n, s, J, entries, marginal)
    want = oracles.cell_averages_pointwise(values, n, s, J, entries,
                                           marginal.probs)
    assert got.shape == want.shape == (len(values), s ** len(J))
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # a lone table gives the same cells as its row of the stack
    assert np.array_equal(
        fs._cell_averages(values[0], n, s, J, entries, marginal), got[0])


def test_cell_law_of_a_point_mass_is_the_value_there():
    # a row that fixes every coordinate leaves one point: no marginal
    # weight enters, and the law is exactly the indicator of f's value
    f = fs.from_values(3, 3, "sym", np.random.default_rng(5).integers(0, 3, 27))
    marginal = fs.Measure([0.2, 0.3, 0.5])
    for code in range(27):
        x = fs.decode_point(code, 3, 3)
        law = pt.restricted_value_distribution(
            f, fs.PartialAssignment(x, 3), marginal)
        assert np.array_equal(law, np.eye(3)[f.eval(x)])
        assert fs._cell_averages(f.as_real(), 3, 3, (), x, marginal)[0] \
            == f.eval(x)


def test_indicators_stack_one_row_per_symbol():
    f = fs.from_values(2, 3, "sym", [0, 1, 2, 2, 1, 0, 0, 0, 1])
    ind = fs._indicators(f)
    assert ind.shape == (3, 9) and ind.dtype == np.float64
    assert np.array_equal(ind.argmax(axis=0), f.values)
    assert np.array_equal(ind.sum(axis=0), np.ones(9))
