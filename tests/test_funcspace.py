"""Tables, measures, restriction, distance, cells, and the file format."""

import itertools

import numpy as np
import pytest

from polymorph.errors import (DomainError, ResourceError, ValidationError)
from polymorph import funcspace as fs


def _brute_distance(f, g, nu):
    total = 0.0
    for x in itertools.product(range(f.s), repeat=f.n):
        w = nu.weight_of(x)
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


def test_product_weights_match_pointwise():
    nu = fs.ProductMeasure.p_biased([0.25, 0.5, 0.8], 3)
    w = nu.weights()
    assert abs(w.sum() - 1.0) < 1e-12
    for idx in range(8):
        x = fs.decode_point(idx, 3, 2)
        assert abs(w[idx] - nu.weight_of(x)) < 1e-15


def test_dictator_and_character_tables():
    d = fs.dictator(4, 2)
    for x in itertools.product(range(2), repeat=4):
        assert d.eval(x) == x[2]
    c = fs.character(3, [0, 2], offset=1)
    for x in itertools.product(range(2), repeat=3):
        assert c.eval(x) == 1 ^ x[0] ^ x[2]


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


def test_enumerate_cells_weights():
    # two fixed coordinates at p = 1/4: weights 9/16, 3/16, 3/16, 1/16
    f = fs.hybrid(5)
    nu_J = fs.ProductMeasure.p_biased(0.25, 2)
    cells = list(fs.enumerate_cells(f, [0, 1], nu_J))
    got = {cell: w for cell, w, _ in cells}
    assert got == {(0, 0): pytest.approx(9 / 16), (1, 0): pytest.approx(3 / 16),
                   (0, 1): pytest.approx(3 / 16), (1, 1): pytest.approx(1 / 16)}
    assert abs(sum(w for _, w, _ in cells) - 1.0) < 1e-12
    for cell, _, sub in cells:
        assert sub.n == 3
        assert sub.eval((1, 1, 1)) == f.eval((cell[0], cell[1], 1, 1, 1))


def test_enumerate_cells_cap():
    f = fs.hybrid(12)
    nu_J = fs.ProductMeasure.uniform(10)
    with pytest.raises(ResourceError):
        list(fs.enumerate_cells(f, range(10), nu_J, cap=512))


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
    with pytest.raises(ValidationError):
        fs.parse_function("fn n=1 sigma=2 codomain=real\ntable nan 0.5\n")
