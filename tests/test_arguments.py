"""Table, measure and predicate arguments of the public callables.

One property: every callable below, given one such argument swapped for a
hostile value, raises a PolymorphError and never any other exception.  The
hostile values are None, a str, an int, a list of floats, a generator of
the tables, a Measure where a ProductMeasure goes, a product measure on
another n, and a table of the wrong n, alphabet or codomain.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polymorph as pm
from polymorph.errors import PolymorphError


def _table(n, s, codomain):
    """A nonconstant table on Sigma^n with |Sigma| = s."""
    if codomain == "real":
        return pm.from_values(n, s, "real", np.linspace(0.0, 1.0, s ** n))
    k = 2 if codomain == "bit" else s
    return pm.from_values(n, s, codomain, np.arange(s ** n) % k)


def _variant(f, wrong):
    """f's shape with one thing wrong: "n", "s" (2 <-> 3) or a codomain."""
    if wrong == "n":
        return _table(f.n - 1, f.s, f.codomain)
    if wrong == "s":
        return _table(f.n, 5 - f.s, f.codomain)
    return _table(f.n, f.s, wrong)


def _cases(n):
    """(name, callable, valid arguments, {position: wrongs}): wrongs lists
    the table variants the callable must refuse at that position."""
    f, g = pm.dictator(n, 0), pm.dictator(n, n - 1)
    f3 = pm.dictator(n, 0, s=3)
    nu = pm.ProductMeasure.uniform(n)
    P, P3 = pm.nand_predicate(2), pm.full_predicate(2, 3)
    rho = pm.ColumnRestriction([(None, None)] * n, 2)
    check = {0: (), 1: ("n", "s", "real")}
    tables = ("n", "s")
    measure = {0: tables, 1: ()}
    return [
        ("is_generalized_polymorphism", pm.is_generalized_polymorphism,
         (P, [f, g]), check),
        ("violation_probability", pm.violation_probability, (P, [f, g]),
         check),
        ("violation_exact", pm.violation_exact, (P, [f, g]), check),
        ("violation_mc", pm.violation_mc, (P, [f, g], 10, 0), check),
        ("joint_value_probability", pm.joint_value_probability,
         (P, [f, g], (0, 0)), check),
        ("correct_monotone", pm.correct_monotone, (P, [f, g], 0.1, 2, 0.2),
         {0: (), 1: ("n", "s", "sym", "real")}),
        ("correct_general", pm.correct_general, (P, [f, g], 0.1),
         {0: (), 1: ("n", "s", "sym", "real")}),
        ("correct_alphabet", pm.correct_alphabet, (P3, [f3, f3], 0.1),
         {0: (), 1: ("n", "s", "bit", "real")}),
        ("correct_fractional_nand", pm.correct_fractional_nand,
         (f, g, 0.25, 0.1, 2, 0.2),
         {0: ("n", "s", "sym"), 1: ("n", "s", "sym")}),
        ("round_general_cell", pm.round_general_cell,
         ([f, g], [0], rho, 0.1, P), {0: ("n", "s", "real"), 4: ()}),
        ("build_junta_noisy", pm.build_junta_noisy,
         ([f, g], nu, 0.5, 0.1, 0.1), measure),
        ("build_junta_lowdeg", pm.build_junta_lowdeg,
         ([f, g], nu, 2, 0.2, 0.1), measure),
        ("potential", pm.potential, ([f, g], nu, 0.5, [0]), measure),
        ("regular_cell_mask", pm.regular_cell_mask, (f, [0], 2, 0.2, nu),
         {0: tables, 4: ()}),
        ("cell_regular_fraction", pm.cell_regular_fraction,
         (f, [0], 2, 0.2, nu), {0: tables, 4: ()}),
        ("Decomposition", pm.Decomposition, (f, nu),
         {0: ("n", "s", "sym"), 1: ()}),
        ("low_degree_influence", pm.low_degree_influence, (f, 0, 2, nu),
         {0: ("n", "s", "sym"), 3: ()}),
        ("noisy_influence", pm.noisy_influence, (f, 0, 0.5, nu),
         {0: ("n", "s", "sym"), 3: ()}),
        ("noise_stability", pm.noise_stability, (f, 0.5, nu),
         {0: ("n", "s", "sym"), 2: ()}),
        ("nearest_character", pm.nearest_character, (f, nu),
         {0: ("n", "s", "sym", "real"), 1: ()}),
        ("blr_decode_uniform", pm.blr_decode_uniform, (f,),
         {0: ("s", "sym", "real")}),
        ("distance", pm.distance, (f, g, nu), {0: tables, 1: tables, 2: ()}),
        ("expectation", pm.expectation, (f, nu), {0: tables, 1: ()}),
    ]


def _hostile(value, wrongs):
    """The hostile stand-ins for one argument."""
    out = [None, "x", 3, [0.5, 0.5]]
    if isinstance(value, pm.ProductMeasure):
        return out + [value.measures[0],
                      pm.ProductMeasure.uniform(value.n - 1, value.s)]
    if isinstance(value, pm.Predicate):
        return out
    tables = value if isinstance(value, list) else [value]
    out.append(f for f in tables)
    bad = [_variant(tables[-1], w) for w in wrongs]
    if isinstance(value, list):
        return out + [tables[:-1] + [b] for b in bad]
    return out + bad


SWAPS = [(k, pos, i) for k, (_, _, args, swaps) in enumerate(_cases(3))
         for pos, wrongs in swaps.items()
         for i in range(len(_hostile(args[pos], wrongs)))]


@settings(max_examples=400, deadline=None)
@given(n=st.integers(2, 5), swap=st.sampled_from(SWAPS))
def test_a_hostile_argument_raises_a_polymorph_error(n, swap):
    k, pos, i = swap
    name, fn, args, swaps = _cases(n)[k]
    args = list(args)
    args[pos] = _hostile(args[pos], swaps[pos])[i]
    with pytest.raises(PolymorphError):
        fn(*args)
