"""The package root's export list."""

import inspect

import polymorph
from polymorph import polytest


def test_exports_resolve_sorted_and_unique():
    names = polymorph.__all__
    assert [n for n in names if not hasattr(polymorph, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_no_cap_parameters():
    # resource caps are module constants, read at call time; no public
    # callable takes one as an argument (error classes have no signature)
    fns = [getattr(polymorph, n) for n in polymorph.__all__]
    fns.append(polytest.joint_output_distribution_contracted)
    fns = [fn for fn in fns if callable(fn) and not (
        inspect.isclass(fn) and issubclass(fn, Exception))]
    capped = [fn.__name__ for fn in fns
              if {"cap", "contraction_cap", "cell_cap"}
              & set(inspect.signature(fn).parameters)]
    assert capped == []
