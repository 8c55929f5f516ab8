"""The package root's export list, and the layout of its records."""

import dataclasses
import importlib
import inspect
import pkgutil

import polymorph
from polymorph import funcspace, polytest


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


def test_records_are_frozen_and_slotted():
    # callers keep results by the thousand (the bench holds every result
    # until its audit), so no record may carry a per-instance dict
    records = []
    for info in pkgutil.iter_modules(polymorph.__path__):
        mod = importlib.import_module(f"polymorph.{info.name}")
        records += [obj for obj in vars(mod).values()
                    if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == mod.__name__]
    assert len(records) > 20
    assert [c.__qualname__ for c in records
            if not c.__dataclass_params__.frozen
            or "__slots__" not in vars(c)] == []
    assert "__slots__" in vars(funcspace.FunctionTable)
    assert not hasattr(funcspace.constant(2, 0), "__dict__")
