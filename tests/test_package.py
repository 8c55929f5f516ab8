"""The package root's export list, the layout of its records, and the
constants README cites."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import polymorph
from polymorph import funcspace, polytest, predicates, regularity

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert "__slots__" in vars(predicates.Predicate)
    assert not hasattr(predicates.nand_predicate(2), "__dict__")


@pytest.mark.parametrize("module, name", [
    (polytest, "ODOMETER_NS"), (polytest, "CONTRACT_NS"),
    (polytest, "CLASS_NS"), (polytest, "LABEL_NS"), (polytest, "CHUNK"),
    (polytest, "ODOMETER_CAP"), (polytest, "CONTRACTION_CAP"),
    (polytest, "GUIDE_CELLS"), (polytest, "MC_GROUP_CAP"),
    (regularity, "CELL_CAP"), (funcspace, "TABLE_CAP"),
    (funcspace, "BINARY_N_CAP"), (funcspace, "SYMBOL_CAP"),
    (funcspace, "FRACTION_EXP_CAP"),
])
def test_readme_cites_each_constant_at_its_value(module, name):
    # every place README gives a value, as `NAME` = v or `NAME` (v, with v
    # an integer (thousands may be comma-separated) or 2^k, must match the
    # module, so a refit cannot leave the README behind
    cited = re.findall(rf"`(?:\w+\.)?{name}` (?:= |\()(2\^\d+|\d[\d,]*)",
                       README.read_text())
    values = [2 ** int(v[2:]) if v.startswith("2^")
              else int(v.replace(",", "")) for v in cited]
    assert values, f"README cites no value of {name}"
    assert values == [getattr(module, name)] * len(values)
