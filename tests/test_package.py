"""The package root's export list."""

import polymorph


def test_exports_resolve_sorted_and_unique():
    names = polymorph.__all__
    assert [n for n in names if not hasattr(polymorph, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
