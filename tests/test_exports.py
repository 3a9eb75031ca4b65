"""The package's public surface: every exported name resolves, once."""

from __future__ import annotations

import tdpairs


def test_every_exported_name_resolves_is_unique_and_sorted():
    names = tdpairs.__all__
    assert [n for n in names if not hasattr(tdpairs, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
