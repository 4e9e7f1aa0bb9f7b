"""The package's public surface: what ``roommates/__init__.py`` exports."""

from __future__ import annotations

import types

import roommates


def test_exports_are_exactly_the_public_names_bound():
    missing = [name for name in roommates.__all__ if not hasattr(roommates, name)]
    assert missing == []
    # Submodules become attributes of the package once imported, so only
    # non-module names are compared.
    bound = {
        name
        for name, value in vars(roommates).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(roommates.__all__) == len(set(roommates.__all__))
    assert bound == set(roommates.__all__)
