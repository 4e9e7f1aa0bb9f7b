"""The package's public surface: what ``roommates/__init__.py`` exports."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import roommates

SRC = Path(__file__).resolve().parent.parent / "src"


def test_exports_are_exactly_the_public_names_bound():
    # hasattr resolves each lazy name, and resolving binds it.
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


def in_fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter on the in-tree package."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    ).stdout


def test_importing_the_package_binds_no_public_name_and_loads_no_submodule():
    out = in_fresh_interpreter(
        "import sys, roommates\n"
        "print(sorted(m for m in sys.modules if m.startswith('roommates.')))\n"
        "print(sorted(n for n in vars(roommates) if not n.startswith('_')))\n"
    )
    assert out == "[]\n[]\n"


def test_submodules_still_import_from_the_package():
    out = in_fresh_interpreter(
        "from roommates import cli, formats, structure\n"
        "print(cli.__name__, formats.__name__, structure.__name__)\n"
    )
    assert out == "roommates.cli roommates.formats roommates.structure\n"


def test_each_export_is_the_object_its_home_module_defines():
    for name in roommates.__all__:
        home = importlib.import_module(f"roommates.{roommates._HOME_OF[name]}")
        value = getattr(roommates, name)
        assert value is getattr(home, name), name
        # Classes and functions name the module that defines them; the
        # table must point there, not at a module that imports the name.
        defined_in = getattr(value, "__module__", None) or home.__name__
        if defined_in.startswith("roommates."):
            assert defined_in == home.__name__, name


def test_dir_lists_every_export():
    assert set(roommates.__all__) <= set(dir(roommates))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        roommates.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from roommates import no_such_name  # noqa: F401
