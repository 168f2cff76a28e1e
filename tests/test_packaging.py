"""Every declared runtime dependency must be importable where the tests run.

A dependency that cannot be installed leaves the code that needs it
untested and the fallback that replaces it unnoticed.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

if sys.version_info < (3, 11):
    pytest.skip("tomllib needs Python 3.11", allow_module_level=True)

import tomllib

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_declared_dependencies_import():
    with PYPROJECT.open("rb") as f:
        requirements = tomllib.load(f)["project"].get("dependencies", [])
    missing = []
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        try:
            importlib.import_module(name.replace("-", "_"))
        except ImportError:
            missing.append(requirement)
    assert not missing, f"declared but not importable: {missing}"
