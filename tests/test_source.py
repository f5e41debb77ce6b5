"""Source-level rules for the package: no ``assert`` (it vanishes under
``python -O``) and no imports beyond the standard library and click."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "freeset").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"click", "freeset"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_declared_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), f"assert at {where}"
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in ALLOWED, f"import {name} at {where}"


def test_sources_found():
    assert len(SOURCES) > 10
