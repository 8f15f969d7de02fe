"""The package imports only the standard library, numpy, and itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affinity_discord"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "affinity_discord"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "affinity_discord" if node.level else node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_or_the_package(path):
    foreign = sorted({m for m in _imported_modules(path) if m.split(".")[0] not in ALLOWED})
    assert foreign == [], f"{path.name} imports {foreign}"
