"""Integer arguments pass one rule in ``errors``: no function truncates a parameter with int()."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affinity_discord"
# (module, function, parameter): the rule's own cast, made after its type check
ALLOWED = {("errors.py", "_require_int", "value")}


def _parameter_casts(tree):
    """Yield (function, name) for each int(<name>) whose name is a parameter of its function."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "int"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in params
            ):
                yield getattr(func, "name", "<lambda>"), node.args[0].id


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_parameter_is_cast_with_int(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stray = [
        (func, name)
        for func, name in _parameter_casts(tree)
        if (path.name, func, name) not in ALLOWED
    ]
    assert stray == [], f"{path.name}: check these with errors._require_int instead: {stray}"
