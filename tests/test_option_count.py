"""Pins the number of parameters with a default value in the package, so an
added option is a deliberate change: raise OPTION_PIN with it and say why."""

import ast
from pathlib import Path

import jackpaths

OPTION_PIN = 34


def defaulted_parameters(root: Path) -> int:
    """Positional and keyword-only parameters with a default value, over
    every function, method and lambda in the ``*.py`` files under root."""
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    return count


def test_no_new_defaulted_parameters():
    assert defaulted_parameters(Path(jackpaths.__file__).parent) <= OPTION_PIN
