"""Pins where integer arguments are read: ``exactnum._int_arg`` is the one
place that decides what an int is and says "must be an int".  Outside
exactnum, ``isinstance(..., bool)`` is left only to the two readers of a
config switch, which check that it is true or false: ``cli._config_value``
and ``ensembles.ensemble_from_config`` (its ``dual`` and
``check_positivity``)."""

import ast
from pathlib import Path

import jackpaths

BOOL_CHECKS_ALLOWED = {("cli", "_config_value"), ("ensembles", "ensemble_from_config.flag")}


def _module_trees():
    root = Path(jackpaths.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _scoped_nodes(tree):
    """(qualified name of the enclosing function or class, node) for every
    node of the tree; '' at module level."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield scope, child
            stack.append((inner, child))


def _is_bool_check(node) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)


def _says_must_be_an_int(node) -> bool:
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and "must be an int" in c.value for c in ast.walk(node.exc)))


def test_only_exactnum_decides_what_an_int_is():
    bool_checks, int_refusals = set(), set()
    for module, tree in _module_trees().items():
        for scope, node in _scoped_nodes(tree):
            if module == "exactnum":
                continue
            if _is_bool_check(node):
                bool_checks.add((module, scope))
            if _says_must_be_an_int(node):
                int_refusals.add((module, scope))
    assert bool_checks <= BOOL_CHECKS_ALLOWED
    assert int_refusals == set()
    # and the one reader is there
    exactnum = _module_trees()["exactnum"]
    assert any(_says_must_be_an_int(node) for _, node in _scoped_nodes(exactnum))
