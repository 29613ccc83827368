"""Rules on the package source itself."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsol"


def test_no_assert_statements():
    # python -O strips assert statements, so no check in bsol may be one
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in bsol: {found}"


def test_no_assertion_error_raises():
    # an internal fault is an ArithmeticError, which bs reports with exit 3;
    # an AssertionError would end it with a traceback and the usage-error code
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError in bsol: {found}"


def test_no_floats():
    # bsol is exact: no float literal and no float(...) conversion anywhere
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if literal or call:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"floats in bsol: {found}"


def _code_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for every name the code uses: a plain name, an
    attribute, an imported name, or a string constant that is a whole
    identifier (a getattr target, say).  Comments are not in the tree, and
    a word inside a docstring or message is not a whole string."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            out.append((node.lineno, node.name.rpartition(".")[2]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.append((node.lineno, node.value))
    return out


def test_every_function_has_a_caller():
    # a package def or class is called only when its name is used as code
    # outside its own body, in the package, perfbench/ or benchmarks/, or
    # is a pyproject.toml entry point; a use in tests/ or in prose does not
    # count, so an oracle only the tests run belongs in tests/oracles.py
    root = PACKAGE.parent.parent
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for pattern in ("src/bsol/**/*.py", "perfbench/**/*.py", "benchmarks/**/*.py")
        for path in sorted(root.glob(pattern))
    }
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for line, name in _code_names(tree):
            uses.setdefault(name, []).append((path, line))
    scripts = re.findall(r'=\s*"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text())
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in scripts:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in body for p, line in uses.get(name, [])):
                uncalled.append(f"{path.name}:{node.lineno} {name}")
    assert not uncalled, f"functions and classes with no caller: {uncalled}"
