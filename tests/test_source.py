"""Rules on the package source itself."""

import ast
import re
from collections import Counter
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


def test_every_function_has_a_caller():
    # a def whose name appears nowhere else is code that nothing runs
    root = PACKAGE.parent.parent
    texts = {
        path: path.read_text()
        for pattern in ("src/**/*.py", "tests/**/*.py", "benchmarks/**/*.py", "perfbench/**/*.py")
        for path in sorted(root.glob(pattern))
    }
    texts[root / "pyproject.toml"] = (root / "pyproject.toml").read_text()
    words = Counter(word for text in texts.values() for word in re.findall(r"\w+", text))
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for node in ast.walk(ast.parse(texts[path], filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = re.findall(rf"\b{name}\b", lines[node.lineno - 1])
            if words[name] <= len(own):
                uncalled.append(f"{path.name}:{node.lineno} {name}")
    assert not uncalled, f"functions with no caller: {uncalled}"
