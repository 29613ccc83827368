"""Rules on the package source itself."""

import ast
import importlib
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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    """Every name the code of this node uses: a plain name or an attribute.
    An import does not run what it binds, and a string is not a call, a
    trace target's getattr name included; comments are not in the tree."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _own_uses(node: ast.AST, uses: dict, owner=None) -> list[tuple[ast.AST, ast.AST]]:
    """Fill uses[owner] with the names the code of owner uses outside its
    nested defs and classes, which are units of their own, and return
    (unit, owner) for each of those; owner None is a module's top level."""
    units = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(child, DEFS):
            units.append((child, owner))
            units += _own_uses(child, uses, child)
        else:
            uses.setdefault(owner, set()).update(_names(child))
            units += _own_uses(child, uses, owner)
    return units


def _called_by_base(module: str, cls: ast.ClassDef, name: str) -> bool:
    """Does a base class from outside the package define this method?
    Then the base class calls it (argparse calls ArgumentParser.error)."""
    bases = getattr(importlib.import_module(module), cls.name).__mro__[1:]
    return any(not b.__module__.startswith("bsol") and hasattr(b, name) for b in bases)


def test_every_function_has_a_caller():
    # a package def or class is called when code that runs can reach it:
    # the roots are the pyproject.toml entry points, the package's
    # module-level code and all code in perfbench/ and benchmarks/, and a
    # reached def reaches every name its own code uses.  A dunder method is
    # reached with its class, and so is an override that a base class from
    # outside the package calls.  Uses in tests/, in prose, in trace-target
    # strings and a def's calls to itself do not count, so an oracle only
    # the tests run belongs in tests/oracles.py
    root = PACKAGE.parent.parent
    reached = set(re.findall(r'=\s*"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text()))
    for pattern in ("perfbench/**/*.py", "benchmarks/**/*.py"):
        for path in sorted(root.glob(pattern)):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                reached |= _names(node)
    uses: dict = {}
    units = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"bsol.{path.stem}".removesuffix(".__init__")
        tree = ast.parse(path.read_text(), filename=str(path))
        found = _own_uses(tree, uses)
        reached |= uses.pop(None, set())
        units += [(path.name, module, unit, owner) for unit, owner in found]
    live: set[ast.AST] = set()
    grew = True
    while grew:
        grew = False
        for _, module, unit, owner in units:
            if unit in live:
                continue
            name = unit.name
            with_class = owner in live and isinstance(owner, ast.ClassDef) and (
                name.startswith("__") and name.endswith("__")
                or _called_by_base(module, owner, name)
            )
            if name in reached or with_class:
                live.add(unit)
                reached |= uses.get(unit, set())
                grew = True
    # a def inside one that nothing reaches is reported through its owner
    uncalled = [
        f"{file}:{unit.lineno} {unit.name}"
        for file, _, unit, owner in units
        if unit not in live and not (owner is not None and owner not in live)
    ]
    assert not uncalled, f"functions and classes that nothing running reaches: {uncalled}"
