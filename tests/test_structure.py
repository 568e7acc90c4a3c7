"""Structural rules read from the library's source with ``ast``.

The decision "is this a valid prime, and what do we say if not" lives in
``padics.require_primes`` alone; every entry point that takes a prime calls
it.  ``is_prime`` is left to that helper and to two places where it is
arithmetic or text validation, not argument checking.
"""

import ast
from pathlib import Path

import pqzeta

SOURCES = sorted(Path(pqzeta.__file__).parent.glob("*.py"))

IS_PRIME_CALLERS = {
    "padics.require_primes",
    "rationals._staudt_clausen_denominator",
    "mahler.MahlerSeries.deserialize",
}


def _definitions(tree, module):
    """Yield (qualified name, node) for every function and class, nested ones too."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                yield name, child
                yield from walk(child, name)
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)


def _calls_is_prime(node):
    """True when the body of node itself (not a nested definition) calls is_prime."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "is_prime":
                return True
        if _calls_is_prime(child):
            return True
    return False


def _parsed():
    assert SOURCES, "no library sources found"
    for path in SOURCES:
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_is_prime_is_called_only_by_the_one_check():
    callers = set()
    for module, tree in _parsed():
        if _calls_is_prime(tree):
            callers.add(module)  # a call at module level
        callers.update(name for name, node in _definitions(tree, module) if _calls_is_prime(node))
    assert "padics.require_primes" in callers  # the walk does find calls
    assert callers <= IS_PRIME_CALLERS, sorted(callers - IS_PRIME_CALLERS)


def test_no_private_prime_validator():
    found = [
        name
        for module, tree in _parsed()
        for name, node in _definitions(tree, module)
        if not isinstance(node, ast.ClassDef) and node.name.startswith("_require_prime")
    ]
    assert found == []
