"""Rules about the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import capheap

SOURCES = sorted(Path(capheap.__file__).parent.glob("*.py"))


def asserts_in_functions(tree):
    """The lines of every ``assert`` inside a function body."""
    return {
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, ast.Assert)
    }


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"engines.py", "tagged_memory.py", "cli.py"}


def test_no_assert_guards_a_run_time_check():
    """An ``assert`` in a function vanishes under ``python -O``, so a
    check a client sequence can trip must raise a classified error
    instead.  Module-level asserts (struct sizes) run once at import and
    guard the source, not a client, so they may stay."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in sorted(asserts_in_functions(ast.parse(path.read_text(), str(path))))
    ]
    assert not found


def test_the_rule_sees_nested_and_method_asserts():
    tree = ast.parse(
        "assert X\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            assert y\n"
        "        assert z\n"
    )
    assert asserts_in_functions(tree) == {5, 6}
