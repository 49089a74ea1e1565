"""Rules about the package source itself, checked by parsing it."""

import ast
import enum
import importlib
import io
import tokenize
from pathlib import Path

import capheap

SOURCES = sorted(Path(capheap.__file__).parent.glob("*.py"))

# every enum class the package defines, by name, with its member names
ENUM_MEMBERS = {
    obj.__name__: set(obj.__members__)
    for path in SOURCES
    for obj in vars(importlib.import_module(
        "capheap" if path.stem == "__init__" else f"capheap.{path.stem}"
    )).values()
    if isinstance(obj, enum.EnumMeta) and obj.__module__.startswith("capheap.")
}

# Code lines per module, counted by ``code_lines``.  A change to the
# package source updates its rows here, so each module's size is a
# reviewed number, as the Python calls per op are.
CODE_LINES = {
    "__init__.py": 66,
    "_csv.py": 8,
    "allocator_api.py": 86,
    "attacks.py": 266,
    "bench.py": 160,
    "capability.py": 118,
    "cli.py": 149,
    "engines.py": 540,
    "harness.py": 121,
    "registry.py": 29,
    "tagged_memory.py": 146,
}

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that a token other than a comment or a line
    break spans, less those of every module, class and function
    docstring: no blank, comment or docstring line counts."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def asserts_in_functions(tree):
    """The lines of every ``assert`` inside a function body."""
    return {
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, ast.Assert)
    }


def capability_constructor_calls(tree):
    """The lines of every call of ``Capability(...)``, by name or as an
    attribute (``capability.Capability(...)``)."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "Capability"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Capability"
        )
    }


def enum_member_loads(tree, members=ENUM_MEMBERS):
    """The lines of every load of an enum member inside a function body:
    an attribute named for a member of ``members``' class of that name,
    read from the class by name or as an attribute (``FaultKind.X`` or
    ``capability.FaultKind.X``)."""
    return {
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, (ast.Name, ast.Attribute))
        and node.attr in members.get(getattr(node.value, "id", getattr(node.value, "attr", None)), ())
    }


def finalizers(tree):
    """The lines of every ``__del__`` a class body defines, at any depth."""
    return {
        node.lineno
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__del__"
    }


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"engines.py", "tagged_memory.py", "cli.py"}


def test_code_lines_per_module_are_pinned():
    assert {path.name: code_lines(path.read_text()) for path in SOURCES} == CODE_LINES


def test_the_rule_counts_no_blank_comment_or_docstring_line():
    source = (
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "x = (1,\n"
        "     2)  # a trailing comment\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        '        return """a string\n'
        'over two lines"""\n'
    )
    assert code_lines(source) == 6  # lines 5, 6, 7, 9, 12 and 13


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


def test_hot_modules_never_call_the_capability_constructor():
    """``engines`` and ``tagged_memory`` build capabilities with
    ``_tuple_new(Capability, (...))``: the NamedTuple's ``__new__`` is a
    Python function, a frame more per capability built (about 330 ns a
    build against about 140 ns, on Python 3.11)."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name in ("engines.py", "tagged_memory.py")
        for line in sorted(capability_constructor_calls(ast.parse(path.read_text(), str(path))))
    ]
    assert not found


def test_the_rule_sees_constructor_calls_in_any_form():
    tree = ast.parse(
        "def f(cap):\n"
        "    a = Capability(True, 0, 16, 0, 3)\n"
        "    b = _tuple_new(Capability, (True, 0, 16, 0, 3))\n"
        "    class C:\n"
        "        def m(self):\n"
        "            return [capability.Capability(*t) for t in self.ts]\n"
        "    return isinstance(cap, Capability), Capability\n"
        "x = g(Capability(False, 0, 0, 0, 0))\n"
    )
    assert capability_constructor_calls(tree) == {2, 6, 8}


def test_no_function_loads_an_enum_member_from_its_class():
    """On Python 3.10 and 3.11 the enum metaclass defines ``__getattr__``,
    so every ``Outcome.X`` load runs the slow attribute hook: about five
    times a plain class attribute's cost, and invisible to a profiler.  A
    function body reads a module constant bound once instead
    (``capability``'s module docstring has the figures).  Module and class
    bodies run once, and may load members."""
    assert set(ENUM_MEMBERS) >= {"AllocErrorKind", "FaultKind", "FreeValidation", "Outcome", "Perm"}
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in sorted(enum_member_loads(ast.parse(path.read_text(), str(path))))
    ]
    assert not found


def test_the_rule_sees_member_loads_in_any_form():
    tree = ast.parse(
        "X = FaultKind.TAG_VIOLATION\n"
        "class C:\n"
        "    v = (Outcome.SUCCEEDS, FreeValidation.NONE)\n"
        "    def m(self):\n"
        "        return Outcome.THWARTED\n"
        "def f(kind):\n"
        "    g = lambda: capability.FaultKind.BOUNDS_VIOLATION\n"
        "    def inner():\n"
        "        raise AllocError(AllocErrorKind.OUT_OF_MEMORY, kind.value)\n"
        "    return Outcome.from_token('S'), FreeValidation, kind._value_, Perm.LOAD | 1\n"
    )
    assert enum_member_loads(tree) == {5, 7, 9, 10}


def test_no_class_defines_a_finalizer():
    """``__del__`` runs wherever the last reference drops, and for an
    object in a reference cycle inside whatever code next triggers the
    cyclic collector, so its work lands in a stranger's timing and call
    counts.  Code that builds objects in turn owns their reuse
    (``harness.run_matrix`` keeps its heap for the next grid)."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in sorted(finalizers(ast.parse(path.read_text(), str(path))))
    ]
    assert not found


def test_the_rule_sees_nested_and_method_finalizers():
    tree = ast.parse(
        "def __del__(self):\n"
        "    pass\n"
        "class C:\n"
        "    def __del__(self, _f=None):\n"
        "        pass\n"
        "    def f(self):\n"
        "        class D:\n"
        "            async def __del__(self):\n"
        "                pass\n"
        "        def __del__():\n"
        "            pass\n"
    )
    assert finalizers(tree) == {4, 8}
