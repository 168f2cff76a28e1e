"""Source idioms that the package relies on.

No ``assert`` statement guards a contract: ``python -O`` strips them, so
every check raises a named error instead.

No function body imports a module: a local import hides a dependency
between modules, so every import sits at the top of its module.

In CPython, ``tuple(<generator>)`` cannot know its length: it allocates a
tuple of spare slots and shrinks it at the end.  Every tuple freed later goes
to the free list of its final size, which keeps up to 2,000 tuples per size
until a full collection, so a solve that builds many such tuples leaves its
resident memory growing from call to call.  A list comprehension (or
``zip(*rows)``) builds each tuple at its exact size.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bikesched"
SOLVE_PATH = ("model", "lp", "normalize", "bs", "rbs", "waiting", "oracle")


def _tuple_of_generator(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.GeneratorExp)
    ]


@pytest.mark.parametrize("module", SOLVE_PATH)
def test_no_tuple_of_generator(module):
    path = SRC / f"{module}.py"
    lines = sorted(_tuple_of_generator(ast.parse(path.read_text(), filename=str(path))))
    assert not lines, f"tuple(<generator>) in {module}.py at lines {lines}"


def test_detector_finds_a_tuple_of_generator():
    tree = ast.parse("a = tuple(x for x in y)\nb = tuple([x for x in y])\n")
    assert _tuple_of_generator(tree) == [1]


def _asserts(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    lines = _asserts(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"assert statement in {path.name} at lines {lines}"


def test_detector_finds_an_assert():
    assert _asserts(ast.parse("x = 1\nassert x, 'message'\n")) == [2]


def _local_imports(tree: ast.AST) -> list[int]:
    return sorted({
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    lines = _local_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"function-local import in {path.name} at lines {lines}"


def test_detector_finds_a_local_import():
    tree = ast.parse(
        "import os\n"
        "def f():\n"
        "    from .lp import solve_partition\n"
        "    def g():\n"
        "        import json\n"
        "class C:\n"
        "    async def h(self):\n"
        "        import sys\n"
    )
    assert _local_imports(tree) == [3, 5, 8]
