"""Checks on the package source itself."""

import ast
from pathlib import Path

import braidwalk

SRC = Path(braidwalk.__file__).parent


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in {found}"


def test_one_unchecked_reduced_word_constructor():
    # words built without the letter check come from words._word alone
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "object.__new__"
                    and [ast.unparse(a) for a in node.args] == ["ReducedWord"]):
                found.append(path.name)
    assert found == ["words.py"]
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "ReducedWord" in exported
    assert "_word" not in exported
    assert not hasattr(braidwalk, "_word")
