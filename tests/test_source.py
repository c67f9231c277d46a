"""Checks on the package source itself."""

import ast
from pathlib import Path

import braidwalk

SRC = Path(braidwalk.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in {found}"
