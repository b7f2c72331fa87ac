"""Checks on the library source itself."""

import ast
import pathlib

import dofkit

SRC = pathlib.Path(dofkit.__file__).parent


def test_library_has_no_assert_statements():
    # invariants must raise real errors: python -O strips assert statements
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src/dofkit: %s" % found
