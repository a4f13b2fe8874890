"""Checks on the source text of the package itself."""

import ast
import pathlib
import sys

import capkit

SRC = pathlib.Path(capkit.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert found == []


def test_imports_are_stdlib_or_capkit():
    # the package runs on the standard library alone; sympy is a test oracle
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and name.split(".")[0] != "capkit"]
    assert found == []
