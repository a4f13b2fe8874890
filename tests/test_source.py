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


def test_value_types_define_no_equality_or_hash():
    # value types store one canonical form, so the generated __eq__ and
    # __hash__ (or object identity) are the right ones
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                else:
                    continue
                found += ["%s:%d %s.%s" % (path.name, node.lineno, cls.name, n)
                          for n in names if n in ("__eq__", "__hash__")]
    assert found == []
