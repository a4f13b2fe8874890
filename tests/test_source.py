"""Checks on the source text of the package itself."""

import ast
import os
import pathlib
import subprocess
import sys

import capkit

SRC = pathlib.Path(capkit.__file__).parent


def absolute_imports(path):
    """(line, module name) of each absolute import in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


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
    found = ["%s:%d %s" % (path.name, line, name)
             for path in sorted(SRC.rglob("*.py"))
             for line, name in absolute_imports(path)
             if name.split(".")[0] not in sys.stdlib_module_names
             and name.split(".")[0] != "capkit"]
    assert found == []


def test_no_module_imports_dataclasses():
    # value types are plain classes (capkit.value): dataclasses would bring
    # inspect, ast and dis into the start-up of every command
    found = ["%s:%d" % (path.name, line)
             for path in sorted(SRC.rglob("*.py"))
             for line, name in absolute_imports(path)
             if name.split(".")[0] == "dataclasses"]
    assert found == []


def fresh_stdout(code, *options):
    """The stdout of code run in a fresh interpreter that imports capkit from
    this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *options, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_commands_leave_costly_modules_unimported():
    # a fresh interpreter, since pytest itself has imported inspect
    code = ("import sys\n"
            "import capkit.cli, capkit.catalog, capkit.gmodule, capkit.fixtures\n"
            "capkit.fixtures.reference_table()\n"
            "print(*sorted({'dataclasses', 'inspect', 'fractions'}"
            " & set(sys.modules)))")
    assert fresh_stdout(code).split() == []


def test_commands_leave_typing_unimported():
    # without site (-S), since a site .pth file may import typing itself
    code = ("import sys\n"
            "import capkit.cli, capkit.catalog, capkit.gmodule, capkit.fixtures\n"
            "print('typing' in sys.modules)")
    assert fresh_stdout(code, "-S").split() == ["False"]


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
