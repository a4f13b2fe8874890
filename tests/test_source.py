"""Checks on the source text of the package itself."""

import ast
import hashlib
import inspect
import os
import pathlib
import subprocess
import sys

import capkit

SRC = pathlib.Path(capkit.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def test_package_parses_as_the_oldest_python_it_declares():
    # pyproject.toml declares requires-python >= 3.10: no file may use
    # syntax that a 3.10 interpreter rejects
    floor = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in floor
    for path in sorted(SRC.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


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


def test_no_module_imports_pickle():
    # the store's checkpoint is read with marshal, which builds plain values
    # and runs no code; pickle would run what a crafted file names
    found = ["%s:%d" % (path.name, line)
             for path in sorted(SRC.rglob("*.py"))
             for line, name in absolute_imports(path)
             if name.split(".")[0] == "pickle"]
    assert found == []


def test_no_module_imports_hashlib_at_module_level():
    # hashlib loads OpenSSL's _hashlib: the reference table is guarded by a
    # crc32, and the store imports hashlib only inside the functions that
    # read and write its checkpoint
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        todo = list(tree.body)
        while todo:  # every statement outside a function body
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            found += ["%s:%d" % (path.name, node.lineno)
                      for name in names if name.split(".")[0] == "hashlib"]
            todo += ast.iter_child_nodes(node)
    assert found == []


def test_checkpoint_version_names_the_parser():
    # a store checkpoint replays what parse_record and _parse decided from
    # the bytes as _text decoded them; the digest in its version line must
    # change with the code that decides it, so that no checkpoint written
    # under other acceptance rules is replayed
    from capkit import store
    from capkit.abgroup import AbelianGroup
    text = "".join([inspect.getsource(store.parse_record),
                    store._STAMP.pattern,
                    inspect.getsource(AbelianGroup.__init__),
                    inspect.getsource(AbelianGroup.rank),
                    inspect.getsource(store._parse),
                    inspect.getsource(store._text)])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert store._CHECKPOINT_VERSION.split() == \
        ["capkit-checkpoint", "3", digest], \
        "the parser changed: put %s in store._CHECKPOINT_VERSION" % digest


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


def test_table_commands_leave_hashlib_unimported(tmp_path):
    # without site (-S), since a site .pth file may import hashlib itself;
    # a scan that reads the table, on a store too small for a checkpoint,
    # then verify-table
    store = tmp_path / "s.tsv"
    code = ("import io, sys\n"
            "from capkit import cli, store\n"
            "out = io.StringIO()\n"
            "print(cli.main(['scan', '--prime', '5', '--store', %r, '--',"
            " '-12500', '-12400'], out=out),"
            " cli.main(['verify-table'], out=out))\n"
            "print(*sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
            "print(store._CHECKPOINT_MIN_BYTES)\n"
            "print(out.getvalue())" % str(store))
    codes, unwanted, threshold, text = fresh_stdout(code, "-S").split(
        "\n", 3)
    assert (codes, unwanted) == ("0 0", "")
    assert store.stat().st_size < int(threshold)
    assert "-12451\th=25\trank=2\n" in text
    assert "28 rows, 0 conflicts\n" in text


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


def test_no_method_is_memoised_across_instances():
    # lru_cache or cache on a method keeps every instance it sees for the
    # life of the process; a cached_property lives with its instance
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            found += ["%s:%d %s.%s" % (path.name, node.lineno, cls.name,
                                       node.name)
                      for node in cls.body
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      for dec in node.decorator_list
                      if ast.unparse(getattr(dec, "func", dec))
                      .split(".")[-1] in ("lru_cache", "cache")]
    assert found == []


def test_every_module_level_import_is_used():
    # a name a module imports and never reads is a leftover of removed code
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}  # the root of each attribute
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name not in used]
    assert found == []


# protocol signatures: a command takes the parsed namespace, and a frozen
# value's __setattr__ takes the value it refuses
UNUSED_PARAMETERS_ALLOWED = {("cli", "cmd_verify_table", "ns"),
                             ("value", "__setattr__", "value")}


def test_every_parameter_is_used():
    # a parameter that its function body never reads is a leftover of
    # removed code, or a caller's argument dropped unseen; a method's self
    # is fixed by the call
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += ["%s:%d %s(%s)" % (path.name, node.lineno, node.name, p)
                      for p in params if p not in read and p != "self"
                      and (path.stem, node.name, p)
                      not in UNUSED_PARAMETERS_ALLOWED]
    assert found == []
