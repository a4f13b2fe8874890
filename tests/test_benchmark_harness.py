"""The benchmark's hold on the package: every name its tracer wraps
resolves, and a traced catalog-tkt session fires the spans that
perfbench/run.py expects of that workload.  A rename or a deleted call in
capkit then fails here, not only in a traced benchmark run."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import capkit

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = pathlib.Path(capkit.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench(request):
    # run.py and tracer.py import each other's siblings by plain name
    sys.path.insert(0, str(PERFBENCH))
    request.addfinalizer(lambda: sys.path.remove(str(PERFBENCH)))
    return importlib.import_module("run"), importlib.import_module("tracer")


def test_tracer_names_resolve(bench):
    _, tracer = bench
    for name, modname, path, _ in tracer.SPANS:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            assert hasattr(obj, attr), (name, modname, path)
            obj = getattr(obj, attr)
    for modname, attr in tracer.REQUIRED_BINDINGS:
        assert hasattr(importlib.import_module(modname), attr), (modname, attr)


def test_traced_catalog_session_fires_the_expected_spans(bench, tmp_path):
    run, _ = bench
    products, result, spans = (tmp_path / "products.txt",
                               tmp_path / "result.json", tmp_path / "spans.json")
    products.write_text("", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(PERFBENCH / "catalog_session.py"),
                    str(products), str(result), str(spans)],
                   env=env, check=True, timeout=120)
    fired = {s[2] for s in json.loads(spans.read_text("utf-8"))["spans"]}
    # the session calls capkit's API directly, so no cli span can fire
    expected = [n for n in run.EXPECTED_SPANS["catalog-tkt"]
                if not n.startswith("cli.")]
    assert [n for n in expected if n not in fired] == []
    groups = json.loads(result.read_text("utf-8"))["groups"]
    assert groups and all(not any(g["problems"]) for g in groups.values())
