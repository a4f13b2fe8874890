"""The benchmark's hold on the package: every name its tracer wraps and
every capkit name its files import or read resolves, and a traced
catalog-tkt session and a traced scan fire the spans that
perfbench/run.py expects of those workloads.  A rename or a deleted call
in capkit then fails here, not only in a traced benchmark run.  The
outputs the benchmark checks are recomputed here too, against
perfbench/digests.json."""

import ast
import importlib
import io
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import capkit
from capkit import cli

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


def benchmark_capkit_names():
    """Every capkit name that perfbench/*.py reads, dotted: each module or
    name it imports from capkit, and each attribute chain it reads off a
    name so imported."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        bound = {}  # local name -> the dotted capkit name it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "capkit":
                for alias in node.names:
                    dotted = node.module + "." + alias.name
                    names.add(dotted)
                    bound[alias.asname or alias.name] = dotted
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "capkit":
                        names.add(alias.name)
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:  # import capkit.cli binds capkit
                            bound["capkit"] = "capkit"
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id]] + chain[::-1]))
    return names


def test_names_the_benchmark_reads_exist():
    # a removal from src/ that would break perfbench fails here, without
    # running it: its files are parsed, not imported
    names = benchmark_capkit_names()
    assert {"capkit.fixtures.reference_discriminants",
            "capkit.store.read_store", "capkit.cli.main"} <= names
    missing = []
    for dotted in sorted(names):
        try:
            pkgutil.resolve_name(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert missing == []


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_traced_catalog_session_fires_the_expected_spans(bench, tmp_path):
    run, _ = bench
    products, result, spans = (tmp_path / "products.txt",
                               tmp_path / "result.json", tmp_path / "spans.json")
    products.write_text("", encoding="utf-8")
    env = _env()
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


def test_traced_scan_fires_the_expected_spans(bench, tmp_path):
    # the seed-0 window of the scan workload: its Sylow parts that no rule
    # decides without a span keep abelian_structure and SNF firing
    run, _ = bench
    lo, hi, window = importlib.import_module("inputs").scan_window(0)
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"),
                    str(spans), "--", "scan", "--prime", "5",
                    "--store", str(tmp_path / "scan.tsv"), "--",
                    str(lo), str(hi)],
                   env=_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    fired = {s[2] for s in json.loads(spans.read_text("utf-8"))["spans"]}
    assert [n for n in run.EXPECTED_SPANS["scan"] if n not in fired] == []
    records = [line for line in
               (tmp_path / "scan.tsv").read_text("utf-8").splitlines()
               if not line.startswith("#")]
    assert len(records) == len(window)


def test_traced_store_read_fires_the_expected_spans(bench, tmp_path):
    # the store-read workload in small: a no-op scan resume and a report
    # over a finished store that also holds a comment and a corrupt line
    run, _ = bench
    store = tmp_path / "store.tsv"
    env = _env()
    scan = ["scan", "--prime", "5", "--store", str(store), "--", "-400", "-3"]
    subprocess.run([sys.executable, "-m", "capkit.cli", *scan], env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    with open(store, "a", encoding="utf-8") as fh:
        fh.write("# a comment\n-7\t1\t1\t5\t0\tnot a time\n")
    fired = set()
    for i, argv in enumerate([scan, ["report", "--store", str(store)]]):
        spans = tmp_path / ("spans%d.json" % i)
        done = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans),
             "--", *argv], env=env, check=True, timeout=120,
            capture_output=True, text=True)
        assert "skipped: timestamp is not of the form" in done.stderr
        fired |= {s[2] for s in json.loads(spans.read_text("utf-8"))["spans"]}
        if i == 0:
            assert "(0 new)" in done.stdout
    assert [n for n in run.EXPECTED_SPANS["store-read"] if n not in fired] \
        == []


def test_outputs_match_the_benchmark_digests(bench, tmp_path):
    # what perfbench/record_digests.py records: the payload digest of each
    # scan seed's window, scanned through the CLI in process, and the
    # catalog-tkt digests of the packaged catalog and of every product
    # group the workload can draw, from one catalog session
    run, _ = bench
    inputs = importlib.import_module("inputs")
    want = run.load_digests()
    got = {"scan": {}, "catalog_products": {}}
    for seed in want["scan"]:
        lo, hi, _ = inputs.scan_window(int(seed))
        store = tmp_path / ("scan%s.tsv" % seed)
        assert cli.main(["scan", "--prime", "5", "--store", str(store), "--",
                         str(lo), str(hi)], out=io.StringIO()) == 0
        payloads, problems = run.read_payloads(str(store))
        assert problems == [], seed
        got["scan"][seed] = inputs.payload_digest(payloads)

    blocks = inputs.catalog_blocks(
        (SRC / "capkit" / "data" / "catalog.txt").read_text("utf-8"))
    products, result = tmp_path / "products.txt", tmp_path / "result.json"
    products.write_text("\n".join(inputs.direct_product_text(blocks, name, k)
                                  for name, k in inputs.PRODUCT_POOL),
                        encoding="utf-8")
    subprocess.run([sys.executable, str(PERFBENCH / "catalog_session.py"),
                    str(products), str(result)],
                   env=_env(), check=True, timeout=120)
    groups = json.loads(result.read_text("utf-8"))["groups"]
    names = {inputs.product_name(blocks, name, k)
             for name, k in inputs.PRODUCT_POOL}
    got["catalog_packaged"] = run.group_digest(
        groups, [n for n in groups if n not in names])
    for n in sorted(names):
        got["catalog_products"][n] = run.group_digest(groups, [n])
    assert got == want
