"""Tests of the benchmark's own inputs, oracles and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from capkit import quadform  # noqa: E402
from capkit.catalog import parse_catalog  # noqa: E402
from capkit.store import read_store  # noqa: E402


def catalog_text():
    with open(os.path.join(HERE, os.pardir, "src", "capkit", "data",
                           "catalog.txt"), encoding="utf-8") as fh:
        return fh.read()


def test_same_seed_gives_identical_inputs():
    cat = catalog_text()
    for seed in (0, 7):
        assert inputs.scan_window(seed) == inputs.scan_window(seed)
        assert inputs.synth_store(seed) == inputs.synth_store(seed)
        assert inputs.products(seed, cat) == inputs.products(seed, cat)
        assert inputs.oracle_sample(seed, list(range(100))) == \
            inputs.oracle_sample(seed, list(range(100)))
    assert inputs.synth_store(0)[0] != inputs.synth_store(1)[0]
    assert inputs.scan_window(0) != inputs.scan_window(1)


def test_scan_window_stays_in_band_and_table_range():
    for seed in range(20):
        lo, hi, window = inputs.scan_window(seed)
        assert len(window) == inputs.SCAN_COUNT
        assert window == quadform.fundamental_discriminants(lo, hi)
        assert inputs.TABLE_LO <= lo and hi <= inputs.SCAN_BAND_HI


def test_synthetic_store_parses_with_exactly_the_injected_problems(tmp_path):
    text, tally, corrupt = inputs.synth_store(3)
    path = tmp_path / "store.tsv"
    path.write_text(text, encoding="utf-8")
    records, problems = read_store(str(path))
    assert [lineno for lineno, _ in problems] == corrupt
    assert len(corrupt) == inputs.STORE_CORRUPT
    assert len(records) == sum(tally.values())
    assert len({r.key() for r in records}) == len(records)
    counted = {}
    for r in records:
        counted[(r.prime, r.rank)] = counted.get((r.prime, r.rank), 0) + 1
    assert counted == tally
    ds = sorted({r.discriminant for r in records})
    assert ds == quadform.fundamental_discriminants(inputs.STORE_LO, -3)


def test_oracles_agree_with_capkit():
    assert inputs.fundamental_discriminants(-20000, -3) == \
        quadform.fundamental_discriminants(-20000, -3)
    for d in range(-3, -2500, -1):
        if quadform.is_discriminant(d):
            assert inputs.class_number(d) == \
                quadform.class_number(quadform.Discriminant(d)), d


def test_products_are_consistent_direct_products():
    cat = catalog_text()
    base = parse_catalog(cat)
    picks, text = inputs.products(5, cat)
    groups = parse_catalog(text)
    assert list(groups) == [name for name, _, _ in picks]
    for name, g, k in picks:
        G = groups[name]
        assert G.order == base[g].order * G.p ** k
        want = sorted(base[g].abelianization()[0].invariant_factors
                      + (G.p ** k,))
        assert list(G.abelianization()[0].invariant_factors) == want


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)


def test_self_time_excludes_children():
    spans = [
        [0, -1, "a", 0.0, 10.0, 0],
        [1, 0, "b", 1.0, 4.0, 5],
        [2, 1, "b", 2.0, 3.0, 1],
        [3, 0, "c", 5.0, 9.0, 0],
    ]
    agg = tracer.aggregate(spans)
    assert agg["a"]["self_s"] == 3.0
    assert agg["b"]["self_s"] == 3.0 and agg["b"]["total_s"] == 3.0
    assert agg["b"]["calls"] == 2 and agg["b"]["count"] == 6
    assert agg["c"]["self_s"] == 4.0


def test_malformed_report_tsv_is_a_failed_check_not_a_crash():
    assert run.parse_report_tsv("prime\trank\tcount\n5\t0\t12\n") == \
        {(5, 0): 12}
    for bad in ("prime\trank\tcount\n5\tx\t12\n", "prime\trank\tcount\n5\t0\n"):
        assert run.parse_report_tsv(bad) is None
