#!/usr/bin/env python3
"""The capkit benchmark.

    python3 perfbench/run.py --workload {scan,store-read,catalog-tkt} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a capkit checkout: the program is taken from
./src, never from an installed copy.  --seed fixes every generated input;
the program only receives the generated command-line arguments, store file
and catalog text.  Each invocation of capkit runs in a fresh process, with
its files under ./.perfbench_work, which is removed at the end.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md).  End-to-end
times are medians over the run, in reference-speed seconds (REF_LOOP_S).
Every output is checked; an operation fails on a nonzero exit or a failed
check.  Standard output ends with one JSON line {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from math import prod
from statistics import median

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ALL_CPUS = os.sched_getaffinity(0)
BENCH_CPU = max(ALL_CPUS)
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
PY = sys.executable

PROC_TIMEOUT = 60       # seconds; a slower invocation is killed and fails
RUN_LIMIT = 160         # seconds; past this, every invocation is killed at
                        # once, so that a run ends within 180 s
SETUP_PROBES = 5        # fresh `capkit --help` processes per run

# Times are reported in reference-speed seconds: a process's wall time
# scaled by REF_LOOP_S over the mean time of reference_loop() just before
# and just after it, on the same CPU.  On a shared host each CPU's speed
# drifts by up to 60% over stretches of a fraction of a second to tens of
# minutes, whatever the benchmark does, and a run of the same code reads
# that much slower; the loop slows with it, while capkit's own cost is left
# in the ratio.  The benchmark and every process it starts are pinned to one
# CPU (except the --jobs 2 scan, which gets them all), so that the loop
# measures the CPU the program ran on.  REF_LOOP_S is about the loop's time
# on a quiet Intel Xeon vCPU at 2.1 GHz.
REF_LOOP_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("op1_s", "s"),
    ("op2_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Spans that must fire in each workload's traced run.
SETUP_SPANS = ("cli.main", "cli.build_parser", "catalog.parse_catalog",
               "pcgroup.build")
EXPECTED_SPANS = {
    "scan": SETUP_SPANS + (
        "cli.cmd_scan", "quadform.fundamental_discriminants",
        "quadform.class_group_structure", "abgroup.abelian_structure",
        "abgroup.smith_normal_form", "store.read_store",
        "store.append_records"),
    "store-read": SETUP_SPANS + (
        "cli.cmd_scan", "cli.cmd_report", "quadform.fundamental_discriminants",
        "store.read_store"),
    "catalog-tkt": SETUP_SPANS + (
        "pcgroup.capitulation_type", "pcgroup.transfer", "pcgroup.derived_of",
        "pcgroup.derived_subgroup", "pcgroup.quotient_structure",
        "pcgroup.schreier_transversal",
        "pcgroup.subgroups_index_p_above_derived",
        "abgroup.abelian_structure", "abgroup.smith_normal_form",
        "gmodule.catalog_relative_data", "gmodule.make_relative_datum",
        "gmodule.check_invariants", "gmodule.classify_growth"),
}


def _per_layer_spec():
    spec = []
    for name in tracer.SPAN_NAMES:
        spec.append((name + ".calls", "count"))
        spec.append((name + ".self_s", "s"))
    spec += [
        ("cli.build_parser.s", "s"),
        ("catalog.parse_catalog.s", "s"),
        ("pcgroup.build.s", "s"),
        ("pcgroup.build.max_s", "s"),
        ("cli.pool_efficiency", "ratio"),
        ("quadform.fundamental_discriminants.integers", "count"),
        ("quadform.class_number_sum", "count"),
        ("abgroup.abelian_structure.elements", "count"),
        ("store.read_store.records", "count"),
        ("store.read_store.problems", "count"),
        ("store.append_records.records", "count"),
        ("pcgroup.derived_of.per_transfer", "ratio"),
        ("quadform.class_group_structure.us_per_disc", "us"),
        ("store.read_store.us_per_record", "us"),
        ("tracing.wall_s", "s"),
        ("tracing.named_self_frac", "frac"),
        ("tracing.overhead_frac", "frac"),
    ]
    return tuple(spec)


PER_LAYER = _per_layer_spec()


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python work (integer
    arithmetic and a dict, like capkit's inner loops), long enough to
    average over the host's sub-second speed changes."""
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(2_000_000):
        s += (i * i) % 7
        d[i & 1023] = s
    return time.perf_counter() - t0


def sha256_file(path):
    """The file's sha256, or None if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

class Bench:
    """Runs program processes, counts operations and failures, and keeps
    the per-layer spans of traced processes."""

    def __init__(self, work, seconds, trace):
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.passes = 0
        self.spans = {}          # aggregated over traced processes
        self.build_max_s = 0.0
        self.traced_wall = 0.0
        self.ref_s = []          # reference_loop() times, two per process
        self.wall = 0.0          # raw wall seconds of the last process
        self.scale = 1.0         # its wall-to-reference-speed factor
        self.deadline = time.perf_counter() + RUN_LIMIT

    def path(self, name):
        return os.path.join(self.work, name)

    def run(self, argv, all_cpus=False):
        """(reference-speed seconds, exit code, stdout, stderr) of argv in a
        fresh process group, which is killed if it outlives PROC_TIMEOUT or
        the run's deadline.  The process runs on the benchmark's CPU, or
        with all_cpus on every CPU the benchmark was given.  The raw wall
        time is left in self.wall."""
        before = reference_loop()
        widen = (lambda: os.sched_setaffinity(0, ALL_CPUS)) if all_cpus \
            else None
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True, preexec_fn=widen)
        timeout = max(0.1, min(PROC_TIMEOUT, self.deadline - t0))
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += "\n[killed after %.1f s]" % timeout
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        self.wall = time.perf_counter() - t0
        after = reference_loop()
        self.ref_s += [before, after]
        self.scale = REF_LOOP_S / ((before + after) / 2)
        return self.wall * self.scale, proc.returncode, out, err

    def cli(self, args, traced=False, all_cpus=False):
        """Run `capkit <args>`, optionally under the tracer."""
        if not traced:
            return self.run([PY, "-m", "capkit.cli"] + args, all_cpus)
        spans = self.path("spans.json")
        res = self.run([PY, os.path.join(HERE, "traced_cli.py"), spans, "--"]
                       + args)
        self.add_spans(spans, self.wall)
        return res

    def add_spans(self, spans_path, wall):
        """Fold the spans a traced process wrote into the run's totals."""
        try:
            doc = tracer.load(spans_path)
            os.remove(spans_path)
        except (OSError, ValueError):
            return      # a span that should have fired is reported missing
        for name, agg in tracer.aggregate(doc["spans"]).items():
            tot = self.spans.setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                tot[k] += v
        self.build_max_s = max(self.build_max_s,
                               tracer.max_duration(doc["spans"],
                                                   "pcgroup.build"))
        self.traced_wall += wall

    def record(self, what, problems):
        """Count one operation; it fails if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print("FAILED %s: %s" % (what, p), file=sys.stderr)

    def setup_probe(self, traced=False):
        wall, rc, out, err = self.cli(["--help"], traced)
        self.record("capkit --help",
                    [] if rc == 0 and out.startswith("usage: capkit")
                    else ["exit %s: %s" % (rc, err.strip()[-300:])])
        return wall

    def loop(self, body):
        """Measure from now on: call body(i) for i = 0, 1, ... until the
        run's seconds are spent, each repetition preceded by one setup
        probe, so that the probes sample the same stretch of time as the
        workload; a repetition that could end past the seconds (judged by
        the slowest so far) is not started.  Returns the setup probe times,
        topped up to SETUP_PROBES."""
        start = time.perf_counter()
        setup, reps = [], []
        while True:
            t0 = time.perf_counter()
            setup.append(self.setup_probe(self.trace))
            body(len(reps))
            reps.append(time.perf_counter() - t0)
            if time.perf_counter() - start + max(reps) > self.seconds:
                break
        while not self.trace and len(setup) < SETUP_PROBES:
            setup.append(self.setup_probe())
        self.passes = len(reps)
        return setup


def skipped(err):
    """Line numbers of the store lines capkit reported as skipped."""
    return [int(m) for m in re.findall(r"store line (\d+) skipped", err)]


def exit_problem(rc, err):
    return [] if rc == 0 else ["exit %s: %s" % (rc, err.strip()[-300:])]


# ---------------------------------------------------------------------------
# workload: scan
# ---------------------------------------------------------------------------

def read_payloads(path):
    """(payloads, problems) from a store file, parsed here and not by
    capkit: one (D, h, invariant factors, p, rank) per record line."""
    payloads, problems = [], []
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        return payloads, ["store %s missing" % os.path.basename(path)]
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            try:
                d, h, invs, p, rank = (int(parts[0]), int(parts[1]),
                                       parts[2], int(parts[3]), int(parts[4]))
                invs = () if invs == "1" else tuple(map(int, invs.split(",")))
            except (IndexError, ValueError):
                problems.append("line %d unparsable" % lineno)
                continue
            if len(parts) != 6:
                problems.append("line %d has %d fields" % (lineno, len(parts)))
            payloads.append((d, h, invs, p, rank))
    return payloads, problems


def check_scan_records(payloads, expected, oracle, refs):
    problems = []
    seen = [pl[0] for pl in payloads]
    if len(seen) != len(set(seen)):
        problems.append("duplicate records")
    if set(seen) != expected:
        problems.append("%d records, %d discriminants expected; sets differ"
                        % (len(seen), len(expected)))
    for d, h, invs, p, rank in payloads:
        chain = all(x >= 2 for x in invs) and \
            all(b % a == 0 for a, b in zip(invs, invs[1:]))
        if p != 5 or not chain or prod(invs) != h or \
                rank != sum(1 for x in invs if x % 5 == 0):
            problems.append("inconsistent record for %d" % d)
        if d in oracle and oracle[d] != h:
            problems.append("h(%d) = %d, independent count gives %d"
                            % (d, h, oracle[d]))
        if d in refs and rank != 2:
            problems.append("table discriminant %d has 5-rank %d" % (d, rank))
    return problems


def workload_scan(b, seed, trace):
    lo, hi, window = inputs.scan_window(seed)
    expected = set(window)
    oracle = {d: inputs.class_number(d)
              for d in inputs.oracle_sample(seed, window)}
    from capkit.fixtures import reference_discriminants
    refs = {d for d in reference_discriminants() if lo <= d <= hi}
    recorded = load_digests()["scan"].get(str(seed))
    store = b.path("scan.tsv")
    summary = "scanned %d discriminants (%d new)" % (len(window), len(window))
    walls = {"serial": [], "jobs2": [], "traced": [], "resume": []}
    sums = []

    def scan(kind):
        if os.path.exists(store):
            os.remove(store)
        args = ["scan", "--prime", "5", "--store", store]
        if kind == "jobs2":
            args += ["--jobs", "2"]
        wall, rc, out, err = b.cli(args + ["--", str(lo), str(hi)],
                                   traced=kind == "traced",
                                   all_cpus=kind == "jobs2")
        walls[kind].append(wall)
        payloads, problems = read_payloads(store)
        problems += exit_problem(rc, err)
        if summary not in out:
            problems.append("summary line %r missing" % summary)
        problems += check_scan_records(payloads, expected, oracle, refs)
        digest = inputs.payload_digest(payloads)
        if recorded is not None and digest != recorded:
            problems.append("payload digest %s, recorded %s"
                            % (digest, recorded))
        b.digests.setdefault("scan", digest)
        if digest != b.digests["scan"]:
            problems.append("payloads differ from the run's first scan")
        sums.append(sum(pl[1] for pl in payloads))
        b.record("scan " + kind, problems)

    def resume():
        """Re-run the finished scan: nothing new to compute or store."""
        before = sha256_file(store)
        wall, rc, out, err = b.cli(["scan", "--prime", "5", "--store", store,
                                    "--", str(lo), str(hi)])
        walls["resume"].append(wall)
        problems = exit_problem(rc, err)
        if "scanned %d discriminants (0 new)" % len(window) not in out:
            problems.append("resume was not a no-op")
        if sha256_file(store) != before:
            problems.append("resume changed the store")
        b.record("scan resume", problems)

    if not trace:
        # --jobs 2 once, for its payloads: on a 2-CPU host its time depends
        # on both CPUs being quiet at once and spread too much to carry a
        # bound; the traced run reports it as cli.pool_efficiency.
        scan("jobs2")
        setup = b.loop(lambda i: (scan("serial"), resume()))
        return {"setup_s": median(setup), "op1_s": median(walls["serial"]),
                "op2_s": median(walls["resume"])}

    def rep(i):
        for k in (("serial", "traced") if i % 2 == 0 else ("traced", "serial")):
            scan(k)
        scan("jobs2")

    b.loop(rep)
    return per_layer(b, "scan", {
        "cli.pool_efficiency":
            median(walls["serial"]) / (2 * median(walls["jobs2"])),
        "quadform.class_number_sum": sums[0],
        "store.read_store.problems": 0,
        "tracing.overhead_frac":
            median(walls["traced"]) / median(walls["serial"]) - 1,
    })


# ---------------------------------------------------------------------------
# workload: store-read
# ---------------------------------------------------------------------------

def parse_report(out):
    """{(p, rank): count} and the record total from `capkit report`."""
    hist, total = {}, None
    for line in out.splitlines():
        m = re.match(r"^(\d+) records in ", line)
        if m:
            total = int(m.group(1))
        m = re.match(r"^p = (\d+) \(\d+ records\): (.*)$", line)
        if m:
            for r, n in re.findall(r"rank (\d+): (\d+)", m.group(2)):
                hist[(int(m.group(1)), int(r))] = int(n)
    return hist, total


def parse_report_tsv(out):
    lines = out.splitlines()
    if not lines or lines[0] != "prime\trank\tcount":
        return None
    hist = {}
    try:
        for line in lines[1:]:
            p, r, n = map(int, line.split("\t"))
            hist[(p, r)] = n
    except ValueError:
        return None
    return hist


def workload_store_read(b, seed, trace):
    text, tally, corrupt = inputs.synth_store(seed)
    store = b.path("store.tsv")
    with open(store, "w", encoding="utf-8") as fh:
        fh.write(text)
    before = sha256_file(store)
    b.digests["store"] = before
    n5 = sum(n for (p, _), n in tally.items() if p == 5)
    total = sum(tally.values())
    walls = {"resume": [], "report": [], "resume-traced": [],
             "report-traced": []}
    traced_skips = []

    def common(rc, err, traced):
        if traced:
            traced_skips.append(len(skipped(err)))
        problems = exit_problem(rc, err)
        if skipped(err) != corrupt:
            problems.append("skipped lines %s, injected %s"
                            % (skipped(err), corrupt))
        if sha256_file(store) != before:
            problems.append("store changed")
        return problems

    def resume(traced=False):
        wall, rc, out, err = b.cli(
            ["scan", "--prime", "5", "--store", store, "--",
             str(inputs.STORE_LO), "-3"], traced)
        walls["resume-traced" if traced else "resume"].append(wall)
        problems = common(rc, err, traced)
        if "scanned %d discriminants (0 new)" % n5 not in out:
            problems.append("resume was not a no-op over %d records" % n5)
        b.record("resume", problems)

    def report(traced=False):
        wall, rc, out, err = b.cli(["report", "--store", store], traced)
        walls["report-traced" if traced else "report"].append(wall)
        problems = common(rc, err, traced)
        hist, n = parse_report(out)
        if hist != tally or n != total:
            problems.append("report histogram differs from the generator's")
        b.digests.setdefault("report", hashlib.sha256(
            out.replace(store, "STORE").encode()).hexdigest())
        b.record("report", problems)

    wall, rc, out, err = b.cli(["report", "--store", store, "--tsv"])
    problems = common(rc, err, False)
    if parse_report_tsv(out) != tally:
        problems.append("report --tsv table differs from the generator's")
    b.record("report --tsv", problems)

    if not trace:
        setup = b.loop(lambda i: (resume(), report()) if i % 2 == 0
                       else (report(), resume()))
        return {"setup_s": median(setup), "op1_s": median(walls["resume"]),
                "op2_s": median(walls["report"])}

    def rep(i):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            resume(traced)
            report(traced)

    b.loop(rep)
    untraced = median(walls["resume"]) + median(walls["report"])
    traced = median(walls["resume-traced"]) + median(walls["report-traced"])
    return per_layer(b, "store-read", {
        "cli.pool_efficiency": 0,
        "quadform.class_number_sum": 0,
        "store.read_store.problems": sum(traced_skips) / b.passes,
        "tracing.overhead_frac": traced / untraced - 1,
    })


# ---------------------------------------------------------------------------
# workload: catalog-tkt
# ---------------------------------------------------------------------------

def group_digest(results, names):
    rows = [[n, results[n]["abelianization"], results[n]["pattern"],
             results[n]["kernel_orders"], results[n]["growth"]]
            for n in names]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def workload_catalog_tkt(b, seed, trace):
    with open(os.path.join(SRC, "capkit", "data", "catalog.txt"),
              encoding="utf-8") as fh:
        catalog_text = fh.read()
    picks, ptext = inputs.products(seed, catalog_text)
    blocks = inputs.catalog_blocks(catalog_text)
    products = b.path("products.txt")
    with open(products, "w", encoding="utf-8") as fh:
        fh.write(ptext)
    digests = load_digests()
    walls = {"session": [], "traced": [], "analysis": []}

    def session(traced=False):
        result = b.path("session.json")
        spans = b.path("spans.json")
        if os.path.exists(result):
            os.remove(result)
        argv = [PY, os.path.join(HERE, "catalog_session.py"), products, result]
        wall, rc, out, err = b.run(argv + ([spans] if traced else []))
        scale = b.scale
        if traced:
            b.add_spans(spans, b.wall)
        walls["traced" if traced else "session"].append(wall)
        problems = exit_problem(rc, err)
        if rc == 0:
            try:
                problems += check_session(result, scale)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append("result unreadable: %r" % exc)
        b.record("catalog-tkt session", problems)

    def check_session(result_path, scale):
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        groups = res["groups"]
        if not trace:
            walls["analysis"].append(res["analysis_s"] * scale)
        problems = ["%s: %s" % (n, g["problems"]) for n, g in groups.items()
                    if any(g["problems"])]
        product_names = [name for name, _, _ in picks]
        packaged = [n for n in groups if n not in product_names]
        digest = group_digest(groups, packaged)
        b.digests.setdefault("catalog_packaged", digest)
        if digest != digests["catalog_packaged"]:
            problems.append("packaged TKT/growth digest %s, recorded %s"
                            % (digest, digests["catalog_packaged"]))
        for name, base, k in picks:
            g = groups.get(name)
            if g is None or base not in groups:
                problems.append("%s or %s missing" % (name, base))
                continue
            p = blocks[base][0]
            want = sorted(groups[base]["abelianization"] + [p ** k])
            if g["order"] != groups[base]["order"] * p ** k or \
                    g["abelianization"] != want:
                problems.append("%s: order %d, G/G' %s; expected %s"
                                % (name, g["order"], g["abelianization"],
                                   want))
            recorded = digests["catalog_products"].get(name)
            d = group_digest(groups, [name])
            b.digests.setdefault(name, d)
            if recorded is not None and d != recorded:
                problems.append("%s digest %s, recorded %s"
                                % (name, d, recorded))
        return problems

    if not trace:
        setup = b.loop(lambda i: session())
        return {"setup_s": median(setup), "op1_s": median(walls["session"]),
                "op2_s": median(walls["analysis"] or walls["session"])}

    b.loop(lambda i: [session(traced) for traced in (
        (False, True) if i % 2 == 0 else (True, False))])
    return per_layer(b, "catalog-tkt", {
        "cli.pool_efficiency": 0,
        "quadform.class_number_sum": 0,
        "store.read_store.problems": 0,
        "tracing.overhead_frac":
            median(walls["traced"]) / median(walls["session"]) - 1,
    })


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(b, workload, extra):
    """Per-layer metrics of the traced processes, per traced pass.  Self
    times are seconds, so that speeding up one layer leaves the others'
    figures alone; a span a workload never calls reads 0 s."""
    missing = [n for n in EXPECTED_SPANS[workload]
               if b.spans.get(n, {}).get("calls", 0) == 0]
    if missing:
        raise BenchError("spans never fired on %s: %s"
                         % (workload, ", ".join(missing)))
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0}
    passes = b.passes
    span = {n: b.spans.get(n, zero) for n in tracer.SPAN_NAMES}
    wall = b.traced_wall

    def per_pass(x):
        x = x / passes
        return int(x) if x == int(x) else x

    def per_item(agg, key):
        return 1e6 * agg["self_s"] / agg[key] if agg[key] else 0

    m = {}
    for n in tracer.SPAN_NAMES:
        m[n + ".calls"] = per_pass(span[n]["calls"])
        m[n + ".self_s"] = span[n]["self_s"] / passes
    for n in ("cli.build_parser", "catalog.parse_catalog", "pcgroup.build"):
        m[n + ".s"] = span[n]["total_s"] / passes
    transfers = span["pcgroup.transfer"]["calls"]
    m.update({
        "pcgroup.build.max_s": b.build_max_s,
        "quadform.fundamental_discriminants.integers":
            per_pass(span["quadform.fundamental_discriminants"]["count"]),
        "abgroup.abelian_structure.elements":
            per_pass(span["abgroup.abelian_structure"]["count"]),
        "store.read_store.records":
            per_pass(span["store.read_store"]["count"]),
        "store.append_records.records":
            per_pass(span["store.append_records"]["count"]),
        "pcgroup.derived_of.per_transfer":
            span["pcgroup.derived_of"]["calls"] / transfers if transfers else 0,
        "quadform.class_group_structure.us_per_disc":
            per_item(span["quadform.class_group_structure"], "calls"),
        "store.read_store.us_per_record":
            per_item(span["store.read_store"], "count"),
        "tracing.wall_s": wall / passes,
        "tracing.named_self_frac":
            sum(s["self_s"] for s in span.values()) / wall,
    })
    m.update(extra)
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

WORKLOADS = {
    "scan": workload_scan,
    "store-read": workload_store_read,
    "catalog-tkt": workload_catalog_tkt,
}


def environment():
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu": BENCH_CPU,
            "python": platform.python_version(),
            "sympy": sympy, "commit": commit,
            "loadavg_start": list(os.getloadavg())}


def main(argv=None):
    ap = argparse.ArgumentParser(description="capkit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "capkit", "cli.py")):
        print("error: no capkit source at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.sched_setaffinity(0, {BENCH_CPU})
    env = environment()

    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    b = Bench(work, args.seconds, bool(args.trace))
    try:
        # Compile once, so that no timed process writes bytecode; the
        # import and catalog load stay inside every timing, as users pay
        # them on each invocation.
        subprocess.run([PY, "-m", "compileall", "-q", SRC, HERE], check=True,
                       stdout=subprocess.DEVNULL)
        metrics = WORKLOADS[args.workload](b, args.seed, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    spec = PER_LAYER if args.trace else END_TO_END
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in spec}
    env.update(loadavg_end=list(os.getloadavg()), digests=b.digests,
               reference_loop_s=median(b.ref_s),
               workload=args.workload, seed=args.seed, trace=args.trace)
    for name, unit in spec:
        print("%-48s %14.6g %s" % (name, metrics[name], unit))
    print("failed_frac %.6g (%d of %d operations)"
          % (b.failed / b.attempted, b.failed, b.attempted))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": b.failed == 0, "attempted": b.attempted,
                      "failed": b.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
