"""Command-line surface: class group lookup, resumable discriminant scan
with a persistent record store, verification of the packaged discriminant
table, transfer-kernel patterns for catalog groups, the rank heuristic and
a store report."""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from enum import Enum
from itertools import groupby
from operator import attrgetter

# fixtures and heuristics (hashlib, fractions, decimal, random) are imported
# by the commands that use them; the modules below stay at module level, so
# the benchmark's tracer finds their names when it wraps them
from .abgroup import is_prime
from .catalog import CatalogError, get_group, load_catalog
from .pcgroup import PresentationError, capitulation_type
from .quadform import (MAX_ABS_DISC, Discriminant, QuadFormError,
                       class_group_structure, class_group_structures,
                       fundamental_discriminants)
from .store import ScanRecord, append_records, now_timestamp, read_store

DEFAULT_STORE = "capkit-scan.tsv"


class PatternClass(Enum):
    ONE_ONE = "OneOne"
    P_CAPITULATION = "PCapitulation"
    OTHER = "Other"


def classify_capitulation_pattern(pattern, p=5):
    """OneOne when the entries are a permutation of 1..p+1, PCapitulation
    when exactly p of the p+1 entries coincide, Other otherwise."""
    pattern = tuple(pattern)
    if len(pattern) != p + 1:
        raise ValueError("pattern must have %d entries" % (p + 1))
    for x in pattern:
        if not 1 <= x <= p + 1:
            raise ValueError("pattern entry %r out of range 1..%d" % (x, p + 1))
    if sorted(pattern) == list(range(1, p + 2)):
        return PatternClass.ONE_ONE
    if max(Counter(pattern).values()) == p:
        return PatternClass.P_CAPITULATION
    return PatternClass.OTHER


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Integers of D per reduced-form sieve pass in `scan`.  Each pass visits
# about amax^2/8 pairs (a, c), amax = sqrt(|D|/3), however few forms it
# finds; wider chunks share that fixed cost but hold more forms at once.
SCAN_CHUNK = 256


def _pending_chunks(lo, hi, p, done):
    """(discriminants, p) per chunk of SCAN_CHUNK consecutive integers: the
    fundamental discriminants in [lo, hi] that are not in `done`, the
    discriminants already stored for p."""
    chunks = {}
    for d in fundamental_discriminants(lo, hi):
        if d not in done:
            chunks.setdefault((d - lo) // SCAN_CHUNK, []).append(d)
    return [(discs, p) for discs in chunks.values()]


def _scan_chunk(args):
    discs, p = args
    return [ScanRecord(s.discriminant.value, s.order, s.invariant_factors, p,
                       s.group.rank(p), now_timestamp())
            for s in class_group_structures(discs)]


def _scan_parts(work, jobs):
    """The records of each chunk of work, in order, as they are computed."""
    if jobs > 1 and work:
        import multiprocessing  # only --jobs > 1 pays for the import
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(_scan_chunk, work)
    else:
        yield from map(_scan_chunk, work)


# Every class number in range is below this, so a larger p gives rank 0;
# the bound also keeps the trial-division primality test short.
MAX_PRIME = 10 ** 8


def _load_store(path):
    """The records of the store at path, its skipped lines reported on
    stderr; None, after an error message, when the path cannot be read."""
    try:
        records, problems = read_store(path)
    except OSError as exc:
        print("error: cannot read store %s: %s"
              % (path, exc.strerror or exc), file=sys.stderr)
        return None
    for lineno, msg in problems:
        print("store line %d skipped: %s" % (lineno, msg), file=sys.stderr)
    return records


def _write_error(path, exc):
    print("error: cannot write store %s: %s"
          % (path, exc.strerror or exc), file=sys.stderr)
    return 2


def cmd_classgroup(ns, out):
    try:
        D = Discriminant(ns.D)
        s = class_group_structure(D)
    except QuadFormError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    invs = " x ".join("C%d" % d for d in s.invariant_factors) or "C1"
    print("D = %d%s" % (D.value, "" if D.is_fundamental else " (not fundamental)"),
          file=out)
    print("h = %d" % s.order, file=out)
    print("Cl = %s" % invs, file=out)
    for p in (2, 3, 5, 7):
        print("%d-rank = %d" % (p, s.group.rank(p)), file=out)
    return 0


def cmd_scan(ns, out):
    lo, hi = ns.lo, ns.hi
    if lo > hi:
        lo, hi = hi, lo
    if not (ns.prime <= MAX_PRIME and is_prime(ns.prime)):
        print("error: --prime must be a prime <= %d, got %d"
              % (MAX_PRIME, ns.prime), file=sys.stderr)
        return 2
    cpus = os.cpu_count() or 1
    if not 1 <= ns.jobs <= cpus:
        print("error: --jobs must be between 1 and %d, got %d"
              % (cpus, ns.jobs), file=sys.stderr)
        return 2
    if lo < -MAX_ABS_DISC:
        print("error: scan range reaches below -%d, got %d"
              % (MAX_ABS_DISC, lo), file=sys.stderr)
        return 2
    store_dir = os.path.dirname(ns.store) or os.curdir
    if not os.path.isdir(store_dir):
        print("error: store directory %s does not exist or is not a "
              "directory" % store_dir, file=sys.stderr)
        return 2
    existing = _load_store(ns.store)
    if existing is None:
        return 2
    done, relevant = set(), []
    for r in existing:
        if r.prime == ns.prime:
            done.add(r.discriminant)
            if lo <= r.discriminant <= hi:
                relevant.append(r)
    work = _pending_chunks(lo, hi, ns.prime, done)
    if work:
        try:  # fail before computing anything, not after
            open(ns.store, "a", encoding="utf-8").close()
        except OSError as exc:
            return _write_error(ns.store, exc)

    # each chunk is stored as it arrives, so a killed scan keeps the chunks
    # before it and a resume computes only the rest
    fresh = []
    parts = _scan_parts(work, ns.jobs)
    for part in parts:
        try:
            append_records(ns.store, part)
        except OSError as exc:
            parts.close()
            return _write_error(ns.store, exc)
        fresh += part

    relevant += fresh
    hist = Counter(r.rank for r in relevant)
    hits = sorted((r for r in relevant if r.rank >= ns.min_rank),
                  key=lambda r: -r.discriminant)
    for r in hits:
        print("%d\th=%d\trank=%d" % (r.discriminant, r.class_number, r.rank),
              file=out)
    print("scanned %d discriminants (%d new); rank histogram: %s"
          % (len(relevant), len(fresh),
             " ".join("%d:%d" % kv for kv in sorted(hist.items()))), file=out)

    if ns.prime == 5 and ns.min_rank <= 2:
        from .fixtures import reference_table
        known = {row.discriminant for row in reference_table()}
        table_lo, table_hi = min(known), max(known)
        extra = [r.discriminant for r in hits
                 if r.rank == 2 and table_lo <= r.discriminant <= table_hi
                 and r.discriminant not in known]
        for d in sorted(extra, reverse=True):
            print("informational: %d has 5-rank 2 but is not a tabulated "
                  "discriminant" % d, file=out)
    return 0


def cmd_verify_table(ns, out):
    from .fixtures import reference_table
    conflicts = 0
    print("row\tD\trank\tpattern\tclass\tverdict", file=out)
    for row in reference_table():
        s = class_group_structure(Discriminant(row.discriminant))
        rank = s.group.rank(5)
        cls = classify_capitulation_pattern(row.pattern).value
        if rank == 2:
            verdict = "ok"
        else:
            verdict = "CONFLICT: recomputed 5-rank %d, table implies 2" % rank
            conflicts += 1
        print("%d\t%d\t%d\t(%s)\t%s\t%s"
              % (row.number, row.discriminant, rank,
                 ",".join(map(str, row.pattern)), cls, verdict), file=out)
    print("%d rows, %d conflicts" % (len(reference_table()), conflicts), file=out)
    return 0 if conflicts == 0 else 1


def cmd_tkt(ns, out):
    try:
        G = get_group(ns.group)
    except CatalogError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        entries = capitulation_type(G)
    except PresentationError as exc:
        print("error: %s: %s" % (G.name, exc), file=sys.stderr)
        return 2
    print("group %s (order %d, p = %d)" % (G.name, G.order, G.p), file=out)
    codes = []
    for e in entries:
        desc = "full" if e.code == 0 else \
            ("line %d" % e.code if e.code else "nonstandard")
        print("subgroup %d: kernel order %d (%s)"
              % (e.subgroup_no, e.kernel.order(), desc), file=out)
        codes.append("?" if e.code is None else str(e.code))
    print("pattern: (%s)" % ",".join(codes), file=out)
    return 0


def cmd_heuristic(ns, out):
    from .fixtures import PUBLISHED_EMPIRICAL_P3, PUBLISHED_HEURISTIC_P3
    from .heuristics import HeuristicsError, predicted_rank_distribution
    try:
        dist = predicted_rank_distribution(ns.p)
    except HeuristicsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    have_refs = ns.p == 3
    header = ["rank", "model"]
    if have_refs:
        header += ["published-model", "published-empirical"]
    print("\t".join(header), file=out)
    for k in (1, 2, 3):
        cells = [str(2 * k), "%.4f" % float(dist.mass(2 * k))]
        if have_refs:
            cells.append("%.4f" % float(PUBLISHED_HEURISTIC_P3[k - 1]))
            cells.append("%.4f" % float(PUBLISHED_EMPIRICAL_P3[k - 1]))
        print("\t".join(cells), file=out)
    return 0


def cmd_report(ns, out):
    records = _load_store(ns.store)
    if records is None:
        return 2
    if not records:
        print("0 records", file=out)
        return 0
    hist = sorted(Counter(map(attrgetter("prime", "rank"), records)).items())
    if ns.tsv:
        print("prime\trank\tcount", file=out)
        for (p, rank), n in hist:
            print("%d\t%d\t%d" % (p, rank, n), file=out)
        return 0
    print("%d records in %s" % (len(records), ns.store), file=out)
    for p, cells in groupby(hist, key=lambda cell: cell[0][0]):
        cells = [(rank, n) for (_, rank), n in cells]
        line = " ".join("rank %d: %d" % cell for cell in cells)
        print("p = %d (%d records): %s"
              % (p, sum(n for _, n in cells), line), file=out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="capkit",
        description="class groups, discriminant scans and transfer kernels")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="class group of one discriminant")
    p.add_argument("D", type=int)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("scan", help="scan fundamental discriminants, persist records")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--prime", type=int, default=5)
    p.add_argument("--min-rank", type=int, default=2)
    p.add_argument("--store", default=DEFAULT_STORE)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-table", help="recheck the packaged table")
    p.set_defaults(func=cmd_verify_table)

    p = sub.add_parser("tkt", help="transfer-kernel pattern of a catalog group")
    p.add_argument("group", help="name, one of: " + ", ".join(load_catalog()))
    p.set_defaults(func=cmd_tkt)

    p = sub.add_parser("heuristic", help="predicted even-rank distribution")
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("report", help="aggregate the record store")
    p.add_argument("--store", default=DEFAULT_STORE)
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None, out=None):
    try:  # the parser lists the catalog's groups, so it loads the catalog
        parser = build_parser()
    except CatalogError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    ns = parser.parse_args(argv)
    return ns.func(ns, out if out is not None else sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
