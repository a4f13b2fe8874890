"""Command-line surface: class group lookup, resumable discriminant scan
with a persistent record store, verification of the packaged discriminant
table, transfer-kernel patterns for catalog groups, the rank heuristic and
a store report."""

from __future__ import annotations

import argparse
import os
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from itertools import chain, groupby
from math import isqrt
from operator import itemgetter

# fixtures and heuristics (fractions, decimal, random) are imported
# by the commands that use them; the modules below stay at module level, so
# the benchmark's tracer finds their names when it wraps them
from .abgroup import check_prime
from .catalog import CatalogError, get_group, load_catalog
from .pcgroup import PresentationError, capitulation_type
from .quadform import (MAX_ABS_DISC, Discriminant, QuadFormError,
                       class_group_structure, class_group_structures,
                       fundamental_discriminants)
from .store import (ScanRecord, append_records, count_store, now_timestamp,
                    read_store)

DEFAULT_STORE = "capkit-scan.tsv"
TABLE_PRIME = 5  # the prime of the packaged table and of its patterns


class Refused(Exception):
    """Bad input: `main` prints `error: <message>` and exits 2."""


class PatternClass(Enum):
    ONE_ONE = "OneOne"
    P_CAPITULATION = "PCapitulation"
    OTHER = "Other"


def classify_capitulation_pattern(pattern):
    """OneOne when the entries are a permutation of 1..p+1, PCapitulation
    when exactly p of the p+1 entries coincide, Other otherwise (p = 5)."""
    p, pattern = TABLE_PRIME, tuple(pattern)
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

def _chunk_width(lo):
    """Integers of D per counting-sieve pass in a scan down to lo.  Each
    pass walks about amax^2/8 pairs (a, c), amax = sqrt(|lo|/3), however
    few discriminants it counts, plus about 0.13 sqrt(|lo|) slot updates
    per integer, and holds one counter and one structure per integer or
    discriminant.  At 8 sqrt(|lo|) integers the pairs are about a fifth of
    a pass.  Near -10^7, 4 sqrt(|lo|) gave 7-12% fewer D/s, and 16 sqrt(|lo|)
    10-23% more for twice the memory."""
    return max(256, 8 * isqrt(-lo))


def _pending_chunks(lo, hi, p, done):
    """(discriminants, p) per chunk of _chunk_width(lo) consecutive
    integers from lo, sieved only when the scan reaches it: the fundamental
    discriminants of the chunk in [lo, hi] not in `done`, an ascending list
    of those already stored for p.  A chunk whose discriminants are exactly
    the stored ones between its ends is skipped after one list compare;
    otherwise the stored ones are dropped from it by a set.  A chunk with
    none pending is skipped; a range above -3 has no chunk, and its lo,
    which may lie above 0, sizes none."""
    if lo > -3:
        return
    width = _chunk_width(lo)
    for start in range(lo, min(hi, -3) + 1, width):
        end = min(start + width - 1, hi)
        discs = fundamental_discriminants(start, end)
        stored = done[bisect_left(done, start):bisect_right(done, end)]
        if discs != stored:
            stored = set(stored)
            discs = [d for d in discs if d not in stored]
            if discs:
                yield discs, p


def _scan_chunk(args):
    discs, p = args
    stamp = now_timestamp()
    return [ScanRecord(s.discriminant.value, s.order, s.invariant_factors, p,
                       s.group.rank(p), stamp)
            for s in class_group_structures(discs)]


def _scan_parts(work, jobs):
    """The records of each chunk of work, in order, as they are computed."""
    if jobs > 1:
        import multiprocessing  # only --jobs > 1 pays for the import
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(_scan_chunk, work)
    else:
        yield from map(_scan_chunk, work)


def _checked(read, path, *args):
    """read(path, *args), a store reader whose result ends with the skipped
    lines, without them; each skipped line, whatever its prime, is
    reported on stderr.  Refused when the path cannot be read."""
    try:
        *result, problems = read(path, *args)
    except OSError as exc:
        raise Refused("cannot read store %s: %s"
                      % (path, exc.strerror or exc))
    for lineno, msg in problems:
        print("store line %d skipped: %s" % (lineno, msg), file=sys.stderr)
    return result


def cmd_classgroup(ns, out):
    try:
        D = Discriminant(ns.D)
        s = class_group_structure(D)
    except QuadFormError as exc:
        raise Refused(exc)
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
    check_prime(ns.prime, Refused)
    cpus = os.cpu_count() or 1
    if not 1 <= ns.jobs <= cpus:
        raise Refused("--jobs must be between 1 and %d, got %d"
                      % (cpus, ns.jobs))
    if lo < -MAX_ABS_DISC:
        raise Refused("scan range reaches below -%d, got %d"
                      % (MAX_ABS_DISC, lo))
    store_dir = os.path.dirname(ns.store) or os.curdir
    if not os.path.isdir(store_dir):
        raise Refused("store directory %s does not exist or is not a "
                      "directory" % store_dir)
    # the stored D in range, ascending, and the (h, invariant factors, p,
    # rank) of the first record of each: a repeat does not count
    ds, fields = _checked(read_store, ns.store, ns.prime)
    i, j = bisect_left(ds, lo), bisect_right(ds, hi)
    ds, fields = ds[i:j], fields[i:j]
    work = _pending_chunks(lo, hi, ns.prime, ds)
    first = next(work, None)

    min_rank = ns.min_rank
    hist = Counter(map(itemgetter(3), fields))
    hits = [(d, h, rank) for d, (h, _, _, rank) in zip(ds, fields)
            if rank >= min_rank]
    # each chunk is stored as it arrives, so a killed scan keeps the chunks
    # before it and a resume computes only the rest; only the histogram
    # and the hits stay in memory.  An empty first part opens the store, so
    # that one that cannot be written fails before anything is computed
    fresh = 0
    parts = _scan_parts(chain([first], work), ns.jobs)
    for part in chain([[]], parts) if first else ():
        try:
            append_records(ns.store, part)
        except OSError as exc:
            parts.close()
            raise Refused("cannot write store %s: %s"
                          % (ns.store, exc.strerror or exc))
        fresh += len(part)
        hist.update(r.rank for r in part)
        hits += [(r.discriminant, r.class_number, r.rank) for r in part
                 if r.rank >= min_rank]

    # the stored hits come in ascending D order: one run for the sort
    hits.sort(reverse=True)
    out.write("".join("%d\th=%d\trank=%d\n" % hit for hit in hits))
    print("scanned %d discriminants (%d new); rank histogram: %s"
          % (len(ds) + fresh, fresh,
             " ".join("%d:%d" % kv for kv in sorted(hist.items()))), file=out)

    if ns.prime == TABLE_PRIME and min_rank <= 2:
        from .fixtures import reference_table
        known = {row.discriminant for row in reference_table()}
        table_lo, table_hi = min(known), max(known)
        for d, _, rank in hits:
            if rank == 2 and table_lo <= d <= table_hi and d not in known:
                print("informational: %d has 5-rank 2 but is not a "
                      "tabulated discriminant" % d, file=out)
    return 0


def cmd_verify_table(ns, out):
    from .fixtures import reference_table
    rows, conflicts = reference_table(), 0
    print("row\tD\trank\tpattern\tclass\tverdict", file=out)
    for row in rows:
        s = class_group_structure(Discriminant(row.discriminant))
        rank = s.group.rank(TABLE_PRIME)
        cls = classify_capitulation_pattern(row.pattern).value
        if rank == 2:
            verdict = "ok"
        else:
            verdict = "CONFLICT: recomputed 5-rank %d, table implies 2" % rank
            conflicts += 1
        print("%d\t%d\t%d\t(%s)\t%s\t%s"
              % (row.number, row.discriminant, rank,
                 ",".join(map(str, row.pattern)), cls, verdict), file=out)
    print("%d rows, %d conflicts" % (len(rows), conflicts), file=out)
    return 0 if conflicts == 0 else 1


def cmd_tkt(ns, out):
    try:
        G = get_group(ns.group)
    except CatalogError as exc:
        raise Refused(exc)
    try:
        entries = capitulation_type(G)
    except PresentationError as exc:
        raise Refused("%s: %s" % (G.name, exc))
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
    from .heuristics import (PUBLISHED_EMPIRICAL_P3, PUBLISHED_HEURISTIC_P3,
                             HeuristicsError, predicted_rank_distribution)
    try:
        dist = predicted_rank_distribution(ns.p)
    except HeuristicsError as exc:
        raise Refused(exc)
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
    """The rank histogram of the store, each (D, p) counted once, by its
    first record; a missing store reads as empty and reports 0 records, or
    with --tsv only the header."""
    tally, repeats = _checked(count_store, ns.store)
    if repeats:
        print("%d repeated record%s not counted: the first record of each "
              "discriminant and prime counts"
              % (repeats, "s" if repeats > 1 else ""), file=sys.stderr)
    hist = sorted(tally.items())
    if ns.tsv:
        print("prime\trank\tcount", file=out)
        for (p, rank), n in hist:
            print("%d\t%d\t%d" % (p, rank, n), file=out)
        return 0
    if not tally:
        print("0 records", file=out)
        return 0
    print("%d records in %s" % (sum(tally.values()), ns.store), file=out)
    for p, cells in groupby(hist, key=lambda cell: cell[0][0]):
        cells = [(rank, n) for (_, rank), n in cells]
        line = " ".join("rank %d: %d" % cell for cell in cells)
        print("p = %d (%d records): %s"
              % (p, sum(n for _, n in cells), line), file=out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse drops a failed write
        print(self.format_help(), end="", file=file, flush=True)


def build_parser():
    ap = _Parser(
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

    try:  # the help lists the catalog's groups, so it loads the catalog
        groups = ", ".join(load_catalog())
    except CatalogError as exc:
        raise Refused(exc)
    p = sub.add_parser("tkt", help="transfer-kernel pattern of a catalog group")
    p.add_argument("group", help="name, one of: " + groups)
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
    """Run one command.  A refusal is reported here and nowhere else: as
    `error: <message>` on stderr, with exit status 2."""
    out = sys.stdout if out is None else out
    try:  # a closed pipe fails at this flush, or --help's, not at exit
        ns = build_parser().parse_args(argv)
        code = ns.func(ns, out)
        out.flush()
    except Refused as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:  # Python's SIGPIPE note: devnull takes the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
