"""Append-only scan record store.

One record per line, UTF-8, tab-separated:

    D<TAB>h<TAB>d1,d2,...<TAB>p<TAB>rank<TAB>iso-timestamp

Lines starting with '#' are comments.  Corrupted lines, undecodable bytes
included, are reported with their line number and skipped; they never abort
a read.  A reader checks each record shape (the fields between D and the
timestamp) once and takes the later lines of that shape from a memo.  It
reads in one of two ways.  read_store(path) builds every record, in file
order: the view that tests and tools use.  The other way builds no record:
it keeps the first record of each (D, p) as its shape's shared (h,
invariant factors, p, rank) tuple.  read_store(path, prime) keeps those of
one prime for a scan resume, and count_store counts those of every prime,
and the repeats, for a report.  Both ways check every line alike.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from math import prod
from operator import itemgetter

from .abgroup import AbelianGroup, AbgroupError


class ScanRecord(namedtuple("ScanRecord", ["discriminant", "class_number",
                                           "invariant_factors", "prime",
                                           "rank", "timestamp"])):
    __slots__ = ()

    def key(self):
        return (self.discriminant, self.prime)

    def payload(self):
        """Everything but the timestamp, for recomputation comparison."""
        return self[:5]


def now_timestamp():
    """The UTC time to the second, as datetime's isoformat gives it."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def format_record(rec: ScanRecord) -> str:
    invs = ",".join(map(str, rec.invariant_factors)) or "1"
    return "\t".join([str(rec.discriminant), str(rec.class_number), invs,
                      str(rec.prime), str(rec.rank), rec.timestamp])


def _shape(invs_s, p_s):
    """(invariant factors, p, their product, whether they are a divisor
    chain of integers > 1, their p-rank or None when they are not one or
    p < 2) of the invariant-factor and prime fields of a record."""
    invs = () if invs_s == "1" else tuple(int(x) for x in invs_s.split(","))
    p = int(p_s)
    try:
        group = AbelianGroup(invs)
    except AbgroupError:
        return invs, p, prod(invs), False, None
    return invs, p, prod(invs), True, group.rank(p) if p >= 2 else None


# Builds a ScanRecord from a tuple, skipping the per-field argument handling
# of the __new__ that namedtuple generates.
_new_record = tuple.__new__


def parse_record(line: str) -> ScanRecord:
    """The record on one store line; ValueError says why a line is not one.
    This is the only check of a store line (see read_store)."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("line is not valid UTF-8") from None
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise ValueError("expected 6 tab-separated fields, got %d" % len(parts))
    d, h, invs_s, p_s, rank, ts = parts
    d, h = int(d), int(h)
    invs, p, prod, chain, p_rank = _shape(invs_s, p_s)
    rank = int(rank)
    if d >= 0 or h < 1 or p < 2 or rank < 0:
        raise ValueError("field values out of range")
    if prod != h:
        raise ValueError("invariant factors inconsistent with class number")
    if not chain:
        raise ValueError("invariant factors are not a divisor chain of "
                         "integers > 1")
    if rank != p_rank:
        raise ValueError("rank %d differs from the %d-rank %d of the "
                         "invariant factors" % (rank, p, p_rank))
    return _new_record(ScanRecord, (d, h, invs, p, rank, ts))


def read_store(path, prime=None):
    """(records, problems): problems are (line number, message) pairs.

    Without `prime`, records lists every record in file order, repeats
    included.  With `prime` given, records is {D: (h, invariant factors,
    p, rank)}, the fields of the first record of each D for that p, which
    is what a scan resume needs; no record is built, and the lines of other
    primes are checked but not kept, so the problems are the same either
    way.

    A line's shape is its text between the first and the last tab: h, the
    invariant factors, p and the rank.  Once parse_record has accepted a
    line, its shape holds for every line that carries it, and such a line
    is a record exactly when its D field is a negative integer.  So a later
    ASCII line of a known shape whose D field int() reads as negative is
    taken from the memoized fields and its own D (and, for a record, its
    timestamp), without splitting the shape or checking it again; every
    other line (the first of each shape, any non-ASCII line, any line whose
    D int() rejects or reads as >= 0) goes to parse_record, and fails there
    if it fails.  The lines of one shape share one fields tuple, and the
    records of one timestamp one string (a scan stamps each chunk's records
    alike).

    A missing file reads as empty; any other OSError from opening the path
    (a directory, no permission) propagates."""
    if prime is None:
        return _read(path, None)
    firsts = {}
    problems = _read(path, firsts, prime)[1]
    return firsts.get(prime, {}), problems


def count_store(path):
    """(tally, repeats, problems): tally maps (p, rank) to the number of
    (D, p) with a record of that rank, each counted once, by its first
    record; repeats is the number of record lines after the first of their
    (D, p); problems are those of read_store.

    The lines are read as read_store(path, p) reads them, for every p at
    once: no record is built, and a later line of a known shape costs one
    dict insert."""
    firsts = {}
    lines, problems = _read(path, firsts)
    tally = Counter()
    for p, by_d in firsts.items():
        for rank, n in Counter(map(itemgetter(3), by_d.values())).items():
            tally[p, rank] = n
    return tally, lines - sum(map(len, firsts.values())), problems


def _read(path, firsts, prime=None):
    """(records, problems) of read_store(path) when `firsts` is None.
    With a dict `firsts`, builds no record but sets firsts[p][D] to the
    shared (h, invariant factors, p, rank) of the first record of each
    (D, p), for every p or only for `prime`, and gives the number of
    record lines, of every p, in place of the records."""
    records, problems = [], []
    shapes, stamps = {}, {}
    lines = 0
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        return (records if firsts is None else lines), problems
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            head, _, ts = line.rpartition("\t")
            d, _, shape = head.partition("\t")
            # non-ASCII text may hold undecodable bytes: parse_record says
            # so.  No shape of a blank line is known, and no D field of a
            # comment reads as an int, so both reach the check below.
            memo = shapes.get(shape) if line.isascii() else None
            if memo is not None:
                try:
                    d = int(d)
                except ValueError:
                    d = 0
                if d < 0:
                    fields, by_d = memo
                    if firsts is None:
                        h, invs, p, rank = fields
                        records.append(_new_record(ScanRecord, (
                            d, h, invs, p, rank, stamps.setdefault(ts, ts))))
                    elif by_d is not None:
                        by_d.setdefault(d, fields)
                    lines += 1
                    continue
            if not line or line.startswith("#"):
                continue
            try:
                rec = parse_record(line)
            except ValueError as exc:
                problems.append((lineno, str(exc)))
                continue
            fields, by_d = rec[1:5], None
            if firsts is None:
                records.append(rec)
            elif prime is None or rec.prime == prime:
                by_d = firsts.setdefault(rec.prime, {})
                by_d.setdefault(rec.discriminant, fields)
            shapes[shape] = fields, by_d
            lines += 1
    return (records if firsts is None else lines), problems


def append_records(path, records):
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_record(rec) + "\n")
