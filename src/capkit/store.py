"""Append-only scan record store.

One record per line, UTF-8, tab-separated:

    D<TAB>h<TAB>d1,d2,...<TAB>p<TAB>rank<TAB>iso-timestamp

Lines starting with '#' are comments.  Corrupted lines, undecodable bytes
included, are reported with their line number and skipped; they never abort
a read.  A reader checks each record shape (the fields between D and the
timestamp) once and builds the other records of that shape from a memo
(see read_store).
"""

from __future__ import annotations

import time
from math import prod
from typing import NamedTuple

from .abgroup import AbelianGroup, AbgroupError


class ScanRecord(NamedTuple):
    discriminant: int
    class_number: int
    invariant_factors: tuple
    prime: int
    rank: int
    timestamp: str

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
# of the __new__ that NamedTuple generates.
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


def read_store(path):
    """(records, problems): problems are (line number, message) pairs.

    A line's shape is its text between the first and the last tab: h, the
    invariant factors, p and the rank.  Once parse_record has accepted a
    line, its shape holds for every line that carries it, and such a line
    is a record exactly when its D field is a negative integer.  So a later
    ASCII line of a known shape whose D field int() reads as negative is
    built from the memoized fields, its own D and its timestamp, without
    splitting the shape or checking it again; every other line (the first
    of each shape, any non-ASCII line, any line whose D int() rejects or
    reads as >= 0) goes to parse_record, and fails there if it fails.  Records
    of one shape share one invariant-factor tuple, and records of one
    timestamp one string (a scan stamps its records to the second).

    A missing file reads as empty; any other OSError from opening the path
    (a directory, no permission) propagates."""
    records, problems = [], []
    shapes, stamps = {}, {}
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        return records, problems
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, ts = line.rpartition("\t")
            d, _, shape = head.partition("\t")
            # non-ASCII text may hold undecodable bytes: parse_record says so
            fields = shapes.get(shape) if line.isascii() else None
            if fields is not None:
                try:
                    d = int(d)
                except ValueError:
                    d = 0
                if d < 0:
                    h, invs, p, rank = fields
                    records.append(_new_record(ScanRecord, (
                        d, h, invs, p, rank, stamps.setdefault(ts, ts))))
                    continue
            try:
                rec = parse_record(line)
            except ValueError as exc:
                problems.append((lineno, str(exc)))
                continue
            records.append(rec)
            shapes[shape] = rec[1:5]
    return records, problems


def append_records(path, records):
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_record(rec) + "\n")
