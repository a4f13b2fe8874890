"""Append-only scan record store.

One record per line, UTF-8, tab-separated:

    D<TAB>h<TAB>d1,d2,...<TAB>p<TAB>rank<TAB>iso-timestamp

Lines starting with '#' are comments.  Corrupted lines, undecodable bytes
included, are reported with their line number and skipped; they never abort
a read.
"""

from __future__ import annotations

from datetime import datetime, timezone
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
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


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


def parse_record(line: str, memo=None) -> ScanRecord:
    """The record on one store line; ValueError says why a line is not one.

    memo maps (invariant-factor field, prime field) to what `_shape` makes
    of them, and each timestamp to itself.  A reader that passes one dict
    for a whole store so parses each distinct shape once, and its records
    share one invariant-factor tuple per shape and one string per timestamp
    (a scan stamps its records to the second)."""
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
    if memo is None:
        memo = {}
    shape = memo.get((invs_s, p_s))
    if shape is None:
        shape = memo[invs_s, p_s] = _shape(invs_s, p_s)
    invs, p, prod, chain, p_rank = shape
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
    ts = memo.setdefault(ts, ts)
    return _new_record(ScanRecord, (d, h, invs, p, rank, ts))


def read_store(path):
    """(records, problems): problems are (line number, message) pairs.

    A missing file reads as empty; any other OSError from opening the path
    (a directory, no permission) propagates."""
    records, problems = [], []
    memo = {}
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        return records, problems
    with fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                records.append(parse_record(stripped, memo))
            except ValueError as exc:
                problems.append((lineno, str(exc)))
    return records, problems


def append_records(path, records):
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_record(rec) + "\n")
