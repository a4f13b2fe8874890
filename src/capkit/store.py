"""Append-only scan record store.

One record per line, UTF-8, tab-separated:

    D<TAB>h<TAB>d1,d2,...<TAB>p<TAB>rank<TAB>iso-timestamp

The timestamp is UTC to the second, YYYY-MM-DDTHH:MM:SS+00:00.  Lines
starting with '#' are comments.  Corrupted lines, undecodable bytes and
timestamps cut short included, are reported with their line number and
skipped; they never abort a read.

parse_record is the one place where a line becomes a record.
read_store(path) sends every line through it: the reference reading, which
no command runs.  The views the commands read, read_store(path, prime) for
a scan resume and count_store for a report, keep the fields of the first
record of each (D, p), and take a later line of a checked shape from a
memo (see _read); all three report the same problems.
"""

from __future__ import annotations

import io
import os
import re
import stat
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


# The form of the text now_timestamp() gives; the only stamp a record may
# carry.
_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
                    r"\+00:00")


def format_record(rec: ScanRecord) -> str:
    invs = ",".join(map(str, rec.invariant_factors)) or "1"
    return "\t".join([str(rec.discriminant), str(rec.class_number), invs,
                      str(rec.prime), str(rec.rank), rec.timestamp])


def parse_record(line: str) -> ScanRecord:
    """The record on one store line; ValueError says why a line is not one.
    This is the only check of a store line; the memo of the first-record
    views takes a line whose other fields it has seen accepted, and checks
    only its D and a timestamp it has not seen (see _read)."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("line is not valid UTF-8") from None
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise ValueError("expected 6 tab-separated fields, got %d" % len(parts))
    d, h, invs, p, rank, ts = parts
    d, h = int(d), int(h)
    invs = () if invs == "1" else tuple(int(x) for x in invs.split(","))
    p, rank = int(p), int(rank)
    if d >= 0 or h < 1 or p < 2 or rank < 0:
        raise ValueError("field values out of range")
    if prod(invs) != h:
        raise ValueError("invariant factors inconsistent with class number")
    try:
        p_rank = AbelianGroup(invs).rank(p)
    except AbgroupError:
        raise ValueError("invariant factors are not a divisor chain of "
                         "integers > 1") from None
    if rank != p_rank:
        raise ValueError("rank %d differs from the %d-rank %d of the "
                         "invariant factors" % (rank, p, p_rank))
    if not _STAMP.fullmatch(ts):
        raise ValueError("timestamp is not of the form "
                         "YYYY-MM-DDTHH:MM:SS+00:00")
    return ScanRecord(d, h, invs, p, rank, ts)


def read_store(path, prime=None):
    """(records, problems): problems are (line number, message) pairs.

    Without `prime`, records lists every record in file order, repeats
    included, each parsed by parse_record.  With `prime` given, records is
    {D: (h, invariant factors, p, rank)}, the fields of the first record of
    each D for that p, which is what a scan resume needs (see _read); the
    lines of other primes are checked but not kept, so the problems are
    the same either way.

    A missing file reads as empty; a path that is not a regular file, or
    that cannot be opened, raises OSError."""
    if prime is not None:
        by_d = {}
        return by_d, _read(path, {prime: by_d}, prime)[1]
    records, problems = [], []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    records.append(parse_record(line))
                except ValueError as exc:
                    problems.append((lineno, str(exc)))
    return records, problems


def count_store(path):
    """(tally, repeats, problems): tally maps (p, rank) to the number of
    (D, p) with a record of that rank, each counted once, by its first
    record; repeats is the number of record lines after the first of their
    (D, p); problems are those of read_store.  The lines are read as
    read_store(path, p) reads them, for every p at once."""
    firsts = {}
    lines, problems = _read(path, firsts)
    tally = Counter()
    for p, by_d in firsts.items():
        for rank, n in Counter(map(itemgetter(3), by_d.values())).items():
            tally[p, rank] = n
    return tally, lines - sum(map(len, firsts.values())), problems


def _open(path):
    """The store at `path` open for reading; a missing one reads as empty.
    A path that is not a regular file is refused before it is opened: a
    FIFO would block the open, and a device such as /dev/zero need not end."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return io.StringIO()
    if not stat.S_ISREG(mode):
        raise OSError("not a regular file")
    return open(path, encoding="utf-8", errors="surrogateescape")


def _read(path, firsts, prime=None):
    """(lines, problems): sets firsts[p][D] to the shared (h, invariant
    factors, p, rank) of the first record of each (D, p), for every p or
    only for `prime`; lines counts the record lines of every p.

    A line's shape is its text between the first and the last tab: h, the
    invariant factors, p and the rank.  Once parse_record has accepted one
    line of a shape, a later ASCII line of it is a record exactly when
    int() reads its D field as negative and its timestamp has the form of
    now_timestamp()'s (checked once per distinct timestamp); such a line is
    taken from the memo with its own D, without checking its shape again.
    Every other line goes to parse_record, and fails there if it fails.
    The lines of one shape share one fields tuple."""
    problems, shapes, stamps = [], {}, set()
    lines = 0
    with _open(path) as fh:
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
                # the first line of each distinct timestamp checks its form
                # and keeps it; a later one costs one lookup
                if d < 0 and (ts in stamps or _STAMP.fullmatch(ts)
                              and not stamps.add(ts)):
                    fields, by_d = memo
                    if by_d is not None:
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
            if prime is None or rec.prime == prime:
                by_d = firsts.setdefault(rec.prime, {})
                by_d.setdefault(rec.discriminant, fields)
            shapes[shape] = fields, by_d
            lines += 1
    return lines, problems


def append_records(path, records):
    """Append one line per record to the store at `path`, creating it, in
    one write.  A last line that a killed writer left without its newline
    is ended first, so the torn line stays a line of its own and no
    appended record is fused into it."""
    data = "".join(format_record(rec) + "\n" for rec in records)
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                data = "\n" + data
        fh.write(data.encode("utf-8"))
