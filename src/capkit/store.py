"""Append-only scan record store.

One record per line, UTF-8, tab-separated:

    D<TAB>h<TAB>d1,d2,...<TAB>p<TAB>rank<TAB>iso-timestamp

The timestamp is UTC to the second, YYYY-MM-DDTHH:MM:SS+00:00.  Lines
starting with '#' are comments.  Corrupted lines, undecodable bytes and
timestamps cut short included, are reported with their line number and
skipped; they never abort a read.

parse_record is the one place where a line becomes a record.
read_store(path) sends every line through it on every call: the reference
reading, which no command runs.  The views the commands read,
read_store(path, prime) for a scan resume and count_store for a report,
come from one reader, _read, which keeps the fields of the first record of
each (D, p) for every p and takes a later line of a checked shape from a
memo (see _parse); all three report the same problems.

_read starts from a checkpoint beside the store, PATH.capkit-checkpoint:
the state of a full read of a prefix of the store, which is replayed only
when that prefix is still byte for byte the one it was taken from.  Once a
read has written one (it takes 1 MiB of new bytes), a read of the
unchanged store parses no line, and one after an append parses only the
appended lines.  The checkpoint keeps one section per prime: the prime's
first records as two columns, their discriminants in ascending order and
their fields, marshalled on their own, and their rank counts.  A resume
decodes only its own prime's columns, and a report, which needs only the
counts, decodes none that no appended line touched.  Deleting the
checkpoint is always safe: the next read is a full one."""

from __future__ import annotations

import io
import os
import re
import stat
import sys
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
    only its D and a timestamp it has not seen (see _parse)."""
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
    included, each parsed by parse_record: the reference reading, which
    reads every line on every call.  With `prime` given, the result is
    (ds, fields, problems), which is what a scan resume needs: ds lists in
    ascending order every D with a record for that prime, and fields[i] is
    the (h, invariant factors, p, rank) of the first record of ds[i].  It is
    read as count_store reads, from the store's checkpoint (see _read),
    whose section of that prime holds these two columns as they are, and
    the problems are the same either way.

    A missing file reads as empty; a path that is not a regular file, or
    that cannot be opened, raises OSError."""
    if prime is not None:
        (ds, fields), _, problems = _read(path, lambda f: f.columns(prime))
        return ds, fields, problems
    records, problems = [], []
    raw = _open(path)
    if raw is None:
        return records, problems
    with _text(raw) as fh:
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
    (D, p); problems are those of read_store.  The store is read as
    read_store(path, p) reads it, from its checkpoint (see _read), whose
    rank counts serve every prime that no appended line touched."""
    by_prime, lines, problems = _read(path, _Firsts.rank_counts)
    tally = Counter()
    for p, counts in by_prime.items():
        for rank, n in counts.items():
            tally[p, rank] = n
    return tally, lines - sum(tally.values()), problems


def _open(path):
    """The store at `path` open for binary reading, or None when there is
    none: a missing store reads as empty.  A path that is not a regular
    file is refused before it is opened: a FIFO would block the open, and a
    device such as /dev/zero need not end."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return None
    if not stat.S_ISREG(mode):
        raise OSError("not a regular file")
    return open(path, "rb")


def _text(raw):
    """The binary stream `raw` read as store text: UTF-8 with undecodable
    bytes kept as surrogates (parse_record reports them), universal
    newlines."""
    return io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")


# The checkpoint of the store at PATH is the file PATH + _CHECKPOINT_SUFFIX.
# It is written only by a read that parsed at least _CHECKPOINT_MIN_BYTES
# past where it started: replacing an existing file can stall for tens of
# milliseconds, which a small store would pay on every read.
_CHECKPOINT_SUFFIX = ".capkit-checkpoint"
_CHECKPOINT_MIN_BYTES = 1 << 20

# The first line of every checkpoint; a checkpoint with another one is never
# replayed.  The number is the layout of its payload (see _read).  The digest
# is of the source of parse_record, _parse, _text, _STAMP's pattern and
# AbelianGroup's __init__ and rank, which decide what a line reads as:
# tests/test_source.py fails until it is brought up to date after any change
# to them, and that retires every checkpoint written under the old rules.
_CHECKPOINT_VERSION = "capkit-checkpoint 3 ba2804f38d7d3322"


class _Rejected(Exception):
    """A checkpoint section that does not decode to its columns."""


class _Firsts(dict):
    """firsts as _read gives it: {p: {D: fields}} of the primes decoded so
    far, over `sections`, {p: (section, {rank: count})} of those that are
    not, as a checkpoint holds them.  A section is the prime's columns (see
    columns) marshalled on their own, and the counts are the ranks of its
    first records.  firsts[p] builds p's {D: fields} from its section the
    first time it is asked for, and a prime with no section starts empty;
    get() and setdefault() do not, so _parse asks for firsts[p]."""
    __slots__ = ("sections",)

    def __init__(self, sections):
        super().__init__()
        self.sections = sections

    def __missing__(self, p):
        by_d = dict(zip(*self.columns(p)))
        self.sections.pop(p, None)
        self[p] = by_d
        return by_d

    def columns(self, p):
        """(ds, fields): the discriminants of p's first records in
        ascending order and the fields of each, read off p's section as
        they are, or sorted once from p's {D: fields} when a line after
        the checkpoint decoded it.  _Rejected when the section is not two
        lists of equal length."""
        if p in self:
            by_d = self[p]
            ds = sorted(by_d)
            return ds, list(map(by_d.__getitem__, ds))
        section = self.sections.get(p)
        if section is None:
            return [], []
        import marshal
        try:
            ds, fields = cols = marshal.loads(section[0])
        except (EOFError, ValueError, TypeError):
            raise _Rejected from None
        if type(cols) is not tuple or type(ds) is not list or \
                type(fields) is not list or len(ds) != len(fields):
            raise _Rejected
        return cols

    def rank_counts(self):
        """{p: {rank: count} of p's first records} for every prime: those
        of an undecoded prime as its section holds them."""
        counts = {p: section[1] for p, section in self.sections.items()}
        for p, by_d in self.items():
            counts[p] = dict(Counter(map(itemgetter(3), by_d.values())))
        return counts

    def all_sections(self):
        """The sections of every prime: an undecoded one as it is, a
        decoded one marshalled again."""
        import marshal
        counts = self.rank_counts()
        return {**self.sections,
                **{p: (marshal.dumps(self.columns(p)), counts[p])
                   for p in self}}


def _read(path, view):
    """(view(firsts), lines, problems): firsts[p][D] is the shared (h,
    invariant factors, p, rank) of the first record of each (D, p), read
    through a _Firsts, which decodes a prime from the checkpoint only when
    it is asked for; lines counts the record lines; problems are (line
    number, message) pairs.

    The read starts from the store's checkpoint when it has a valid one:
    the byte length N of a prefix of the store that ends just after a
    newline, the sha256 of those N bytes, and the line count, record-line
    count, problems and one section per prime (see _Firsts) of a full
    read of that prefix.  When its first line is _CHECKPOINT_VERSION and
    this interpreter's cache tag, its payload matches the sha256 that
    follows that line, and the store's first N bytes hash to the recorded
    digest, only the bytes from N on are parsed, decoded as _text decodes
    and numbered on from the prefix's last line.  A newline always ends a
    line, and a prefix that ends with one decodes to the text of the same
    lines, so the result is the one a full read gives.  Any other
    checkpoint, or none, means a full read, and so does one with a section
    that the read decodes and finds malformed; a read that parsed enough
    (see _CHECKPOINT_MIN_BYTES) writes one up to the last newline it read:
    the sections of the primes it did not decode are copied as they are,
    and the decoded primes are marshalled again.  See _parse for how lines
    become records.

    hashlib and marshal are imported only where a checkpoint is read or
    written, so that a command that reads a small store does not load
    them."""
    raw = _open(path)
    if raw is None:
        return view(_Firsts({})), 0, []
    side = os.fsencode(path) + os.fsencode(_CHECKPOINT_SUFFIX)
    head = ("%s %s\n" % (_CHECKPOINT_VERSION,
                         sys.implementation.cache_tag)).encode()
    with raw:
        start = _load_checkpoint(side, head, raw)
        data = raw.read()
        if start is not None:
            try:
                return _read_from(side, head, start, data, view)
            except _Rejected:
                _remove(side)
                raw.seek(0)
                data = raw.read()
    return _read_from(side, head, None, data, view)


def _read_from(side, head, start, data, view):
    """_read's result from `start`, the state that _load_checkpoint gave
    (None for a full read), and `data`, the store bytes that follow it."""
    offset, digest, lineno, lines, problems, sections = \
        start or (0, None, 0, 0, [], {})
    firsts = _Firsts(sections)
    cut = data.rfind(b"\n") + 1
    lineno, lines = _parse(data[:cut], lineno, lines, problems, firsts)
    if cut and cut >= _CHECKPOINT_MIN_BYTES:
        _write_checkpoint(side, head, digest, data[:cut], offset + cut,
                          (lineno, lines, problems, firsts.all_sections()))
    _, lines = _parse(data[cut:], lineno, lines, problems, firsts)
    return view(firsts), lines, problems


def _load_checkpoint(side, head, raw):
    """(N, sha256 of the store's first N bytes as a hashlib object, line
    count, record-line count, problems, sections) from the checkpoint file
    `side`, with the store `raw` read up to N; None, with `raw` at its
    start, when there is no checkpoint written under `head` that matches
    the store.  A checkpoint file that does not is removed: it would be
    read again on every read, and a store under _CHECKPOINT_MIN_BYTES
    never replaces it."""
    try:
        if not stat.S_ISREG(os.stat(side).st_mode):
            return None
        with open(side, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    start = _match_checkpoint(data, head, raw)
    if start is None:
        raw.seek(0)
        _remove(side)
    return start


def _remove(path):
    """Remove the file at `path`, if it can be."""
    try:
        os.remove(path)
    except OSError:
        pass


def _match_checkpoint(data, head, raw):
    """The payload of the checkpoint file contents `data`, as
    _load_checkpoint returns it, or None."""
    import hashlib
    import marshal
    body = data[len(head) + 32:]
    if not data.startswith(head) or \
            hashlib.sha256(body).digest() != data[len(head):len(head) + 32]:
        return None
    try:
        offset, digest, lineno, lines, problems, sections = \
            marshal.loads(body)
    except (EOFError, ValueError, TypeError):
        return None
    # every section an int prime's (bytes, {int >= 0: int >= 1}) pair (see
    # _Firsts); its columns are checked when they are decoded
    if not (type(offset) is int and offset > 0 and type(digest) is bytes
            and type(lineno) is int and type(lines) is int
            and type(problems) is list and type(sections) is dict
            and all(type(p) is int and type(section) is tuple
                    and tuple(map(type, section)) == (bytes, dict)
                    and all(type(rank) is int and rank >= 0
                            and type(n) is int and n >= 1
                            for rank, n in section[1].items())
                    for p, section in sections.items())):
        return None
    prefix = hashlib.sha256()
    left = offset
    while left:
        chunk = raw.read(min(left, 1 << 20))
        if not chunk:
            break
        prefix.update(chunk)
        left -= len(chunk)
    if left or prefix.digest() != digest:
        return None
    return offset, prefix, lineno, lines, problems, sections


def _write_checkpoint(side, head, prefix, data, n, state):
    """Write the checkpoint file `side` for the first n bytes of the store,
    which are those the hashlib object `prefix` (None for no bytes) hashed
    followed by `data`, and the (line count, record-line count, problems,
    sections) of their read.  It goes through a temporary file and a
    rename, so that a reader sees the old checkpoint or the new one; it is
    only an aid, so a failure to write it is ignored."""
    import hashlib
    import marshal
    if prefix is None:
        prefix = hashlib.sha256()
    prefix.update(data)
    payload = marshal.dumps((n, prefix.digest()) + state)
    tmp = side + b".%d.tmp" % os.getpid()
    try:
        with open(tmp, "wb") as fh:
            fh.write(head + hashlib.sha256(payload).digest() + payload)
        os.replace(tmp, side)
    except OSError:
        _remove(tmp)


def _parse(data, lineno, lines, problems, firsts):
    """(last line number, record lines) after parsing the store bytes
    `data`, whose first line is line lineno + 1 and which follow `lines`
    record lines, into problems and firsts (see _read).

    A line's shape is its text between the first and the last tab: h, the
    invariant factors, p and the rank.  Once parse_record has accepted one
    line of a shape, a later ASCII line of it is a record exactly when
    int() reads its D field as negative and its timestamp has the form of
    now_timestamp()'s (checked once per distinct timestamp); such a line is
    taken from the memo with its own D, without checking its shape again.
    Every other line goes to parse_record, and fails there if it fails.
    The lines of one shape share one fields tuple.  A record's prime is
    looked up as firsts[p], which decodes a checkpointed prime (see
    _Firsts): setdefault would start it empty instead, and count a repeat
    of a checkpointed record as a first one."""
    shapes, stamps = {}, set()
    for lineno, line in enumerate(_text(io.BytesIO(data)), lineno + 1):
        line = line.strip()
        head, _, ts = line.rpartition("\t")
        d, _, shape = head.partition("\t")
        # non-ASCII text may hold undecodable bytes: parse_record says so.
        # No shape of a blank line is known, and no D field of a comment
        # reads as an int, so both reach the check below.
        known = shapes.get(shape) if line.isascii() else None
        if known is not None:
            try:
                d = int(d)
            except ValueError:
                d = 0
            # the first line of each distinct timestamp checks its form and
            # keeps it; a later one costs one lookup
            if d < 0 and (ts in stamps or _STAMP.fullmatch(ts)
                          and not stamps.add(ts)):
                fields, by_d = known
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
        fields = rec[1:5]
        by_d = firsts[rec.prime]
        by_d.setdefault(rec.discriminant, fields)
        shapes[shape] = fields, by_d
        lines += 1
    return lineno, lines


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
