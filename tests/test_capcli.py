"""CLI subcommands, the record store, pattern classification and the
packaged discriminant table."""

import contextlib
import dataclasses
import hashlib
import io
import marshal
import os
import pickle
import random
import re
import string
import subprocess
import sys
import tempfile
import zlib
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capkit import cli
from capkit.abgroup import MAX_PRIME
from capkit.catalog import parse_catalog
from capkit.catalog import load_catalog
from capkit.cli import PatternClass, classify_capitulation_pattern, main
from capkit.fixtures import reference_discriminants, reference_table
from capkit.quadform import Discriminant, QuadFormError, is_fundamental
from capkit.store import (ScanRecord, append_records, count_store,
                          format_record, now_timestamp, parse_record,
                          read_store)


# A timestamp of the one form a store holds, for hand-written store lines
TS = "2026-01-01T00:00:00+00:00"


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# oracle: the frozen-dataclass store parser that `store.parse_record`
# replaced, with the divisor-chain, rank and timestamp checks added after
# the others
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class OracleRecord:
    discriminant: int
    class_number: int
    invariant_factors: tuple
    prime: int
    rank: int
    timestamp: str


def oracle_parse_record(line):
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("line is not valid UTF-8") from None
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise ValueError("expected 6 tab-separated fields, got %d" % len(parts))
    d, h, invs_s, p, rank, ts = parts
    invs = () if invs_s == "1" else tuple(int(x) for x in invs_s.split(","))
    rec = OracleRecord(int(d), int(h), invs, int(p), int(rank), ts)
    if rec.discriminant >= 0 or rec.class_number < 1 or rec.prime < 2 \
            or rec.rank < 0:
        raise ValueError("field values out of range")
    prod = 1
    for x in invs:
        prod *= x
    if prod != rec.class_number:
        raise ValueError("invariant factors inconsistent with class number")
    if any(x < 2 for x in invs) or \
            any(b % a for a, b in zip(invs, invs[1:])):
        raise ValueError("invariant factors are not a divisor chain of "
                         "integers > 1")
    p_rank = sum(1 for x in invs if x % rec.prime == 0)
    if rec.rank != p_rank:
        raise ValueError("rank %d differs from the %d-rank %d of the "
                         "invariant factors" % (rec.rank, rec.prime, p_rank))
    if re.sub("[0-9]", "0", ts) != "0000-00-00T00:00:00+00:00":
        raise ValueError("timestamp is not of the form "
                         "YYYY-MM-DDTHH:MM:SS+00:00")
    return rec


def oracle_read_store(path):
    records, problems = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                records.append(oracle_parse_record(stripped))
            except ValueError as exc:
                problems.append((lineno, str(exc)))
    return records, problems


def assert_first_record_views_match(path, records, problems):
    """read_store(path, p) for each p and count_store(path) give the first
    record of each (D, p) among `records`, the oracle's reading of the
    store, and its problems."""
    first = {}
    for r in records:
        first.setdefault((r.discriminant, r.prime), r)
    for p in {r.prime for r in records} | {11}:
        want = {d: (r.class_number, r.invariant_factors, r.prime, r.rank)
                for (d, q), r in first.items() if q == p}
        assert read_store(path, p) == (want, problems), p
    tally = Counter((p, r.rank) for (_, p), r in first.items())
    assert count_store(path) == (tally, len(records) - len(first), problems)


def assert_views_match_oracle(path):
    """assert_first_record_views_match against the oracle's reading of the
    store at `path`."""
    want, want_problems = oracle_read_store(path)
    assert_first_record_views_match(path, want, want_problems)


# Store lines of every kind a reader meets: {d} {h} {invs} {p} {r} {ts} are
# the fields of a valid record, which is listed twice to be drawn more often.
_STORE_LINE_KINDS = (
    "{d}\t{h}\t{invs}\t{p}\t{r}\t{ts}",
    "{d}\t{h}\t{invs}\t{p}\t{r}\t{ts}",
    "  {d}\t{h}\t{invs}\t{p}\t{r}\t{ts} \t",     # padded
    "",
    "   ",
    "# comment {d}",
    "  # indented comment",
    "not a record",
    "{d}\t{h}\t{invs}\t{p}\t{r}",                  # 5 fields
    "{d}\t{h}\t{invs}\t{p}\t{r}\t{ts}\textra",     # 7 fields
    "{d}\tseven\t{invs}\t{p}\t{r}\t{ts}",          # non-integer h
    "x{d}\t{h}\t{invs}\t{p}\t{r}\t{ts}",           # non-integer D
    "{d}\t{h}\t{invs},x\t{p}\t{r}\t{ts}",          # non-integer factor
    "{d}\t{h}\t\t{p}\t{r}\t{ts}",                  # empty factors
    "{d}\t{h}\t{invs}\tfive\t{r}\t{ts}",           # non-integer p
    "{d}\t{h}\t{invs}\t{p}\tr\t{ts}",              # non-integer rank
    "{d}\t{h1}\t{invs}\t{p}\t{r}\t{ts}",           # product mismatch
    "{pd}\t{h}\t{invs}\t{p}\t{r}\t{ts}",           # D >= 0
    "{d}\t0\t1\t{p}\t0\t{ts}",                     # h < 1
    "{d}\t{h}\t{invs}\t1\t{r}\t{ts}",              # p < 2
    "{d}\t{h}\t{invs}\t{p}\t-1\t{ts}",             # rank < 0
    "{d}\t{h}\t1,{h}\t{p}\t{r}\t{ts}",             # factor 1
    "{d}\t{h}\t-1,-{h}\t{p}\t{r}\t{ts}",           # negative factors
    "{d}\t15\t3,5\t{p}\t{r}\t{ts}",                # 3 does not divide 5
    "{d}\t{h}\t{invs}\t{p}\t{r1}\t{ts}",           # rank mismatch
)


def synthetic_store_text(seed, n_lines):
    rng = random.Random(seed)
    lines = []
    for _ in range(n_lines):
        a = rng.choice((1, 1, 1, 2, 3, 5))
        invs = [f for f in (a, a * rng.randint(1, 12)) if f > 1]
        h = 1
        for f in invs:
            h *= f
        p = rng.choice((2, 3, 5, 7))
        r = sum(1 for f in invs if f % p == 0)
        d = -rng.randint(3, 10 ** 6)
        lines.append(rng.choice(_STORE_LINE_KINDS).format(
            d=d, pd=-d, h=h, h1=h + 1, invs=",".join(map(str, invs)) or "1",
            p=p, r=r, r1=r + 1,
            ts="2026-01-01T00:00:%02d+00:00" % rng.randrange(60)))
    return "\n".join(lines) + "\n"


# Lines that share a few shapes (the fields between D and the timestamp),
# so that a reader's memo of a shape is hit by D fields and timestamps of
# every kind.  Each shape is (h, invariant factors, p, rank); the last two
# are no records (rank mismatch, product mismatch).
_MEMO_SHAPES = (("25", "5,5", "5", "2"), ("3", "3", "5", "0"),
                ("025", "5,5", "5", "2"), ("4", "2,2", "2", "2"),
                ("3", "3", "3", "0"), ("7", "3", "5", "0"))
_MEMO_D_FIELDS = ("{d}", "{d}", "{d}", "-0{n}", "-1_0", "-\u0663", "+{n}",
                  "0", "x-{n}", "{d} ", "--{n}", "-", "{n}", "-{n}.0")
_MEMO_STAMPS = (b"2026-01-01T00:00:00+00:00", b"2026-01-01T00:00:00+00:00",
                b"2026-01-01T00:00:00+00:00", b"2026-01-01T00:00:07+00:00",
                b"2026-01-01T00:00:07+00:00", b"ts \xc3\xa9",  # non-ASCII
                b"2026\xff\xfe", b"",                           # undecodable
                b"2026-01-01T00:0", b"2026-01-01 00:00:07+00:00")  # malformed


def memo_store_bytes(seed, n_lines):
    """A store of n_lines seeded lines over _MEMO_SHAPES, after a prefix in
    which the first line of a shape fails on its D field and valid lines of
    that shape follow."""
    rng = random.Random(seed)
    lines = [b"%s\t9\t9\t3\t1\t%s" % (d, TS.encode())
             for d in (b"x-5", b"+5", b"-5", b"-05", b"0")]
    for _ in range(n_lines):
        n = rng.randint(3, 10 ** 6)
        d = rng.choice(_MEMO_D_FIELDS).format(d=-n, n=n)
        fields = [d, *rng.choice(_MEMO_SHAPES)]
        lines.append("\t".join(fields).encode("utf-8") + b"\t"
                     + rng.choice(_MEMO_STAMPS))
    return b"\n".join(lines) + b"\n"


def write_seeded_store(path, seed):
    """Seeds 0-2: a synthetic_store_text store with corrupt lines of every
    prime, followed by a repeat of its first third; seeds 3-4: a
    memo_store_bytes store."""
    if seed < 3:
        text = synthetic_store_text(seed, 600)
        path.write_text(text + text[:len(text) // 3].rpartition("\n")[0]
                        + "\n", encoding="utf-8")
    else:
        path.write_bytes(memo_store_bytes(seed, 800))


def resume_store_text(seed, lo, hi):
    """A store that a `scan --prime 5 -- lo hi` resume finds complete: a
    seeded record of each prime 3, 5 and 7 for every fundamental D in
    [lo, hi], records of D outside the range, repeats whose fields differ
    from the first record, and corrupt lines of every prime."""
    from capkit.quadform import fundamental_discriminants
    rng = random.Random("resume:%d" % seed)
    discs = fundamental_discriminants(lo - 400, hi + 400)

    def record(d, p, fmt="{d}\t{h}\t{invs}\t{p}\t{r}\t{ts}"):
        a = rng.choice((1, 1, 1, 5, 5, 3, 15))
        invs = [f for f in (a, a * rng.randint(1, 12)) if f > 1]
        h = 1
        for f in invs:
            h *= f
        r = sum(1 for f in invs if f % p == 0)
        return fmt.format(d=d, pd=-d, h=h, h1=h + 1, p=p, r=r, r1=r + 1,
                          invs=",".join(map(str, invs)) or "1",
                          ts="2026-01-01T00:00:%02d+00:00" % rng.randrange(60))

    lines = [record(d, p) for d in discs for p in (3, 5, 7)]
    rng.shuffle(lines)
    repeats = [record(d, p) for d in rng.sample(discs, len(discs) // 4)
               for p in (3, 5, 7)]
    corrupt = [record(d, p, fmt) for d in rng.sample(discs, 20)
               for p in (3, 5, 7)
               for fmt in rng.sample(_STORE_LINE_KINDS[7:], 2)]
    tail = repeats + corrupt + ["# comment", ""]
    rng.shuffle(tail)
    return "\n".join(lines + tail) + "\n"


class TestPatternClassifier:
    def test_permutations_are_one_one(self):
        assert classify_capitulation_pattern((1, 2, 3, 4, 5, 6)) == \
            PatternClass.ONE_ONE
        assert classify_capitulation_pattern((3, 6, 4, 1, 5, 2)) == \
            PatternClass.ONE_ONE

    def test_five_equal_entries_are_p_capitulation(self):
        assert classify_capitulation_pattern((4, 4, 4, 1, 4, 4)) == \
            PatternClass.P_CAPITULATION
        assert classify_capitulation_pattern((2, 6, 6, 6, 6, 6)) == \
            PatternClass.P_CAPITULATION

    def test_other_patterns(self):
        assert classify_capitulation_pattern((1, 1, 3, 4, 5, 6)) == \
            PatternClass.OTHER
        assert classify_capitulation_pattern((1, 1, 1, 1, 1, 1)) == \
            PatternClass.OTHER  # six equal entries, not five

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            classify_capitulation_pattern((0, 1, 2, 3, 4, 5))
        with pytest.raises(ValueError):
            classify_capitulation_pattern((1, 2, 3, 4, 5, 7))
        with pytest.raises(ValueError):
            classify_capitulation_pattern((1, 2, 3))


class TestFixtureTable:
    def test_shape_and_integrity(self):
        rows = reference_table()
        assert len(rows) == 28
        assert [r.number for r in rows] == list(range(1, 29))
        assert rows[0].discriminant == -12451
        assert rows[-1].discriminant == -85099
        assert all(len(r.pattern) == 6 for r in rows)
        assert all(is_fundamental(r.discriminant) for r in rows)

    def test_dichotomy_counts(self):
        rows = reference_table()
        kinds = [classify_capitulation_pattern(r.pattern) for r in rows]
        assert kinds.count(PatternClass.ONE_ONE) == 24
        assert kinds.count(PatternClass.P_CAPITULATION) == 4
        assert kinds.count(PatternClass.OTHER) == 0
        special = [r.number for r in rows
                   if classify_capitulation_pattern(r.pattern)
                   == PatternClass.P_CAPITULATION]
        assert special == [13, 18, 19, 24]

    def test_discriminants_strictly_decreasing(self):
        ds = reference_discriminants()
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_rows_are_pinned_by_their_sha256(self):
        # the run-time guard is a crc32; this pin is the strong one, so an
        # edit of the rows must update both on purpose
        assert hashlib.sha256(table_text(
            (r.number, r.discriminant, r.pattern)
            for r in reference_table())).hexdigest() == \
            "b179897362e473650dab515c89445c573afddd3019c22238061ad4862ed2eed8"

    def test_any_one_entry_edit_is_refused(self, monkeypatch):
        from capkit import fixtures
        rows = fixtures._TABLE_ROWS
        for i, (n, d, pattern) in enumerate(rows):
            edits = [(n + 1, d, pattern), (n, d - 4, pattern)]
            edits += [(n, d, pattern[:j] + (pattern[j] % 6 + 1,)
                       + pattern[j + 1:]) for j in range(len(pattern))]
            for row in edits:
                edited = rows[:i] + (row,) + rows[i + 1:]
                monkeypatch.setattr(fixtures, "_TABLE_ROWS", edited)
                crc = zlib.crc32(table_text(edited))
                with pytest.raises(ValueError, match="^reference table "
                                   "corrupted \\(crc32 %08x\\)$" % crc):
                    reference_table()
        monkeypatch.setattr(fixtures, "_TABLE_ROWS", rows)
        assert len(reference_table()) == 28

    def test_verify_table_reports_a_conflict(self, monkeypatch):
        # a row whose recomputed 5-rank is not 2: row 1's D is answered
        # with the class group of -23 (C3, 5-rank 0)
        real = cli.class_group_structure
        monkeypatch.setattr(cli, "class_group_structure", lambda D: real(
            Discriminant(-23) if D.value == -12451 else D))
        code, text = run_cli(["verify-table"])
        assert code == 1
        lines = text.splitlines()
        assert lines[1] == ("1\t-12451\t0\t(3,6,4,1,5,2)\tOneOne\t"
                            "CONFLICT: recomputed 5-rank 0, table implies 2")
        assert [line for line in lines if "CONFLICT" in line] == [lines[1]]
        assert lines[-1] == "28 rows, 1 conflicts"


def table_text(rows):
    """The bytes that the table's checksums are taken over: one line
    `number|D|pattern` per row."""
    return "\n".join("%d|%d|%s" % (n, d, ",".join(map(str, pattern)))
                     for n, d, pattern in rows).encode()


class TestStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.tsv"
        recs = [
            ScanRecord(-23, 3, (3,), 5, 0, now_timestamp()),
            ScanRecord(-12451, 25, (5, 5), 5, 2, now_timestamp()),
            ScanRecord(-3, 1, (), 3, 0, now_timestamp()),
        ]
        append_records(path, recs)
        got, problems = read_store(path)
        assert problems == []
        assert got == recs

    def test_corrupted_lines_reported_not_fatal(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("# comment\n"
                        "-23\t3\t3\t5\t0\t%s\n"
                        "garbage line\n"
                        "-15\t2\t7\t5\t0\t%s\n"     # 7 != h
                        "-15\t2\t2\t0\t0\t%s\n"     # bad prime
                        % (TS, TS, TS))
        got, problems = read_store(path)
        assert [r.discriminant for r in got] == [-23]
        assert [ln for ln, _ in problems] == [3, 4, 5]

    def test_parse_rejects_nonrecords(self):
        with pytest.raises(ValueError):
            parse_record("1\t2\t3")
        with pytest.raises(ValueError):
            parse_record("23\t3\t3\t5\t0\t" + TS)  # positive discriminant

    def test_missing_file_is_empty(self, tmp_path):
        got, problems = read_store(tmp_path / "absent.tsv")
        assert got == [] and problems == []

    def test_timestamp_has_the_isoformat_form(self):
        ours = now_timestamp()
        theirs = datetime.now(timezone.utc).isoformat(timespec="seconds")
        assert re.sub(r"\d", "0", ours) == re.sub(r"\d", "0", theirs)
        age = datetime.now(timezone.utc) - datetime.fromisoformat(ours)
        assert abs(age.total_seconds()) < 5

    @pytest.mark.parametrize("ts", [
        "2026-10", "", "2026-01-01T00:00:00", "2026-01-01 00:00:00+00:00",
        "2026-01-01T00:00:00Z", "2026-01-01T00:00:00.5+00:00",
        "2026-1-01T00:00:00+00:00", "2026-01-01T00:00:00+01:00",
        "\u0662026-01-01T00:00:00+00:00",    # a digit, but not an ASCII one
    ])
    def test_rejects_malformed_timestamps(self, ts):
        with pytest.raises(ValueError, match="timestamp is not of the form"):
            parse_record("-23\t3\t3\t5\t0\t" + ts)
        assert parse_record("-23\t3\t3\t5\t0\t" + TS).timestamp == TS

    def test_format_parse_identity(self):
        rec = ScanRecord(-84, 4, (2, 2), 2, 2, "2026-01-01T00:00:00+00:00")
        assert parse_record(format_record(rec)) == rec

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_read_store_matches_oracle(self, tmp_path, seed):
        path = tmp_path / "s.tsv"
        path.write_text(synthetic_store_text(seed, 600), encoding="utf-8")
        got, problems = read_store(path)
        want, want_problems = oracle_read_store(path)
        assert [tuple(r) for r in got] == \
            [dataclasses.astuple(r) for r in want]
        assert problems == want_problems
        assert_first_record_views_match(path, want, want_problems)
        # valid lines and every rejection are present
        assert len(got) > 40
        for reason in ("expected 6", "invalid literal", "out of range",
                       "inconsistent", "divisor chain", "differs"):
            assert any(reason in msg for _, msg in problems), reason

    @pytest.mark.parametrize("seed", [3, 4])
    def test_shape_memo_matches_oracle(self, tmp_path, seed):
        # a memo that took a line without its D check, its ASCII check or
        # its timestamp check would keep a line that the oracle skips
        path = tmp_path / "s.tsv"
        path.write_bytes(memo_store_bytes(seed, 800))
        got, problems = read_store(path)
        want, want_problems = oracle_read_store(path)
        assert [tuple(r) for r in got] == \
            [dataclasses.astuple(r) for r in want]
        assert problems == want_problems
        assert_first_record_views_match(path, want, want_problems)
        assert problems[:3] == [(1, "invalid literal for int() with base "
                                    "10: 'x-5'"),
                                (2, "field values out of range"),
                                (5, "field values out of range")]
        assert [r.discriminant for r in got[:2]] == [-5, -5]
        for reason in ("invalid literal", "out of range", "not valid UTF-8",
                       "differs", "inconsistent", "expected 6", "timestamp"):
            assert any(reason in msg for _, msg in problems), reason
        assert {-10, -3} <= {r.discriminant for r in got}  # -1_0, -\u0663
        assert {r.timestamp for r in got} == \
            {"2026-01-01T00:00:00+00:00", "2026-01-01T00:00:07+00:00"}
        assert len(got) > 120

    @pytest.mark.parametrize("seed", [0, 3])
    def test_records_view_parses_every_line(self, tmp_path, monkeypatch,
                                            seed):
        # the reference reading shares no shortcut with the memo: each
        # line that is neither blank nor a comment goes to parse_record
        from capkit import store
        path = tmp_path / "s.tsv"
        write_seeded_store(path, seed)
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            want = [line.strip() for line in fh]
        want = [line for line in want if line and not line.startswith("#")]
        seen = []

        def recording_parse(line):
            seen.append(line)
            return parse_record(line)
        monkeypatch.setattr(store, "parse_record", recording_parse)
        records, problems = read_store(path)
        assert seen == want
        assert len(records) + len(problems) == len(want)
        assert records and problems

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_prime_filter_matches_unfiltered_read(self, tmp_path, seed):
        # seeds 0-2 hold corrupt lines of every prime and repeats, 3-4 the
        # memo cases; the filtered read keeps the first record of each D
        path = tmp_path / "s.tsv"
        write_seeded_store(path, seed)
        records, problems = read_store(path)
        for p in (3, 5, 7, 11):
            want = {}
            for r in records:
                if r.prime == p:
                    want.setdefault(r.discriminant, r[1:5])
            assert read_store(path, p) == (want, problems), p
        assert {r.prime for r in records} >= {3, 5}
        repeated = Counter(r.key() for r in records)
        assert max(repeated.values()) > 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_count_store_counts_first_records(self, tmp_path, seed):
        # oracle: the records read_store builds, the first of each (D, p)
        path = tmp_path / "s.tsv"
        write_seeded_store(path, seed)
        records, problems = read_store(path)
        first = {}
        for r in records:
            first.setdefault(r.key(), r.rank)
        tally, repeats, count_problems = count_store(path)
        assert tally == Counter((p, rank) for (_, p), rank in first.items())
        assert repeats == len(records) - len(first) > 0
        assert count_problems == problems

    def test_count_store_of_a_missing_file(self, tmp_path):
        assert count_store(tmp_path / "absent.tsv") == ({}, 0, [])

    def test_prime_filter_checks_lines_of_other_primes(self, tmp_path):
        # the shape of lines 1-4 is first met with p = 3, and h and the
        # factors recur with p = 5 (lines 5-7, one p field written as 05);
        # lines 11-12 repeat a D of each prime with other fields
        path = tmp_path / "s.tsv"
        path.write_text("".join(line + "\t" + TS + "\n" for line in (
            "-23\t3\t3\t3\t1",
            "-31\t3\t3\t3\t1",
            "x-7\t3\t3\t3\t1",
            "7\t3\t3\t3\t1",
            "-39\t3\t3\t5\t0",
            "-43\t3\t3\t5\t0",
            "-47\t3\t3\t05\t0",
            "-\u0665\u0669\t3\t3\t3\t1",      # -59, non-ASCII
            "-\u0666\u0667\t3\t3\t5\t0",      # -67, non-ASCII
            "-71\t3\t3\t5\t1",
            "-39\t25\t5,5\t5\t2",
            "-31\t9\t3,3\t3\t2")), encoding="utf-8")
        problems = [(3, "invalid literal for int() with base 10: 'x-7'"),
                    (4, "field values out of range"),
                    (10, "rank 1 differs from the 5-rank 0 of the invariant "
                         "factors")]
        c3p5, c3p3 = (3, (3,), 5, 0), (3, (3,), 3, 1)
        assert read_store(path, 5) == \
            ({-39: c3p5, -43: c3p5, -47: c3p5, -67: c3p5}, problems)
        assert read_store(path, 3) == \
            ({-23: c3p3, -31: c3p3, -59: c3p3}, problems)
        assert read_store(path, 7) == ({}, problems)
        assert read_store(path)[1] == problems

    @pytest.mark.parametrize("line", [
        "-84\t4\t1,4\t2\t1\tts",      # factor 1
        "-84\t15\t3,5\t5\t1\tts",     # 3 does not divide 5
        "-84\t4\t-2,-2\t2\t2\tts",    # factors below 2
        "-84\t4\t4,1\t2\t1\tts",      # decreasing
    ])
    def test_rejects_non_chain(self, line):
        # with a valid stamp in place of "ts", only the factors are at fault
        with pytest.raises(ValueError, match="not a divisor chain"):
            parse_record(line.replace("\tts", "\t" + TS))

    @pytest.mark.parametrize("line", [
        "-84\t4\t2,2\t2\t1\tts",
        "-23\t3\t3\t5\t1\tts",
        "-3\t1\t1\t3\t1\tts",
    ])
    def test_rejects_rank_mismatch(self, line):
        with pytest.raises(ValueError, match="rank 1 differs from the"):
            parse_record(line.replace("\tts", "\t" + TS))

    def test_undecodable_line_skipped(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        # a valid line may hold non-ASCII text (-44 in Arabic-Indic digits)
        # but no timestamp that is not ASCII
        ts = TS.encode()
        path.write_bytes(b"-23\t3\t3\t3\t1\t" + ts + b"\n"
                         b"-31\t3\t3\t3\t1\t2026\xff\xfe\n"
                         b"-\xd9\xa4\xd9\xa4\t3\t3\t3\t1\t" + ts + b"\n"
                         b"-47\t3\t3\t3\t1\tts\xc3\xa9\n")
        got, problems = read_store(path)
        assert [r.discriminant for r in got] == [-23, -44]
        assert problems == [(2, "line is not valid UTF-8"),
                            (4, "timestamp is not of the form "
                                "YYYY-MM-DDTHH:MM:SS+00:00")]
        code, text = run_cli(["report", "--store", str(path)])
        assert code == 0 and "2 records" in text
        err = capsys.readouterr().err
        assert "store line 2 skipped" in err and "store line 4 skipped" in err

    def test_record_pickles(self):
        rec = ScanRecord(-12451, 25, (5, 5), 5, 2, "2026-01-01T00:00:00+00:00")
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is ScanRecord
        assert back.key() == (-12451, 5)
        assert back.payload() == (-12451, 25, (5, 5), 5, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_checkpoint_life_cycle_matches_oracle(self, tmp_path, monkeypatch,
                                                  seed):
        # every read that parses a byte writes a checkpoint, and after each
        # change to the store or to its checkpoint the views are still those
        # of the oracle's full read
        from capkit import store
        monkeypatch.setattr(store, "_CHECKPOINT_MIN_BYTES", 0)
        rng = random.Random(seed)
        path = tmp_path / "s.tsv"
        side = path.with_name(path.name + store._CHECKPOINT_SUFFIX)
        ts = TS.encode()

        def append(data):
            with open(path, "ab") as fh:
                fh.write(data)

        write_seeded_store(path, seed)
        assert_views_match_oracle(path)     # a cold read, then warm ones
        assert side.is_file()
        append_records(path, [ScanRecord(-7, 1, (), 5, 0, TS),
                              ScanRecord(-23, 3, (3,), 3, 1, TS),
                              ScanRecord(-23, 9, (3, 3), 3, 2, TS),
                              ScanRecord(-3299, 25, (5, 5), 5, 2, TS)])
        assert_views_match_oracle(path)
        # corrupt lines, then a torn last line, which is a problem until
        # the rest of it is appended
        append(b"garbage\n-15\t2\t7\t5\t0\t" + ts + b"\n# note\n\n"
               b"-31\t3\t3\t5\t0\t2026-01-01T00:0")
        assert_views_match_oracle(path)
        append(b"0:00+00:00\n")
        assert_views_match_oracle(path)
        # CRLF and lone CR line ends, non-ASCII and undecodable lines, and
        # a last line ended by CR alone
        append(b"-35\t2\t2\t2\t1\t" + ts + b"\r\n"
               b"-51\t1\t1\t5\t0\r" + ts + b"\n"
               + "-\u0663\u0669\t1\t1\t7\t0\t".encode() + ts + b"\n"
               b"-43\t1\t1\t5\t0\t2026\xff\xfe\n"
               b"-\xd9\xa4\xd9\xa4\t3\t3\t3\t1\t" + ts + b"\n"
               b"-47\t1\t1\t7\t0\t" + ts + b"\r")
        assert_views_match_oracle(path)
        append_records(path, [ScanRecord(-47, 1, (), 3, 0, TS)])
        assert_views_match_oracle(path)
        # a shorter store, whose checkpoint reaches past its end
        data = path.read_bytes()
        path.write_bytes(data[:len(data) * 2 // 3])
        assert_views_match_oracle(path)
        # a store of the same length with other bytes
        lines = path.read_bytes().splitlines(keepends=True)
        rng.shuffle(lines)
        assert len(b"".join(lines)) == path.stat().st_size
        assert b"".join(lines) != path.read_bytes()
        path.write_bytes(b"".join(lines))
        assert_views_match_oracle(path)
        # checkpoints that are junk, cut short, of another layout, digest
        # or interpreter, or whose payload is not the one its digest names
        valid = side.read_bytes()
        head, _, rest = valid.partition(b"\n")
        assert head.startswith(b"capkit-checkpoint 1 ")
        foreign = [b" ".join(f(head.split(b" "))) + b"\n" + rest
                   for f in (lambda w: w[:1] + [b"0"] + w[2:],
                             lambda w: w[:2] + [b"0" * 16] + w[3:],
                             lambda w: w[:3] + [b"cpython-00"])]
        for bad in [rng.randbytes(len(valid)), b"", valid[:len(valid) // 2],
                    valid[:-1], valid[:-1] + bytes([valid[-1] ^ 1]),
                    *foreign]:
            assert bad != valid
            side.write_bytes(bad)
            assert_views_match_oracle(path)
            assert side.read_bytes() == valid
        # a deleted store reads as empty, its stale checkpoint kept aside;
        # a new store at the path does not replay it
        path.unlink()
        assert read_store(path, 5) == ({}, [])
        assert count_store(path) == ({}, 0, [])
        assert side.read_bytes() == valid
        write_seeded_store(path, (seed + 1) % 5)
        assert_views_match_oracle(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["s.tsv", side.name]

    def test_a_warm_read_parses_no_line(self, tmp_path, monkeypatch):
        from capkit import store
        monkeypatch.setattr(store, "_CHECKPOINT_MIN_BYTES", 0)
        path = tmp_path / "s.tsv"
        write_seeded_store(path, 0)
        cold = (read_store(path, 5), count_store(path))
        seen = []

        def recording_parse(line):
            seen.append(line)
            return parse_record(line)
        monkeypatch.setattr(store, "parse_record", recording_parse)
        assert (read_store(path, 5), count_store(path)) == cold
        assert seen == []
        # after an append only the new lines are read
        append_records(path, [ScanRecord(-7, 1, (), 5, 0, TS),
                              ScanRecord(-23, 3, (3,), 13, 0, TS)])
        tally, repeats, problems = count_store(path)
        assert [line.split("\t")[0] for line in seen] == ["-7", "-23"]
        assert tally[13, 0] == 1 and problems == cold[1][2]

    @pytest.mark.parametrize("failing", ["open", "replace"])
    def test_checkpoint_write_errors_change_no_output(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      failing):
        # a checkpoint that cannot be read or written leaves the output and
        # exit status of scan and report as they are, and no file behind
        from capkit import store
        monkeypatch.setattr(store, "_CHECKPOINT_MIN_BYTES", 0)
        text = resume_store_text(1, -13500, -12000)

        def run_commands(where):
            where.mkdir()
            (where / "s.tsv").write_text(text, encoding="utf-8")
            monkeypatch.chdir(where)
            runs = []
            for args in (["scan", "--store", "s.tsv", "--", "-14000",
                          "-12000"], ["report", "--store", "s.tsv"],
                         ["scan", "--store", "s.tsv", "--", "-14000",
                          "-12000"]):
                code, out = run_cli(args)
                runs.append((code, out, capsys.readouterr().err))
            return runs, sorted(p.name for p in where.iterdir())

        want, names = run_commands(tmp_path / "ok")
        assert names == ["s.tsv", "s.tsv.capkit-checkpoint"]
        if failing == "open":
            def fail(file, *args, **kwargs):
                if b".capkit-checkpoint" in os.fsencode(file):
                    raise PermissionError(13, "Permission denied")
                return open(file, *args, **kwargs)
            monkeypatch.setattr(store, "open", fail, raising=False)
        else:
            def fail(src, dst):
                raise OSError(28, "No space left on device")
            monkeypatch.setattr(store.os, "replace", fail)
        got, names = run_commands(tmp_path / "failing")
        assert got == want
        assert names == ["s.tsv"]
        assert want[0][0] == want[1][0] == 0
        assert "(0 new)" not in want[0][1] and "(0 new)" in want[2][1]
        assert all("Traceback" not in err for _, _, err in got)

    def test_only_a_store_of_a_mebibyte_gets_a_checkpoint(self, tmp_path):
        from capkit import store
        path = tmp_path / "s.tsv"
        write_seeded_store(path, 1)
        text = path.read_bytes()
        small = count_store(path), read_store(path, 5)
        assert len(text) < store._CHECKPOINT_MIN_BYTES
        assert [p.name for p in tmp_path.iterdir()] == ["s.tsv"]
        # the same lines, repeated past the threshold
        path.write_bytes(text * (store._CHECKPOINT_MIN_BYTES // len(text) + 1))
        cold = count_store(path), read_store(path, 5)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["s.tsv", "s.tsv.capkit-checkpoint"]
        assert (count_store(path), read_store(path, 5)) == cold
        assert cold[0][0] == small[0][0] and cold[1][0] == small[1][0]
        # the small store again: its read removes the checkpoint that no
        # longer fits, which no read of it would replace
        path.write_bytes(text)
        assert (count_store(path), read_store(path, 5)) == small
        assert [p.name for p in tmp_path.iterdir()] == ["s.tsv"]

    @pytest.mark.parametrize("payload", [
        None,                                        # a directory
        b"", b"\xff", marshal.dumps((1, b"", 1, 1, [], {}))[:-1],
        marshal.dumps((1, 2)), marshal.dumps(7),     # marshal cannot read
        marshal.dumps((1.0, b"", 1, 1, [], {})),    # wrong types
        marshal.dumps((0, b"", 1, 1, [], {})),
        marshal.dumps((True, b"", 1, 1, [], {})),
        marshal.dumps((1, "", 1, 1, [], {})),
        marshal.dumps((1, b"", 1.0, 1, [], {})),
        marshal.dumps((1, b"", 1, None, [], {})),
        marshal.dumps((1, b"", 1, 1, (), {})),
        marshal.dumps((1, b"", 1, 1, [], [])),
    ], ids=["directory", "empty", "bad-code", "truncated", "short-tuple",
            "int", "float-offset", "zero-offset", "bool-offset",
            "str-digest", "float-lineno", "none-lines", "tuple-problems",
            "list-firsts"])
    def test_a_checkpoint_that_is_rejected(self, tmp_path, monkeypatch,
                                           capsys, payload):
        # a sidecar that is a directory, or a file with a valid head and
        # payload digest whose payload marshal cannot read or has the wrong
        # shape: every read equals the oracle's, a rejected file is removed
        # and replaced by the next read that writes a checkpoint, and a
        # directory is left as it is, with no temporary file beside it
        from capkit import store
        path = tmp_path / "s.tsv"
        side = path.with_name(path.name + store._CHECKPOINT_SUFFIX)
        head = ("%s %s\n" % (store._CHECKPOINT_VERSION,
                             sys.implementation.cache_tag)).encode()
        write_seeded_store(path, 0)
        want = run_cli(["report", "--store", str(path)]), \
            capsys.readouterr().err
        assert want[0][0] == 0

        def plant():
            if payload is None:
                side.mkdir(exist_ok=True)
            else:
                side.write_bytes(head + hashlib.sha256(payload).digest()
                                 + payload)
        plant()
        assert run_cli(["report", "--store", str(path)]) == want[0]
        assert "Traceback" not in capsys.readouterr().err
        for _ in range(2):  # a small store: no checkpoint is written
            plant()
            assert_views_match_oracle(path)
            assert side.is_dir() if payload is None else not side.exists()
        monkeypatch.setattr(store, "_CHECKPOINT_MIN_BYTES", 0)
        plant()
        assert_views_match_oracle(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["s.tsv", side.name]
        if payload is None:
            assert side.is_dir() and not any(side.iterdir())
        else:
            assert side.read_bytes().startswith(head)
            assert side.read_bytes()[len(head) + 32:] != payload


class TestCli:
    def test_classgroup_output(self):
        code, text = run_cli(["classgroup", "--", "-23"])
        assert code == 0
        assert "h = 3" in text and "Cl = C3" in text
        code, text = run_cli(["classgroup", "--", "-3"])
        assert code == 0 and "h = 1" in text
        code, text = run_cli(["classgroup", "--", "-12451"])
        assert "5-rank = 2" in text

    def test_classgroup_rejects_bad_discriminant(self):
        code, _ = run_cli(["classgroup", "--", "-5"])
        assert code != 0

    def test_scan_small_range_and_resume(self, tmp_path):
        store = str(tmp_path / "scan.tsv")
        code, text = run_cli(["scan", "--store", store, "--", "-100", "-3"])
        assert code == 0
        assert "new" in text
        first = read_store(store)[0]
        assert first
        # no small discriminant reaches 5-rank 2
        assert all(r.rank < 2 for r in first)
        code, text = run_cli(["scan", "--store", store, "--", "-100", "-3"])
        assert "(0 new)" in text
        assert read_store(store)[0] == first

    def test_resume_is_per_prime_and_range(self, tmp_path):
        store = str(tmp_path / "scan.tsv")
        n = sum(1 for d in range(-100, -2) if is_fundamental(d))
        k = sum(1 for d in range(-50, -2) if is_fundamental(d))
        assert "(%d new)" % n in run_cli(
            ["scan", "--store", store, "--", "-100", "-3"])[1]
        # records for p = 5 do not count as done for p = 3
        code, text = run_cli(["scan", "--store", store, "--prime", "3",
                              "--", "-100", "-3"])
        assert code == 0
        assert "scanned %d discriminants (%d new)" % (n, n) in text
        code, text = run_cli(["scan", "--store", store, "--prime", "3",
                              "--", "-50", "-3"])
        assert "scanned %d discriminants (0 new)" % k in text
        recs = read_store(store)[0]
        assert sorted(r.key() for r in recs) == \
            sorted((r.discriminant, p) for r in recs if r.prime == 5
                   for p in (3, 5))

    def test_resume_reports_corrupt_lines_of_other_primes(self, tmp_path,
                                                          capsys):
        store = tmp_path / "scan.tsv"
        run_cli(["scan", "--store", str(store), "--prime", "3",
                 "--", "-100", "-3"])
        run_cli(["scan", "--store", str(store), "--", "-100", "-3"])
        lines = store.read_text().splitlines()
        p3 = lines[0].split("\t")
        assert p3[3] == "3"
        bad = ["x" + lines[0], "\t".join(p3[:4] + ["9"] + p3[5:])]
        store.write_text("\n".join(lines[:5] + bad + lines[5:]) + "\n")
        capsys.readouterr()
        code, text = run_cli(["scan", "--store", str(store), "--",
                              "-100", "-3"])
        assert code == 0 and "(0 new)" in text
        err = capsys.readouterr().err.splitlines()
        assert [e.split(":")[0] for e in err] == \
            ["store line 6 skipped", "store line 7 skipped"]
        assert "differs from the 3-rank" in err[1]

    def test_resume_counts_each_discriminant_once(self, tmp_path):
        store = tmp_path / "scan.tsv"
        n = sum(1 for d in range(-100, -2) if is_fundamental(d))
        run_cli(["scan", "--store", str(store), "--", "-100", "-3"])
        once = run_cli(["scan", "--store", str(store), "--", "-100", "-3"])
        assert "scanned %d discriminants (0 new)" % n in once[1]
        text = store.read_text()
        store.write_text(text + text)
        assert run_cli(["scan", "--store", str(store), "--",
                        "-100", "-3"]) == once
        # repeats that disagree with the first records do not count
        repeats = "".join("%s\t5\t5\t5\t1\t%s\n" % (line.split("\t")[0], TS)
                          for line in text.splitlines())
        store.write_text(text + repeats)
        assert run_cli(["scan", "--store", str(store), "--",
                        "-100", "-3"]) == once

    @pytest.mark.parametrize("seed,min_rank", [(0, 2), (1, 1), (2, 0)])
    def test_resume_output_matches_the_records(self, tmp_path, capsys,
                                               seed, min_rank):
        # oracle: the resume's output computed from every record in file
        # order, the first record of each D for p = 5 in range counting
        lo, hi = -13500, -12000
        path = tmp_path / "s.tsv"
        path.write_text(resume_store_text(seed, lo, hi), encoding="utf-8")
        before = path.read_bytes()
        records, problems = read_store(path)
        kept = {}
        for r in records:
            if r.prime == 5 and lo <= r.discriminant <= hi:
                kept.setdefault(r.discriminant, r)
        kept = sorted(kept.values(), key=lambda r: -r.discriminant)
        want = ["%d\th=%d\trank=%d" % (r.discriminant, r.class_number, r.rank)
                for r in kept if r.rank >= min_rank]
        hist = Counter(r.rank for r in kept)
        want.append("scanned %d discriminants (0 new); rank histogram: %s"
                    % (len(kept), " ".join("%d:%d" % kv
                                           for kv in sorted(hist.items()))))
        known = reference_discriminants()
        extra = [r.discriminant for r in kept if r.rank == 2
                 and min(known) <= r.discriminant <= max(known)
                 and r.discriminant not in known]
        if min_rank <= 2:
            want += ["informational: %d has 5-rank 2 but is not a tabulated "
                     "discriminant" % d for d in extra]
        capsys.readouterr()
        code, text = run_cli(["scan", "--min-rank", str(min_rank), "--store",
                              str(path), "--", str(lo), str(hi)])
        assert code == 0
        assert text == "\n".join(want) + "\n"
        assert capsys.readouterr().err == "".join(
            "store line %d skipped: %s\n" % pr for pr in problems)
        assert path.read_bytes() == before
        # the store holds what the test means to cover
        assert {r.prime for r in records} == {3, 5, 7}
        assert len(kept) < len([r for r in records if r.prime == 5])
        assert any(r.discriminant < lo for r in records)
        assert any(r.discriminant > hi for r in records)
        assert len({msg.split(":")[0] for _, msg in problems}) > 5
        assert extra and -12451 in [r.discriminant for r in kept]

    @pytest.mark.parametrize("command", ["scan", "report"])
    def test_a_resume_builds_one_record_per_shape(self, tmp_path, monkeypatch,
                                                  command):
        # only the first line of each shape goes through parse_record and
        # builds a record; every later line of that shape is memo work
        from capkit import store
        path = tmp_path / "s.tsv"
        text = resume_store_text(3, -13500, -12000)
        path.write_text(text, encoding="utf-8")
        firsts = {}
        for line in text.splitlines():
            try:
                parse_record(line.strip())
            except ValueError:
                continue
            shape = line.strip().partition("\t")[2].rpartition("\t")[0]
            firsts.setdefault(shape, line.strip())
        accepted, built = [], []
        real_parse = store.parse_record

        def recording_parse(line):
            rec = real_parse(line)
            accepted.append(line)
            return rec

        class CountedRecord(store.ScanRecord):
            __slots__ = ()

            def __new__(cls, *fields):
                built.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(store, "parse_record", recording_parse)
        monkeypatch.setattr(store, "ScanRecord", CountedRecord)
        args = ["scan", "--store", str(path), "--", "-13500", "-12000"] \
            if command == "scan" else ["report", "--store", str(path)]
        assert run_cli(args)[0] == 0
        assert accepted == list(firsts.values())
        assert len(built) == len(firsts) < len(text.splitlines()) // 10

    def test_scan_empty_range(self, tmp_path):
        # a range above -3 holds no discriminant, also when it lies above 0
        store = str(tmp_path / "scan.tsv")
        for lo, hi in (("-2", "-1"), ("1", "1"), ("5", "10"), ("10", "5")):
            code, text = run_cli(["scan", "--store", store, "--", lo, hi])
            assert code == 0
            assert "scanned 0 discriminants (0 new)" in text
        assert list(tmp_path.iterdir()) == []

    def test_scan_records_recompute_identically(self, tmp_path):
        store = str(tmp_path / "scan.tsv")
        run_cli(["scan", "--store", store, "--prime", "3", "--", "-120", "-3"])
        for rec in read_store(store)[0]:
            from capkit.quadform import class_group_structure
            s = class_group_structure(Discriminant(rec.discriminant))
            assert (s.order, s.invariant_factors) == \
                (rec.class_number, rec.invariant_factors)
            assert rec.rank == sum(1 for d in s.invariant_factors if d % 3 == 0)

    def test_scan_parallel_matches_serial(self, tmp_path):
        s1, s2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        run_cli(["scan", "--store", s1, "--", "-400", "-3"])
        run_cli(["scan", "--store", s2, "--jobs", "2", "--", "-400", "-3"])
        a = sorted(r.payload() for r in read_store(s1)[0])
        b = sorted(r.payload() for r in read_store(s2)[0])
        assert a == b

    def test_scan_across_chunks(self, tmp_path):
        # five sieve chunks; serial and pooled scans store the same records
        # in the same order, each equal to a single-discriminant computation
        from capkit.quadform import class_group_structure
        s1, s2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        assert run_cli(["scan", "--store", s1, "--", "-1200", "-3"])[0] == 0
        assert run_cli(["scan", "--store", s2, "--jobs", "2",
                        "--", "-1200", "-3"])[0] == 0
        a = [r.payload() for r in read_store(s1)[0]]
        assert a == [r.payload() for r in read_store(s2)[0]]
        assert [pl[0] for pl in a] == \
            [d for d in range(-1200, -2) if is_fundamental(d)]
        for d, h, invs, p, rank in a:
            s = class_group_structure(Discriminant(d))
            assert (h, invs, rank) == \
                (s.order, s.invariant_factors, s.group.rank(5))

    def test_killed_scan_keeps_its_finished_chunks(self, tmp_path,
                                                   monkeypatch):
        # the sieve chunks of the range; the third raises as a Ctrl-C would
        whole, store = str(tmp_path / "whole.tsv"), str(tmp_path / "scan.tsv")
        assert run_cli(["scan", "--store", whole, "--", "-3000", "-3"])[0] == 0
        expected = [r.payload() for r in read_store(whole)[0]]
        work = list(cli._pending_chunks(-3000, -3, 5, set()))
        width = cli._chunk_width(-3000)
        assert len(work) == -(-2998 // width) > 3
        real, calls = cli._scan_chunk, []

        def killed_at_the_third(args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(args)

        monkeypatch.setattr(cli, "_scan_chunk", killed_at_the_third)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["scan", "--store", store, "--", "-3000", "-3"])
        kept = [r.payload() for r in read_store(store)[0]]
        assert [pl[0] for pl in kept] == work[0][0] + work[1][0]
        assert kept == expected[:len(kept)]
        monkeypatch.setattr(cli, "_scan_chunk", real)
        code, text = run_cli(["scan", "--store", store, "--", "-3000", "-3"])
        assert code == 0
        assert "(%d new)" % (len(expected) - len(kept)) in text
        assert [r.payload() for r in read_store(store)[0]] == expected

    def test_chunks_are_sieved_as_the_scan_reaches_them(self, monkeypatch):
        # the first chunk of a range is sieved alone, not the whole range
        real, calls = cli.fundamental_discriminants, []

        def counted(lo, hi):
            calls.append((lo, hi))
            return real(lo, hi)

        monkeypatch.setattr(cli, "fundamental_discriminants", counted)
        discs, p = next(cli._pending_chunks(-3000, -3, 5, set()))
        assert p == 5
        [(lo, hi)] = calls
        assert lo == -3000 and hi - lo + 1 <= cli._chunk_width(-3000)
        assert discs == real(lo, hi)

    def test_append_after_a_torn_last_line(self, tmp_path, capsys):
        # a kill cut the last line inside its timestamp: what is left has
        # six fields, but is reported, and its D is computed again
        store = tmp_path / "scan.tsv"
        run_cli(["scan", "--store", str(store), "--", "-60", "-3"])
        text = store.read_text()
        lines = text.splitlines()
        last = lines[-1]
        store.write_text(text[:-len(last) - 1] + last[:len(last) // 2])
        assert len(last[:len(last) // 2].split("\t")) == 6
        capsys.readouterr()
        skipped = ["store line %d skipped: timestamp is not of the form "
                   "YYYY-MM-DDTHH:MM:SS+00:00" % len(lines)]
        assert "(11 new)" in run_cli(
            ["scan", "--store", str(store), "--", "-100", "-3"])[1]
        assert capsys.readouterr().err.splitlines() == skipped
        assert "(0 new)" in run_cli(
            ["scan", "--store", str(store), "--", "-100", "-3"])[1]
        code, text = run_cli(["report", "--store", str(store)])
        assert code == 0 and text.startswith("31 records in ")
        assert capsys.readouterr().err.splitlines() == skipped * 2
        assert sorted(r.discriminant for r in read_store(store)[0]) == \
            [d for d in range(-100, -2) if is_fundamental(d)]

    def test_append_after_a_torn_line_that_is_no_record(self, tmp_path,
                                                        capsys):
        store = tmp_path / "scan.tsv"
        run_cli(["scan", "--store", str(store), "--", "-60", "-3"])
        lines = store.read_text().splitlines()
        d = lines[-1].split("\t")[0]
        store.write_text("\n".join(lines[:-1] + [d + "\t1"]))
        capsys.readouterr()
        skipped = ["store line %d skipped: expected 6 tab-separated fields, "
                   "got 2" % len(lines)]
        # the torn line's D is computed again, with the 10 below -60
        assert "(11 new)" in run_cli(
            ["scan", "--store", str(store), "--", "-100", "-3"])[1]
        assert capsys.readouterr().err.splitlines() == skipped
        assert "(0 new)" in run_cli(
            ["scan", "--store", str(store), "--", "-100", "-3"])[1]
        assert capsys.readouterr().err.splitlines() == skipped
        assert run_cli(["report", "--store", str(store)])[1].startswith(
            "31 records in ")
        assert capsys.readouterr().err.splitlines() == skipped
        assert sorted(r.discriminant for r in read_store(store)[0]) == \
            [d for d in range(-100, -2) if is_fundamental(d)]

    @pytest.mark.parametrize("args", [
        ["scan", "--prime", "0", "--", "-100", "-3"],
        ["scan", "--prime", "4", "--", "-100", "-3"],
        ["scan", "--prime", "1", "--", "-100", "-3"],
        ["scan", "--prime", "-5", "--", "-100", "-3"],
        ["scan", "--prime", "1000000007", "--", "-100", "-3"],
        ["scan", "--", "-100000001", "-3"],
        ["classgroup", "--", "-200000003"],
        ["heuristic", "1"],
        ["scan", "--store", "{tmp}", "--", "-100", "-3"],
        ["report", "--store", "{tmp}"],
        ["scan", "--store", "{tmp}/missing/scan.tsv", "--", "-100", "-3"],
        ["scan", "--jobs", "0", "--", "-100", "-3"],
        ["scan", "--jobs", "-1", "--", "-100", "-3"],
        ["scan", "--jobs", str((os.cpu_count() or 1) + 1), "--", "-100", "-3"],
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, monkeypatch, args):
        def no_class_groups(discs):
            raise AssertionError("class groups computed for bad input")

        def no_store_read(path):
            raise AssertionError("store read for bad input")
        monkeypatch.setattr(cli, "class_group_structures", no_class_groups)
        if "{tmp}" not in args:
            # only a store path that is a directory needs the read to fail
            monkeypatch.setattr(cli, "read_store", no_store_read)
        store = tmp_path / "scan.tsv"
        if args[0] == "scan" and "--store" not in args:
            args = args[:1] + ["--store", str(store)] + args[1:]
        args = [a.replace("{tmp}", str(tmp_path)) for a in args]
        code, text = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_refusal_is_reported_by_main(self, capsys, monkeypatch):
        def refuse(ns, out):
            raise cli.Refused("no such thing")
        monkeypatch.setattr(cli, "cmd_report", refuse)
        assert main(["report"]) == 2
        assert capsys.readouterr() == ("", "error: no such thing\n")

    def test_an_internal_fault_mid_scan_ends_in_a_traceback(self, tmp_path,
                                                            monkeypatch):
        # main catches a refusal only: a fault of the program is not bad input
        def fault(discs):
            raise QuadFormError("internal fault")
        monkeypatch.setattr(cli, "class_group_structures", fault)
        with pytest.raises(QuadFormError, match="^internal fault$"):
            run_cli(["scan", "--store", str(tmp_path / "scan.tsv"),
                     "--", "-100", "-3"])

    def test_unwritable_store_exits_2(self, tmp_path, capsys, monkeypatch):
        # '' passes the directory check and reads as an empty store, so the
        # error only shows once the computed records are appended
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(["scan", "--store", "", "--", "-30", "-3"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: cannot write store ")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_store_fails_before_computing(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_class_groups(discs):
            raise AssertionError("class groups computed for an unwritable store")
        monkeypatch.setattr(cli, "class_group_structures", no_class_groups)
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(["scan", "--store", "", "--", "-30", "-3"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: cannot write store ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [["--help"], ["classgroup", "-23"]])
    def test_invalid_catalog_exits_2(self, capsys, monkeypatch, args):
        # build_parser loads the catalog for every command; an edit that
        # breaks it used to end even `capkit --help` in a traceback
        monkeypatch.setattr(cli, "load_catalog", lambda: parse_catalog(
            "group X prime 4 ngens 1\ng1^4 = 1\n"))
        code, text = run_cli(args)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == \
            "error: group X: p = 4 is not a prime\n"

    def test_verify_table(self):
        code, text = run_cli(["verify-table"])
        assert code == 0
        assert "28 rows, 0 conflicts" in text
        assert text.count("OneOne") == 24
        assert text.count("PCapitulation") == 4

    def test_tkt_output(self, capsys):
        code, text = run_cli(["tkt", "C3xC3"])
        assert code == 0
        assert "pattern: (0,0,0,0)" in text
        code, _ = run_cli(["tkt", "NoSuchGroup"])
        assert code != 0
        capsys.readouterr()
        code, text = run_cli(["tkt", "C1"])  # trivial G/G', no index-p subgroup
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: C1: ")

    def test_heuristic_table(self):
        code, text = run_cli(["heuristic", "3"])
        assert code == 0
        assert "0.8889" in text and "0.8992" in text and "0.0989" in text
        code, text = run_cli(["heuristic", "5"])
        assert code == 0 and "published" not in text

    @pytest.mark.parametrize("p", ["4", "9"])
    def test_heuristic_composite_p_exits_2(self, capsys, p):
        code, text = run_cli(["heuristic", p])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: ") and "prime" in err

    def test_cli_import_leaves_command_modules_out(self):
        # a fresh interpreter, since this one has imported them already;
        # only modules that the import of capkit.cli adds are judged
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "import capkit.cli\n"
                "print(*sorted(set(sys.modules) - before))")
        added = set(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout.split())
        assert "capkit.cli" in added
        unused = {"hashlib", "fractions", "decimal", "datetime",
                  "capkit.fixtures", "capkit.heuristics"}
        assert not added & unused, added & unused

    def test_report_empty_store(self, tmp_path):
        code, text = run_cli(["report", "--store", str(tmp_path / "no.tsv")])
        assert code == 0
        assert "0 records" in text

    def test_report_tsv_of_an_empty_store(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        for store in (empty, tmp_path / "no.tsv"):
            assert run_cli(["report", "--tsv", "--store", str(store)]) == \
                (0, "prime\trank\tcount\n")
            assert run_cli(["report", "--store", str(store)]) == \
                (0, "0 records\n")

    def test_report_counts_each_record_once(self, tmp_path, capsys):
        store = tmp_path / "scan.tsv"
        run_cli(["scan", "--store", str(store), "--", "-100", "-3"])
        capsys.readouterr()
        once = run_cli(["report", "--store", str(store)])
        assert once[1].startswith("31 records in ")
        assert capsys.readouterr().err == ""
        text = store.read_text()
        store.write_text(text + text)
        assert run_cli(["report", "--store", str(store)]) == once
        assert capsys.readouterr().err == \
            "31 repeated records not counted: the first record of each " \
            "discriminant and prime counts\n"
        # a repeat with another rank does not count either
        store.write_text(text + "-3\t5\t5\t5\t1\t%s\n" % TS)
        assert run_cli(["report", "--store", str(store)]) == once
        assert capsys.readouterr().err.startswith("1 repeated record")

    def test_report_tsv(self, tmp_path):
        store = tmp_path / "s.tsv"
        append_records(store, [ScanRecord(-23, 3, (3,), 3, 1, TS),
                               ScanRecord(-31, 3, (3,), 3, 1, TS)])
        code, text = run_cli(["report", "--tsv", "--store", str(store)])
        assert code == 0
        assert "prime\trank\tcount" in text
        assert "3\t1\t2" in text


# ---------------------------------------------------------------------------
# fuzz oracle: no argv ends in a traceback
# ---------------------------------------------------------------------------

_CPUS = os.cpu_count() or 1
# --jobs stays out of range or at 1, so that no process pool is started
_JOBS = st.sampled_from([-1, 0, 1, _CPUS + 1]).map(str)
_PRIMES = st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers(-10, 1),
                    st.sampled_from([4, 9, 25, 91, 561]),
                    st.integers(MAX_PRIME + 1, 10 ** 20)).map(str)
# no '-' in junk text, so that no token abbreviates an option (--jobs)
_JUNK = st.text(string.ascii_letters + string.digits + " \u00e9\x00",
                max_size=6)
_INTS = st.integers(-10 ** 6, 10 ** 6).map(str)
_NAMES = st.one_of(st.sampled_from(sorted(load_catalog())), _JUNK)

_ARGVS = st.one_of(
    st.tuples(_PRIMES, _JOBS, st.integers(-1, 3).map(str),
              st.integers(-3000, 3000).map(str),
              st.integers(-3000, 3000).map(str)).map(
        lambda t: ["scan", "--prime", t[0], "--jobs", t[1], "--min-rank",
                   t[2], "--store", "{store}", "--", t[3], t[4]]),
    st.integers(-10 ** 5, 10 ** 5).map(lambda d: ["classgroup", "--", str(d)]),
    st.one_of(st.integers(-5, 10 ** 4).map(str), _JUNK).map(
        lambda p: ["heuristic", "--", p]),
    _NAMES.map(lambda name: ["tkt", "--", name]),
    st.booleans().map(lambda tsv: ["report", "--store", "{store}"]
                      + ["--tsv"] * tsv),
    st.lists(st.one_of(
        st.sampled_from(["scan", "classgroup", "tkt", "heuristic", "report",
                         "verify-table", "--", "--prime", "--min-rank",
                         "--store", "--tsv", "-h"]), _INTS, _JUNK),
        max_size=5))
# a store path that is missing or a directory, or a file of any bytes
_STORES = st.one_of(st.sampled_from(["missing", "directory"]),
                    st.binary(max_size=64))


@given(argv=_ARGVS, store=_STORES)
@example(argv=["scan", "--store", "{store}", "--", "1", "1"], store="missing")
@example(argv=["scan", "--store", "{store}", "--", "5", "10"], store="missing")
@example(argv=["scan", "--store", "{store}", "--", "-10", "5"],
         store="missing")
@example(argv=["scan", "--store", "{store}", "--", "0", "0"], store="missing")
@example(argv=["scan", "--store", "{store}", "--", "-2", "0"], store="missing")
@example(argv=["scan", "--prime", "1" * 20, "--", "-100", "-3"],
         store="missing")
@example(argv=["heuristic", "--", "1000000000039"], store="missing")
@example(argv=["classgroup", "--", "0"], store="missing")
@example(argv=["report", "--store", "{store}"],
         store=b"\x00\xff\xfe\x89PNG\r\n\x1a\n\x00\x00")
@example(argv=["scan", "--store", "{store}", "--", "-30", "-3"],
         store=b"\x00\xff\xfe\x89PNG\r\n\x1a\n\x00\x00")
@example(argv=["report", "--store", "{store}"],
         store=("-3\t%s\t1\t5\t0\t%s\n" % ("9" * 5000, TS)).encode())
@example(argv=["report", "--store", "{store}"],
         store=("-3\t1\t\t5\t0\t%s\n" % TS).encode())
@example(argv=["scan", "--store", "{store}", "--", "-100", "-3"],
         store="directory")
@settings(max_examples=100, deadline=None)
def test_no_argv_ends_in_a_traceback(argv, store):
    # each run is in process, in a directory of its own, which also holds
    # the default store of an argv without --store
    err, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp if store == "directory" else os.path.join(tmp, "s.tsv")
        if isinstance(store, bytes):
            with open(path, "wb") as fh:
                fh.write(store)
        argv = [a.replace("{store}", path) for a in argv]
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv, out=io.StringIO())
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv", [["verify-table"], ["tkt", "H27"],
                                  ["classgroup", "--", "-12451"],
                                  ["heuristic", "3"], ["--help"],
                                  ["tkt", "--help"]])
def test_a_closed_stdout_ends_in_no_traceback(argv):
    # the pipe's read end is closed before the command writes; buffered,
    # the write fails at the last flush, unbuffered at the first print
    env = _subprocess_env()
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, "-m", "capkit.cli", *argv],
                                 env=env, stdout=write, stderr=subprocess.PIPE,
                                 text=True)
        finally:
            os.close(write)
        assert run.returncode == 1, (argv, unbuffered, run.stderr)
        assert "Traceback" not in run.stderr
        assert "Exception ignored" not in run.stderr


@pytest.mark.parametrize("store", ["/dev/zero", "/dev/null", "fifo"])
@pytest.mark.parametrize("command", ["scan", "report"])
def test_a_store_that_is_no_regular_file_is_refused(tmp_path, store, command):
    # read as a store, /dev/zero is one endless line and a FIFO blocks the
    # open; each run is capped at 400 MB of address space and a few
    # seconds, so a reader that tries fails here instead of taking the
    # machine's memory
    import resource
    if store == "fifo":
        store = str(tmp_path / "fifo")
        os.mkfifo(store)
    argv = ["scan", "--store", store, "--", "-50", "-3"] \
        if command == "scan" else ["report", "--store", store]
    cap = 400 << 20
    run = subprocess.run(
        [sys.executable, "-m", "capkit.cli", *argv], env=_subprocess_env(),
        capture_output=True, text=True, timeout=5,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (run.returncode, run.stdout, run.stderr) == \
        (2, "", "error: cannot read store %s: not a regular file\n" % store)
