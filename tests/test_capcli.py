"""CLI subcommands, the record store, pattern classification and the
packaged discriminant table."""

import dataclasses
import io
import os
import pickle
import random
import re
import subprocess
import sys
from datetime import datetime, timezone

import pytest

from capkit import cli
from capkit.catalog import parse_catalog
from capkit.cli import (PatternClass, classify_capitulation_pattern, main)
from capkit.fixtures import reference_discriminants, reference_table
from capkit.quadform import Discriminant, is_fundamental
from capkit.store import (ScanRecord, append_records, format_record,
                          now_timestamp, parse_record, read_store)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# oracle: the frozen-dataclass store parser that `store.parse_record`
# replaced, with the divisor-chain and rank checks added after the others
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
                b"2026-01-01T00:00:07+00:00", b"ts \xc3\xa9",  # non-ASCII
                b"2026\xff\xfe", b"")                           # undecodable


def memo_store_bytes(seed, n_lines):
    """A store of n_lines seeded lines over _MEMO_SHAPES, after a prefix in
    which the first line of a shape fails on its D field and valid lines of
    that shape follow."""
    rng = random.Random(seed)
    lines = [b"x-5\t9\t9\t3\t1\tts", b"+5\t9\t9\t3\t1\tts",
             b"-5\t9\t9\t3\t1\tts", b"-05\t9\t9\t3\t1\tts",
             b"0\t9\t9\t3\t1\tts"]
    for _ in range(n_lines):
        n = rng.randint(3, 10 ** 6)
        d = rng.choice(_MEMO_D_FIELDS).format(d=-n, n=n)
        fields = [d, *rng.choice(_MEMO_SHAPES)]
        lines.append("\t".join(fields).encode("utf-8") + b"\t"
                     + rng.choice(_MEMO_STAMPS))
    return b"\n".join(lines) + b"\n"


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
                        "-23\t3\t3\t5\t0\tts\n"
                        "garbage line\n"
                        "-15\t2\t7\t5\t0\tts\n"     # 7 != h
                        "-15\t2\t2\t0\t0\tts\n")    # bad prime
        got, problems = read_store(path)
        assert [r.discriminant for r in got] == [-23]
        assert [ln for ln, _ in problems] == [3, 4, 5]

    def test_parse_rejects_nonrecords(self):
        with pytest.raises(ValueError):
            parse_record("1\t2\t3")
        with pytest.raises(ValueError):
            parse_record("23\t3\t3\t5\t0\tts")  # positive discriminant

    def test_missing_file_is_empty(self, tmp_path):
        got, problems = read_store(tmp_path / "absent.tsv")
        assert got == [] and problems == []

    def test_timestamp_has_the_isoformat_form(self):
        ours = now_timestamp()
        theirs = datetime.now(timezone.utc).isoformat(timespec="seconds")
        assert re.sub(r"\d", "0", ours) == re.sub(r"\d", "0", theirs)
        age = datetime.now(timezone.utc) - datetime.fromisoformat(ours)
        assert abs(age.total_seconds()) < 5

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
        # valid lines and every rejection are present
        assert len(got) > 40
        for reason in ("expected 6", "invalid literal", "out of range",
                       "inconsistent", "divisor chain", "differs"):
            assert any(reason in msg for _, msg in problems), reason

    @pytest.mark.parametrize("seed", [3, 4])
    def test_shape_memo_matches_oracle(self, tmp_path, seed):
        # a memo that took a line without its D check or its ASCII check
        # would keep a line that the oracle skips
        path = tmp_path / "s.tsv"
        path.write_bytes(memo_store_bytes(seed, 800))
        got, problems = read_store(path)
        want, want_problems = oracle_read_store(path)
        assert [tuple(r) for r in got] == \
            [dataclasses.astuple(r) for r in want]
        assert problems == want_problems
        assert problems[:3] == [(1, "invalid literal for int() with base "
                                    "10: 'x-5'"),
                                (2, "field values out of range"),
                                (5, "field values out of range")]
        assert [r.discriminant for r in got[:2]] == [-5, -5]
        for reason in ("invalid literal", "out of range", "not valid UTF-8",
                       "differs", "inconsistent", "expected 6"):
            assert any(reason in msg for _, msg in problems), reason
        assert {-10, -3} <= {r.discriminant for r in got}  # -1_0, -\u0663
        assert "ts \u00e9" in {r.timestamp for r in got}
        assert len(got) > 120

    @pytest.mark.parametrize("line", [
        "-84\t4\t1,4\t2\t1\tts",      # factor 1
        "-84\t15\t3,5\t5\t1\tts",     # 3 does not divide 5
        "-84\t4\t-2,-2\t2\t2\tts",    # factors below 2
        "-84\t4\t4,1\t2\t1\tts",      # decreasing
    ])
    def test_rejects_non_chain(self, line):
        with pytest.raises(ValueError, match="not a divisor chain"):
            parse_record(line)

    @pytest.mark.parametrize("line", [
        "-84\t4\t2,2\t2\t1\tts",
        "-23\t3\t3\t5\t1\tts",
        "-3\t1\t1\t3\t1\tts",
    ])
    def test_rejects_rank_mismatch(self, line):
        with pytest.raises(ValueError, match="rank 1 differs from the"):
            parse_record(line)

    def test_undecodable_line_skipped(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        path.write_bytes(b"-23\t3\t3\t3\t1\tts\n"
                         b"-31\t3\t3\t3\t1\t2026\xff\xfe\n"
                         b"-44\t3\t3\t3\t1\tts\xc3\xa9\n")
        got, problems = read_store(path)
        assert [r.discriminant for r in got] == [-23, -44]
        assert got[1].timestamp == "ts\u00e9"
        assert problems == [(2, "line is not valid UTF-8")]
        code, text = run_cli(["report", "--store", str(path)])
        assert code == 0 and "2 records" in text
        assert "store line 2 skipped" in capsys.readouterr().err

    def test_record_pickles(self):
        rec = ScanRecord(-12451, 25, (5, 5), 5, 2, "2026-01-01T00:00:00+00:00")
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is ScanRecord
        assert back.key() == (-12451, 5)
        assert back.payload() == (-12451, 25, (5, 5), 5, 2)


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

    def test_scan_empty_range(self, tmp_path):
        store = str(tmp_path / "scan.tsv")
        code, text = run_cli(["scan", "--store", store, "--", "-2", "-1"])
        assert code == 0
        assert "scanned 0 discriminants" in text

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
        # twelve sieve chunks; the third raises as a Ctrl-C would
        whole, store = str(tmp_path / "whole.tsv"), str(tmp_path / "scan.tsv")
        assert run_cli(["scan", "--store", whole, "--", "-3000", "-3"])[0] == 0
        expected = [r.payload() for r in read_store(whole)[0]]
        work = cli._pending_chunks(-3000, -3, 5, set())
        assert len(work) == 12
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
        assert list(tmp_path.iterdir()) == []

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

    def test_report_tsv(self, tmp_path):
        store = tmp_path / "s.tsv"
        append_records(store, [ScanRecord(-23, 3, (3,), 3, 1, "t"),
                               ScanRecord(-31, 3, (3,), 3, 1, "t")])
        code, text = run_cli(["report", "--tsv", "--store", str(store)])
        assert code == 0
        assert "prime\trank\tcount" in text
        assert "3\t1\t2" in text
