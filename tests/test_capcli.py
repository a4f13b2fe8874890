"""CLI subcommands, the record store, pattern classification and the
packaged discriminant table."""

import io

import pytest

from capkit.cli import (PatternClass, classify_capitulation_pattern, main)
from capkit.fixtures import reference_discriminants, reference_table
from capkit.quadform import Discriminant, is_fundamental
from capkit.store import (ScanRecord, append_records, format_record,
                          now_timestamp, parse_record, read_store)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


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

    def test_format_parse_identity(self):
        rec = ScanRecord(-84, 4, (2, 2), 2, 2, "2026-01-01T00:00:00+00:00")
        assert parse_record(format_record(rec)) == rec


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
        run_cli(["scan", "--store", s2, "--jobs", "3", "--", "-400", "-3"])
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

    @pytest.mark.parametrize("args", [
        ["scan", "--prime", "0", "--", "-100", "-3"],
        ["scan", "--prime", "4", "--", "-100", "-3"],
        ["scan", "--prime", "1", "--", "-100", "-3"],
        ["scan", "--prime", "-5", "--", "-100", "-3"],
        ["scan", "--prime", "1000000007", "--", "-100", "-3"],
        ["scan", "--", "-100000001", "-3"],
        ["classgroup", "--", "-200000003"],
        ["heuristic", "1"],
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, args):
        store = tmp_path / "scan.tsv"
        if args[0] == "scan":
            args = args[:1] + ["--store", str(store)] + args[1:]
        code, text = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not store.exists()

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
