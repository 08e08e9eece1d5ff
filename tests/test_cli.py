"""Command-line behaviour: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from harosgraph import cli
from harosgraph.cli import SWEEP_CSV_HEADER, main
from harosgraph.distribution import cf_form_distribution, interval_form_distribution
from harosgraph.graphs import build, identify_boundary
from test_distribution import WALK_MUTANTS, plant_walk


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fibonacci_ratio(n):
    """F_(n-1)/F_n as a fraction literal, with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return f"{a}/{b}"


# F_479/F_480: 100 digits, 479 rows, 287 of them reduced by a large factor
# shared with q
F_480 = _fibonacci_ratio(480)

SRC = str(Path(__file__).resolve().parent.parent / "src")

DIST_10_23_SHA256 = "1f7ffa7e0af8ee9fc93ab33343422bc19d65385d78ee18af16fb129d0d7dc606"

# Python's cap on the digits int() reads from a string; 0 means none
INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digits_limit = pytest.mark.skipif(not INT_DIGITS_LIMIT, reason="no int-string limit")
# one digit over the limit in its denominator
OVER_THE_INT_DIGITS_LIMIT = f"1/1{'0' * INT_DIGITS_LIMIT}"


def _cli_lines(capsys, *argv):
    """Python lines main(argv) executes in cli.py frames, and the number of
    table rows it writes."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == cli.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        code = main(list(argv))
    finally:
        sys.settrace(previous)
    out = capsys.readouterr().out
    assert code == 0
    return lines, out.count("\n") - 1


class TestCf:
    def test_worked_report(self, capsys):
        code, out, _ = run(capsys, "cf", "10/23")
        assert code == 0
        assert "terms: 2 3 3" in out
        assert "path: LLRRRLL" in out
        assert "level: 8" in out

    def test_half(self, capsys):
        code, out, _ = run(capsys, "cf", "1/2")
        assert code == 0
        assert "terms: 2" in out and "path: L" in out and "level: 2" in out

    def test_normalises_with_notice(self, capsys):
        code, out, err = run(capsys, "cf", "4/6")
        assert code == 0
        assert "normalised to 2/3" in err
        assert "terms: 1 2" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "cf", "10/23", "--format", "json")
        report = json.loads(out)
        assert report["terms"] == [2, 3, 3]
        assert report["convergents"] == ["1/2", "3/7", "10/23"]

    def test_endpoints(self, capsys):
        code, out, _ = run(capsys, "cf", "0/1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["level"] == 1 and report["terms"] is None

        code, out, _ = run(capsys, "cf", "1/1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["terms"] == [1]
        assert report["path"] is None and report["level"] == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("q", [10**10, 10**200 + 7])
    def test_refuses_a_word_above_the_cap(self, capsys, fmt, q):
        code, out, err = run(capsys, "cf", f"1/{q}", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err == (
            f"error: the descent word has {q - 1} steps; the cap is 1000000 "
            "(its runs are the terms with the last one less one)\n"
        )

    def test_word_at_the_cap_is_printed(self, capsys):
        code, out, _ = run(capsys, "cf", "1/1000000")
        assert code == 0
        assert f"path: {'L' * 999_999}\n" in out

    @pytest.mark.parametrize(
        "bad",
        ["", "x/y", "1/0", "-1/2", "7/3", "1.5",
         pytest.param(OVER_THE_INT_DIGITS_LIMIT, id="over-the-int-digits-limit",
                      marks=needs_int_digits_limit)],
    )
    def test_malformed_input_exits_2(self, capsys, bad):
        code, _, err = run(capsys, "cf", bad)
        assert code == 2
        assert err  # names the offending token

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestBuild:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "build", "10/23")
        payload = json.loads(out)
        assert code == 0
        assert payload["nodes"] == 24
        assert payload["edges"] == 45
        assert payload["identified_counts"] == {
            "2": 10, "3": 3, "5": 7, "8": 2, "10": 1,
        }

    def test_endpoint_note(self, capsys):
        code, out, _ = run(capsys, "build", "0/1")
        payload = json.loads(out)
        assert payload["degree_sequence"] == [1, 1]
        assert payload["identified_counts"] == {}
        assert "convention" in payload["note"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "build", "1/2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "section,key,value"
        assert "sequence,0,2" in lines
        assert "multiset,4,1" in lines

    @pytest.mark.parametrize(
        "fraction", ["0/1", "1/1", "1/2", "10/23", "1/4096", "2/601", "6765/10946"]
    )
    def test_both_formats_match_the_reference_encoders(self, capsys, fraction):
        # the degrees are written as one join; json.dumps(indent=2) and one
        # csv.writer row per node give the same bytes
        x = Fraction(fraction)
        g = build(x)
        interior = 0 < x < 1
        identified = identify_boundary(g) if interior else {}
        payload = {
            "label": fraction,
            "nodes": g.node_count,
            "edges": g.edge_count,
            "degree_sequence": list(g.degrees),
            "identified_counts": {str(k): m for k, m in identified.items()},
        }
        rows = [
            ["section", "key", "value"],
            ["summary", "label", fraction],
            ["summary", "nodes", g.node_count],
            ["summary", "edges", g.edge_count],
        ]
        if not interior:
            payload["note"] = "P(k,0) = P(k,1) = 0 by convention"
            rows.append(["summary", "note", payload["note"]])
        rows += [["sequence", i, k] for i, k in enumerate(g.degrees)]
        rows += [["multiset", k, m] for k, m in identified.items()]
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        assert run(capsys, "build", fraction, "--format", "json")[1] == (
            json.dumps(payload, indent=2) + "\n"
        )
        assert run(capsys, "build", fraction, "--format", "csv")[1] == table.getvalue()

    @pytest.mark.parametrize(
        "fraction, fmt, digest",
        [
            # both sides of the one-byte degree edge
            ("1/254", "json", "667d6e940934d4cd15d34c83373a8824d5d845e1394da9fd1669336f4bb5c981"),
            ("2/505", "json", "7fac77804b100a04065b25a27f943fb12fa3ebf1f753faa643b68531252f1190"),
            ("1/255", "json", "3c7436a390885bbb156c489f93e386fc97068d751f8c3ed8ca9a6d3d2949c2e5"),
            ("1/256", "json", "a36955edde8ef7703fb4e3b668aeb16bae68ba4fabe3d37af0d74c9e251c7b85"),
            ("2/507", "json", "7049fcda366e2e14865cd1fc4573bc63300b8ab134d80843809d24d92856e085"),
            ("6765/10946", "json", "506e0a797cf5b79a5a8b5372c5d77b5fa387c90c8e462a4dca5aa15829fc119e"),
            # the extreme degree 4096 is the only wide one: counted in C
            ("1/4096", "json", "3b6f3e591d103b236465234186cfd3f686dbfc4be03571f6bfa196d888c1250d"),
            # 2/601 = [300, 2]: an interior degree of 303, counted by a Counter
            ("2/601", "json", "e7dd662048652a1cc4eb30de71f60f274ebe4fde8b545238fbd2bd63acd9a58c"),
            # 514,230 degrees, in both formats: the degrees are written as one join
            ("317811/514229", "json",
             "448524ee0cec4d897a0db4fc4818d4237deb8a98466b0f5afc87bd5222ce4c8c"),
            ("317811/514229", "csv",
             "5cecf26b022ad01b3f7fa5e9e45cfc22cfeac6ee14bcaffa0adb336e4c6d798e"),
        ],
        ids=["1/254", "2/505", "1/255", "1/256", "2/507", "6765/10946", "1/4096", "2/601",
             "317811/514229-json", "317811/514229-csv"],
    )
    def test_pinned_bytes(self, capsys, fraction, fmt, digest):
        code, out, err = run(capsys, "build", fraction, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "build", "10/23", "--max-q", "10")
        assert code == 3
        assert "exceeds the build cap 10 (raise it with --max-q)" in err

    def test_cap_is_set_by_max_q_alone(self, capsys, monkeypatch):
        # the cap has one knob: the environment does not lower or raise it
        monkeypatch.setenv("HAROS_MAX_Q", "-5")
        assert run(capsys, "build", "10/23")[0] == 0
        assert run(capsys, "build", "10/23", "--max-q", "23")[0] == 0
        assert run(capsys, "build", "10/23", "--max-q", "0")[0] == 2


class TestDist:
    def test_all_columns_match(self, capsys):
        code, out, _ = run(capsys, "dist", "10/23", "--method", "all", "--strict")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["k", "thm1", "thm2", "oracle", "match"]
        rows = {line.split()[0]: line.split() for line in lines[1:]}
        assert rows["2"][1:4] == ["10/23"] * 3
        assert rows["5"][1:4] == ["7/23"] * 3
        assert rows["10"][1:4] == ["1/23"] * 3
        assert all(line.split()[-1] == "ok" for line in lines[1:])

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "dist", "2/5", "--method", "thm2")
        assert code == 0
        assert any(line.split() == ["5", "1/5"] for line in out.splitlines())

    def test_empty_for_one(self, capsys):
        code, out, _ = run(capsys, "dist", "1/1")
        assert code == 0
        assert "empty distribution" in out

    @needs_int_digits_limit
    def test_literal_over_the_int_digits_limit_exits_2(self, capsys):
        # int() used to raise out of the parser: a traceback and exit 1
        code, out, err = run(capsys, "dist", OVER_THE_INT_DIGITS_LIMIT, "--method", "thm1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: fraction literal with more than {INT_DIGITS_LIMIT} digits "
            "in its numerator or denominator (Python's int-string limit)\n"
        )

    @needs_int_digits_limit
    def test_literal_at_the_int_digits_limit_parses(self, capsys):
        q = 10 ** (INT_DIGITS_LIMIT - 1) + 7
        code, out, _ = run(capsys, "dist", f"3/{q}", "--method", "thm1")
        assert code == 0
        assert f"2  3/{q}\n" in out

    def test_strict_mismatch_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "interval_form_distribution",
            lambda x: cli.DegreeDistribution({2: 2}, 3),
        )
        code, out, err = run(capsys, "dist", "1/3", "--method", "all", "--strict")
        assert code == 4
        # a count missing from one column is 0/1 there
        assert out == (
            "k  thm1  thm2  oracle  match\n"
            "2  1/3  2/3  1/3  MISMATCH\n"
            "3  1/3  0/1  1/3  MISMATCH\n"
            "5  1/3  0/1  1/3  MISMATCH\n"
        )
        assert err == "error: methods disagree\n"

    def test_strict_mismatch_in_the_first_column_exits_4(self, capsys, monkeypatch):
        # thm1 is the odd one out: the table does not take its column as
        # every row's cell
        monkeypatch.setattr(
            cli, "cf_form_distribution",
            lambda x: cli.DegreeDistribution({2: 2}, 3),
        )
        code, out, err = run(capsys, "dist", "1/3", "--method", "all", "--strict")
        assert code == 4
        assert out == (
            "k  thm1  thm2  oracle  match\n"
            "2  2/3  1/3  1/3  MISMATCH\n"
            "3  0/1  1/3  1/3  MISMATCH\n"
            "5  0/1  1/3  1/3  MISMATCH\n"
        )
        assert err == "error: methods disagree\n"

    @pytest.mark.parametrize(
        "method, route",
        [("thm1", cf_form_distribution), ("thm2", interval_form_distribution)],
    )
    def test_bigint_cells_with_shared_factors(self, capsys, method, route):
        code, out, err = run(capsys, "dist", F_480, "--method", method)
        assert (code, err) == (0, "")
        x = Fraction(F_480)
        counts = route(x).counts
        lines = out.splitlines()
        assert lines[0] == f"k  {method}"
        rows = [line.split("  ") for line in lines[1:]]
        assert [int(k) for k, _ in rows] == list(counts)
        for k, cell in rows:
            value = Fraction(counts[int(k)], x.denominator)
            assert cell == f"{value.numerator}/{value.denominator}", k
        assert len(rows) == 479
        assert sum(not cell.endswith(f"/{x.denominator}") for _, cell in rows) == 287

    @pytest.mark.parametrize("method", ["thm1", "thm2"])
    def test_table_cost_is_one_line_per_row(self, capsys, method):
        # Executed lines in cli.py frames over F_(n-1)/F_n, n = 60 ... 480:
        # each added row costs at most 1.2 lines; a per-row loop that
        # builds its own lists costs about 17
        measured = [_cli_lines(capsys, "dist", _fibonacci_ratio(n), "--method", method)
                    for n in (60, 120, 240, 480)]
        for (l0, r0), (l1, r1) in zip(measured, measured[1:]):
            assert r1 > r0 and l1 - l0 <= 1.2 * (r1 - r0), measured

    def test_agreeing_table_runs_only_the_cell_comprehension_per_row(self, capsys):
        # with --method all, a row whose three routes agree adds one line:
        # the first column's cell; the rows are written by a template
        measured = [_cli_lines(capsys, "dist", _fibonacci_ratio(n), "--method", "all")
                    for n in (12, 16, 20, 24)]
        for (l0, r0), (l1, r1) in zip(measured, measured[1:]):
            assert r1 > r0 and l1 - l0 <= r1 - r0, measured

    def test_every_cell_is_reduced(self, capsys, monkeypatch):
        # counts over q = 4: an agreeing row and a disagreeing one each
        # reduce every cell, and a count coprime to q stands as it is
        monkeypatch.setattr(
            cli, "interval_form_distribution",
            lambda x: cli.DegreeDistribution({2: 2, 3: 2}, 4),
        )
        code, out, _ = run(capsys, "dist", "1/4", "--method", "all")
        assert code == 0
        assert out == (
            "k  thm1  thm2  oracle  match\n"
            "2  1/4  1/2  1/4  MISMATCH\n"
            "3  1/2  1/2  1/2  ok\n"
            "6  1/4  0/1  1/4  MISMATCH\n"
        )
        code, out, _ = run(capsys, "dist", "1/4", "--method", "oracle")
        assert out == "k  oracle\n2  1/4\n3  1/2\n6  1/4\n"

    @pytest.mark.parametrize(
        "fraction, method, digest",
        [
            ("1/4096", "all", "d7ffa7aa8b5ddce0c63cf97a3793931265aae9241c36c156f650712693e15669"),
            ("6765/10946", "all", "9a55701747fae31dc43dbb79abc2c97bdffce5f5284ba3ef3f735c554eba1a38"),
            ("46368/75025", "all", "fc0e430b2d7c6e552cce8fff72866976fdc7dd076ff8b7fd97f01bbb436a449e"),
            ("10/23", "all", DIST_10_23_SHA256),
            # level 254 (degrees up to 255, one byte each) and level 255 (four)
            ("2/505", "all", "f4f0854d94de7dbe179547d7a83bbc5c98c1bef1df2b3ed3b0bdd720784400bf"),
            ("2/507", "all", "29bba3c6e8ee9540aac9a42f74305d964a05f254b64c6dd720cfaa24d63a6e37"),
            # four-byte arrays: an interior degree of 303, and the interior of
            # 1/10^6 counted through its low bytes
            ("2/601", "all", "81223d4daeb8714aac85c670b280e02c1a3e9758c42cfb8605d4dc583a6692f8"),
            ("1/1000000", "all", "8eee01ec6a63028045517a92fd6c1e14aa0a9d1eba6f8feead5cece9a1d9e817"),
            (f"3/{10**200 + 7}", "thm2", "11a6f5fc441d98e42eb694ef8139b33f01084c931dcdeee122093b844ef6f8f2"),
            # the mirror of the last one, descended above 1/2: the same table
            (f"{10**200 + 4}/{10**200 + 7}", "thm2", "11a6f5fc441d98e42eb694ef8139b33f01084c931dcdeee122093b844ef6f8f2"),
            (F_480, "thm1", "37d69e0b35ab6a9351f61917fad4cd25ca2eb54d60172593f63eb63c2e727938"),
            (F_480, "thm2", "95d161328821ec30ef523b002e647ee7fe13b3b0780286ca15420c03a67505df"),
        ],
        ids=["1/4096", "6765/10946", "46368/75025", "10/23", "2/505", "2/507", "2/601",
             "1/1000000", "3/(10^200+7)", "(10^200+4)/(10^200+7)", "F_479/F_480-thm1",
             "F_479/F_480-thm2"],
    )
    def test_pinned_bytes(self, capsys, fraction, method, digest):
        code, out, err = run(capsys, "dist", fraction, "--method", method)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_oracle_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "dist", "10/23", "--method", "oracle", "--max-q", "5")
        assert code == 3
        assert "exceeds the build cap 5 (raise it with --max-q)" in err

    def test_oracle_cap_is_checked_before_any_column(self, capsys, monkeypatch):
        def never(x):
            raise AssertionError("thm2 ran before the oracle cap was checked")

        monkeypatch.setattr(cli, "interval_form_distribution", never)
        code, out, err = run(capsys, "dist", "1/100000000", "--method", "all")
        assert code == 3
        assert out == ""
        assert "--max-q" in err

    def test_thm2_needs_no_cap(self, capsys):
        q = 10**200 + 7
        code, out, _ = run(capsys, "dist", f"3/{q}", "--method", "thm2")
        assert code == 0
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:]}
        assert rows[str(q // 3 + 5)] == f"1/{q}"


class TestSweep:
    def test_header_and_rows(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, out, _ = run(
            capsys, "sweep", "--k", "5", "--order", "3", "--out", str(out_file)
        )
        assert code == 0
        assert "wrote 3 rows" in out
        assert "max cross-method discrepancy: 0/1" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1].startswith("1,3,")
        assert len(lines) == 4

    def test_byte_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--k", "5,6,7", "--order", "40", "--out", str(a))
        run(capsys, "sweep", "--k", "5,6,7", "--order", "40", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "ks, order, fmt, rows, digest",
        [
            ("5,6,7,8", 40, "csv", 1956,
             "e13502c9cb0a19864836b4eab09ac4aab5f787cb96f8936287c2f7d3b9f37909"),
            ("5,6,7,8", 40, "json", 1956,
             "d547f6feb3be6beaed83f755b17f9926616b3e81a482bd210443f2bbeccbe72f"),
            ("5,6,7,8", 300, "csv", 109_588,
             "1c4c0a26e3959d6b1838206973b4ded70777a8ecf6c1c739418246097f031ee5"),
            ("5,6,7,8", 300, "json", 109_588,
             "580cec405b5cd33a286ddff92ceaa4006bd49128dfa893fd377b18e201415f6e"),
            # degrees with gaps between them
            ("5,9,13,40", 300, "csv", 109_588,
             "41d0a6562b617fb25ac9b115b7b89db7b886edb8f03d698449739a6c20f02d38"),
        ],
        ids=["5-8-order-40-csv", "5-8-order-40-json", "5-8-order-300-csv",
             "5-8-order-300-json", "gaps-order-300-csv"],
    )
    def test_pinned_bytes(self, capsys, tmp_path, ks, order, fmt, rows, digest):
        out_file = tmp_path / f"s.{fmt}"
        code, out, _ = run(
            capsys, "sweep", "--k", ks, "--order", str(order),
            "--out", str(out_file), "--format", fmt,
        )
        assert code == 0
        assert out.endswith(f"wrote {rows} rows to {out_file}"
                            "; max cross-method discrepancy: 0/1\n")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    def test_json_mirrors_field_names(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        code, _, _ = run(
            capsys, "sweep", "--k", "5", "--order", "3",
            "--out", str(out_file), "--format", "json",
        )
        assert code == 0
        records = json.loads(out_file.read_text())
        assert len(records) == 3
        assert set(records[0]) == set(SWEEP_CSV_HEADER.split(","))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_disagreeing_counts_are_written_and_summarised(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        # the three routes never disagree on real input, so plant two x
        def planted(ks, order, row_cap):
            yield 1, 3, (1,), (2,), (1,)
            yield 2, 5, (0,), (0,), (3,)

        monkeypatch.setattr(cli, "sweep", planted)
        out_file = tmp_path / f"s.{fmt}"
        code, out, _ = run(
            capsys, "sweep", "--k", "5", "--order", "5",
            "--out", str(out_file), "--format", fmt,
        )
        assert code == 0
        assert out == (f"wrote 2 rows to {out_file}; "
                       "max cross-method discrepancy: 3/5\n")
        expected = [
            "1,3,0.33333333333333331,5,1,3,2,3,1,3",
            "2,5,0.40000000000000002,5,0,1,0,1,3,5",
        ]
        if fmt == "csv":
            assert out_file.read_text().splitlines() == [SWEEP_CSV_HEADER] + expected
        else:
            records = json.loads(out_file.read_text())
            assert [list(r) for r in records] == [SWEEP_CSV_HEADER.split(",")] * 2
            for record, line in zip(records, expected):
                cells = line.split(",")
                assert record["x_float"] == int(cells[0]) / int(cells[1])
                assert [str(v) for k, v in record.items() if k != "x_float"] == (
                    cells[:2] + cells[3:]
                )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_disagreeing_rows_beside_agreeing_ones(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        # an x whose columns differ goes row by row, its agreeing rows too,
        # so plant disagreements between agreeing rows at one x
        def planted(ks, order, row_cap):
            yield 3, 8, (0, 0, 2, 1), (0, 0, 2, 7), (0, 2, 2, 1)

        monkeypatch.setattr(cli, "sweep", planted)
        out_file = tmp_path / f"s.{fmt}"
        code, out, _ = run(
            capsys, "sweep", "--k", "5,6,7,8", "--order", "8",
            "--out", str(out_file), "--format", fmt,
        )
        assert code == 0
        # the worst row is (8, 1, 7, 1): 6/8 apart
        assert out == (f"wrote 4 rows to {out_file}; "
                       "max cross-method discrepancy: 3/4\n")
        expected = [
            "3,8,0.375,5,0,1,0,1,0,1",
            "3,8,0.375,6,0,1,0,1,1,4",
            "3,8,0.375,7,1,4,1,4,1,4",
            "3,8,0.375,8,1,8,7,8,1,8",
        ]
        if fmt == "csv":
            assert out_file.read_text().splitlines() == [SWEEP_CSV_HEADER] + expected
        else:
            records = json.loads(out_file.read_text())
            assert [list(r) for r in records] == [SWEEP_CSV_HEADER.split(",")] * 4
            for record, line in zip(records, expected):
                cells = line.split(",")
                assert record["x_float"] == 0.375
                assert [str(v) for k, v in record.items() if k != "x_float"] == (
                    cells[:2] + cells[3:]
                )

    @pytest.mark.parametrize("case", list(WALK_MUTANTS))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_broken_walk_exits_1_and_leaves_no_file(
        self, capsys, tmp_path, monkeypatch, case, fmt
    ):
        message = plant_walk(monkeypatch, case)
        out_file = tmp_path / f"s.{fmt}"
        code, out, err = run(
            capsys, "sweep", "--k", "5,6,7,8", "--order", "40",
            "--out", str(out_file), "--format", fmt,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_file.exists()
        assert not os.path.exists(str(out_file) + ".partial")

    def test_empty_order_one(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, out, _ = run(
            capsys, "sweep", "--k", "5", "--order", "1", "--out", str(out_file)
        )
        assert code == 0 and "wrote 0 rows" in out
        assert out_file.read_text().splitlines() == [SWEEP_CSV_HEADER]

    def test_row_cap_removes_partials(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, err = run(
            capsys, "sweep", "--k", "5", "--order", "200",
            "--out", str(out_file), "--max-rows", "10",
        )
        assert code == 3
        assert "the cap is 10" in err
        assert "(set the row cap with --max-rows)" in err
        assert not out_file.exists()
        assert not os.path.exists(str(out_file) + ".partial")

    def test_huge_order_is_refused_before_counting(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, err = run(
            capsys, "sweep", "--k", "5", "--order", "100000000",
            "--out", str(out_file),
        )
        assert code == 3
        assert "the cap is 5000000 (set the row cap with --max-rows)" in err
        assert not out_file.exists()

    def test_huge_cap_is_refused_before_counting(self, capsys, tmp_path):
        # the row count's sieve used to start at isqrt(cap) + 2 = 10**12
        # and die on a bare MemoryError
        out_file = tmp_path / "s.csv"
        code, _, err = run(
            capsys, "sweep", "--k", "5", "--order", str(10**12),
            "--out", str(out_file), "--max-rows", str(10**24),
        )
        assert code == 3
        assert "sieves totients up to 1000000000000; the largest sieve is 1000000" in err
        assert not out_file.exists()
        assert not os.path.exists(str(out_file) + ".partial")

    def test_rejects_low_degree(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "--k", "4,5", "--order", "3",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--k", "5", "--order", "3",
            "--out", str(tmp_path / "missing" / "s.csv"),
        )
        assert code == 2
        assert "cannot write" in err
        code, _, err = run(
            capsys, "sweep", "--k", "5", "--order", "3", "--out", str(tmp_path)
        )
        assert code == 2
        assert not os.path.exists(str(tmp_path) + ".partial")


class TestVerify:
    def test_default_run_is_clean(self, capsys):
        code, out, err = run(capsys, "verify", "--order", "50", "--levels", "10")
        assert code == 0
        manifest = json.loads(out)
        assert manifest["checks_failed"] == 0
        assert "triple-equality" in err  # per-suite tallies on stderr

    def test_manifest_on_stdout(self, capsys):
        code, out, err = run(
            capsys, "verify", "--order", "20", "--levels", "6", "--suite", "triple"
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["checks_failed"] == 0
        assert manifest["checks_passed"] > 0
        assert "first_failure" not in manifest
        assert manifest["parameters"] == {
            "suite": "triple", "order": 20, "levels": 6,
        }

    def test_usage_error_on_zero_order(self, capsys):
        assert run(capsys, "verify", "--order", "0")[0] == 2

    def test_unknown_suite_exits_2(self, capsys):
        assert run(capsys, "verify", "--suite", "nonsense")[0] == 2

    def test_failure_exits_1(self, capsys, monkeypatch):
        from harosgraph.verify import RunManifest

        def broken(suite, order, levels):
            manifest = RunManifest(
                command="verify",
                parameters={},
                started="x",
                finished="y",
                checks_passed=1,
                checks_failed=2,
                first_failure="synthetic: 1/2 vs 1/3",
            )
            return manifest, []

        monkeypatch.setattr(cli, "run_verification", broken)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert json.loads(out)["first_failure"] == "synthetic: 1/2 vs 1/3"


def test_runs_as_a_module():
    # python -m harosgraph.cli: its output and its exit codes reach the shell
    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "harosgraph.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, timeout=120,
        )

    dist = module("dist", "10/23", "--method", "all")
    assert (dist.returncode, dist.stderr) == (0, b"")
    assert hashlib.sha256(dist.stdout).hexdigest() == DIST_10_23_SHA256
    assert module("build", "10/23", "--max-q", "10").returncode == 3


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_commands(self, capsys):
        # one cached parser for all four commands, in this order, gives what
        # a freshly built parser gives for each of them
        commands = [
            ["dist", "1/3", "--method", "all", "--strict"],
            ["dist", "1/3", "--method", "nonsense"],
            ["--help"],
            ["dist", "1/3"],
        ]
        shared = [run(capsys, *argv) for argv in commands]
        fresh = []
        for argv in commands:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 2, 0, 0]
        assert shared[0][1] == shared[3][1]
        assert "invalid choice: 'nonsense'" in shared[1][2]
        assert shared[2][1].startswith("usage: haros")

    def test_handler_is_looked_up_at_call_time(self, capsys, monkeypatch):
        # the parser is built and cached by the first command; a handler
        # replaced after that still runs
        assert run(capsys, "dist", "1/3")[0] == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_dist", lambda args: seen.append(args.fraction) or 7)
        assert run(capsys, "dist", "2/5")[0] == 7
        assert seen == ["2/5"]
