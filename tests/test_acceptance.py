"""Acceptance suite: every criterion at its stated tolerance (exact unless
noted), one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they happen.
"""

import csv
import hashlib
import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

from harosgraph import cli
from harosgraph.distribution import cf_form_distribution, interval_form_value
from harosgraph.verify import (
    check_base_cases,
    check_conservation,
    check_continuant_identities,
    check_descent_recurrences,
    check_piecewise_linearity,
    check_triple_equality,
    random_term_lists,
    term_grid,
)

# The reference bytes of `haros sweep --k 5,6,7,8 --order 1000`
SWEEP_F1000_SHA256 = "fd4ec61916c468304d33b3413b738854205a6c1f3aff54ad129206f66ad13c76"


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"{label}: PASS ({time.perf_counter() - start:.2f}s)")


# The published 23-entry boundary-identified degree sequence of the graph
# labelled 10/23 (its raw sequence has extreme degrees 5 and 5, merged to 10).
IDENTIFIED_10_23 = [
    3, 2, 5, 2, 5, 2, 8, 3, 2, 5, 2, 5, 2, 8, 3, 2, 5, 2, 5, 2, 5, 2, 10,
]
DIST_10_23 = {
    2: Fraction(10, 23),
    3: Fraction(3, 23),
    5: Fraction(7, 23),
    8: Fraction(2, 23),
    10: Fraction(1, 23),
}


def test_criterion_1_worked_example_reproduction(capsys, tmp_path):
    with criterion("criterion 1 (10/23 worked example)"):
        code = cli.main(["dist", "10/23", "--method", "all", "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["k", "thm1", "thm2", "oracle", "match"]
        table = {}
        for line in lines[1:]:
            k, a, b, c, flag = line.split()
            assert a == b == c and flag == "ok"
            table[int(k)] = Fraction(*map(int, a.split("/")))
        assert table == DIST_10_23

        code = cli.main(["build", "10/23"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        counts = {int(k): m for k, m in payload["identified_counts"].items()}
        expected = {}
        for degree in IDENTIFIED_10_23:
            expected[degree] = expected.get(degree, 0) + 1
        assert counts == expected
        assert payload["degree_sequence"][1:-1] == IDENTIFIED_10_23[:-1]
        assert payload["degree_sequence"][0] + payload["degree_sequence"][-1] == 10
    out = capsys.readouterr()
    print(out.out, end="")


def test_criterion_2_triple_equality_f200():
    with criterion("criterion 2 (triple equality over F_200)"):
        tally = check_triple_equality(200)
        assert tally.failed == 0, tally.first_failure
        assert tally.passed > 200_000


def test_criterion_3_worked_degree_five_line():
    with criterion("criterion 3 (k=5 linear pieces)"):
        for j in range(1, 21):
            x = Fraction(42 + j, 126)  # 20 rationals strictly inside (1/3, 1/2)
            assert interval_form_value(5, x) == 3 * x - 1
            y = Fraction(63 + j, 126)  # and their counterparts in (1/2, 2/3)
            assert interval_form_value(5, y) == -3 * y + 2
        assert interval_form_value(5, Fraction(1, 2)) == 0
        assert interval_form_value(5, Fraction(1, 3)) == Fraction(1, 3)
        assert interval_form_value(5, Fraction(2, 3)) == Fraction(1, 3)


def test_criterion_4_continuant_identities():
    with criterion("criterion 4 (splitting and determinant identities)"):
        tally = check_continuant_identities(
            itertools.chain(term_grid(range(2, 9), 5), random_term_lists(10**4))
        )
        assert tally.failed == 0, tally.first_failure
        # exhaustive part: lengths 2..8 over terms 1..5, two identities each
        assert tally.passed == 2 * (sum(5**n for n in range(2, 9)) + 10**4)


def test_criterion_5_descent_recurrences():
    with criterion("criterion 5 (descent recurrences, levels 3-12)"):
        tally = check_descent_recurrences(3, 12)
        assert tally.failed == 0, tally.first_failure
        assert tally.passed > 10_000


def test_criterion_6_piecewise_linearity_f500():
    with criterion("criterion 6 (piecewise linearity over F_500)"):
        tally = check_piecewise_linearity(500)  # degrees 5..8
        assert tally.failed == 0, tally.first_failure


def test_criterion_7_base_cases_f300():
    with criterion("criterion 7 (low-degree base cases over F_300)"):
        tally = check_base_cases(300)
        assert tally.failed == 0, tally.first_failure
        # the documented lone exception
        assert cf_form_distribution(Fraction(1, 2)).probability(4) == Fraction(1, 2)


def test_criterion_8_conservation_f300():
    with criterion("criterion 8 (conservation over F_300)"):
        tally = check_conservation(300)
        assert tally.failed == 0, tally.first_failure


def test_criterion_9_sweep_dataset(capsys, tmp_path):
    with criterion("criterion 9 (order-1000 sweep dataset)"):
        out_file = tmp_path / "sweep_f1000.csv"
        code = cli.main(
            ["sweep", "--k", "5,6,7,8", "--order", "1000", "--out", str(out_file)]
        )
        summary = capsys.readouterr().out
        assert code == 0
        assert "max cross-method discrepancy: 0/1" in summary

        with open(out_file, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            assert ",".join(header) == cli.SWEEP_CSV_HEADER
            rows = 0
            prev_num = prev_den = prev_k = None
            for row in reader:
                rows += 1
                num, den, k = int(row[0]), int(row[1]), int(row[3])
                t1 = (int(row[4]), int(row[5]))
                t2 = (int(row[6]), int(row[7]))
                oracle = (int(row[8]), int(row[9]))
                assert t1 == t2 == oracle, f"row {rows} disagrees: {row}"
                if prev_num is not None:
                    ordering = num * prev_den - prev_num * den
                    assert ordering > 0 or (ordering == 0 and k > prev_k), (
                        f"row {rows} out of (x, k) order"
                    )
                prev_num, prev_den, prev_k = num, den, k
        expected_rows = 4 * (sum_totients(1000) - 1)
        assert rows == expected_rows
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == SWEEP_F1000_SHA256
    out = capsys.readouterr()
    print(out.out, end="")


def sum_totients(n):
    phi = list(range(n + 1))
    for i in range(2, n + 1):
        if phi[i] == i:
            for j in range(i, n + 1, i):
                phi[j] -= phi[j] // i
    return sum(phi[1:])
