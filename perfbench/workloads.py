"""The benchmark's three workloads, their seeded inputs and their output checks.

Every workload drives the ``haros`` command line in-process through
``harosgraph.cli.main``, one command at a time, and checks what the command
printed or wrote.  One pass is one unit of work: one ``sweep`` command, one
``verify`` command, or the whole seeded list of ``dist`` queries.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import harosgraph.cli


@dataclass(frozen=True)
class Scale:
    """Input sizes of all three workloads, with the reference outputs."""

    sweep_order: int
    sweep_ks: str
    sweep_rows: int
    sweep_sha256: str
    verify_order: int
    verify_levels: int
    verify_checks: int
    # point: 1/q with q = 2**e (+ jitter) for each exponent e
    one_term_exponents: tuple[int, ...]
    # point: 1/q with q = deep_base * 2**j (+ jitter), j = 0..3
    deep_base: int
    # point: denominator range of the golden and random families
    q_range: tuple[int, int]
    # point: digit range of the bigint family's denominators
    digits: tuple[int, int]
    # point: fractions per family (one-term and deep-L: per grid point)
    per_grid_point: int
    golden_count: int
    random_count: int
    bigint_count: int


FULL = Scale(
    sweep_order=300,
    sweep_ks="5,6,7,8",
    sweep_rows=109_588,
    sweep_sha256="1c4c0a26e3959d6b1838206973b4ded70777a8ecf6c1c739418246097f031ee5",
    verify_order=150,
    verify_levels=13,
    verify_checks=217_766,
    one_term_exponents=(10, 11, 12),
    deep_base=10**5,
    q_range=(10**4, 10**5),
    digits=(60, 100),
    per_grid_point=2,
    golden_count=30,
    random_count=40,
    bigint_count=20,
)

# A few-millisecond version of every workload: the warm-up before timing,
# and the size the benchmark's self-test runs at.
TINY = Scale(
    sweep_order=20,
    sweep_ks="5,6",
    sweep_rows=254,
    sweep_sha256="753c3591fc03e5fad13e308d355a9779f0e778342bcd9e3779012cb7fbe22e98",
    verify_order=12,
    verify_levels=5,
    verify_checks=15_490,
    one_term_exponents=(4, 5, 6),
    deep_base=100,
    q_range=(50, 500),
    digits=(8, 12),
    per_grid_point=1,
    golden_count=2,
    random_count=3,
    bigint_count=2,
)

# Random and bigint fractions with a continued-fraction term above this are
# drawn again.  One huge term makes the build quadratic and thm2 linear in
# the term; the one-term and deep-L families measure exactly that, on a
# fixed grid, so the random families stay within a narrow cost band.
MAX_RANDOM_TERM = 100


@dataclass
class PassResult:
    """What one pass did and how long the program took for it."""

    latencies: list[float]  # seconds per command, in order
    rows: int  # result rows the commands reported
    checks: int  # cross-method equalities the commands evaluated
    attempted: int  # operations whose output the benchmark checked
    failed: int  # of those, the ones whose output was wrong

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def call_cli(argv: list[str]) -> tuple[int | None, float, str]:
    """Run one ``haros`` command in-process: (exit code, seconds, stdout).

    The exit code is None when the command raised instead of returning.
    """
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = harosgraph.cli.main(argv)
    except Exception:
        elapsed = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return None, elapsed, out.getvalue()
    return code, perf_counter() - start, out.getvalue()


# --- sweep -----------------------------------------------------------------


def check_sweep_csv(path: Path, rows: int, sha256: str) -> tuple[int, int]:
    """Check a sweep CSV: (data rows found, rows that are wrong or missing).

    A row is wrong when its thm1, thm2 and oracle columns differ.  If every
    row agrees and the count is right but the file's digest differs from
    the reference, one failure is counted: some row holds another value.
    """
    try:
        with path.open("rb") as raw:
            digest = hashlib.file_digest(raw, "sha256").hexdigest()
    except OSError:
        return 0, rows
    found = bad = 0
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != harosgraph.cli.SWEEP_CSV_HEADER.split(","):
            bad += 1
        for row in reader:
            found += 1
            if len(row) != 10 or not (row[4:6] == row[6:8] == row[8:10]):
                bad += 1
    bad += abs(rows - found)
    if not bad and digest != sha256:
        bad = 1
    return found, min(bad, rows)


class Sweep:
    """``haros sweep --k <ks> --order <n>`` to a CSV file, checked row by row."""

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        # The sweep's input is fixed by its order and degrees; the seed
        # changes nothing here.
        self.scale = scale
        self.out = workdir / "sweep.csv"

    def run_pass(self) -> PassResult:
        s = self.scale
        argv = ["sweep", "--k", s.sweep_ks, "--order", str(s.sweep_order),
                "--out", str(self.out)]
        code, elapsed, _ = call_cli(argv)
        found, failed = check_sweep_csv(self.out, s.sweep_rows, s.sweep_sha256)
        if code != 0:
            failed = s.sweep_rows
        self.out.unlink(missing_ok=True)
        return PassResult([elapsed], found, found, s.sweep_rows, failed)


# --- verify ----------------------------------------------------------------


def check_verify_manifest(stdout: str, checks: int) -> tuple[int, int]:
    """Check a verify manifest: (checks run, checks failed or missing)."""
    try:
        manifest = json.loads(stdout)
        passed = int(manifest["checks_passed"])
        failed = int(manifest["checks_failed"])
    except (ValueError, KeyError, TypeError):
        return 0, checks
    run = passed + failed
    return run, min(checks, failed + abs(checks - run))


class Verify:
    """``haros verify --suite all --order <n> --levels <l>``, counts checked."""

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        # Like the sweep, the verify input is fixed; the seed changes nothing.
        self.scale = scale

    def run_pass(self) -> PassResult:
        s = self.scale
        argv = ["verify", "--suite", "all", "--order", str(s.verify_order),
                "--levels", str(s.verify_levels)]
        code, elapsed, stdout = call_cli(argv)
        run, failed = check_verify_manifest(stdout, s.verify_checks)
        if code != 0:
            failed = max(failed, 1)
        return PassResult([elapsed], run, run, s.verify_checks, failed)


# --- point -----------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    family: str
    x: Fraction
    method: str

    def argv(self) -> list[str]:
        return ["dist", f"{self.x.numerator}/{self.x.denominator}",
                "--method", self.method]


def _cf_terms(p: int, q: int) -> list[int]:
    terms = []
    while p:
        terms.append(q // p)
        p, q = q % p, p
    return terms


def _golden(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A fraction whose continued-fraction terms are all 1 or 2, lo <= q <= hi."""
    while True:
        p_prev, p = 1, 0
        q_prev, q = 0, 1
        while q < lo:
            a = rng.choice((1, 2))
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
            if a == 2 and lo <= q <= hi:
                return Fraction(p, q)


def _random_fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    """p/q with q uniform in [lo, hi] and no term above MAX_RANDOM_TERM."""
    while True:
        q = rng.randint(lo, hi)
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1 and max(_cf_terms(p, q)) <= MAX_RANDOM_TERM:
            return Fraction(p, q)


def point_queries(seed: int, scale: Scale) -> list[Query]:
    """The seeded query list: five families, each query naming its method.

    Denominators are stratified (grid points, log-spaced strata, evenly
    spread digit counts) so that the seed moves which fractions are asked,
    not how much work the list is in total.
    """
    rng = random.Random(seed)
    queries = []
    for e in scale.one_term_exponents:
        for _ in range(scale.per_grid_point):
            q = 2**e + rng.randrange(2**e // 64 or 1)
            queries.append(Query("one-term", Fraction(1, q), "all"))
    lo, hi = scale.q_range
    span = math.log(hi / lo)
    for family, count in (("golden", scale.golden_count), ("random", scale.random_count)):
        for i in range(count):
            a = int(lo * math.exp(span * i / count))
            b = int(lo * math.exp(span * (i + 1) / count))
            x = _golden(rng, a, b) if family == "golden" else _random_fraction(rng, a, b)
            queries.append(Query(family, x, "all"))
    for j in range(4):
        for _ in range(scale.per_grid_point):
            q = scale.deep_base * 2**j
            x = Fraction(1, q + rng.randrange(q // 64 or 1))
            queries.append(Query("deep-L", x, "thm2"))
            queries.append(Query("deep-L", x, "thm1"))
    d_lo, d_hi = scale.digits
    for i in range(scale.bigint_count):
        d = d_lo + (d_hi - d_lo) * i // max(scale.bigint_count - 1, 1)
        x = _random_fraction(rng, 10 ** (d - 1), 10**d - 1)
        queries.append(Query("bigint", x, "thm1"))
        queries.append(Query("bigint", x, "thm2"))
    return queries


def parse_dist_table(stdout: str) -> tuple[list[str], dict[int, list[str]]] | None:
    """Columns and rows of a ``haros dist`` table, or None if malformed."""
    lines = stdout.splitlines()
    if not lines or lines[0].split()[:1] != ["k"]:
        return None
    columns = lines[0].split()[1:]
    rows = {}
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != len(columns) + 1:
            return None
        try:
            rows[int(cells[0])] = cells[1:]
        except ValueError:
            return None
    return columns, rows


def check_dist_table(
    query: Query, table: tuple[list[str], dict[int, list[str]]]
) -> dict[int, Fraction] | None:
    """The distribution a dist query printed, or None if it is wrong.

    Every method column must sum to exactly 1 and, with ``--method all``,
    every row must say ``ok``.
    """
    columns, rows = table
    methods = [c for c in columns if c != "match"]
    if query.method == "all":
        if columns[-1:] != ["match"] or any(cells[-1] != "ok" for cells in rows.values()):
            return None
    elif methods != [query.method]:
        return None
    try:
        values = {k: [Fraction(v) for v in cells[: len(methods)]] for k, cells in rows.items()}
    except (ValueError, ZeroDivisionError):
        return None
    for i in range(len(methods)):
        if sum(v[i] for v in values.values()) != 1:
            return None
    return {k: v[0] for k, v in values.items() if v[0]}


class Point:
    """A seeded list of ``haros dist`` queries, sent one at a time."""

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.queries = point_queries(seed, scale)

    def run_pass(self) -> PassResult:
        results = [call_cli(q.argv()) for q in self.queries]
        rows = checks = failed = 0
        single_method: dict[Fraction, dict[int, Fraction]] = {}
        for query, (code, _, stdout) in zip(self.queries, results):
            table = parse_dist_table(stdout)
            n = len(table[1]) if table else 0
            rows += n
            checks += n if query.method == "all" else 0
            dist = check_dist_table(query, table) if code == 0 and table else None
            if dist is None:
                failed += 1
                continue
            # The thm1 and thm2 answers for the same x must agree exactly.
            if query.method != "all" and single_method.setdefault(query.x, dist) != dist:
                failed += 1
        latencies = [elapsed for _, elapsed, _ in results]
        return PassResult(latencies, rows, checks, len(self.queries), failed)


WORKLOADS = {"sweep": Sweep, "point": Point, "verify": Verify}
