"""The bulk verification suites on small orders, plus tally plumbing."""

import hashlib
import re
import sys
import tracemalloc
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction

import pytest

import harosgraph.exact
import harosgraph.graphs
import harosgraph.tree
import harosgraph.verify
from harosgraph.errors import ResourceLimitError
from harosgraph.verify import (
    MAX_VERIFY_ORDER,
    RunManifest,
    Tally,
    check_base_cases,
    check_cf_continuant_link,
    check_conservation,
    check_continuant_identities,
    check_descent_recurrences,
    check_path_roundtrips,
    check_piecewise_linearity,
    check_triple_equality,
    random_term_lists,
    run_verification,
    term_grid,
)


class TestTally:
    def test_counts_and_first_failure(self):
        t = Tally("demo")
        assert t.check(True, "never shown")
        assert not t.check(False, lambda: "first problem")
        t.check(False, lambda: "second problem")
        assert (t.passed, t.failed) == (1, 2)
        assert t.first_failure == "demo: first problem"

    def test_check_pairs_counts_each_position(self):
        t = Tally("demo")
        t.check_pairs([1, 2, 3], [1, 2, 3], lambda i: "never shown")
        assert (t.passed, t.failed, t.first_failure) == (3, 0, None)
        seen = []
        t.check_pairs([1, 5, 3, 7], [1, 2, 3, 4], lambda i: seen.append(i) or f"at {i}")
        assert (t.passed, t.failed) == (5, 2)
        assert t.first_failure == "demo: at 1"
        assert seen == [1]  # described once, on the first failure only

    def test_records_keep_their_repr_equality_and_defaults(self):
        assert repr(Tally("demo")) == "Tally(name='demo', passed=0, failed=0, first_failure=None)"
        assert Tally("demo", passed=2) == Tally(name="demo", passed=2) != Tally("demo")
        with pytest.raises(TypeError, match="unhashable"):
            hash(Tally("demo"))
        manifest = RunManifest("verify", {}, "a", "b", checks_passed=3, checks_failed=0)
        assert repr(manifest) == (
            "RunManifest(command='verify', parameters={}, started='a', finished='b', "
            "checks_passed=3, checks_failed=0, first_failure=None)"
        )
        assert manifest == RunManifest("verify", {}, "a", "b", 3, 0, None)


class TestSuites:
    def test_continuant_identities_on_grid(self):
        t = check_continuant_identities(term_grid(range(2, 6), 3))
        assert t.failed == 0
        assert t.passed > 0

    def test_continuant_identities_catch_corruption(self, monkeypatch):
        real = harosgraph.verify._continuant
        monkeypatch.setattr(
            harosgraph.verify, "_continuant", lambda xs: real(xs) + 1
        )
        t = check_continuant_identities(term_grid(range(2, 5), 3))
        assert t.failed > 0
        assert re.search(r"on \[\d+(, \d+)+\]", t.first_failure)

    def test_random_term_lists_are_reproducible(self):
        assert list(random_term_lists(50)) == list(random_term_lists(50))

    def test_random_term_lists_are_pinned(self):
        # the identity suite's 2,000 lists: a change to any value, length or
        # order of them shows here
        lists = list(random_term_lists(2000))
        assert hashlib.sha256(repr(lists).encode()).hexdigest() == (
            "a8744048133652e9cab3f81b094b7b4cd9c4f022683867deecc8e0180378e26c"
        )

    def test_cf_continuant_link(self):
        assert check_cf_continuant_link(60).failed == 0

    def test_path_roundtrips(self):
        assert check_path_roundtrips(60).failed == 0

    def test_triple_equality(self):
        assert check_triple_equality(40).failed == 0

    def test_descent_recurrences(self):
        assert check_descent_recurrences(3, 8).failed == 0

    def test_piecewise_linearity(self):
        assert check_piecewise_linearity(60).failed == 0

    def test_piecewise_linearity_at_the_order_cap(self):
        t = check_piecewise_linearity(MAX_VERIFY_ORDER)
        assert (t.passed, t.failed) == (135, 0)

    def test_piecewise_linearity_walks_in_small_memory(self):
        # each subinterval is walked on its own; a grid of all of F_500 as
        # Fractions peaked at about 10 MB
        tracemalloc.start()
        try:
            t = check_piecewise_linearity(500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (t.passed, t.failed) == (135, 0)
        assert peak < 1_000_000

    def test_base_cases(self):
        assert check_base_cases(60).failed == 0

    def test_conservation(self):
        assert check_conservation(60).failed == 0


def plant(monkeypatch, module, name, wrap):
    """Replace module.name by wrap(the real function) for one test."""
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def counts_plus_one(real):
    return lambda p, q: {k: m + 1 for k, m in real(p, q).items()}


class TestPlantedBugs:
    """Each suite fails, and names the case, on an off-by-one planted in
    a layer it guards.  The whole tally is pinned, so a rewrite of a suite
    that skips or doubles checks on the failing side shows here."""

    def test_triple_catches_cf_form(self, monkeypatch):
        plant(monkeypatch, harosgraph.verify, "_cf_form_counts", counts_plus_one)
        t = check_triple_equality(20)
        assert (t.passed, t.failed) == (689, 397)
        assert t.first_failure.startswith("triple-equality: counts at 1/20: oracle {")

    def test_piecewise_linearity_catches_cf_form(self, monkeypatch):
        plant(monkeypatch, harosgraph.verify, "_cf_form_counts", counts_plus_one)
        t = check_piecewise_linearity(20)
        assert (t.passed, t.failed) == (49, 62)
        assert t.first_failure == (
            "piecewise-linearity: samples not collinear in (1/3, 1/2) for degree 5"
        )

    def test_triple_catches_interval_form(self, monkeypatch):
        plant(
            monkeypatch, harosgraph.tree, "_count_at",
            lambda real: lambda below, above: real(below, above) + 1,
        )
        t = check_triple_equality(20)
        assert (t.passed, t.failed) == (127, 959)
        assert t.first_failure == (
            "triple-equality: P(5, 1/20)·q: cf form 0 != interval form 1"
        )

    @pytest.mark.parametrize("suite", ["triple", "recurrences"])
    def test_build_steps_are_caught(self, monkeypatch, suite):
        plant(
            monkeypatch, harosgraph.graphs, "_left_steps",
            lambda real: lambda left, cur, r: real(left, cur, r + 1),
        )
        if suite == "triple":
            t = check_triple_equality(20)
            tally, case = (959, 127), "counts at 1/20: oracle {2: 1, 3: 20, 24: 1}"
        else:
            t = check_descent_recurrences(3, 8)
            tally, case = (32, 484), "raise-last descent at 2/5, degree 5 (l=1), child 3/7"
        assert (t.passed, t.failed) == tally
        assert case in t.first_failure

    def test_path_roundtrips_catch_replay(self, monkeypatch):
        def numerator_plus_one(real):
            def replay(counts):
                p, q = real(counts)
                return p + 1, q

            return replay

        plant(monkeypatch, harosgraph.verify, "_replay", numerator_plus_one)
        t = check_path_roundtrips(20)
        assert (t.passed, t.failed) == (254, 127)
        assert t.first_failure.endswith(" missed 1/20")

    def test_path_roundtrips_catch_level(self, monkeypatch):
        plant(
            monkeypatch, harosgraph.verify, "_level",
            lambda real: lambda p, q: real(p, q) + 1,
        )
        t = check_path_roundtrips(20)
        assert (t.passed, t.failed) == (254, 127)
        assert t.first_failure == "path-roundtrips: level of 1/20 is not path length + 1"


class TestDescentRecurrences:
    """The recurrence suite walks the first half of each level, counts its
    tally twice, and carries one count per child to the next level."""

    @pytest.mark.parametrize(
        "levels, passed",
        [
            ((1, 6), 68), ((2, 6), 68), ((3, 8), 516), ((4, 8), 516), ((5, 10), 3_072),
            # the levels cap
            ((3, 16), 393_220),
        ],
    )
    def test_pinned_tallies(self, levels, passed):
        t = check_descent_recurrences(*levels)
        assert (t.passed, t.failed, t.first_failure) == (passed, 0, None)

    @pytest.mark.parametrize("levels, tally", [((3, 8), (114, 402)), ((4, 9), (240, 1_044))])
    def test_planted_count_error_is_caught(self, monkeypatch, levels, tally):
        # each node's own count is carried from its parent's level, except on
        # the first level: a first level other than 3 pins both
        plant(
            monkeypatch, harosgraph.verify, "_identified_counts",
            lambda real: lambda seq: {k: m + 1 for k, m in real(seq).items()},
        )
        t = check_descent_recurrences(*levels)
        assert (t.passed, t.failed) == tally
        assert t.first_failure == (
            "descent-recurrences: append-two descent at 2/5, degree 5 (l=1), child 3/8"
        )

    def test_reads_each_first_half_node_once(self, monkeypatch):
        seen = []
        plant(
            monkeypatch, harosgraph.verify, "_cf_terms",
            lambda real: lambda p, q: seen.append((p, q)) or real(p, q),
        )
        check_descent_recurrences(3, 13)
        # level L holds 2**(L-3) nodes below 1/2; the mirror read them all twice
        assert len(seen) == len(set(seen)) == 2_047
        assert all(2 * p < q for p, q in seen)

    def test_holds_one_level_of_counts(self):
        # at most 200 bytes per node of level L + 1; a memo of every built
        # graph's counts took 414, 466 and 518
        for levels in (12, 13, 14):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                check_descent_recurrences(3, levels)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before <= 200 * 2 ** (levels - 1), (levels, peak - before)


def calls_during(functions, run):
    """How many times each of ``functions`` is entered while ``run()`` runs,
    matched by code object, so a call through any module's name for it
    counts."""
    codes = {f.__code__: i for i, f in enumerate(functions)}
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return [seen[i] for i in range(len(functions))]


class TestWorkPerCheck:
    """The suites check each x on the integer cores: the validation of the
    public entry points is counted, not timed, so host speed cannot hide a
    return of it."""

    @pytest.fixture(scope="class")
    def calls(self):
        unit, paths, terms = calls_during(
            [
                harosgraph.exact._unit_fraction,
                harosgraph.tree.SymbolicPath.__init__,
                harosgraph.exact._cf_terms,
            ],
            lambda: run_verification("all", order=40, levels=8),
        )
        return {"_unit_fraction": unit, "SymbolicPath": paths, "_cf_terms": terms}

    def test_validates_no_x_of_the_path_suite(self, calls):
        # through symbolic_path and level_index, the path suite validated
        # each of the 489 interior x twice: 993 calls in all.  The 15 left
        # are tree_children of the piecewise suite's pivots
        assert calls["_unit_fraction"] <= 15

    def test_builds_no_symbolic_path(self, calls):
        # the path suite built one per interior x, 489 in all
        assert calls["SymbolicPath"] == 0

    def test_expands_no_more_terms(self, calls):
        # the count before the path suite moved onto the integer cores
        assert calls["_cf_terms"] <= 3_117


class TestRunVerification:
    # pinned per suite: a change that moves two tallies in opposite
    # directions keeps the total
    @pytest.mark.parametrize(
        "suite, order, levels, tallies, passed",
        [
            (
                "all", 150, 13,
                {
                    "continuant-identities": 14_912,
                    "cf-continuant-link": 6_858,
                    "path-roundtrips": 20_571,
                    "descent-recurrences": 36_868,
                    "triple-equality": 138_422,
                    "piecewise-linearity": 135,
                },
                217_766,
            ),
            # the largest verify order
            (
                "identities", 1000, 3,
                {
                    "continuant-identities": 14_912,
                    "cf-continuant-link": 304_192,
                    "path-roundtrips": 912_573,
                },
                1_231_677,
            ),
        ],
        ids=["all-150-13", "identities-1000"],
    )
    def test_pinned_tallies(self, suite, order, levels, tallies, passed):
        manifest, run = run_verification(suite, order=order, levels=levels)
        assert {t.name: (t.passed, t.failed) for t in run} == {
            name: (n, 0) for name, n in tallies.items()
        }
        assert (manifest.checks_passed, manifest.checks_failed) == (passed, 0)

    def test_all_suites_pass(self):
        manifest, tallies = run_verification("all", order=30, levels=8)
        assert manifest.checks_failed == 0
        assert manifest.checks_passed == sum(t.passed for t in tallies)
        assert manifest.first_failure is None
        assert "first_failure" not in manifest.to_json_dict()

    def test_single_suite_selection(self):
        manifest, tallies = run_verification("triple", order=20)
        assert [t.name for t in tallies] == ["triple-equality"]
        assert manifest.parameters["suite"] == "triple"

    def test_rejects_unknown_suite_and_oversized_order(self):
        with pytest.raises(ValueError):
            run_verification("everything")
        with pytest.raises(ResourceLimitError):
            run_verification("triple", order=10**6)
        with pytest.raises(ResourceLimitError):
            run_verification("recurrences", levels=40)

    def test_manifest_times_are_utc_seconds(self):
        manifest, _ = run_verification("identities", order=5, levels=3)
        for stamp in (manifest.started, manifest.finished):
            assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
        assert manifest.started <= manifest.finished

    def test_now_reads_as_datetime_writes_it(self):
        # the same text as an aware UTC datetime's isoformat, to the second;
        # a second may tick over between the calls
        def reference():
            return datetime.now(timezone.utc).isoformat(timespec="seconds")

        before = reference()
        now = harosgraph.verify._now()
        after = reference()
        assert now in (before, after)

    def test_manifest_reports_failures(self):
        # corrupt one tally by hand to exercise the manifest invariant
        t = Tally("synthetic")
        t.check(False, "broken case 1/2 vs 1/3")
        assert t.first_failure == "synthetic: broken case 1/2 vs 1/3"
