"""The bulk verification suites on small orders, plus tally plumbing."""

import re
import tracemalloc
from fractions import Fraction

import pytest

import harosgraph.graphs
import harosgraph.tree
import harosgraph.verify
from harosgraph.errors import ResourceLimitError
from harosgraph.verify import (
    MAX_VERIFY_ORDER,
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


class TestSuites:
    def test_continuant_identities_on_grid(self):
        t = check_continuant_identities(term_grid(range(2, 6), 3))
        assert t.failed == 0
        assert t.passed > 0

    def test_continuant_identities_catch_corruption(self, monkeypatch):
        real = harosgraph.verify.continuant
        monkeypatch.setattr(
            harosgraph.verify, "continuant", lambda xs: real(xs) + 1
        )
        t = check_continuant_identities(term_grid(range(2, 5), 3))
        assert t.failed > 0
        assert re.search(r"on \[\d+(, \d+)+\]", t.first_failure)

    def test_random_term_lists_are_reproducible(self):
        assert list(random_term_lists(50)) == list(random_term_lists(50))

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
            def replay(path):
                x = real(path)
                return Fraction(x.numerator + 1, x.denominator)

            return replay

        plant(monkeypatch, harosgraph.verify, "replay_path", numerator_plus_one)
        t = check_path_roundtrips(20)
        assert (t.passed, t.failed) == (254, 127)
        assert t.first_failure.endswith(" missed 1/20")

    def test_path_roundtrips_catch_level(self, monkeypatch):
        plant(
            monkeypatch, harosgraph.verify, "level_index",
            lambda real: lambda x: real(x) + 1,
        )
        t = check_path_roundtrips(20)
        assert (t.passed, t.failed) == (254, 127)
        assert t.first_failure == "path-roundtrips: level of 1/20 is not path length + 1"


class TestRunVerification:
    def test_pinned_tallies_at_order_150(self):
        # pinned per suite: a change that moves two tallies in opposite
        # directions keeps the total
        manifest, tallies = run_verification("all", order=150, levels=13)
        assert {t.name: (t.passed, t.failed) for t in tallies} == {
            "continuant-identities": (14_912, 0),
            "cf-continuant-link": (6_858, 0),
            "path-roundtrips": (20_571, 0),
            "descent-recurrences": (36_868, 0),
            "triple-equality": (138_422, 0),
            "piecewise-linearity": (135, 0),
        }
        assert manifest.checks_passed == 217_766

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

    def test_manifest_reports_failures(self):
        # corrupt one tally by hand to exercise the manifest invariant
        t = Tally("synthetic")
        t.check(False, "broken case 1/2 vs 1/3")
        assert t.first_failure == "synthetic: broken case 1/2 vs 1/3"
