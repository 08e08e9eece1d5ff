"""The bulk verification suites on small orders, plus tally plumbing."""

import re

import pytest

from harosgraph.errors import ResourceLimitError
from harosgraph.verify import (
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


class TestSuites:
    def test_continuant_identities_on_grid(self):
        t = check_continuant_identities(term_grid(range(2, 6), 3))
        assert t.failed == 0
        assert t.passed > 0

    def test_continuant_identities_catch_corruption(self, monkeypatch):
        import harosgraph.verify

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

    def test_base_cases(self):
        assert check_base_cases(60).failed == 0

    def test_conservation(self):
        assert check_conservation(60).failed == 0


class TestRunVerification:
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
