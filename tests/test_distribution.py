"""The three distribution routes and the sweep harness."""

import dataclasses
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harosgraph.distribution import (
    base_probability,
    cf_form_distribution,
    degree_distribution_oracle,
    interval_form_distribution,
    interval_form_value,
    interval_form_value_real,
    sweep,
    sweep_row_count,
)
from harosgraph.errors import (
    AmbiguousBreakpointError,
    HarosError,
    NotRationalError,
    ResourceLimitError,
)
from harosgraph.exact import cf_expand
from harosgraph.graphs import build, initial_graph
from harosgraph.tree import (
    farey_parents,
    iter_farey_pairs,
    level_index,
    locate_for_degree,
    symbolic_path,
    tree_children,
)


def unit_fractions(max_den=200):
    return st.builds(
        lambda q, p: Fraction(p % (q - 1) + 1, q), st.integers(3, max_den), st.integers(0)
    )


class TestBaseProbability:
    def test_worked_values(self):
        assert base_probability(2, Fraction(10, 23)) == Fraction(10, 23)
        assert base_probability(3, Fraction(10, 23)) == Fraction(3, 23)
        assert base_probability(4, Fraction(1, 4)) == 0

    def test_mirrored_branch(self):
        assert base_probability(2, Fraction(5, 7)) == Fraction(2, 7)
        assert base_probability(3, Fraction(5, 7)) == Fraction(3, 7)

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError):
            base_probability(5, Fraction(1, 2))


class TestCfFormDistribution:
    def test_worked_distributions(self):
        assert cf_form_distribution(Fraction(10, 23)).entries == {
            2: Fraction(10, 23),
            3: Fraction(3, 23),
            5: Fraction(7, 23),
            8: Fraction(2, 23),
            10: Fraction(1, 23),
        }
        assert cf_form_distribution(Fraction(2, 5)).entries == {
            2: Fraction(2, 5),
            3: Fraction(1, 5),
            5: Fraction(1, 5),
            6: Fraction(1, 5),
        }
        assert cf_form_distribution(Fraction(1, 2)).entries == {
            2: Fraction(1, 2),
            4: Fraction(1, 2),
        }
        assert cf_form_distribution(Fraction(1, 3)).entries == {
            2: Fraction(1, 3),
            3: Fraction(1, 3),
            5: Fraction(1, 3),
        }

    @given(unit_fractions())
    def test_matches_construction_oracle(self, x):
        assert cf_form_distribution(x).entries == degree_distribution_oracle(x).entries

    @given(unit_fractions())
    def test_normalised_with_expected_mean(self, x):
        dist = cf_form_distribution(x)
        q = x.denominator
        assert dist.total() == 1
        assert dist.mean_degree() == Fraction(4 * q - 2, q)

    @given(unit_fractions())
    def test_mirror_symmetry(self, x):
        assert cf_form_distribution(x).entries == cf_form_distribution(1 - x).entries

    @given(unit_fractions())
    def test_support_structure(self, x):
        # positive degrees >= 5 sit exactly at the cumulative term sums + 3,
        # plus the boundary degree (sum of terms) + 2
        terms = cf_expand(min(x, 1 - x)).terms
        partial = 0
        expected = set()
        for l, a in enumerate(terms, start=1):
            partial += a
            if l < len(terms):
                expected.add(partial + 3)
        expected.add(partial + 2)
        got = {k for k in cf_form_distribution(x).support() if k >= 5}
        if partial + 2 == 4:  # the 1/2 special case: boundary degree is 4
            assert got == expected - {4}
            assert cf_form_distribution(x).probability(4) == Fraction(1, 2)
        else:
            assert got == expected


class TestDegreeDistribution:
    def test_is_immutable(self):
        d = cf_form_distribution(Fraction(2, 5))
        with pytest.raises(TypeError):
            d.entries[2] = Fraction(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.denominator = 7
        assert d.entries == {
            2: Fraction(2, 5),
            3: Fraction(1, 5),
            5: Fraction(1, 5),
            6: Fraction(1, 5),
        }


UNIT_INPUT_ENTRY_POINTS = {
    "cf_expand": cf_expand,
    "level_index": level_index,
    "symbolic_path": symbolic_path,
    "farey_parents": farey_parents,
    "tree_children": tree_children,
    "locate_for_degree": partial(locate_for_degree, 5),
    "build": build,
    "initial_graph": initial_graph,
    "base_probability": partial(base_probability, 2),
    "degree_distribution_oracle": degree_distribution_oracle,
    "cf_form_distribution": cf_form_distribution,
    "interval_form_value": partial(interval_form_value, 5),
    "interval_form_distribution": interval_form_distribution,
}


@pytest.mark.parametrize("bad", [0.4, True, "2/5", None])
@pytest.mark.parametrize("name", sorted(UNIT_INPUT_ENTRY_POINTS))
def test_non_rational_input_is_a_package_type_error(name, bad):
    with pytest.raises(NotRationalError) as info:
        UNIT_INPUT_ENTRY_POINTS[name](bad)
    assert isinstance(info.value, HarosError)
    assert isinstance(info.value, TypeError)


class TestDegreeDistributionOracle:
    def test_endpoints_are_empty(self):
        assert degree_distribution_oracle(Fraction(0)).entries == {}
        assert degree_distribution_oracle(Fraction(1)).entries == {}

    def test_worked_values(self):
        assert degree_distribution_oracle(Fraction(10, 23)).entries == {
            2: Fraction(10, 23),
            3: Fraction(3, 23),
            5: Fraction(7, 23),
            8: Fraction(2, 23),
            10: Fraction(1, 23),
        }


class TestIntervalFormValue:
    def test_worked_values(self):
        assert interval_form_value(5, Fraction(2, 5)) == Fraction(1, 5)
        assert interval_form_value(5, Fraction(1, 2)) == 0
        assert interval_form_value(5, Fraction(1, 3)) == Fraction(1, 3)
        assert interval_form_value(5, Fraction(2, 3)) == Fraction(1, 3)
        assert interval_form_value(6, Fraction(2, 7)) == Fraction(1, 7)

    def test_line_on_the_k5_support(self):
        # 3x - 1 on (1/3, 1/2) and 2 - 3x on (1/2, 2/3)
        for j in range(1, 21):
            x = Fraction(42 + j, 126)
            assert interval_form_value(5, x) == 3 * x - 1
            mirrored = Fraction(63 + j, 126)
            assert interval_form_value(5, mirrored) == 2 - 3 * mirrored

    def test_zero_outside_the_support(self):
        assert interval_form_value(5, Fraction(1, 4)) == 0
        assert interval_form_value(5, Fraction(2, 7)) == 0
        assert interval_form_value(7, Fraction(1, 2)) == 0

    @given(unit_fractions(), st.integers(5, 14))
    def test_agrees_with_cf_form(self, x, k):
        assert interval_form_value(k, x) == cf_form_distribution(x).probability(k)

    def test_agrees_with_materialised_levels(self):
        # independent oracle: materialise the pivot and child levels, scan
        # for the enclosing bracket, and apply the linear maps literally
        from harosgraph.tree import tree_level

        def literal(k, x):
            y = min(x, 1 - x)
            pivots = tree_level(k - 3).fractions
            children = tree_level(k - 2).fractions
            if y in children:
                return Fraction(1, y.denominator)
            for i, pivot in enumerate(pivots):
                lo, hi = children[2 * i], children[2 * i + 1]
                if lo < y < pivot:
                    return lo.denominator * y - lo.numerator
                if pivot < y < hi:
                    return hi.numerator - hi.denominator * y
            return Fraction(0)

        for p, q in iter_farey_pairs(100):
            if p == 0 or p == q:
                continue
            x = Fraction(p, q)
            for k in range(5, 11):
                assert interval_form_value(k, x) == literal(k, x), (k, x)

    @given(unit_fractions())
    def test_full_interval_route_distribution(self, x):
        assert (
            interval_form_distribution(x).entries == cf_form_distribution(x).entries
        )

    @pytest.mark.parametrize(
        "x",
        [
            Fraction(3, 10**200 + 7),
            Fraction(10**200 + 4, 10**200 + 7),
            Fraction(1, 10**8),
            Fraction(317811, 514229),
        ],
    )
    def test_full_interval_route_on_deep_inputs(self, x):
        # levels far beyond any per-level walk: one walk, one run per term
        assert (
            interval_form_distribution(x).entries == cf_form_distribution(x).entries
        )


class TestIntervalFormValueReal:
    def test_worked_values(self):
        assert interval_form_value_real(5, 0.40) == pytest.approx(0.2, abs=1e-12)
        assert interval_form_value_real(5, 0.45) == pytest.approx(0.35, abs=1e-12)
        assert interval_form_value_real(5, 0.25) == 0.0
        # the seed 0/1 is never a compared breakpoint
        for k in range(5, 13):
            assert interval_form_value_real(k, 1e-20) == 0.0

    def test_exact_dyadic_breakpoints_are_fine(self):
        # 0.5 is exactly the pivot for degree 5: the value is 0, no ambiguity
        assert interval_form_value_real(5, 0.5) == 0.0
        # 0.25 is exactly on tree level 4, the child level for degree 6
        assert interval_form_value_real(6, 0.25) == 0.25

    def test_near_breakpoint_is_ambiguous(self):
        with pytest.raises(AmbiguousBreakpointError):
            interval_form_value_real(5, 1 / 3)
        with pytest.raises(AmbiguousBreakpointError):
            interval_form_value_real(5, 0.5000000000000002)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            interval_form_value_real(5, 0.0)
        with pytest.raises(ValueError):
            interval_form_value_real(5, 1.0)

    @given(
        st.integers(5, 9),
        st.integers(3, 60),
        st.integers(1, 10**6),
    )
    def test_tracks_exact_values_away_from_breakpoints(self, k, q, seed):
        p = seed % (q - 1) + 1
        x = Fraction(p, q)
        try:
            got = interval_form_value_real(k, p / q)
        except AmbiguousBreakpointError:
            return
        assert abs(got - float(interval_form_value(k, x))) < 1e-12


class TestSweep:
    def test_order_three(self):
        rows = list(sweep([5], 3))
        assert [(r.x, r.interval_form) for r in rows] == [
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(2, 3), Fraction(1, 3)),
        ]

    def test_order_one_is_empty(self):
        assert list(sweep([5], 1)) == []

    def test_rows_sorted_and_consistent(self):
        rows = list(sweep([5, 6, 7, 8], 50))
        assert rows == sorted(rows, key=lambda r: (r.x, r.k))
        assert len(rows) == sweep_row_count([5, 6, 7, 8], 50)
        for r in rows:
            assert r.cf_form == r.interval_form == r.oracle

    def test_row_cap(self):
        with pytest.raises(ResourceLimitError):
            list(sweep([5], 100, row_cap=10))

    def test_rejects_low_degrees(self):
        with pytest.raises(ValueError):
            list(sweep([4], 10))

    def test_row_count_matches_enumeration(self):
        for order in (1, 2, 3, 10, 37):
            interior = sum(
                1 for p, q in iter_farey_pairs(order) if p not in (0, q)
            )
            assert sweep_row_count([5, 6], order) == 2 * interior
