"""The three distribution routes and the sweep harness."""

import ast
import math
import os
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import harosgraph
from harosgraph.distribution import (
    ROW_COUNT_MAX_SIEVE,
    DegreeDistribution,
    _cf_form_counts,
    cf_form_distribution,
    degree_distribution_oracle,
    interval_form_distribution,
    interval_form_value,
    sweep,
    sweep_row_count,
)
from harosgraph.errors import (
    AdjacencyError,
    HarosError,
    NotRationalError,
    ResourceLimitError,
)
from harosgraph.exact import (
    ContinuedFraction,
    cf_expand,
    convergents,
    suffix_continuants,
)
from harosgraph.graphs import (
    build,
    concat,
    identify_boundary,
    initial_graph,
    iter_identified_counts,
)
from harosgraph.tree import (
    BracketSide,
    SymbolicPath,
    farey_parents,
    iter_farey_pairs,
    level_index,
    locate_for_degree,
    mediant,
    replay_path,
    symbolic_path,
    _walk,
    tree_children,
    tree_level,
)
from harosgraph.verify import (
    check_descent_recurrences,
    check_piecewise_linearity,
    run_verification,
)
from test_tree import fibonacci_ratios, stepwise_brackets


def unit_fractions(max_den=200):
    return st.builds(
        lambda q, p: Fraction(p % (q - 1) + 1, q), st.integers(3, max_den), st.integers(0)
    )


class TestBaseProbability:
    """The low-degree values min(x, 1 - x), |1 - 2x| and 0 at degrees 2, 3, 4
    (0 save for P(4, 1/2) = 1/2)."""

    def test_worked_values(self):
        assert cf_form_distribution(Fraction(10, 23)).probability(2) == Fraction(10, 23)
        assert cf_form_distribution(Fraction(10, 23)).probability(3) == Fraction(3, 23)
        assert cf_form_distribution(Fraction(1, 4)).probability(4) == 0

    def test_mirrored_branch(self):
        assert cf_form_distribution(Fraction(5, 7)).probability(2) == Fraction(2, 7)
        assert cf_form_distribution(Fraction(5, 7)).probability(3) == Fraction(3, 7)

    def test_every_x_of_f60(self):
        for p, q in iter_farey_pairs(60):
            if 0 < p < q:
                x = Fraction(p, q)
                dist = cf_form_distribution(x)
                assert dist.probability(2) == min(x, 1 - x), x
                assert dist.probability(3) == abs(1 - 2 * x), x
                # the one exception: the triangle's boundary node, P(4, 1/2) = 1/2
                assert dist.probability(4) == (x if x == Fraction(1, 2) else 0), x


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
        with pytest.raises(TypeError):
            d.counts[2] = 1
        for name, value in (("denominator", 7), ("counts", {}), ("entries", {})):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(d, name, value)
        assert d.counts == {2: 2, 3: 1, 5: 1, 6: 1}
        # the counts are a copy of the map passed in
        source = {2: 1, 4: 1}
        half = DegreeDistribution(source, 2)
        source[2] = 5
        assert half.counts == {2: 1, 4: 1}
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
    "degree_distribution_oracle": degree_distribution_oracle,
    "cf_form_distribution": cf_form_distribution,
    "interval_form_value": partial(interval_form_value, 5),
    "interval_form_distribution": interval_form_distribution,
}


# Entry points taking a degree k >= 5, called with a valid x
DEGREE_INPUT_ENTRY_POINTS = {
    "interval_form_value(k)": lambda k: interval_form_value(k, Fraction(2, 7)),
    "locate_for_degree(k)": lambda k: locate_for_degree(k, Fraction(2, 7)),
    "sweep(k)": lambda k: list(sweep([k], 4)),
    "sweep_row_count(k)": lambda k: sweep_row_count([k], 10),
}
BAD_INPUT_ENTRY_POINTS = {**UNIT_INPUT_ENTRY_POINTS, **DEGREE_INPUT_ENTRY_POINTS}
# Decimal is exact but not a numbers.Rational: like a float, it is
# passed as Fraction(d)
NON_RATIONAL = [0.4, True, "2/5", None, Decimal("0.4")]


@pytest.mark.parametrize(
    "name, bad",
    [(name, bad) for name in sorted(BAD_INPUT_ENTRY_POINTS) for bad in NON_RATIONAL],
)
def test_non_rational_input_is_a_package_type_error(name, bad):
    with pytest.raises(NotRationalError) as info:
        BAD_INPUT_ENTRY_POINTS[name](bad)
    assert isinstance(info.value, HarosError)
    assert isinstance(info.value, TypeError)


@pytest.mark.parametrize("bad", [6.0, 5.5, False, "6", Decimal(6)])
@pytest.mark.parametrize("name", sorted(DEGREE_INPUT_ENTRY_POINTS))
def test_non_integer_degree_is_a_package_type_error(name, bad):
    # a float degree used to slip through: 6.0 gave a float, 5.5 gave 1/7
    with pytest.raises(NotRationalError):
        DEGREE_INPUT_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", sorted(DEGREE_INPUT_ENTRY_POINTS))
def test_degree_below_five_is_a_value_error(name):
    with pytest.raises(ValueError):
        DEGREE_INPUT_ENTRY_POINTS[name](4)


# Each used to slip through or die inside: iter_farey_pairs(3.5) and
# iter_identified_counts(3.5) yielded, the sweep, its row count,
# iter_identified_counts("a") and check_descent_recurrences(3, 4.0) raised a
# bare TypeError, tree_level(3.0) gave TreeLevel(index=3.0, ...), mediant an
# AttributeError, a float denominator made a DegreeDistribution, replay_path
# took a bool run (a float one raised a bare TypeError) and ContinuedFraction
# a bool or float term.  A float or str row cap, and None for the degrees of
# the sweep, its row count or the oracle walk, raised a bare TypeError, and
# the row count took a bool cap (True returned 3, above its cap of 1)
@pytest.mark.parametrize(
    "call",
    [
        lambda: list(iter_farey_pairs(3.5)),
        lambda: list(iter_farey_pairs(True)),
        lambda: list(sweep([5], 10.5)),
        lambda: list(sweep([5], 10.5, row_cap=None)),
        lambda: sweep_row_count([5], 10.5),
        lambda: sweep_row_count([5], 10.5, cap=100),
        lambda: list(sweep([5], 3, row_cap=1.5)),
        lambda: list(sweep([5], 3, row_cap="a")),
        lambda: sweep_row_count([5], 3, cap=True),
        lambda: sweep_row_count([5], 3, cap="a"),
        lambda: list(sweep(None, 3)),
        lambda: sweep_row_count(None, 3),
        lambda: list(iter_identified_counts(None, 3)),
        lambda: tree_level(3.0),
        lambda: tree_level(True),
        lambda: mediant(0.5, Fraction(1)),
        lambda: mediant(Fraction(0), 1.0),
        lambda: run_verification("corollary", order=20.0),
        lambda: check_piecewise_linearity(20.0),
        lambda: run_verification("recurrences", levels=4.0),
        lambda: list(iter_identified_counts([5], 3.5)),
        lambda: list(iter_identified_counts([5], "a")),
        lambda: list(iter_identified_counts([5.0], 10)),
        lambda: DegreeDistribution({}, 2.0),
        lambda: DegreeDistribution({}, True),
        lambda: check_descent_recurrences(3, 4.0),
        lambda: check_descent_recurrences(True, 4),
        lambda: replay_path(SymbolicPath((("L", True),))),
        lambda: replay_path(SymbolicPath((("L", 2), ("R", 1.0)))),
        lambda: ContinuedFraction((1.5, 2)),
        lambda: ContinuedFraction((True, 2)),
    ],
    ids=[
        "iter_farey_pairs(3.5)", "iter_farey_pairs(True)",
        "sweep(10.5)", "sweep(10.5, no cap)",
        "sweep_row_count(10.5)", "sweep_row_count(10.5, cap)",
        "sweep(row_cap=1.5)", "sweep(row_cap='a')",
        "sweep_row_count(cap=True)", "sweep_row_count(cap='a')",
        "sweep(None)", "sweep_row_count(None)", "iter_identified_counts(None)",
        "tree_level(3.0)", "tree_level(True)",
        "mediant(0.5, 1)", "mediant(0, 1.0)",
        "run_verification(order=20.0)", "check_piecewise_linearity(20.0)",
        "run_verification(levels=4.0)",
        "iter_identified_counts(3.5)", "iter_identified_counts('a')",
        "iter_identified_counts([5.0])",
        "DegreeDistribution(2.0)", "DegreeDistribution(True)",
        "check_descent_recurrences(3, 4.0)", "check_descent_recurrences(True, 4)",
        "replay_path(L^True)", "replay_path(R^1.0)",
        "ContinuedFraction((1.5, 2))", "ContinuedFraction((True, 2))",
    ],
)
def test_bad_order_level_or_mediant_input_is_a_package_type_error(call):
    with pytest.raises(NotRationalError):
        call()


# Each used to die on a bare AttributeError (``.label``, ``.degrees`` or
# ``.terms``); the error names the type it got
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: concat(1, 2), "a HarosGraph, got int"),
        (lambda: concat(build(Fraction(1, 3)), "1/2"), "a HarosGraph, got str"),
        (lambda: identify_boundary(None), "a HarosGraph, got NoneType"),
        (lambda: identify_boundary((1, 2, 3)), "a HarosGraph, got tuple"),
        (lambda: convergents([2, 3]), "a ContinuedFraction, got list"),
    ],
    ids=["concat(1, 2)", "concat(g, '1/2')", "identify_boundary(None)",
         "identify_boundary((1, 2, 3))", "convergents([2, 3])"],
)
def test_non_graph_input_is_a_package_type_error_naming_its_type(call, expected):
    with pytest.raises(NotRationalError) as info:
        call()
    assert isinstance(info.value, HarosError)
    assert isinstance(info.value, TypeError)
    assert f"expected {expected} " in str(info.value)


# A zero denominator used to build a distribution whose probability(2) and
# total() raised ZeroDivisionError; a repeated degree would have lost its
# walk slot; replay_path read any symbol but L as R (L X^2 gave 3/4); a
# hand-built SymbolicPath spelled any runs (X^2 L^True was 'XXL', 3 steps)
@pytest.mark.parametrize(
    "call",
    [
        lambda: DegreeDistribution({}, 0),
        lambda: DegreeDistribution({2: 1}, -2),
        lambda: list(iter_identified_counts([5, 6, 5], 10)),
        lambda: list(iter_identified_counts([2, 2], 1)),
        lambda: replay_path(SymbolicPath((("L", 1), ("X", 2)))),
        lambda: replay_path(SymbolicPath((("L", 1), ("l", 2)))),
        lambda: SymbolicPath((("X", 2), ("L", True))),
        lambda: SymbolicPath((("L", 1), ("L", 2))),
        lambda: SymbolicPath((("R", 2),)),
        lambda: SymbolicPath(()),
    ],
    ids=[
        "DegreeDistribution(0)", "DegreeDistribution(-2)",
        "iter_identified_counts([5, 6, 5])", "iter_identified_counts([2, 2], 1)",
        "replay_path(X^2)", "replay_path(l^2)",
        "SymbolicPath(X^2 L^True)", "SymbolicPath(L L^2)", "SymbolicPath(R^2)",
        "SymbolicPath()",
    ],
)
def test_out_of_range_denominator_or_repeated_degree_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _oracle_peak_bytes(x):
    """The tracemalloc peak of one oracle call, above what was held before."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        degree_distribution_oracle(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def _python_lines(call, *args):
    """Python lines call(*args) executes in harosgraph frames."""
    package = os.path.dirname(harosgraph.__file__)
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return lines


class TestDegreeDistributionOracle:
    def test_endpoints_are_empty(self):
        assert degree_distribution_oracle(Fraction(0)).entries == {}
        assert degree_distribution_oracle(Fraction(1)).entries == {}

    # One huge term (1/(2^e + 1), a four-byte array) and many terms of 1
    # (F_(n-1)/F_n, one byte per node)
    @pytest.mark.parametrize(
        "xs",
        [
            [Fraction(1, 2**e + 1) for e in range(12, 16)],
            [Fraction(_fibonacci(n - 1), _fibonacci(n)) for n in range(20, 24)],
        ],
        ids=["one-term", "fibonacci"],
    )
    def test_cost_is_linear_in_q_and_run_at_a_time(self, xs):
        # Memory is work done in C: at most 12 bytes per node, growing at
        # most 2.2 times per doubling of q.  Python lines are work done per
        # run: the same for every 1/q, and at most 40 more per added term.
        peaks = [_oracle_peak_bytes(x) for x in xs]
        qs = [x.denominator for x in xs]
        for x, peak in zip(xs, peaks):
            assert peak <= 12 * (x.denominator + 1), (x, peak)
        for (q0, p0), (q1, p1) in zip(zip(qs, peaks), zip(qs[1:], peaks[1:])):
            assert p1 / p0 <= 2.2 ** math.log2(q1 / q0), (q0, p0, q1, p1)
        lines = [_python_lines(degree_distribution_oracle, x) for x in xs]
        terms = [len(cf_expand(x)) for x in xs]
        if len(set(terms)) == 1:
            assert len(set(lines)) == 1, lines
        for (m0, l0), (m1, l1) in zip(zip(terms, lines), zip(terms[1:], lines[1:])):
            assert l1 - l0 <= 40 * (m1 - m0), (m0, l0, m1, l1)

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


def stepwise_counts(p, q, ks):
    """P(k, p/q)·q for consecutive ks from 5, by the linear map of the
    bracket that the step-per-level reference walk finds for min(x, 1 - x)."""
    y = Fraction(min(p, q - p), q)
    out = []
    for side, nodes in stepwise_brackets(y.numerator, q, ks[-1]):
        if side is BracketSide.LOWER_SUBINTERVAL:
            value = nodes[1][1] * y - nodes[1][0]
        elif side is BracketSide.UPPER_SUBINTERVAL:
            value = nodes[3][0] - nodes[3][1] * y
        elif side is BracketSide.AT_CHILD_LEVEL:
            value = Fraction(1, q)
        else:
            value = Fraction(0)
        out.append(value * q)
    return out


class TestIntervalFormCounts:
    """The shared-walk integer core against the step-per-level reference."""

    def assert_matches_stepwise(self, p, q):
        ks = range(5, level_index(Fraction(p, q)) + 5)
        assert _walk(ks, p, q)[0] == stepwise_counts(p, q, ks), (p, q)

    def test_matches_stepwise_f150(self):
        for p, q in iter_farey_pairs(150):
            if 0 < p < q:
                self.assert_matches_stepwise(p, q)

    @pytest.mark.parametrize("e", [10, 11, 12, 13])
    def test_matches_stepwise_one_term(self, e):
        self.assert_matches_stepwise(1, 2**e)
        self.assert_matches_stepwise(2**e - 1, 2**e)

    def test_matches_stepwise_fibonacci(self):
        for p, q in fibonacci_ratios(10**5):
            self.assert_matches_stepwise(p, q)
            self.assert_matches_stepwise(q - p, q)

    def assert_matches_walk(self, p, q):
        # one descent resumed across the degrees lands where a descent to
        # each degree alone does; one degree past the level, so the last
        # one is too shallow
        ks = range(5, level_index(Fraction(p, q)) + 5)
        one_each = [_walk((k,), p, q) for k in ks]
        assert _walk(ks, p, q) == ([counts[0] for counts, _ in one_each], None), (p, q)
        # at the degree whose pivot is p/q itself, both gaps are 1
        assert _walk(ks[:-1], p, q)[1] == one_each[-2][1] == (1, 1), (p, q)

    def test_matches_walk_states_f150(self):
        for p, q in iter_farey_pairs(150):
            if 0 < p < q:
                self.assert_matches_walk(p, q)

    @pytest.mark.parametrize("e", [10, 11, 12, 13])
    def test_matches_walk_states_one_term(self, e):
        self.assert_matches_walk(1, 2**e)
        self.assert_matches_walk(2**e - 1, 2**e)

    def test_matches_walk_states_fibonacci(self):
        for p, q in fibonacci_ratios(10**5):
            self.assert_matches_walk(p, q)
            self.assert_matches_walk(q - p, q)

    def test_too_shallow_degrees_count_zero(self):
        # 1/4 = [4] sits on level 4 and has one node above degree 3, its
        # boundary of degree 6; pivot level 4 (k = 7) is 1/4 itself, and
        # every deeper pivot level is past it
        assert _walk([5, 6, 7, 8, 40], 1, 4) == ([0, 1, 0, 0, 0], None)
        assert _walk([9, 30], 1, 4) == ([0, 0], None)

    def test_cost_is_one_iteration_per_run(self):
        # Python lines are work per run.  Fibonacci ratios of m terms, one
        # step per run, at the boundary degree m + 3: at most 2.2 times more
        # per doubling of m.
        lines = []
        for m in (20, 40, 80, 160, 320):
            p, q = _fibonacci(m + 1), _fibonacci(m + 2)
            assert len(cf_expand(Fraction(p, q))) == m
            assert _walk((m + 3,), p, q)[0] == [1]
            lines.append(_python_lines(_walk, (m + 3,), p, q))
        for l0, l1 in zip(lines, lines[1:]):
            assert l1 <= 2.2 * l0, lines
        # One bigint run: the same lines wherever the descent stops in it,
        # and whether that is one step short of the run's end or at it; the
        # first run of 2/(2·10^200 + 1) = [10^200, 2] ends at degree end
        q = 10**200 + 7
        lines = {_python_lines(_walk, (k,), 1, q) for k in (10, 10**2, 10**3, 10**4)}
        assert len(lines) == 1, lines
        end = 10**200 + 4
        lines |= {_python_lines(_walk, (k,), 2, 2 * 10**200 + 1) for k in (end - 1, end)}
        assert _walk((end - 1, end), 2, 2 * 10**200 + 1) == ([1, 1], (2, 1))
        assert len(lines) == 1, lines

    def test_subsets_of_degrees_share_the_walk(self):
        # skipping degrees must not change the ones asked for
        p, q = 10, 23
        every = _walk(range(5, 13), p, q)[0]
        assert _walk([6, 9, 12], p, q)[0] == [every[1], every[4], every[7]]
        assert _walk([], p, q)[0] == []


class TestCfFormCounts:
    def test_reads_the_suffix_continuants(self):
        # Theorem 1 from the term list of min(x, 1 - x) = p/q: p nodes of
        # degree 2, q - 2p of degree 3, K(a_{l+1}, ..., a_m) - K(a_{l+2}, ..., a_m)
        # of degree 3 + a_1 + ... + a_l for 0 < l < m, one of degree a_1 + ... + a_m + 2
        for p, q in iter_farey_pairs(80):
            if 0 < p < q:
                low = min(p, q - p)
                terms = cf_expand(Fraction(low, q)).terms
                tails = suffix_continuants(terms)
                expected = {2: low, 3: q - 2 * low}
                for level in range(1, len(terms)):
                    expected[3 + sum(terms[:level])] = tails[level] - tails[level + 1]
                expected[sum(terms) + 2] = 1
                expected = {k: m for k, m in expected.items() if m}
                assert _cf_form_counts(p, q) == expected, (p, q)

    def test_is_the_distribution_times_q(self):
        for p, q in iter_farey_pairs(100):
            if 0 < p < q:
                dist = cf_form_distribution(Fraction(p, q))
                expected = {k: v * q for k, v in dist.entries.items()}
                assert _cf_form_counts(p, q) == expected, (p, q)

    def test_is_the_oracle_multiset(self):
        for p, q in iter_farey_pairs(60):
            if 0 < p < q:
                oracle = identify_boundary(build(Fraction(p, q)))
                assert _cf_form_counts(p, q) == oracle, (p, q)

    @pytest.mark.parametrize("top", [2, 5, 8, 13, 40])
    def test_cut_at_top_keeps_every_degree_up_to_it(self, top):
        # the sweep stops the pass at its largest degree; on the last step
        # the boundary degree, one below the term sum plus 3, can be top
        # itself (1/3 at top 5), so it is recorded before the cut
        xs = [(p, q) for p, q in iter_farey_pairs(200) if 0 < p < q]
        xs += [(1, 2**j) for j in range(1, 12)] + [(2**j - 1, 2**j) for j in range(2, 12)]
        xs += list(fibonacci_ratios(10**5)) + [(3, 10**200 + 7), (10**200 + 4, 10**200 + 7)]
        for p, q in xs:
            full, cut = _cf_form_counts(p, q), _cf_form_counts(p, q, top)
            assert cut.items() <= full.items(), (p, q)
            assert {k: m for k, m in full.items() if k <= top}.items() <= cut.items(), (p, q)

    @pytest.mark.parametrize(
        "p, q", [(3, 10**200 + 7), (10**200 + 4, 10**200 + 7), (317811, 514229)]
    )
    def test_deep_inputs(self, p, q):
        counts = _cf_form_counts(p, q)
        assert sum(counts.values()) == q
        assert sum(k * m for k, m in counts.items()) == 4 * q - 2
        by_interval = interval_form_distribution(Fraction(p, q)).entries
        assert counts == {k: v * q for k, v in by_interval.items()}


class TestIntervalFormValueReal:
    """P(k, x) at a float x: the caller passes Fraction(x), which is exact
    at the float's binary value, and float() of the result rounds once."""

    def test_worked_values(self):
        for real, value in ((0.40, 0.2), (0.45, 0.35)):
            got = float(interval_form_value(5, Fraction(real)))
            assert got == pytest.approx(value, abs=1e-12)
        assert interval_form_value(5, Fraction(0.25)) == 0
        # the float 1e-20 is a dyadic with a 120-bit denominator; the seed
        # 0/1 next to it is never a breakpoint
        tiny = Fraction(1e-20)
        assert tiny.denominator == 2**119
        for k in range(5, 13):
            assert interval_form_value(k, tiny) == 0

    def test_exact_dyadic_breakpoints_are_fine(self):
        # 0.5 is exactly the pivot for degree 5: the value is 0
        assert interval_form_value(5, Fraction(0.5)) == 0
        # 0.25 is exactly on tree level 4, the child level for degree 6
        assert interval_form_value(6, Fraction(0.25)) == Fraction(1, 4)

    def test_near_breakpoint_is_exact(self):
        # the float 1/3 lies just below 1/3, outside the k = 5 support
        assert Fraction(1 / 3) < Fraction(1, 3)
        assert interval_form_value(5, Fraction(1 / 3)) == 0
        # one ulp above the pivot 1/2: on the line 2 - 3x
        x = Fraction(0.5000000000000002)
        assert x == Fraction(1, 2) + Fraction(1, 2**52)
        assert interval_form_value(5, x) == Fraction(1, 2) - Fraction(3, 2**52)

    def test_rejects_out_of_range(self):
        for real in (0.0, 1.0):
            with pytest.raises(ValueError):
                interval_form_value(5, Fraction(real))

    @given(
        st.integers(5, 9),
        st.integers(3, 60),
        st.integers(1, 10**6),
    )
    def test_tracks_exact_values_away_from_breakpoints(self, k, q, seed):
        # the breakpoints are the fractions on levels up to k - 2; P(k, .)
        # is linear on an interval around any deeper p/q, so the float p/q,
        # within an ulp of it, gives a value within 1e-12 of P(k, p/q)
        p = seed % (q - 1) + 1
        x = Fraction(p, q)
        assume(level_index(x) > k - 2)
        got = interval_form_value(k, Fraction(p / q))
        assert abs(float(got) - float(interval_form_value(k, x))) < 1e-12

    def test_is_correctly_rounded(self):
        # evaluating the linear piece in floats put this 64 ulps off
        x = Fraction(0.8684454578650953)
        assert x == Fraction(3911130640432843, 2**52)
        value = interval_form_value(12, x)
        assert value == Fraction(115987817454531, 2**52)
        assert float(value) == 0.025754469102807986
        assert value == cf_form_distribution(x).probability(12)

    @given(st.integers(5, 14), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_is_the_rounded_exact_value(self, k, real):
        x = Fraction(real)
        value = interval_form_value(k, x)
        assert value == interval_form_value(k, 1 - x)
        assert value == cf_form_distribution(x).probability(k)


def test_removed_sweep_forms_stay_out_of_the_package():
    import harosgraph
    import harosgraph.distribution

    removed = (
        "SweepPoint",
        "base_probability",
        "interval_form_value_real",
        "BREAKPOINT_EPS",
        "AmbiguousBreakpointError",
    )
    for name in removed:
        assert name not in harosgraph.__all__
        assert name not in harosgraph.distribution.__all__
        assert not hasattr(harosgraph, name)
        assert not hasattr(harosgraph.distribution, name)
        assert not hasattr(harosgraph.errors, name)
    # the float path's imports went with it
    source = ast.parse(Path(harosgraph.distribution.__file__).read_text())
    imported = {
        alias.name.partition(".")[0]
        for node in ast.walk(source)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.partition(".")[0]
        for node in ast.walk(source)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert not imported & {"numbers", "sys"}


def sweep_rows(degrees, order, **kwargs):
    """The sweep's columns flattened to (p, q, k, thm1, thm2, oracle) rows,
    with the sorted distinct degrees as k."""
    ks = sorted(set(degrees))
    return [
        (p, q, *row)
        for p, q, *columns in sweep(degrees, order, **kwargs)
        for row in zip(ks, *columns, strict=True)
    ]


def _dropping_q_equal_to_the_order(real):
    # the `q < max_denominator` walk: 1,892 rows at order 40, not 1,956
    return lambda ks, n: ((p, q, c) for p, q, c in real(ks, n) if q < n)


def _repeating_one_half(real):
    def walk(ks, n):
        for p, q, c in real(ks, n):
            yield p, q, c
            if (p, q) == (1, 2):
                yield p, q, c

    return walk


def _adding_20_41(real):
    # 20/41 of F_41 is the mediant of 19/39 and 1/2, neighbours in F_40
    def walk(ks, n):
        return ((p, q, c) for p, q, c in real(ks, n + 1) if q <= n or (p, q) == (20, 41))

    return walk


def _stopping_one_early(real):
    return lambda ks, n: iter(list(real(ks, n))[:-1])


# Broken oracle walks at order 40, each with the pair the sweep's own check
# names; the three routes agree on every x such a walk yields, so only that
# check sees them.
WALK_MUTANTS = {
    "drops q = n": (_dropping_q_equal_to_the_order, "0/1 to 1/39"),
    "yields 1/2 twice": (_repeating_one_half, "1/2 to 1/2"),
    "adds 20/41": (_adding_20_41, "19/39 to 20/41"),
    "stops one early": (_stopping_one_early, "38/39 to 1/1"),
}


def plant_walk(monkeypatch, case):
    """Replace the sweep's oracle walk by the mutant ``case`` of it; the
    text the sweep's error must hold is returned."""
    import harosgraph.distribution

    mutant, pair = WALK_MUTANTS[case]
    real = harosgraph.distribution.iter_identified_counts
    monkeypatch.setattr(harosgraph.distribution, "iter_identified_counts", mutant(real))
    return f"the sweep of order 40 went from {pair}, which are not consecutive in F_40"


class TestSweep:
    @pytest.mark.parametrize("case", list(WALK_MUTANTS))
    def test_a_walk_that_skips_repeats_or_adds_an_x_is_refused(self, case, monkeypatch):
        message = plant_walk(monkeypatch, case)
        with pytest.raises(AdjacencyError) as info:
            list(sweep([5, 6, 7, 8], 40))
        assert str(info.value) == message

    def test_order_two_is_one_half(self):
        assert list(sweep([5], 2)) == [(1, 2, (0,), (0,), (0,))]

    def test_order_three(self):
        assert list(sweep([5], 3)) == [
            (1, 3, (1,), (1,), (1,)),
            (1, 2, (0,), (0,), (0,)),
            (2, 3, (1,), (1,), (1,)),
        ]

    def test_order_one_is_empty(self):
        assert list(sweep([5], 1)) == []

    def test_rows_sorted_and_consistent(self):
        rows = sweep_rows([5, 6, 7, 8], 50)
        assert rows == sorted(rows, key=lambda r: (Fraction(r[0], r[1]), r[2]))
        assert len(rows) == sweep_row_count([5, 6, 7, 8], 50)
        for r in rows:
            assert r[3] == r[4] == r[5]

    def test_one_group_per_x(self):
        groups = list(sweep([8, 5, 6, 5], 30))
        assert [(p, q) for p, q, *_ in groups] == [
            (p, q) for p, q in iter_farey_pairs(30) if p not in (0, q)
        ]
        for p, q, *columns in groups:
            # three columns, each one count per distinct degree, ascending in k
            counts = degree_distribution_oracle(Fraction(p, q)).counts
            assert columns == [tuple([counts.get(k, 0) for k in (5, 6, 8)])] * 3
            for column in columns:
                assert type(column) is tuple
                assert [type(count) for count in column] == [int] * 3

    def test_row_cap(self):
        with pytest.raises(ResourceLimitError):
            list(sweep([5], 100, row_cap=10))

    def test_row_cap_is_inclusive(self):
        # F_10 has 31 interior fractions; the cap counts rows, not x
        assert len(sweep_rows([5], 10, row_cap=31)) == 31
        with pytest.raises(ResourceLimitError, match="the cap is 30"):
            list(sweep([5], 10, row_cap=30))
        assert len(sweep_rows([5, 6], 10, row_cap=62)) == 62
        with pytest.raises(ResourceLimitError, match="the cap is 61"):
            list(sweep([5, 6], 10, row_cap=61))

    def test_no_cap_skips_the_count(self, monkeypatch):
        import harosgraph.distribution

        def refuse(*args, **kwargs):
            raise AssertionError("rows counted without a cap")

        monkeypatch.setattr(harosgraph.distribution, "sweep_row_count", refuse)
        assert len(sweep_rows([5, 6], 10, row_cap=None)) == 62

    def test_row_cap_holds_before_the_sieve(self):
        # an order of 10**9 would need gigabytes to count in full
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                next(sweep([5], 10**9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_groups_are_reduced_int_pairs_and_int_counts(self):
        for p, q, *columns in sweep([5, 6, 7, 8], 30):
            assert type(p) is int and type(q) is int
            assert Fraction(p, q).denominator == q
            for row in zip([5, 6, 7, 8], *columns, strict=True):
                assert [type(value) for value in row] == [int] * 4

    def test_rows_are_integer_counts_over_q(self):
        for p, q, *columns in sweep([5, 6, 7, 8], 30):
            oracle = degree_distribution_oracle(Fraction(p, q))
            for k, cf_form_count, interval_form_count, oracle_count in zip(
                [5, 6, 7, 8], *columns, strict=True
            ):
                assert oracle_count == oracle.counts.get(k, 0)
                assert cf_form_count == interval_form_count == oracle_count

    def test_rejects_low_degrees(self):
        with pytest.raises(ValueError):
            list(sweep([4], 10))

    def test_row_count_matches_enumeration(self):
        for order in (1, 2, 3, 10, 37):
            interior = sum(
                1 for p, q in iter_farey_pairs(order) if p not in (0, q)
            )
            assert sweep_row_count([5, 6], order) == 2 * interior

    def test_row_count_stops_past_the_cap(self):
        exact = sweep_row_count([5, 6], 1000)
        for cap in (0, 10, 1000, exact - 1):
            assert cap < sweep_row_count([5, 6], 1000, cap=cap) <= exact
        # small caps that a partial count can meet exactly (3, 5 and 9)
        for cap in range(50):
            assert sweep_row_count([5], 1000, cap=cap) > cap
        for cap in (exact, 10**9):
            assert sweep_row_count([5, 6], 1000, cap=cap) == exact

    def test_row_count_without_degrees_sieves_nothing(self, monkeypatch):
        import harosgraph.distribution

        limits = []

        def interior_count(order):
            limits.append(order)
            return 0

        monkeypatch.setattr(harosgraph.distribution, "_interior_count", interior_count)
        assert sweep_row_count([], 10**9, cap=5) == 0
        assert limits == []

    @pytest.mark.parametrize(
        "order, cap",
        [(ROW_COUNT_MAX_SIEVE + 1, None), (10**12, None), (10**12, 10**24)],
    )
    def test_row_count_refuses_before_the_sieve(self, order, cap):
        # each used to raise a bare MemoryError from the totient list: the
        # capped one started its sieve at isqrt(cap) + 2 = 10**12
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                sweep_row_count([5], order, cap=cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        message = str(info.value)
        assert f"order {order} " in message
        assert f"the largest sieve is {ROW_COUNT_MAX_SIEVE}" in message

    def test_row_count_sieves_up_to_the_largest_sieve(self, monkeypatch):
        import harosgraph.distribution

        limits = []

        def interior_count(order):
            limits.append(order)
            return 0

        monkeypatch.setattr(harosgraph.distribution, "_interior_count", interior_count)
        assert sweep_row_count([5], ROW_COUNT_MAX_SIEVE) == 0
        assert limits == [ROW_COUNT_MAX_SIEVE]
        # with a cap, an order at the bound still sieves once
        limits.clear()
        assert sweep_row_count([5], ROW_COUNT_MAX_SIEVE, cap=10**24) == 0
        assert limits == [ROW_COUNT_MAX_SIEVE]
        # the sieve starts at isqrt(cap) + 2 and doubles while the count
        # stays at or below the cap; the first doubling past the bound is
        # refused before it is sieved
        limits.clear()
        with pytest.raises(ResourceLimitError, match="sieves totients up to 1000008;"):
            sweep_row_count([5], 10**12, cap=250_000**2)
        assert limits == [250_002, 500_004]
