"""Explicit graph construction: concatenation, builds, boundary counts."""

import sys
from array import array
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harosgraph import graphs
from harosgraph.distribution import cf_form_distribution, degree_distribution_oracle
from harosgraph.errors import AdjacencyError, ResourceLimitError
from harosgraph.graphs import (
    HarosGraph,
    _degrees,
    _identified_counts,
    _left_steps,
    _right_steps,
    build,
    concat,
    identify_boundary,
    initial_graph,
    iter_identified_counts,
)
from harosgraph.tree import iter_farey_pairs, level_index, symbolic_path


def unit_fractions(max_den=200):
    return st.builds(
        lambda q, p: Fraction(p % (q - 1) + 1, q), st.integers(3, max_den), st.integers(0)
    )


def _fibonacci_ratios(limit):
    a, b = 1, 2
    while b <= limit:
        yield Fraction(a, b)
        a, b = b, a + b


# One huge continued-fraction term (1/q) and many terms of 1 (Fibonacci
# ratios, up to 46368/75025): the two extremes of run length for the
# run-at-a-time build; 301/605 = [2, 100, 3] has one long run inside.
ADVERSARIAL = [
    Fraction(1, q) for q in (2**10, 2**10 + 1, 3 * 2**10, 2**11, 2**12)
] + list(_fibonacci_ratios(10**5)) + [Fraction(301, 605)]


# Fig-style reference data, derived by applying the merge rule by hand and
# cross-checked against the closed forms in test_distribution.
SEQ_1_2 = (2, 2, 2)
SEQ_1_3 = (2, 3, 2, 3)
SEQ_2_5 = (3, 3, 2, 5, 2, 3)
SEQ_10_23 = (
    5, 3, 2, 5, 2, 5, 2, 8, 3, 2, 5, 2, 5, 2, 8, 3, 2, 5, 2, 5, 2, 5, 2, 5,
)


class TestConcat:
    def test_seed_pair_gives_triangle(self):
        g = concat(initial_graph(Fraction(0)), initial_graph(Fraction(1)))
        assert g.label == Fraction(1, 2)
        assert g.degrees == SEQ_1_2

    def test_seed_with_triangle(self):
        g0 = initial_graph(Fraction(0))
        mid = concat(g0, initial_graph(Fraction(1)))
        g = concat(g0, mid)
        assert g.label == Fraction(1, 3)
        assert g.degrees == SEQ_1_3

    def test_fig_concatenation(self):
        # the graph of 2/7 is the concatenation of those of 1/4 and 1/3
        got = concat(build(Fraction(1, 4)), build(Fraction(1, 3)))
        assert got == build(Fraction(2, 7))

    def test_rejects_non_adjacent_labels(self):
        with pytest.raises(AdjacencyError):
            concat(build(Fraction(1, 4)), build(Fraction(1, 2)))
        with pytest.raises(AdjacencyError):
            concat(build(Fraction(1, 2)), build(Fraction(1, 3)))

    def test_node_and_edge_bookkeeping(self):
        left, right = build(Fraction(1, 3)), build(Fraction(1, 2))
        g = concat(left, right)
        assert g.node_count == left.node_count + right.node_count - 1
        assert g.edge_count == left.edge_count + right.edge_count + 1


class TestBuild:
    def test_endpoints_are_the_seed(self):
        assert build(Fraction(0)).degrees == (1, 1)
        assert build(Fraction(1)).degrees == (1, 1)
        assert build(Fraction(1)).label == 1

    def test_worked_sequences(self):
        assert build(Fraction(1, 2)).degrees == SEQ_1_2
        assert build(Fraction(2, 5)).degrees == SEQ_2_5
        assert build(Fraction(10, 23)).degrees == SEQ_10_23

    def test_rejects_out_of_range_and_oversized(self):
        with pytest.raises(ValueError):
            build(Fraction(3, 2))
        with pytest.raises(ResourceLimitError):
            build(Fraction(1, 10**7 + 1))

    @given(unit_fractions())
    def test_node_count_and_handshake(self, x):
        g = build(x)
        q = x.denominator
        assert g.label == x
        assert g.node_count == q + 1
        assert sum(g.degrees) == 2 * (2 * q - 1)

    @given(unit_fractions())
    def test_deterministic(self, x):
        assert build(x) == build(x)

    @given(unit_fractions())
    def test_mirror_reverses_the_sequence(self, x):
        assert build(1 - x).degrees == tuple(reversed(build(x).degrees))

    @staticmethod
    def stepwise(x):
        # independent oracle: replay the descent word one concatenation at a
        # time, keeping the two neighbour graphs by hand
        left = initial_graph(Fraction(0))
        right = initial_graph(Fraction(1))
        word = symbolic_path(x).word
        cur = concat(left, right)
        for symbol in word[1:]:
            if symbol == "L":
                cur, right = concat(left, cur), cur
            else:
                cur, left = concat(cur, right), cur
        return cur

    @classmethod
    def assert_matches_stepwise(cls, x):
        # the public build and the array core behind it, against the fold;
        # the array is one byte per node below level 255
        expected = cls.stepwise(x)
        assert build(x) == expected
        seq = _degrees(x.numerator, x.denominator)
        assert seq.typecode == ("B" if level_index(x) < 255 else "I")
        assert tuple(seq) == expected.degrees
        # no degree passes the level plus one, which the typecode relies on
        assert max(seq) <= level_index(x) + 1

    def test_matches_stepwise_navigation(self):
        for p, q in iter_farey_pairs(200):
            if 0 < p < q:
                self.assert_matches_stepwise(Fraction(p, q))

    @pytest.mark.parametrize("x", ADVERSARIAL, ids=str)
    def test_matches_stepwise_navigation_adversarial(self, x):
        self.assert_matches_stepwise(x)
        self.assert_matches_stepwise(1 - x)

    # 1/254 and 2/505 (level 254, a degree of 255) fill a one-byte cell;
    # 1/255 and 2/507 (level 255, degrees 255 and 256) take four
    @pytest.mark.parametrize(
        "x, typecode, top",
        [(Fraction(1, 254), "B", 254), (Fraction(2, 505), "B", 255),
         (Fraction(1, 255), "I", 255), (Fraction(2, 507), "I", 256)],
        ids=str,
    )
    def test_one_byte_width_edge(self, x, typecode, top):
        for y in (x, 1 - x):
            seq = _degrees(y.numerator, y.denominator)
            assert (seq.typecode, max(seq)) == (typecode, top)
            assert tuple(seq) == self.stepwise(y).degrees

    def test_degree_past_its_cell_raises(self):
        # an array refuses a value past its width; it never wraps to 0
        with pytest.raises(OverflowError):
            _left_steps(array("B", (1, 1)), array("B", (1, 255)), 1)

    def test_degrees_are_a_tuple(self):
        for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 505),
                  Fraction(2, 507), Fraction(46368, 75025)):
            assert type(build(x).degrees) is tuple

    def test_build_and_oracle_share_the_cap(self):
        x = Fraction(3, 10**7 + 1)
        with pytest.raises(ResourceLimitError) as by_build:
            build(x)
        with pytest.raises(ResourceLimitError) as by_oracle:
            degree_distribution_oracle(x)
        assert str(by_build.value) == str(by_oracle.value)
        assert f"building {x} needs {10**7 + 2} node degrees" in str(by_build.value)

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 7])
    def test_run_steps_match_repeated_concat(self, r):
        # a run of r steps written in one pass, against r single concats;
        # the operands are left untouched, since the build reuses them
        pairs = [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(1, 2)),
                 (Fraction(2, 7), Fraction(1, 3)), (Fraction(3, 5), Fraction(2, 3))]
        for a, b in pairs:
            left, right = build(a), build(b)
            # L steps: left ⊕ (left ⊕ ... right); R steps: (left ⊕ right) ⊕ ...
            by_left, by_right = right, left
            for _ in range(r):
                by_left = concat(left, by_left)
                by_right = concat(by_right, right)
            lo, hi = list(left.degrees), list(right.degrees)
            assert tuple(_left_steps(lo, hi, r)) == by_left.degrees
            assert tuple(_right_steps(lo, hi, r)) == by_right.degrees
            assert (tuple(lo), tuple(hi)) == (left.degrees, right.degrees)

    def test_million_node_build(self):
        # one run of a million steps, written in one pass
        q = 10**6
        x = Fraction(1, q)
        g = build(x)
        assert g.node_count == q + 1
        assert g.edge_count == 2 * q - 1
        assert identify_boundary(g) == cf_form_distribution(x).counts


def _counter_reference(degrees):
    """identify_boundary's counts by a plain Counter over every node."""
    counts = Counter(degrees)
    counts[degrees[0]] -= 1
    counts[degrees[-1]] -= 1
    counts[degrees[0] + degrees[-1]] += 1
    return {k: m for k, m in sorted(counts.items()) if m}


# identify_boundary counts a built graph in C, as a byte string of its
# interior, unless an interior degree passes 255, whatever its extremes: 1/q
# has the extreme degree q.  Each case names the path its graphs take.
COUNTING_PATH_CASES = {
    "1/254": ([Fraction(1, 254)], "bytes"),
    "1/255": ([Fraction(1, 255)], "bytes"),  # extreme degree 255
    "1/256": ([Fraction(1, 256)], "bytes"),  # extreme degree 256
    "1/4096": ([Fraction(1, 4096)], "bytes"),
    "1/100000": ([Fraction(1, 10**5)], "bytes"),
    "2/507": ([Fraction(2, 507)], "Counter"),  # an interior degree of 256
    "2/509": ([Fraction(2, 509)], "Counter"),  # an interior degree of 257
    "2/601": ([Fraction(2, 601)], "Counter"),  # an interior degree of 303
    "46368/75025": ([Fraction(46368, 75025)], "bytes"),
    "F_60": (
        [Fraction(p, q) for p, q in iter_farey_pairs(60) if 0 < p < q],
        "bytes",
    ),
}

# The oracle counts its array's interior in C, through the low byte of each
# cell, when every interior degree is below 256, and by a Counter otherwise.
# 1/q from q = 255 on is a four-byte array with interior degrees 2 and 3;
# 256 and 65536 have a zero low byte, so only their high bytes show them.
ARRAY_COUNT_CASES = {
    "1/254": (lambda: _degrees(1, 254), "bytes"),  # one byte per node
    "1/255": (lambda: _degrees(1, 255), "bytes"),
    "1/256": (lambda: _degrees(1, 256), "bytes"),
    "1/4096": (lambda: _degrees(1, 4096), "bytes"),
    "1/100000": (lambda: _degrees(1, 10**5), "bytes"),
    "2/507": (lambda: _degrees(2, 507), "Counter"),  # an interior degree of 256
    "2/601": (lambda: _degrees(2, 601), "Counter"),  # an interior degree of 303
    "hand-built": (lambda: array("I", [7, 256, 3, 65536, 2, 9]), "Counter"),
}


def _recording_counter(monkeypatch):
    """Replace graphs.Counter by one that records each call; the list of
    calls is returned."""
    calls = []

    def counter(items):
        calls.append(items)
        return Counter(items)

    monkeypatch.setattr(graphs, "Counter", counter)
    return calls


class TestIdentifyBoundary:
    @pytest.mark.parametrize("case", list(COUNTING_PATH_CASES))
    def test_both_counting_paths_match_a_counter(self, case, monkeypatch):
        xs, path = COUNTING_PATH_CASES[case]
        counters = _recording_counter(monkeypatch)
        for x in xs:
            g = build(x)
            degrees = g.degrees
            counts = identify_boundary(g)
            assert ("Counter" if counters else "bytes") == path
            counters.clear()
            assert counts == _counter_reference(degrees)
            assert list(counts) == sorted(counts)
            # the oracle counts the build's array itself
            seq = _degrees(x.numerator, x.denominator)
            assert list(_identified_counts(seq).items()) == list(counts.items())

    @pytest.mark.parametrize("case", list(ARRAY_COUNT_CASES))
    def test_array_interior_is_counted_in_c_when_it_fits_a_byte(self, case, monkeypatch):
        make, path = ARRAY_COUNT_CASES[case]
        seq = make()
        expected = _counter_reference(seq)
        counters = _recording_counter(monkeypatch)
        counts = _identified_counts(seq)
        assert counts == expected
        assert list(counts) == sorted(counts)
        assert ("Counter" if counters else "bytes") == path

    @pytest.mark.parametrize(
        "x", [Fraction(1, 4096), Fraction(2, 507), Fraction(1, 255)],
        ids=["1/4096", "2/507", "1/255"],
    )
    def test_one_byte_string_of_the_interior_and_no_array(self, x, monkeypatch):
        # the extremes never go into the byte string, so 1/4096 (extreme
        # degree 4096) and 1/255 are counted in C from it, and 2/507 (an
        # interior 256) falls back to the Counter after the one attempt
        g = build(x)
        expected = _counter_reference(g.degrees)
        made = {"bytes": [], "array": []}

        def recording(name, real):
            class _Is(type):
                def __instancecheck__(cls, obj):
                    return isinstance(obj, real)

            class Recording(metaclass=_Is):
                def __new__(cls, *args):
                    made[name].append(args)
                    return real(*args)

            monkeypatch.setattr(graphs, name, Recording, raising=False)

        recording("bytes", bytes)
        recording("array", array)
        counters = _recording_counter(monkeypatch)
        counts = identify_boundary(g)
        assert made == {"bytes": [(g.degrees[1:-1],)], "array": []}
        assert len(made["bytes"][0][0]) == g.node_count - 2
        assert list(counts.items()) == list(expected.items())
        expected_path = COUNTING_PATH_CASES[f"{x.numerator}/{x.denominator}"][1]
        assert ("Counter" if counters else "bytes") == expected_path

    # Hand-built graphs no build makes, each with the parent's result, key
    # order included, and the path its interior takes.
    HAND_BUILT_CASES = {
        "wide extremes": ((300, 2, 3, 7), [(2, 1), (3, 1), (307, 1)], "bytes"),
        "interior 2**40": ((5, 2**40, 3, 7), [(3, 1), (12, 1), (2**40, 1)], "Counter"),
        "negative interior": ((5, 2, -3, 7), [(-3, 1), (2, 1), (12, 1)], "Counter"),
    }

    @pytest.mark.parametrize("case", list(HAND_BUILT_CASES))
    def test_hand_built_graphs(self, case, monkeypatch):
        degrees, expected, path = self.HAND_BUILT_CASES[case]
        counters = _recording_counter(monkeypatch)
        counts = identify_boundary(HarosGraph(Fraction(1, 3), degrees))
        assert list(counts.items()) == expected
        assert ("Counter" if counters else "bytes") == path

    def test_big_endian_cells_are_read_at_their_last_byte(self, monkeypatch):
        seq = _degrees(1, 4096)
        swapped = array("I", seq)
        swapped.byteswap()
        other = "big" if sys.byteorder == "little" else "little"
        monkeypatch.setattr(graphs, "sys", SimpleNamespace(byteorder=other))
        expected = Counter(seq[1:-1])
        expected[swapped[0] + swapped[-1]] += 1
        assert _identified_counts(swapped) == dict(sorted(expected.items()))

    def test_worked_multisets(self):
        assert identify_boundary(build(Fraction(1, 2))) == {2: 1, 4: 1}
        assert identify_boundary(build(Fraction(1, 3))) == {2: 1, 3: 1, 5: 1}
        assert identify_boundary(build(Fraction(10, 23))) == {
            2: 10,
            3: 3,
            5: 7,
            8: 2,
            10: 1,
        }

    def test_boundary_degree_equal_to_an_interior_degree(self):
        # the two extremes sum to a degree interior nodes have too
        g = HarosGraph(Fraction(1, 3), (1, 2, 3, 1))
        assert identify_boundary(g) == {2: 2, 3: 1}
        g = HarosGraph(Fraction(1, 2), (2, 4, 2))
        assert identify_boundary(g) == {4: 2}

    def test_end_degree_only_at_the_ends_leaves_no_zero(self):
        # the end degree 4 of 1/4 and of 2/7 (and q of 1/q) is on no other node
        assert build(Fraction(1, 4)).degrees == (2, 3, 3, 2, 4)
        assert identify_boundary(build(Fraction(1, 4))) == {2: 1, 3: 2, 6: 1}
        assert identify_boundary(build(Fraction(2, 7))) == {2: 2, 3: 3, 6: 1, 7: 1}
        assert identify_boundary(build(Fraction(1, 4096))) == {2: 1, 3: 4094, 4098: 1}
        g = HarosGraph(Fraction(1, 3), (5, 2, 3, 7))
        assert identify_boundary(g) == {2: 1, 3: 1, 12: 1}
        # an extreme degree no four-byte cell holds
        g = HarosGraph(Fraction(1, 3), (2**40, 2, 3, 7))
        assert identify_boundary(g) == {2: 1, 3: 1, 2**40 + 7: 1}

    def test_rejects_seed_graph(self):
        with pytest.raises(ValueError):
            identify_boundary(initial_graph(Fraction(0)))

    @given(unit_fractions())
    def test_totals_and_degree_sum(self, x):
        q = x.denominator
        counts = identify_boundary(build(x))
        assert sum(counts.values()) == q
        assert sum(k * m for k, m in counts.items()) == 2 * (2 * q - 1)

    @given(unit_fractions())
    def test_mirror_symmetry_of_counts(self, x):
        a = identify_boundary(build(x))
        b = identify_boundary(build(1 - x))
        assert a == b

    def test_mirror_symmetry_exhaustive_f100(self):
        for p, q in iter_farey_pairs(100):
            if p == 0 or 2 * p > q:
                continue
            x = Fraction(p, q)
            g, mirrored = build(x), build(1 - x)
            assert mirrored.degrees == tuple(reversed(g.degrees))
            assert identify_boundary(g) == identify_boundary(mirrored)


class TestIdentifiedCountsWalk:
    def test_matches_per_fraction_builds(self):
        # every degree of F_60, each compared with the build, zeros included
        n = 60
        degrees = range(2, n + 3)
        walked = {(p, q): c for p, q, c in iter_identified_counts(degrees, n)}
        expected_keys = {
            (p, q) for p, q in iter_farey_pairs(n) if p not in (0, q)
        }
        assert set(walked) == expected_keys
        for p, q in sorted(expected_keys):
            counts = identify_boundary(build(Fraction(p, q)))
            assert set(counts) <= set(degrees), f"degree out of range at {p}/{q}"
            assert walked[p, q] == tuple(counts.get(k, 0) for k in degrees), (
                f"walker differs at {p}/{q}"
            )
            assert sum(walked[p, q]) == q, f"counts do not sum to q at {p}/{q}"
            assert list(counts) == sorted(counts), f"degrees not ascending at {p}/{q}"

    def test_yields_tuples(self):
        # each node's counts feed its children, so a caller must not get a
        # list it could edit under the fractions that follow
        walked = iter_identified_counts(range(2, 33), 30)
        assert all(type(counts) is tuple for _, _, counts in walked)

    def test_empty_below_two(self):
        # the first mediant, 1/2, is already past order 1; lower orders are
        # refused (the bad-input tables of test_distribution.py)
        assert list(iter_identified_counts([2, 5], 1)) == []

    @pytest.mark.parametrize("n", [2, 3, 10, 60, 200])
    def test_yields_the_interior_of_farey_in_order(self, n):
        walked = [(p, q) for p, q, _ in iter_identified_counts([5], n)]
        assert walked == [(p, q) for p, q in iter_farey_pairs(n) if 0 < p < q]

    def test_no_degrees_yields_empty_counts(self):
        assert [c for _, _, c in iter_identified_counts([], 5)] == [()] * 9


class TestCountsAtDegrees:
    """The walk at chosen degrees, against explicit builds."""

    # (5, 9, 13, 40) and (6, 30) leave gaps between the degrees, and 40 and
    # 30 lie past most boundaries at these orders; 2 and 3 are where the
    # seed counts start; (8, 5, 7, 6) is not sorted
    @pytest.mark.parametrize(
        "ks", [(5,), (5, 6, 7, 8), (5, 9, 13, 40), (6, 30), (2, 3), (8, 5, 7, 6)]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 60, 200])
    def test_matches_builds(self, n, ks):
        built = [
            (p, q, tuple(identify_boundary(build(Fraction(p, q))).get(k, 0) for k in ks))
            for p, q in iter_farey_pairs(n)
            if 0 < p < q
        ]
        assert list(iter_identified_counts(ks, n)) == built

    def test_low_degrees_follow_the_seeds(self):
        # degree 2 is where the seed counts start, so it is kept too
        for p, q, (twos, threes) in iter_identified_counts((2, 3), 40):
            low = min(p, q - p)
            assert (twos, threes) == (low, q - 2 * low), (p, q)


def test_haros_graph_is_hashable_value():
    g = HarosGraph(Fraction(1, 2), (2, 2, 2))
    assert g == build(Fraction(1, 2))
    assert hash(g) == hash(build(Fraction(1, 2)))
