"""Farey sequences, tree levels, descent words and interval location."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harosgraph.errors import AdjacencyError, NotRationalError, ResourceLimitError
from harosgraph.exact import cf_expand, convergents
from harosgraph.tree import (
    BracketSide,
    MAX_CF_WORD_STEPS,
    MAX_TREE_LEVEL,
    EnclosingBracket,
    SymbolicPath,
    _level,
    _level_pairs,
    _pairs_between,
    _parents,
    _replay,
    _run_lengths,
    _walk,
    farey_parents,
    iter_farey_pairs,
    level_index,
    locate_for_degree,
    mediant,
    replay_path,
    symbolic_path,
    tree_children,
    tree_level,
)


def unit_fractions(max_den=300):
    return st.builds(
        lambda q, p: Fraction(p % (q - 1) + 1, q), st.integers(3, max_den), st.integers(0)
    )


def fibonacci_ratios(limit):
    """F_n / F_(n+1) for denominators up to limit: every term is 1 but the
    last, so the descent word alternates L and R at every step."""
    a, b = 1, 2
    while b <= limit:
        yield a, b
        a, b = b, a + b


def run_end_hits(max_level=7, max_run=6):
    """Fractions that a descent hits exactly at the end of a run: the j-th
    node (j*a + c)/(j*b + d) of an L run, or its R mirror, below every pair
    of Farey neighbours a/b < c/d met on the way to level max_level."""
    hits = set()
    stack = [((0, 1), (1, 1), 2)]
    while stack:
        (a, b), (c, d), level = stack.pop()
        for j in range(1, max_run + 1):
            hits.add((j * a + c, j * b + d))
            hits.add((a + j * c, b + j * d))
        if level < max_level:
            mid = (a + c, b + d)
            stack.append(((a, b), mid, level + 1))
            stack.append((mid, (c, d), level + 1))
    return sorted(hits, key=lambda pair: Fraction(*pair))


def stepwise_brackets(p, q, last_k):
    """The bracket of p/q for k = 5..last_k, walking one tree level per step.

    The reference the run-length descent is checked against: at every level
    the walk compares p/q with the mediant of its current Farey parents.
    """
    lo, hi = (0, 1), (1, 1)
    for k in range(5, last_k + 1):
        if lo is None:
            yield BracketSide.ELSEWHERE, None
            continue
        pivot = (lo[0] + hi[0], lo[1] + hi[1])
        lower = (lo[0] + pivot[0], lo[1] + pivot[1])
        upper = (pivot[0] + hi[0], pivot[1] + hi[1])
        to_pivot = p * pivot[1] - q * pivot[0]
        if to_pivot == 0:
            side = BracketSide.AT_PIVOT
        else:
            if to_pivot < 0:
                side, to_child = BracketSide.LOWER_SUBINTERVAL, p * lower[1] - q * lower[0]
            else:
                side, to_child = BracketSide.UPPER_SUBINTERVAL, q * upper[0] - p * upper[1]
            if to_child == 0:
                side = BracketSide.AT_CHILD_LEVEL
            elif to_child < 0:
                side = BracketSide.ELSEWHERE
        yield side, (lo, lower, pivot, upper, hi)
        if to_pivot == 0:
            lo = hi = None  # p/q is the next node: too shallow from here on
        elif to_pivot < 0:
            hi = pivot
        else:
            lo = pivot


class TestMediant:
    def test_worked_values(self):
        assert mediant(Fraction(1, 4), Fraction(1, 3)) == Fraction(2, 7)
        assert mediant(Fraction(0), Fraction(1)) == Fraction(1, 2)
        assert mediant(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)

    def test_rejects_non_adjacent(self):
        with pytest.raises(AdjacencyError):
            mediant(Fraction(1, 4), Fraction(1, 2))
        with pytest.raises(AdjacencyError):
            mediant(Fraction(1, 2), Fraction(1, 3))  # wrong order

    @given(unit_fractions())
    def test_output_adjacent_to_both_inputs(self, x):
        lo, hi = farey_parents(x)
        med = mediant(lo, x)
        assert lo < med < x
        assert x.denominator * med.numerator - x.numerator * med.denominator == -1
        assert lo.denominator * med.numerator - lo.numerator * med.denominator == 1


def farey_bruteforce(n):
    """F_n as (p, q) pairs, by sorting every reduced fraction."""
    return sorted(
        ((p, q) for q in range(1, n + 1) for p in range(0, q + 1) if gcd(p, q) == 1),
        key=lambda pair: Fraction(*pair),
    )


class TestFareySequence:
    def test_small_orders(self):
        assert list(iter_farey_pairs(1)) == [(0, 1), (1, 1)]
        assert list(iter_farey_pairs(2)) == [(0, 1), (1, 2), (1, 1)]

    def test_order_five_against_bruteforce(self):
        expected = farey_bruteforce(5)
        assert list(iter_farey_pairs(5)) == expected
        assert len(expected) == 11

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 121])
    def test_matches_bruteforce_and_adjacency(self, n):
        got = list(iter_farey_pairs(n))
        assert got == farey_bruteforce(n)
        for (a, b), (c, d) in zip(got, got[1:]):
            assert c * b - a * d == 1

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            list(iter_farey_pairs(0))


class TestPairsBetween:
    @pytest.mark.parametrize("order", [1, 2, 5, 13, 40])
    def test_is_the_farey_sequence_between_neighbours(self, order):
        # every pair of Farey neighbours with denominators up to 9, some of
        # them above the order
        neighbours = farey_bruteforce(9)
        full = farey_bruteforce(order)
        for (a, b), (c, d) in zip(neighbours, neighbours[1:]):
            expected = [(p, q) for p, q in full if a * q < p * b and p * d < c * q]
            assert list(_pairs_between(a, b, c, d, order)) == expected


class TestTreeLevel:
    def test_first_levels(self):
        assert tree_level(1) == (Fraction(0), Fraction(1))
        assert tree_level(2) == (Fraction(1, 2),)
        assert tree_level(3) == (Fraction(1, 3), Fraction(2, 3))
        assert tree_level(4) == (
            Fraction(1, 4),
            Fraction(2, 5),
            Fraction(3, 5),
            Fraction(3, 4),
        )

    def test_sizes(self):
        for k in range(2, 13):
            assert len(tree_level(k)) == 2 ** (k - 2)

    def test_holds_distinct_fractions_in_increasing_order(self):
        for k in range(1, 11):
            level = tree_level(k)
            assert type(level) is tuple
            assert all(type(x) is Fraction for x in level)
            assert list(level) == sorted(set(level))

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_stay_immutable(self, roundtrip):
        # a level is a plain tuple: it copies, pickles and hashes as one,
        # and cannot be changed in place
        level = tree_level(5)
        again = roundtrip(level)
        assert again == level and type(again) is tuple
        assert hash(again) == hash(level)
        with pytest.raises(TypeError):
            again[0] = Fraction(0)

    def test_levels_partition_by_term_sum(self):
        for k in range(2, 13):
            for x in tree_level(k):
                assert level_index(x) == k

    def test_mediant_construction(self):
        # every level-k fraction is the mediant of its parents, which sit
        # at strictly shallower levels
        for k in range(2, 11):
            for x in tree_level(k):
                lo, hi = farey_parents(x)
                assert mediant(lo, hi) == x
                assert level_index(lo) < k
                assert level_index(hi) < k

    def test_refuses_oversized_level(self):
        with pytest.raises(ResourceLimitError):
            tree_level(MAX_TREE_LEVEL + 1)
        with pytest.raises(ValueError):
            tree_level(0)

    def test_level_pairs_below_two_are_empty(self):
        # no bracket's mediant sits at depth 1 or 0, so a walk that looked
        # for one would grow its stack until memory ran out
        assert list(_level_pairs(1)) == []
        assert list(_level_pairs(0)) == []
        assert list(_level_pairs(2)) == [(1, 2)]


class TestSymbolicPath:
    def test_worked_values(self):
        assert symbolic_path(Fraction(10, 23)).word == "LLRRRLL"
        assert symbolic_path(Fraction(1, 2)).word == "L"
        assert symbolic_path(Fraction(2, 5)).word == "LLR"

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            symbolic_path(Fraction(0))
        with pytest.raises(ValueError):
            symbolic_path(Fraction(1))

    @given(unit_fractions())
    def test_runs_are_terms_with_last_reduced(self, x):
        terms = list(cf_expand(x).terms)
        terms[-1] -= 1
        path = symbolic_path(x)
        assert [count for _, count in path.runs] == terms
        assert [symbol for symbol, _ in path.runs] == [
            "L" if i % 2 == 0 else "R" for i in range(len(path.runs))
        ]

    @given(unit_fractions())
    def test_replay_lands_on_x(self, x):
        assert replay_path(symbolic_path(x)) == x

    def test_replay_of_long_runs(self):
        for x in (Fraction(1, 10**6), Fraction(3, 10**200 + 7), Fraction(832040, 1346269)):
            assert replay_path(symbolic_path(x)) == x
            assert replay_path(symbolic_path(1 - x)) == 1 - x

    def test_replay_rejects_empty_runs(self):
        with pytest.raises(ValueError):
            replay_path(SymbolicPath((("L", 2), ("R", 0))))

    @pytest.mark.parametrize("bad", [3.5, True, None])
    @pytest.mark.parametrize("call", [SymbolicPath, replay_path])
    def test_rejects_a_non_path_by_type(self, call, bad):
        # replay_path(3.5) used to raise AttributeError, SymbolicPath(3.5) a
        # bare TypeError
        with pytest.raises(NotRationalError, match=f"got {type(bad).__name__} {bad!r}$"):
            call(bad)

    @given(unit_fractions())
    def test_length_is_level_minus_one(self, x):
        assert symbolic_path(x).steps == level_index(x) - 1

    def test_steps_of_a_bigint_run(self):
        # len() has to fit in a C ssize_t, so it overflowed on these paths
        x = Fraction(1, 10**200 + 7)
        for y in (x, 1 - x):
            assert symbolic_path(y).steps == level_index(y) - 1 == 10**200 + 6

    @pytest.mark.parametrize("q", [10**6 + 2, 10**10, 10**200 + 7])
    def test_word_above_the_cap_is_refused(self, q):
        # 1/(10**200 + 7) used to raise a bare OverflowError, and 1/10**10
        # tried to build a 10 GB string
        path = symbolic_path(Fraction(1, q))
        with pytest.raises(ResourceLimitError, match=f"has {q - 1} steps; the cap is"):
            path.word
        assert path.steps == q - 1

    def test_word_at_the_cap_is_spelled(self):
        assert MAX_CF_WORD_STEPS == 10**6
        word = symbolic_path(Fraction(1, MAX_CF_WORD_STEPS + 1)).word
        assert word == "L" * MAX_CF_WORD_STEPS

    def test_has_no_len(self):
        # a path's step count can exceed any C ssize_t; it is read from .steps
        with pytest.raises(TypeError):
            len(symbolic_path(Fraction(2, 7)))

    def test_entry_points_equal_their_integer_cores(self):
        # verify's path suite calls the cores on (p, q) directly; each entry
        # point is its checks plus one call to its core
        big = 10**200 + 7
        xs = [Fraction(p, q) for p, q in iter_farey_pairs(60) if 0 < p < q]
        xs += [Fraction(1, q) for q in (2, 3, 255, 256, 10**6, big)]
        xs += [Fraction(a, b) for a, b in fibonacci_ratios(10**60)]
        xs += [Fraction(p, big) for p in (3, 10**100 + 1, 10**199 + 3)]
        for x in xs + [1 - x for x in xs]:
            p, q = x.numerator, x.denominator
            path = symbolic_path(x)
            runs = _run_lengths(p, q)
            assert [count for _, count in path.runs] == runs
            assert replay_path(path) == Fraction(*_replay(runs)) == x
            assert level_index(x) == _level(p, q) == path.steps + 1
        assert level_index(Fraction(0)) == level_index(Fraction(1)) == 1

    def test_roundtrips_exhaustive_f200(self):
        from harosgraph.verify import check_path_roundtrips

        tally = check_path_roundtrips(200)
        assert tally.failed == 0, tally.first_failure


class TestFareyParents:
    @staticmethod
    def by_convergents(x):
        """The previous convergent of x and the complementary
        semiconvergent, in numeric order."""
        conv = convergents(cf_expand(x))
        prev = conv[-2] if len(conv) >= 2 else Fraction(0)
        other = Fraction(x.numerator - prev.numerator, x.denominator - prev.denominator)
        return tuple(sorted((prev, other)))

    def test_matches_convergents_f150(self):
        for p, q in iter_farey_pairs(150):
            if 0 < p < q:
                x = Fraction(p, q)
                assert farey_parents(x) == self.by_convergents(x), x

    def test_matches_convergents_on_deep_inputs(self):
        big = 10**200 + 7
        for x in (Fraction(1, big), Fraction(3, big), Fraction(big - 1, big),
                  Fraction(317811, 514229), Fraction(1, 2)):
            lo, hi = farey_parents(x)
            assert (lo, hi) == self.by_convergents(x)
            assert mediant(lo, hi) == x
            assert tree_children(x) == (mediant(lo, x), mediant(x, hi))


class TestTreeChildren:
    def test_worked_values(self):
        assert tree_children(Fraction(1, 2)) == (Fraction(1, 3), Fraction(2, 3))
        assert tree_children(Fraction(1, 3)) == (Fraction(1, 4), Fraction(2, 5))
        # mediants of 3/7 with its recorded tree neighbours 2/5 and 1/2
        assert tree_children(Fraction(3, 7)) == (Fraction(5, 12), Fraction(4, 9))

    def test_children_are_next_level_neighbours(self):
        for k in range(2, 12):
            next_level = set(tree_level(k + 1))
            for x in tree_level(k):
                left, right = tree_children(x)
                assert left < x < right
                assert left in next_level and right in next_level
                assert mediant(left, x) and mediant(x, right)  # adjacency holds

    def test_children_interleave_in_level_order(self):
        # the i-th fraction of a level has the (2i)-th and (2i+1)-th
        # fractions of the next level as its children (0-indexed)
        for k in range(2, 12):
            below = tree_level(k + 1)
            for i, x in enumerate(tree_level(k)):
                assert tree_children(x) == (below[2 * i], below[2 * i + 1])

    def test_cf_parity_rule(self):
        # the child raising the last term is the smaller one exactly when
        # the term count is odd; appending ", 2" gives the other child
        from harosgraph.exact import ContinuedFraction

        for k in range(2, 12):
            for x in tree_level(k):
                terms = cf_expand(x).terms
                left, right = tree_children(x)
                plus = convergents(ContinuedFraction(terms[:-1] + (terms[-1] + 1,)))[-1]
                two = convergents(ContinuedFraction(terms[:-1] + (terms[-1] - 1, 2)))[-1]
                if len(terms) % 2:
                    assert (left, right) == (plus, two)
                else:
                    assert (left, right) == (two, plus)


class TestLocateForDegree:
    def test_worked_values(self):
        br = locate_for_degree(5, Fraction(2, 5))
        assert (br.lower, br.pivot, br.upper) == (
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
        )
        assert br.side is BracketSide.LOWER_SUBINTERVAL

        assert locate_for_degree(5, Fraction(1, 3)).side is BracketSide.AT_CHILD_LEVEL
        assert locate_for_degree(5, Fraction(1, 2)).side is BracketSide.AT_PIVOT

        br = locate_for_degree(6, Fraction(2, 7))
        assert (br.lower, br.pivot, br.upper) == (
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(2, 5),
        )
        assert br.side is BracketSide.LOWER_SUBINTERVAL

    def test_shallow_fraction_is_elsewhere(self):
        br = locate_for_degree(6, Fraction(1, 2))
        assert br.side is BracketSide.ELSEWHERE
        assert br.pivot is None

    def test_far_side_of_child_is_elsewhere(self):
        # 2/7 < 1/4, the lower child for degree 5, so no support there
        assert locate_for_degree(5, Fraction(2, 7)).side is BracketSide.ELSEWHERE

    def test_rejects_low_degree_and_endpoints(self):
        with pytest.raises(ValueError):
            locate_for_degree(4, Fraction(2, 5))
        with pytest.raises(ValueError):
            locate_for_degree(5, Fraction(0))

    def assert_matches_stepwise(self, p, q):
        x = Fraction(p, q)
        last_k = level_index(x) + 4
        for k, (side, nodes) in enumerate(stepwise_brackets(p, q, last_k), start=5):
            where = f"{p}/{q} at k = {k}"
            got = locate_for_degree(k, x)
            # the walk stops with the cross-product gaps of p/q to the same
            # Farey parents, and the parents come back from the gaps
            gaps = _walk((k,), p, q)[1]
            if nodes is None:
                assert got == EnclosingBracket(None, None, None, side), where
                assert gaps is None, where
                continue
            (a, b), lower, pivot, upper, (c, d) = nodes
            assert (got.side, got.lower, got.pivot, got.upper) == (
                side, Fraction(*lower), Fraction(*pivot), Fraction(*upper)
            ), where
            assert gaps == (p * b - q * a, q * c - p * d), where
            assert _parents(p, q, *gaps) == ((a, b), (c, d)), where

    def test_descent_matches_stepwise_walk_f150(self):
        for p, q in iter_farey_pairs(150):
            if 0 < p < q:
                self.assert_matches_stepwise(p, q)

    @pytest.mark.parametrize("e", [10, 11, 12, 13])
    def test_descent_matches_stepwise_walk_one_term(self, e):
        self.assert_matches_stepwise(1, 2**e)
        self.assert_matches_stepwise(2**e - 1, 2**e)

    def test_descent_matches_stepwise_walk_fibonacci(self):
        for p, q in fibonacci_ratios(10**5):
            self.assert_matches_stepwise(p, q)
            self.assert_matches_stepwise(q - p, q)

    def test_descent_matches_stepwise_walk_at_run_ends(self):
        for p, q in run_end_hits():
            self.assert_matches_stepwise(p, q)

    def test_resumed_descent_matches_fresh_one(self):
        # one descent that went to k0 and goes on to k lands where a
        # descent to k alone does, with the same count and gaps
        for p, q in iter_farey_pairs(60):
            if not 0 < p < q:
                continue
            last_k = level_index(Fraction(p, q)) + 4
            fresh = {k: _walk((k,), p, q) for k in range(5, last_k + 1)}
            for k0 in range(5, last_k + 1):
                for k in range(k0, last_k + 1):
                    (_, count), gaps = _walk((k0, k), p, q)
                    assert ([count], gaps) == fresh[k], (p, q, k0, k)

    def test_locates_a_bigint_at_its_own_level(self):
        # one step per continued-fraction term: a level of about 10**200 is
        # reached in a handful of iterations
        q = 10**200 + 7
        br = locate_for_degree(q // 3 + 5, Fraction(3, q))
        assert br.side is BracketSide.AT_CHILD_LEVEL
        assert level_index(Fraction(3, q)) == q // 3 + 3

    @given(unit_fractions(), st.integers(5, 12))
    def test_bracket_is_pivot_with_its_children(self, x, k):
        br = locate_for_degree(k, x)
        if br.pivot is None:
            assert br.side is BracketSide.ELSEWHERE
            assert level_index(x) < k - 3
        else:
            assert br.lower < br.pivot < br.upper
            assert level_index(br.pivot) == k - 3
            assert tree_children(br.pivot) == (br.lower, br.upper)


def mirror_cases():
    """(p, q, ks): F_150 and its one-term and Fibonacci extremes with every
    degree up to one past the level, and 3/(10**200 + 7) = [a, 1, 2] at the
    first degrees and around its own level a + 3."""
    for p, q in iter_farey_pairs(150):
        if 0 < p < q:
            yield p, q, range(5, level_index(Fraction(p, q)) + 5)
    for e in (10, 11, 12, 13):
        yield 1, 2**e, range(5, 2**e + 5)
    for p, q in fibonacci_ratios(10**5):
        yield p, q, range(5, level_index(Fraction(p, q)) + 5)
    q = 10**200 + 7
    yield 3, q, [5, 6, 7] + [q // 3 + i for i in range(8)]


def mirrored(br):
    """The bracket of 1 - x from the bracket of x."""
    if br.pivot is None:
        return br
    swap = {
        BracketSide.LOWER_SUBINTERVAL: BracketSide.UPPER_SUBINTERVAL,
        BracketSide.UPPER_SUBINTERVAL: BracketSide.LOWER_SUBINTERVAL,
    }
    side = swap.get(br.side, br.side)
    return EnclosingBracket(1 - br.upper, 1 - br.pivot, 1 - br.lower, side)


class TestMirrorSymmetry:
    """x -> 1 - x swaps L and R in the tree, so the descent towards x itself
    needs no mirror step: its two gaps swap and its counts stay."""

    def test_counts_and_brackets_mirror(self):
        seen = set()
        for p, q, ks in mirror_cases():
            counts, gaps = _walk(ks, p, q)
            mirror_counts, mirror_gaps = _walk(ks, q - p, q)
            assert counts == mirror_counts, (p, q)
            assert mirror_gaps == (None if gaps is None else gaps[::-1]), (p, q)
            x = Fraction(p, q)
            for k in ks:
                br = locate_for_degree(k, x)
                assert locate_for_degree(k, 1 - x) == mirrored(br), (p, q, k)
                seen.add((2 * p < q, br.side))
        # not vacuous: every side is met on both halves of the interval
        assert seen == {(half, side) for half in (True, False) for side in BracketSide}
