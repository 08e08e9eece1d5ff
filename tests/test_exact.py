"""Continued fractions, convergents and continuant identities."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harosgraph.errors import NotRationalError
from harosgraph.exact import (
    ContinuedFraction,
    _unit_fraction,
    cf_expand,
    continuant,
    convergents,
    suffix_continuants,
)


def naive_continuant(xs):
    """Independent oracle: the raw recursive definition."""
    if len(xs) == 0:
        return 1
    if len(xs) == 1:
        return xs[0]
    return xs[-1] * naive_continuant(xs[:-1]) + naive_continuant(xs[:-2])


def unit_fractions(max_den=400):
    return st.builds(
        lambda q, p: Fraction(p % (q - 1) + 1, q), st.integers(3, max_den), st.integers(0)
    )


def term_lists(min_size=1, max_size=10, max_term=9):
    def canonical(terms):
        terms = list(terms)
        if len(terms) > 1 and terms[-1] == 1:
            terms = terms[:-2] + [terms[-2] + 1]
        return tuple(terms)

    return st.lists(
        st.integers(1, max_term), min_size=min_size, max_size=max_size
    ).map(canonical)


class TestCfExpand:
    def test_worked_values(self):
        assert cf_expand(Fraction(10, 23)).terms == (2, 3, 3)
        assert cf_expand(Fraction(1, 2)).terms == (2,)
        assert cf_expand(Fraction(3, 7)).terms == (2, 3)
        assert cf_expand(Fraction(2, 5)).terms == (2, 2)
        assert cf_expand(Fraction(1, 1)).terms == (1,)

    def test_rejects_zero_and_out_of_range(self):
        with pytest.raises(ValueError):
            cf_expand(Fraction(0))
        with pytest.raises(ValueError):
            cf_expand(Fraction(3, 2))

    @given(unit_fractions())
    def test_round_trip(self, x):
        assert convergents(cf_expand(x))[-1] == x

    def test_round_trip_exhaustive_small(self):
        for q in range(1, 70):
            for p in range(1, q + 1):
                x = Fraction(p, q)
                assert convergents(cf_expand(x))[-1] == x

    @given(unit_fractions())
    def test_canonical_form(self, x):
        terms = cf_expand(x).terms
        assert all(a >= 1 for a in terms)
        if len(terms) > 1:
            assert terms[-1] >= 2
        if 0 < x <= Fraction(1, 2):
            assert terms[0] >= 2


@pytest.mark.parametrize("open_", [True, False])
def test_unit_fraction_range_matches_fraction_comparisons(open_):
    # the range test reads the reduced int terms; it must accept exactly
    # what 0 < x < 1 (open) or 0 <= x <= 1 (closed) accepts
    interval = "(0, 1)" if open_ else "[0, 1]"
    for n, d in product(range(-5, 9), range(1, 5)):
        x = Fraction(n, d)
        for value in (x, n) if d == 1 else (x,):
            if 0 < x < 1 if open_ else 0 <= x <= 1:
                got = _unit_fraction(value, open=open_)
                assert type(got) is Fraction and got == x
            else:
                with pytest.raises(ValueError) as info:
                    _unit_fraction(value, open=open_)
                assert str(info.value) == f"x must lie in {interval}, got {x}"


class TestContinuedFractionType:
    def test_rejects_trailing_one(self):
        with pytest.raises(ValueError):
            ContinuedFraction((2, 1))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            ContinuedFraction(())
        with pytest.raises(ValueError):
            ContinuedFraction((2, 0, 2))

    @pytest.mark.parametrize("bad", [3.5, True, None])
    def test_rejects_a_non_sequence_by_type(self, bad):
        # ContinuedFraction(3.5) used to raise a bare TypeError
        with pytest.raises(NotRationalError, match=f"got {type(bad).__name__} {bad!r}$"):
            ContinuedFraction(bad)

    def test_single_one_is_the_value_one(self):
        assert convergents(ContinuedFraction((1,)))[-1] == 1


class TestLastConvergent:
    """The last convergent is the value of the whole term list."""

    def test_worked_values(self):
        assert convergents(ContinuedFraction((2, 3, 3)))[-1] == Fraction(10, 23)
        assert convergents(ContinuedFraction((1,)))[-1] == Fraction(1)
        assert convergents(ContinuedFraction((2,)))[-1] == Fraction(1, 2)

    def test_matches_the_division_loop(self):
        # the value read from the last term up: 1/(a_1 + 1/(a_2 + ...))
        for m in range(1, 6):
            for terms in product(range(1, 6), repeat=m):
                if m > 1 and terms[-1] == 1:
                    continue
                value = Fraction(0)
                for a in reversed(terms):
                    value = 1 / (a + value)
                assert convergents(ContinuedFraction(terms))[-1] == value, terms

    def test_bigint_terms(self):
        n = 10**200 + 7
        assert convergents(ContinuedFraction((n,)))[-1] == Fraction(1, n)
        assert convergents(ContinuedFraction((1, n)))[-1] == Fraction(n, n + 1)
        assert convergents(ContinuedFraction((2, n, 3)))[-1] == 1 / (2 + 1 / (n + Fraction(1, 3)))


class TestConvergents:
    def test_worked_values(self):
        # expected entries computed by evaluating each truncation directly
        got = convergents(ContinuedFraction((2, 3, 3)))
        assert got == [Fraction(1, 2), Fraction(3, 7), Fraction(10, 23)]
        assert convergents(ContinuedFraction((2,))) == [Fraction(1, 2)]
        assert convergents(ContinuedFraction((2, 2))) == [
            Fraction(1, 2),
            Fraction(2, 5),
        ]

    @given(term_lists())
    def test_truncation_oracle(self, terms):
        cf = ContinuedFraction(terms)
        got = convergents(cf)
        expected = [
            convergents(ContinuedFraction(canonical))[-1]
            for canonical in _canonical_truncations(terms)
        ]
        assert got == expected

    @given(term_lists(min_size=2))
    def test_unimodularity(self, terms):
        conv = convergents(ContinuedFraction(terms))
        for a, b in zip(conv, conv[1:]):
            assert abs(a.numerator * b.denominator - b.numerator * a.denominator) == 1

    @given(term_lists())
    def test_denominators_beat_fibonacci(self, terms):
        fib = [1, 1]
        while len(fib) < len(terms) + 2:
            fib.append(fib[-1] + fib[-2])
        conv = convergents(ContinuedFraction(terms))
        for k, c in enumerate(conv, start=1):
            assert c.denominator >= fib[k]

    @given(term_lists())
    def test_denominators_strictly_increase(self, terms):
        conv = convergents(ContinuedFraction(terms))
        dens = [c.denominator for c in conv]
        assert all(a < b for a, b in zip(dens, dens[1:]))


def _canonical_truncations(terms):
    for k in range(1, len(terms) + 1):
        head = list(terms[:k])
        if len(head) > 1 and head[-1] == 1:
            head = head[:-2] + [head[-2] + 1]
        yield tuple(head)


class TestContinuant:
    def test_base_cases(self):
        assert continuant([]) == 1
        assert continuant([5]) == 5
        assert continuant([2, 3, 3]) == 23
        assert continuant([2, 3]) == 7

    def test_handles_leading_zero(self):
        assert continuant([0]) == 0
        assert continuant([0, 2]) == 1
        assert continuant([0, 2, 3]) == continuant([3])

    @given(st.lists(st.integers(0, 9), max_size=11))
    def test_matches_naive_recursion(self, xs):
        assert continuant(xs) == naive_continuant(xs)

    @given(term_lists(max_size=10))
    def test_gives_numerator_and_denominator(self, terms):
        x = convergents(ContinuedFraction(terms))[-1]
        assert continuant(terms) == x.denominator
        assert continuant(terms[1:]) == x.numerator

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=10), st.data())
    def test_splitting_identity(self, xs, data):
        n = len(xs)
        m = data.draw(st.integers(1, n - 1))
        lhs = continuant(xs)
        rhs = continuant(xs[:m]) * continuant(xs[m:]) + continuant(
            xs[: m - 1]
        ) * continuant(xs[m + 1 :])
        assert lhs == rhs

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=10))
    def test_determinant_identity(self, xs):
        n = len(xs)
        lhs = continuant(xs) * continuant(xs[1 : n - 1]) - continuant(
            xs[: n - 1]
        ) * continuant(xs[1:])
        assert lhs == (-1) ** n

    def test_symmetry(self):
        for xs in ((1, 2, 3), (4, 1, 1, 2), (3, 5, 7, 2, 6)):
            assert continuant(xs) == continuant(tuple(reversed(xs)))

    @pytest.mark.parametrize("call", [continuant, suffix_continuants])
    @pytest.mark.parametrize(
        "bad, named",
        [
            # continuant([1.5, 2]) was 4.0 and continuant([True, 2]) was 3;
            # None and 'ab' raised a bare TypeError
            ([1.5, 2], "float 1.5"),
            ([True, 2], "bool True"),
            ([2, None], "NoneType None"),
            (None, "NoneType None"),
            (3.5, "float 3.5"),
            ("ab", "str 'a'"),
        ],
    )
    def test_rejects_bad_terms_by_type(self, call, bad, named):
        with pytest.raises(NotRationalError, match=f"got {named}$"):
            call(bad)


class TestSuffixContinuants:
    @given(st.lists(st.integers(1, 9), max_size=10))
    def test_every_suffix(self, xs):
        tails = suffix_continuants(xs)
        assert len(tails) == len(xs) + 2
        for i in range(len(xs) + 1):
            assert tails[i] == continuant(xs[i:])
        assert tails[-1] == 0
