"""Continued fractions and continuants over exact rationals.

Rationals are plain :class:`fractions.Fraction` values: arbitrary precision,
always stored reduced, with numerator >= 0 and denominator >= 1 for the unit
interval values this package works with.  This module supplies the
continued-fraction layer on top: canonical expansions for x in (0, 1],
convergents, and Euler's continuant polynomials.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .errors import NotRationalError

__all__ = [
    "ContinuedFraction",
    "cf_expand",
    "continuant",
    "convergents",
    "suffix_continuants",
]


class _Record:
    """Base of the package's record classes.  The fields named in
    ``__match_args__``, in order, give the repr ``Name(field=value, ...)``,
    equality with another instance of the same class (``NotImplemented``
    against any other) and positional ``match`` patterns, as a dataclass
    does.  A record is mutable and not hashable; :class:`_Value` is both
    immutable and hashable."""

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented


class _Value(_Record):
    """Base of the immutable value classes: a record whose ``__init__``
    sets each field once, after its checks, through ``object.__setattr__``.  Assigning or deleting any attribute afterwards
    raises AttributeError (``cannot assign to field 'x'``, the message of a
    frozen dataclass), and the hash is that of the tuple of fields, so
    equal values hash alike.  Instances keep their ``__dict__``, so
    :mod:`copy` and :mod:`pickle` restore them without ``__setattr__``."""

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ContinuedFraction(_Value):
    """Canonical term list [a_1, ..., a_m] of a rational in (0, 1].

    The value is 1/(a_1 + 1/(a_2 + ...)).  All terms are positive ints and
    the last term is >= 2, except for the value 1 whose expansion is the
    single term [1].  The two classic representations [..., a] and
    [..., a-1, 1] are collapsed to the first.  A float or bool term, or
    terms that are not a sequence at all, raise :class:`NotRationalError`.
    """

    __match_args__ = ("terms",)
    terms: tuple[int, ...]

    def __init__(self, terms: Iterable[int]) -> None:
        terms = _tuple(terms, "continued-fraction terms")
        terms = tuple([_integer(a, "a continued-fraction term") for a in terms])
        if not terms:
            raise ValueError("a continued fraction needs at least one term")
        if any(a < 1 for a in terms):
            raise ValueError(f"terms must be positive integers: {list(terms)}")
        if len(terms) > 1 and terms[-1] < 2:
            raise ValueError("canonical form forbids a trailing term of 1")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)


def _unit_fraction(x: Fraction, open: bool) -> Fraction:
    """x as a Fraction inside the unit interval, open (0, 1) or closed [0, 1].

    Ints are promoted; floats, bools and non-numbers raise
    :class:`NotRationalError`, values outside the interval ValueError.
    """
    if not isinstance(x, Fraction):
        if isinstance(x, bool) or not isinstance(x, numbers.Rational):
            raise NotRationalError(
                f"expected an exact rational, got {type(x).__name__} {x!r}"
            )
        x = Fraction(x)
    # int tests on the reduced terms: the denominator is always >= 1
    n, d = x.numerator, x.denominator
    if not (0 < n < d if open else 0 <= n <= d):
        raise ValueError(f"x must lie in {'(0, 1)' if open else '[0, 1]'}, got {x}")
    return x


def _integer(n: int, what: str) -> int:
    """n, a degree, order or level named by ``what``, as an int: other
    integral numbers are converted; floats (even 6.0), bools and
    non-numbers raise :class:`NotRationalError`."""
    if type(n) is not int:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise NotRationalError(
                f"{what} must be an integer, got {type(n).__name__} {n!r}"
            )
        n = int(n)
    return n


def _tuple(xs: Iterable, what: str) -> tuple:
    """xs as a tuple (xs itself when it is one, at no cost), the ``what`` of
    a term list, a path, a graph or a tree level; a float, bool, None or
    anything else that cannot be iterated raises :class:`NotRationalError`
    naming its type."""
    try:
        return tuple(xs)
    except TypeError:
        raise NotRationalError(
            f"{what} must be a sequence, got {type(xs).__name__} {xs!r}"
        ) from None


def _degree(k: int) -> int:
    """k as a degree of the interval form: an integer >= 5 (see
    :func:`_integer`); degrees below 5 raise ValueError."""
    k = _integer(k, "a degree")
    if k < 5:
        raise ValueError(f"the interval form needs a degree >= 5, got {k}")
    return k


def cf_expand(x: Fraction) -> ContinuedFraction:
    """Canonical continued-fraction expansion of x in (0, 1].

    x = 0 is rejected: it has no expansion of this form and callers treat
    the interval endpoints specially.
    """
    x = _unit_fraction(x, open=False)
    if x == 0:
        raise ValueError("cf_expand needs 0 < x <= 1, got 0")
    return ContinuedFraction(_cf_terms(x.numerator, x.denominator))


def _cf_terms(p: int, q: int) -> tuple[int, ...]:
    """Canonical terms of p/q for coprime 0 < p <= q, by Euclid's algorithm:
    the integer core of :func:`cf_expand`, with no checks."""
    terms = []
    while p:
        terms.append(q // p)
        p, q = q % p, p
    return tuple(terms)


def convergents(cf: ContinuedFraction) -> list[Fraction]:
    """Convergents p_k/q_k of the truncations [a_1, ..., a_k] for k = 1..m.

    Uses the recurrence p_k = a_k p_{k-1} + p_{k-2} (same for q) seeded with
    p_0 = 0, q_0 = 1, p_{-1} = 1, q_{-1} = 0, so the first entry is 1/a_1
    and the last one is the value K(terms[1:]) / K(terms) itself, the
    inverse of :func:`cf_expand`.  Anything but a :class:`ContinuedFraction`
    raises :class:`NotRationalError` naming its type.
    """
    if not isinstance(cf, ContinuedFraction):
        raise NotRationalError(
            f"expected a ContinuedFraction, got {type(cf).__name__} {cf!r}"
        )
    out = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    for a in cf.terms:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Fraction(p_cur, q_cur))
    return out


def continuant(xs: Iterable[int]) -> int:
    """Euler's continuant K(x_1, ..., x_n).

    K() = 1, K(x_1) = x_1 and K_n = x_n K_{n-1} + K_{n-2}.  For a canonical
    term list, K(terms) is the denominator of its value and K(terms[1:]) the
    numerator.  Entries outside a canonical expansion (a leading 0 from a
    decremented term, say) are fine: the recurrence does not care.  A float
    or bool term, or terms that are not a sequence, raise
    :class:`NotRationalError` naming the type.
    """
    return _continuant(_terms(xs))


def _continuant(xs: Iterable[int]) -> int:
    """K(xs) for int terms, unchecked: the integer core of :func:`continuant`."""
    older, prev = 0, 1
    for x in xs:
        older, prev = prev, x * prev + older
    return prev


def suffix_continuants(terms: Sequence[int]) -> list[int]:
    """All suffix continuants of a term list in one right-to-left pass.

    Returns ``S`` of length ``len(terms) + 2`` with ``S[i] = K(terms[i:])``;
    the trailing entries are K of the empty list (1) and the notional
    recursion seed 0.  Continuants are symmetric, so the suffixes satisfy
    S[i] = terms[i] * S[i+1] + S[i+2].  The terms are checked as
    :func:`continuant` checks them.
    """
    return _suffix_continuants(_terms(terms))


def _suffix_continuants(terms: Sequence[int]) -> list[int]:
    """The suffix continuants of a sequence of int terms, unchecked: the
    integer core of :func:`suffix_continuants`."""
    n = len(terms)
    out = [0] * (n + 2)
    out[n] = 1
    for i in range(n - 1, -1, -1):
        out[i] = terms[i] * out[i + 1] + out[i + 2]
    return out


def _terms(xs: Iterable[int]) -> list[int]:
    """The terms of a continuant as a list of ints, each checked as
    :func:`_integer` checks it."""
    return [_integer(x, "a continuant term") for x in _tuple(xs, "continuant terms")]
