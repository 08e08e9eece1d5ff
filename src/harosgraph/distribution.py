"""Three independent routes to the degree distribution P(k, x).

* ``degree_distribution_oracle``: build the graph explicitly, identify the
  boundary node, count the nodes of each degree.  Exact, and linear in q:
  the build writes each continued-fraction run of tree steps in one pass,
  into a typed array that is counted as it is, never made a tuple.
* ``cf_form_distribution``: closed form driven by the continued fraction of
  x.  Degrees above 4 appear exactly at the cumulative term sums plus three,
  with multiplicity the denominator of the decremented tail, plus a single
  boundary node of degree (sum of terms) + 2.  Cost is a handful of integer
  operations however large q grows.
* ``interval_form_value``: piecewise-linear form for one degree k >= 5,
  driven by where x falls between a pivot of tree level k - 3 and that
  pivot's two children in level k - 2.  Locating x walks the Farey tree one
  run at a time, O(m) for x = [a_1, ..., a_m] whatever k is; a whole
  distribution, a sweep row group or a triple-equality check shares one
  walk per x, O(m + number of degrees), so none of them needs a cap.

For x = p/q every probability is a count of nodes over q, so each route has
an integer core that returns those counts, and the counts over q are the
one form every layer passes on: a :class:`DegreeDistribution` stores them as
they are, and ``sweep`` yields them unreduced.  Only the public accessors
(``entries``, ``probability``, ``interval_form_value``) build
:class:`~fractions.Fraction` values.

P is symmetric about 1/2: thm1 evaluates x > 1/2 through the mirror
x -> 1 - x, and the interval form descends towards x itself.  The
distributions of the endpoints 0 and 1 are identically zero by convention.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from types import MappingProxyType

from .errors import (
    AdjacencyError,
    NotRationalError,
    ResourceLimitError,
)
from .exact import _Value, _cf_terms, _degree, _integer, _unit_fraction
from .graphs import _degrees, _identified_counts, iter_identified_counts
from .tree import _walk

__all__ = [
    "DEFAULT_ROW_CAP",
    "DegreeDistribution",
    "ROW_COUNT_MAX_SIEVE",
    "cf_form_distribution",
    "degree_distribution_oracle",
    "interval_form_distribution",
    "interval_form_value",
    "sweep",
    "sweep_row_count",
]


class DegreeDistribution(_Value):
    """Exact degree distribution of one graph, as node counts over q.

    ``counts`` maps each degree to its number of nodes in the
    boundary-identified graph of x = p/q, and P(k, x) is
    counts[k] / denominator; zeros are implicit.  For labels strictly
    inside the unit interval the counts are positive and sum to q; the
    endpoints carry an empty map.  ``counts`` is a read-only copy of the
    map passed in, and ``entries`` gives the same data as a read-only map
    degree -> :class:`~fractions.Fraction`.  Counts that are not a mapping
    raise :class:`NotRationalError`.  The denominator is an int >= 1:
    anything else raises :class:`NotRationalError` or ValueError.
    """

    __match_args__ = ("counts", "denominator")
    counts: Mapping[int, int]
    denominator: int

    def __init__(self, counts: Mapping[int, int], denominator: int) -> None:
        q = _integer(denominator, "a denominator")
        if q < 1:
            raise ValueError(f"the denominator must be >= 1, got {q}")
        try:
            counts = MappingProxyType(dict(counts))
        except (TypeError, ValueError):
            raise NotRationalError(
                f"counts must be a mapping, got {type(counts).__name__} {counts!r}"
            ) from None
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "denominator", q)

    def __reduce__(self) -> tuple:
        # a mappingproxy cannot be pickled or deep-copied: rebuild from a dict
        return type(self), (dict(self.counts), self.denominator)

    @property
    def entries(self) -> Mapping[int, Fraction]:
        q = self.denominator
        return MappingProxyType({k: Fraction(m, q) for k, m in self.counts.items()})

    def probability(self, k: int) -> Fraction:
        return Fraction(self.counts.get(k, 0), self.denominator)

    def support(self) -> list[int]:
        return sorted(self.counts)

    def total(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.denominator)

    def mean_degree(self) -> Fraction:
        return Fraction(
            sum(k * m for k, m in self.counts.items()), self.denominator
        )


def degree_distribution_oracle(x: Fraction) -> DegreeDistribution:
    """Distribution by explicit construction: build, identify, over q.

    The degree sequence is the array :func:`graphs._degrees` writes, about
    one byte per node for golden-ratio x and four for 1/q, counted with no
    tuple in between; the build cap and its message are those of
    :func:`graphs.build`.
    """
    x = _unit_fraction(x, open=False)
    p, q = x.numerator, x.denominator
    if q == 1:  # 0/1 or 1/1
        return DegreeDistribution({}, q)
    return DegreeDistribution(_identified_counts(_degrees(p, q)), q)


def cf_form_distribution(x: Fraction) -> DegreeDistribution:
    """Exact distribution of x in (0, 1) from its continued fraction alone."""
    x = _unit_fraction(x, open=True)
    q = x.denominator
    return DegreeDistribution(_cf_form_counts(x.numerator, q), q)


def _cf_form_counts(p: int, q: int, top: int | None = None) -> dict[int, int]:
    """Integer core of :func:`cf_form_distribution`: degree -> P(k, p/q)·q.

    For coprime 0 < p < q.  Every degree with a positive count is present.
    One pass of Euclid's algorithm on (q, p) gives every count: with
    r_0 = q, r_1 = p and a_l = r_{l-1} // r_l, the remainders are the suffix
    continuants r_l = K(a_{l+1}, ..., a_m), so r_l - r_{l+1} nodes have
    degree 3 + a_1 + ... + a_l (for 0 < l < m), and the boundary node has
    degree a_1 + ... + a_m + 2.  With p = min(p, q - p) the r_0 - r_1 nodes
    of level 0 are p of degree 2 and q - 2p of degree 3.

    With ``top``, the pass stops after the first degree
    3 + a_1 + ... + a_l >= top, and the map is complete at every degree
    <= top only: every later degree is at least one higher, the boundary
    one too, since the last term is at least 2.
    """
    if 2 * p > q:
        p = q - p
    counts = {2: p}
    if q - 2 * p:
        counts[3] = q - 2 * p
    degree = 3
    while True:
        degree += q // p
        q, p = p, q % p
        if not p:
            counts[degree - 1] = 1
            return counts
        counts[degree] = q - p
        if top is not None and degree >= top:
            return counts


def interval_form_value(k: int, x: Fraction) -> Fraction:
    """P(k, x) for one degree k >= 5 from the bracket located around x.

    Inside the lower subinterval (left child, pivot) the value is the linear
    map q_c x - p_c of the left child c; inside the upper subinterval it is
    p_c - q_c x of the right child.  Exactly on a level k-2 fraction the
    value is 1/q; on the pivot, shallower, or outside the bracket it is 0.
    """
    x = _unit_fraction(x, open=True)
    q = x.denominator
    (count,) = _walk((_degree(k),), x.numerator, q)[0]
    return Fraction(count, q)


def interval_form_distribution(x: Fraction) -> DegreeDistribution:
    """Full distribution with every degree k >= 5 taken from the interval form.

    Degrees 2 and 3 come from the base formulas, as the counts min(p, q - p)
    and |q - 2p|, and the single documented exception P(4, 1/2) = 1/2 is
    filled in directly.  The continued fraction only supplies the candidate
    degrees to query; each count still comes from the interval location,
    so this stays independent of :func:`cf_form_distribution`.  The
    degrees ascend, so one descent serves them all (:func:`tree._walk`).
    """
    x = _unit_fraction(x, open=True)
    p, q = x.numerator, x.denominator
    low = min(p, q - p)
    counts = {2: low}
    if q - 2 * low:
        counts[3] = q - 2 * low
    if q == 2:
        counts[4] = 1
    # Degrees above 4 sit at the cumulative term sums plus three and at the
    # boundary degree, the level plus two (only 4 for x = 1/2)
    *sums, level = accumulate(_cf_terms(low, q))
    degrees = [s + 3 for s in sums]
    if level + 2 >= 5:
        degrees.append(level + 2)
    for k, count in zip(degrees, _walk(degrees, p, q)[0]):
        if count:
            counts[k] = count
    return DegreeDistribution(counts, q)


DEFAULT_ROW_CAP = 5_000_000

# sweep_row_count sieves totients into a list of (limit + 1) ints, about
# 36 MB at this limit; it refuses any larger sieve.
ROW_COUNT_MAX_SIEVE = 10**6


def sweep_row_count(
    degrees: Sequence[int], order: int, cap: int | None = None
) -> int:
    """Number of rows a sweep will emit: interior fractions times degrees.

    The degrees are checked as :func:`sweep` checks them, and duplicates
    count once.  With a cap, counting stops once the count passes it, and
    that partial count (already above the cap) is returned.  The totient
    sieve starts near sqrt(cap) and doubles, so it never reaches much past
    2·sqrt(cap), however large ``order`` is; with no cap it runs up to
    ``order``.  A sieve above :data:`ROW_COUNT_MAX_SIEVE` raises
    :class:`ResourceLimitError` before it is allocated: an uncapped order
    above that bound, or a cap above about its square.
    """
    order = _integer(order, "a Farey order")
    per_x = len({_degree(k) for k in degrees})
    if not per_x:
        return 0  # with a cap, doubling would otherwise run up to ``order``
    limit = order if cap is None else min(order, isqrt(max(cap, 0)) + 2)
    while True:
        if limit > ROW_COUNT_MAX_SIEVE:
            raise ResourceLimitError(
                f"counting the rows of order {order} sieves totients up to "
                f"{limit}; the largest sieve is {ROW_COUNT_MAX_SIEVE}"
            )
        rows = per_x * _interior_count(limit)
        if limit == order or rows > cap:
            return rows
        limit = min(order, 2 * limit)


def _interior_count(order: int) -> int:
    """Fractions of F_order strictly inside (0, 1): phi(2) + ... + phi(order)."""
    phi = list(range(order + 1))
    for i in range(2, order + 1):
        if phi[i] == i:
            for j in range(i, order + 1, i):
                phi[j] -= phi[j] // i
    return max(sum(phi[1 : order + 1]) - 1, 0)


def sweep(
    degrees: Sequence[int],
    order: int,
    row_cap: int | None = DEFAULT_ROW_CAP,
) -> Iterator[tuple[int, int, list[tuple[int, int, int, int]]]]:
    """Evaluate all three routes over every x in F_order strictly inside (0, 1).

    Yields one row group (p, q, rows) per x = p/q, ascending in x.  ``rows``
    is a fresh list of (k, thm1_count, thm2_count, oracle_count), ascending
    in k, one row per distinct degree; each count is P(k, x)·q.  Each route
    computes only the swept degrees.  The fractions and the oracle column
    come from the in-order concatenation walk
    :func:`graphs.iter_identified_counts`, which keeps each graph's counts
    at the swept degrees only, O(number of degrees) per x; for each x, the
    continued-fraction form is one Euclid pass that stops at the largest
    swept degree, and the interval form one descent on its two gaps for
    all degrees.  The row cap counts rows, not groups, and is checked
    before any work, in time and memory of about sqrt(row_cap); with no
    cap the rows are not counted.

    Since only the walk lists the x, the sweep checks the list itself, in
    O(1) per x: a/b < c/d, both of F_order, are consecutive in it exactly
    when b·c − a·d = 1 and b + d > order.  Each x must follow the one
    before it, starting from 0/1, with a denominator of at most order, and
    1/1 must follow the last; the first pair that does not raises
    :class:`AdjacencyError`.
    """
    ks = sorted({_degree(k) for k in degrees})
    if not ks:
        raise ValueError("need at least one degree to sweep")
    order = _integer(order, "a Farey order")
    if order < 1:
        raise ValueError(f"Farey order must be >= 1, got {order}")
    if row_cap is not None:
        rows = sweep_row_count(ks, order, cap=row_cap)
        if rows > row_cap:
            raise ResourceLimitError(
                f"sweep would emit at least {rows} rows; the cap is {row_cap}"
            )

    top = ks[-1]
    a, b = 0, 1  # the x before p/q in F_order
    for p, q, from_walk in iter_identified_counts(ks, order):
        if b * p - a * q != 1 or b + q <= order or q > order:
            raise _not_consecutive(a, b, p, q, order)
        a, b = p, q
        from_cf = _cf_form_counts(p, q, top)
        from_tree = _walk(ks, p, q)[0]
        yield p, q, [
            (k, from_cf.get(k, 0), count, built)
            for k, count, built in zip(ks, from_tree, from_walk)
        ]
    if (a, b) != (order - 1, order):  # the one a/b that 1/1 follows in F_order
        raise _not_consecutive(a, b, 1, 1, order)


def _not_consecutive(a: int, b: int, c: int, d: int, order: int) -> AdjacencyError:
    """The error for a sweep whose walk put c/d right after a/b."""
    return AdjacencyError(
        f"the sweep of order {order} went from {a}/{b} to {c}/{d}, "
        f"which are not consecutive in F_{order}"
    )
