"""Three independent routes to the degree distribution P(k, x).

* ``degree_distribution_oracle``: build the graph explicitly, identify the
  boundary node, normalise by q.  Exact, and linear in q: the build writes
  each continued-fraction run of tree steps in one pass.
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
an integer core that returns those counts; the public functions wrap them in
:class:`~fractions.Fraction` and ``sweep`` passes them on unreduced.

P is symmetric about 1/2, so x > 1/2 is evaluated through the mirror
x -> 1 - x; the distributions of the endpoints 0 and 1 are identically zero
by convention.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import AmbiguousBreakpointError, ResourceLimitError
from .exact import _cf_terms, _degree, _unit_fraction, cf_expand, suffix_continuants
from .graphs import build, identify_boundary, iter_identified_counts
from .tree import BracketSide, _descend, _walk

__all__ = [
    "DEFAULT_ROW_CAP",
    "DegreeDistribution",
    "SweepPoint",
    "base_probability",
    "cf_form_distribution",
    "degree_distribution_oracle",
    "interval_form_distribution",
    "interval_form_value",
    "interval_form_value_real",
    "sweep",
    "sweep_row_count",
]


@dataclass(frozen=True)
class DegreeDistribution:
    """Exact map degree -> probability for one graph; zeros are implicit.

    For labels strictly inside the unit interval the stored probabilities
    are positive and sum to one; the endpoints carry an empty map.  The
    map is a read-only copy of the one passed in.
    """

    entries: Mapping[int, Fraction]
    denominator: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def probability(self, k: int) -> Fraction:
        return self.entries.get(k, Fraction(0))

    def support(self) -> list[int]:
        return sorted(self.entries)

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def mean_degree(self) -> Fraction:
        return sum((k * p for k, p in self.entries.items()), Fraction(0))


def base_probability(k: int, x: Fraction) -> Fraction:
    """The degree 2, 3, 4 probabilities: min(x, 1-x), |1 - 2x| and 0.

    This is the plain low-degree formula; the lone exception P(4, 1/2) = 1/2
    (the boundary node of the triangle graph) is owned by the distribution
    assemblers, not by this helper.
    """
    if k not in (2, 3, 4):
        raise ValueError(f"only degrees 2, 3 and 4 have a base form, got {k}")
    x = _unit_fraction(x, open=False)
    if k == 2:
        return min(x, 1 - x)
    if k == 3:
        return abs(1 - 2 * x)
    return Fraction(0)


def degree_distribution_oracle(x: Fraction) -> DegreeDistribution:
    """Distribution by explicit construction: build, identify, divide by q."""
    x = _unit_fraction(x, open=False)
    if x == 0 or x == 1:
        return DegreeDistribution({}, x.denominator)
    identified = identify_boundary(build(x))
    q = identified.total
    return DegreeDistribution(
        {k: Fraction(m, q) for k, m in identified.counts}, q
    )


def cf_form_distribution(x: Fraction) -> DegreeDistribution:
    """Exact distribution of x in (0, 1) from its continued fraction alone."""
    x = _unit_fraction(x, open=True)
    q = x.denominator
    counts = _cf_form_counts(x.numerator, q)
    return DegreeDistribution({k: Fraction(m, q) for k, m in counts.items()}, q)


def _cf_form_counts(p: int, q: int) -> dict[int, int]:
    """Integer core of :func:`cf_form_distribution`: degree -> P(k, p/q)·q.

    For coprime 0 < p < q.  Every degree with a positive count is present.
    """
    if 2 * p > q:
        p = q - p
    terms = _cf_terms(p, q)
    counts = {2: p}
    if q - 2 * p:
        counts[3] = q - 2 * p
    tails = suffix_continuants(terms)
    degree = 3
    for l in range(1, len(terms)):
        degree += terms[l - 1]
        counts[degree] = tails[l] - tails[l + 1]
    counts[sum(terms) + 2] = 1
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
    (count,) = _interval_form_counts((k,), x.numerator, q)
    return Fraction(count, q)


def _interval_form_counts(ks: Sequence[int], p: int, q: int) -> list[int]:
    """Integer core of the interval form: P(k, p/q)·q for each k of ks.

    For coprime 0 < p < q and ascending integer degrees ks >= 5 (a float,
    bool or str degree raises :class:`NotRationalError`, one below 5
    ValueError).  p/q > 1/2 is mirrored first.  One descent serves every
    degree (:func:`tree._walk`), so the cost is O(m + len(ks)).  The count
    is the linear piece times q, the cross-product of p/q with the child on
    its side of the pivot (a + c)/(b + d): q_c·p - p_c·q for the lower
    child c, p_c·q - q_c·p for the upper one.  Where that is not positive
    the count is 1 exactly on the child and 0 beyond it; it is also 0 on
    the pivot and above the pivot level.
    """
    if 2 * p > q:
        p = q - p
    out = []
    for state in _walk(ks, p, q):
        if state is None or state[4] == state[5]:
            out.append(0)  # p/q is above the pivot level, or the pivot
            continue
        a, b, c, d, below, above = state
        if below < above:
            cross = (2 * b + d) * p - (2 * a + c) * q
        else:
            cross = (a + 2 * c) * q - (b + 2 * d) * p
        out.append(cross if cross > 0 else 1 if cross == 0 else 0)
    return out


def _linear_piece(
    side: BracketSide, nodes: tuple[tuple[int, int], ...] | None, q: int
) -> tuple[int, int | Fraction]:
    """Slope and intercept of P(k, .) at a point with denominator q, from
    the side and nodes that :func:`tree._descend` found for it."""
    if side is BracketSide.LOWER_SUBINTERVAL:
        p_c, q_c = nodes[1]
        return q_c, -p_c
    if side is BracketSide.UPPER_SUBINTERVAL:
        p_c, q_c = nodes[3]
        return -q_c, p_c
    if side is BracketSide.AT_CHILD_LEVEL:
        return 0, Fraction(1, q)
    return 0, 0


# Floating inputs closer than this to a comparison breakpoint cannot be
# trusted to land on the correct side of the linear piece.
BREAKPOINT_EPS = Fraction(4 * sys.float_info.epsilon)


def interval_form_value_real(k: int, x: float) -> float:
    """Float evaluation of the interval form via an exact dyadic surrogate.

    The float is converted to its exact binary rational, the bracket is
    located exactly, and only the final linear map is evaluated in floating
    point.  Raises :class:`AmbiguousBreakpointError` when x sits within a
    few ulps of a breakpoint without being exactly on it.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie strictly inside (0, 1), got {x!r}")
    y = min(x, 1.0 - x)
    p, q = y.as_integer_ratio()
    side, nodes = _descend(k, p, q)
    # The walk closes in on y from both sides, so the nearest node it
    # compared against is one of these five; b > 1 skips the seeds.
    gaps = [
        Fraction(abs(p * b - q * a), q * b)
        for a, b in nodes or ()
        if b > 1 and p * b != q * a
    ]
    if gaps and min(gaps) < BREAKPOINT_EPS:
        raise AmbiguousBreakpointError(
            f"{x!r} lies within {float(min(gaps)):.3g} of a tree breakpoint; "
            "the side of the linear piece is ambiguous at this precision"
        )
    slope, intercept = _linear_piece(side, nodes, q)
    return slope * y + intercept


def interval_form_distribution(x: Fraction) -> DegreeDistribution:
    """Full distribution with every degree k >= 5 taken from the interval form.

    Degrees 2 and 3 come from the base formulas and the single documented
    exception P(4, 1/2) = 1/2 is filled in directly.  The continued fraction
    only supplies the candidate degrees to query; each value still comes
    from the interval location, so this stays independent of
    :func:`cf_form_distribution`.  The degrees ascend, so one descent
    serves them all (:func:`_interval_form_counts`).
    """
    x = _unit_fraction(x, open=True)
    entries = {}
    for k in (2, 3):
        value = base_probability(k, x)
        if value:
            entries[k] = value
    if x == Fraction(1, 2):
        entries[4] = Fraction(1, 2)
    terms = cf_expand(min(x, 1 - x)).terms
    # Degrees above 4 sit at the cumulative term sums plus three and at the
    # boundary degree, the level plus two (only 4 for x = 1/2)
    *sums, level = accumulate(terms)
    degrees = [s + 3 for s in sums]
    if level + 2 >= 5:
        degrees.append(level + 2)
    q = x.denominator
    for k, count in zip(degrees, _interval_form_counts(degrees, x.numerator, q)):
        if count:
            entries[k] = Fraction(count, q)
    return DegreeDistribution(entries, q)


class SweepPoint(NamedTuple):
    """One sweep row: the three routes' P(k, x) for a single x = p/q and k.

    Each route's value is held as its count over q, P(k, x)·q: the number
    of nodes of degree k in the boundary-identified graph, as that route
    finds it.  The properties give x and the three values as reduced
    fractions.  A named tuple, not a frozen dataclass: a sweep makes one
    per row, and a tuple is about three times cheaper to build.
    """

    p: int
    q: int
    k: int
    cf_form_count: int
    interval_form_count: int
    oracle_count: int

    @property
    def x(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def cf_form(self) -> Fraction:
        return Fraction(self.cf_form_count, self.q)

    @property
    def interval_form(self) -> Fraction:
        return Fraction(self.interval_form_count, self.q)

    @property
    def oracle(self) -> Fraction:
        return Fraction(self.oracle_count, self.q)


DEFAULT_ROW_CAP = 5_000_000


def sweep_row_count(
    degrees: Sequence[int], order: int, cap: int | None = None
) -> int:
    """Number of rows a sweep will emit: interior fractions times degrees.

    With a cap, counting stops once the count passes it, and that partial
    count (already above the cap) is returned.  The totient sieve starts
    near sqrt(cap) and doubles, so it never reaches much past
    2·sqrt(cap), however large ``order`` is.
    """
    per_x = len(set(degrees))
    if not per_x:
        return 0  # with a cap, doubling would otherwise run up to ``order``
    limit = order if cap is None else min(order, isqrt(max(cap, 0)) + 2)
    while True:
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
) -> Iterator[SweepPoint]:
    """Evaluate all three routes over every x in F_order strictly inside (0, 1).

    Yields one :class:`SweepPoint` per (x, k) pair, sorted by (x, k).  The
    fractions and the oracle column come from the in-order tree walk of
    :func:`iter_identified_counts`, which performs the explicit graph
    construction once per fraction; for each x, the continued-fraction
    form is evaluated once and the interval form makes one descent for all
    degrees.  The row cap is checked before any work, in time and memory
    of about sqrt(row_cap); with no cap the rows are not counted.
    """
    ks = sorted({_degree(k) for k in degrees})
    if not ks:
        raise ValueError("need at least one degree to sweep")
    if order < 1:
        raise ValueError(f"Farey order must be >= 1, got {order}")
    if row_cap is not None:
        rows = sweep_row_count(ks, order, cap=row_cap)
        if rows > row_cap:
            raise ResourceLimitError(
                f"sweep would emit at least {rows} rows; the cap is {row_cap}"
            )

    for p, q, from_walk in iter_identified_counts(order):
        from_cf = _cf_form_counts(p, q)
        from_tree = _interval_form_counts(ks, p, q)
        for k, count in zip(ks, from_tree):
            yield SweepPoint(
                p, q, k, from_cf.get(k, 0), count, from_walk.get(k, 0)
            )
