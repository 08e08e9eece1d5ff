"""Farey sequences, the Farey binary tree, and interval location.

The tree starts from the level-1 endpoints {0/1, 1/1} and grows by mediant
sums of adjacent fractions; level k holds 2**(k-2) fractions for k >= 2.
Descent words are read from a virtual root sitting above 1/2, so a single L
reaches 1/2 and a word of length n ends on a fraction of level n + 1.

The interval form of the degree distribution (the paper's second theorem)
is one descent of this tree on two gaps, :func:`_walk`; the Farey parents
come back from the gaps (:func:`_parents`) only where a bracket is wanted.
This module imports only ``exact`` and ``errors``, so the descent reads
neither the closed form (thm1) nor the oracle.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum
from fractions import Fraction

from .errors import AdjacencyError, NotRationalError, ResourceLimitError
from .exact import _Value, _cf_terms, _degree, _integer, _tuple, _unit_fraction

__all__ = [
    "LEFT",
    "RIGHT",
    "MAX_CF_WORD_STEPS",
    "MAX_TREE_LEVEL",
    "BracketSide",
    "EnclosingBracket",
    "SymbolicPath",
    "TreeLevel",
    "farey_parents",
    "iter_farey_pairs",
    "level_index",
    "locate_for_degree",
    "mediant",
    "replay_path",
    "symbolic_path",
    "tree_children",
    "tree_level",
]

LEFT = "L"
RIGHT = "R"

# Level k materialises 2**(k-2) fractions; past this point whole levels are
# refused.  A single degree needs no level: distribution.interval_form_value
# locates x with _walk, a descent of one step per continued-fraction run,
# O(m) for x = [a_1, ..., a_m].
MAX_TREE_LEVEL = 20

# A descent word is spelled one letter per step; longer words are refused.
MAX_CF_WORD_STEPS = 10**6


class SymbolicPath(_Value):
    """Run-length encoded descent word, e.g. L^2 R^3 L^2 for 10/23.

    Runs alternate strictly between L and R.  For a fraction with canonical
    terms [a_1, ..., a_m] the run lengths are a_1, ..., a_{m-1}, a_m - 1.
    ``steps`` is the word's length, an int of any size; ``word`` spells it
    out, and raises :class:`ResourceLimitError` above
    :data:`MAX_CF_WORD_STEPS` steps.

    The runs are checked when the path is built: an empty word, a symbol
    other than L or R, a word that does not start with L and alternate, or
    a run shorter than one step raises ValueError; a run length that is
    not an integer, a run that is not a (symbol, count) pair, or runs that
    are not a sequence at all, raise :class:`NotRationalError`.
    """

    __match_args__ = ("runs",)
    runs: tuple[tuple[str, int], ...]

    def __init__(self, runs: Sequence[tuple[str, int]]) -> None:
        checked = []
        for i, run in enumerate(_tuple(runs, "descent runs")):
            try:
                symbol, count = run
            except (TypeError, ValueError):
                raise NotRationalError(
                    f"a descent run is a (symbol, count) pair, got {type(run).__name__} {run!r}"
                ) from None
            count = _integer(count, "a run length")
            if count < 1:
                raise ValueError(f"runs are at least one step long, got {count}")
            if symbol != LEFT and symbol != RIGHT:
                raise ValueError(f"descent words are spelled in L and R, got {symbol!r}")
            if symbol != (LEFT, RIGHT)[i % 2]:
                raise ValueError(
                    f"descent words start with L (one L reaches 1/2) and alternate "
                    f"L and R runs, got an {symbol} run at position {i}"
                )
            checked.append((symbol, count))
        if not checked:
            raise ValueError("empty descent word")
        object.__setattr__(self, "runs", tuple(checked))

    @property
    def word(self) -> str:
        if self.steps > MAX_CF_WORD_STEPS:
            raise ResourceLimitError(
                f"the descent word has {self.steps} steps; the cap is "
                f"{MAX_CF_WORD_STEPS} (its runs are the terms with the last one "
                "less one)"
            )
        return "".join(symbol * count for symbol, count in self.runs)

    @property
    def steps(self) -> int:
        return sum(count for _, count in self.runs)


class TreeLevel(_Value):
    """One level of the Farey binary tree, fractions in increasing order.

    An index that is not an integer, or fractions that are not a sequence,
    raise :class:`NotRationalError`.
    """

    __match_args__ = ("index", "fractions")
    index: int
    fractions: tuple[Fraction, ...]

    def __init__(self, index: int, fractions: Sequence[Fraction]) -> None:
        object.__setattr__(self, "index", _integer(index, "a tree level"))
        object.__setattr__(self, "fractions", _tuple(fractions, "the fractions of a level"))

    def __len__(self) -> int:
        return len(self.fractions)


class BracketSide(Enum):
    """Where a fraction sits relative to a pivot level and its child level."""

    LOWER_SUBINTERVAL = "lower-subinterval"
    UPPER_SUBINTERVAL = "upper-subinterval"
    AT_PIVOT = "at-pivot"
    AT_CHILD_LEVEL = "at-level-k-2"
    ELSEWHERE = "elsewhere"


class EnclosingBracket(_Value):
    """A pivot fraction together with its two tree children.

    ``lower < pivot < upper`` whenever the fields are set; they are None only
    when the located fraction is too shallow to have an ancestor at the
    pivot level.
    """

    __match_args__ = ("lower", "pivot", "upper", "side")
    lower: Fraction | None
    pivot: Fraction | None
    upper: Fraction | None
    side: BracketSide

    def __init__(
        self,
        lower: Fraction | None,
        pivot: Fraction | None,
        upper: Fraction | None,
        side: BracketSide,
    ) -> None:
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "side", side)


def mediant(left: Fraction, right: Fraction) -> Fraction:
    """Mediant (p+r)/(q+s) of two Farey-adjacent fractions with left < right.

    Both inputs must be exact rationals in [0, 1].  Adjacency (qr - ps = 1)
    guarantees the result is already reduced and lies strictly between the
    inputs; anything else is a caller bug and is rejected.
    """
    left, right = _unit_fraction(left, open=False), _unit_fraction(right, open=False)
    p, q = left.numerator, left.denominator
    r, s = right.numerator, right.denominator
    if q * r - p * s != 1:
        raise AdjacencyError(f"{left} and {right} are not Farey neighbours")
    return Fraction(p + r, q + s)


def iter_farey_pairs(n: int):
    """Yield (p, q) over the Farey sequence F_n in increasing order."""
    n = _integer(n, "a Farey order")
    if n < 1:
        raise ValueError(f"Farey order must be >= 1, got {n}")
    yield 0, 1
    yield from _pairs_between(0, 1, 1, 1, n)
    yield 1, 1


def _pairs_between(a: int, b: int, c: int, d: int, n: int) -> Iterator[tuple[int, int]]:
    """Yield the (p, q) of F_n strictly between the Farey neighbours a/b < c/d,
    ascending, in constant memory.  Each has q >= b + d; the first is the
    neighbour (j·a + c)/(j·b + d) of a/b with the largest q <= n, and after
    consecutive terms a/b < e/f comes (k·e - a)/(k·f - b), k = (n + b) // f,
    up to c/d, the first term with denominator d."""
    if b + d > n:
        return
    j = (n - d) // b
    e, f = j * a + c, j * b + d
    while f != d:
        yield e, f
        k = (n + b) // f
        a, b, e, f = e, f, k * e - a, k * f - b


def tree_level(k: int) -> TreeLevel:
    """The fractions of tree level k: {0/1, 1/1}, {1/2}, {1/3, 2/3}, ..."""
    k = _integer(k, "a tree level")
    if k < 1:
        raise ValueError(f"levels are numbered from 1, got {k}")
    if k > MAX_TREE_LEVEL:
        raise ResourceLimitError(
            f"level {k} holds 2**{k - 2} fractions; the cap is {MAX_TREE_LEVEL}"
        )
    if k == 1:
        return TreeLevel(1, (Fraction(0), Fraction(1)))
    return TreeLevel(k, tuple([Fraction(p, q) for p, q in _level_pairs(k)]))


def _level_pairs(k: int):
    """Yield the (p, q) pairs of level k >= 2 in increasing order; none
    for k < 2, whose brackets' mediants sit at no depth the walk reaches.

    Depth-first in-order walk over brackets (lo, hi) whose mediant sits at
    ``depth``; the left half is popped first, so leaves come out sorted.
    """
    if k < 2:
        return
    stack = [((0, 1), (1, 1), 2)]
    while stack:
        lo, hi, depth = stack.pop()
        mid = (lo[0] + hi[0], lo[1] + hi[1])
        if depth == k:
            yield mid
        else:
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))


def level_index(x: Fraction) -> int:
    """Tree level of x: 1 for the endpoints, otherwise the sum of CF terms."""
    x = _unit_fraction(x, open=False)
    if x.denominator == 1:  # 0/1 or 1/1
        return 1
    return _level(x.numerator, x.denominator)


def _level(p: int, q: int) -> int:
    """Tree level of p/q for coprime 0 < p < q, unchecked: the integer core
    of :func:`level_index`, the sum of the terms."""
    return sum(_cf_terms(p, q))


def symbolic_path(x: Fraction) -> SymbolicPath:
    """Descent word from the virtual root to x in (0, 1).

    Run lengths are the continued-fraction terms of x with the final term
    reduced by one, starting with an L run; replaying the word by mediant
    navigation lands exactly on x.  The endpoints live at level 1 and have
    no descent word.
    """
    x = _unit_fraction(x, open=True)
    counts = _run_lengths(x.numerator, x.denominator)
    return SymbolicPath([((LEFT, RIGHT)[i % 2], count) for i, count in enumerate(counts)])


def _run_lengths(p: int, q: int) -> list[int]:
    """Run lengths of the descent word to p/q, L run first, for coprime
    0 < p < q, unchecked: the integer core of :func:`symbolic_path`, the
    terms with the last one less one."""
    counts = list(_cf_terms(p, q))
    counts[-1] -= 1
    return counts


def replay_path(path: SymbolicPath) -> Fraction:
    """Walk a descent word by mediant navigation and return the fraction hit.

    The runs were checked when the path was built (:class:`SymbolicPath`),
    so the walk is :func:`_replay` of their lengths; anything but a
    :class:`SymbolicPath` raises :class:`NotRationalError` naming its type.
    """
    if not isinstance(path, SymbolicPath):
        raise NotRationalError(
            f"expected a SymbolicPath, got {type(path).__name__} {path!r}"
        )
    return Fraction(*_replay([count for _, count in path.runs]))


def _replay(counts: Sequence[int]) -> tuple[int, int]:
    """The (p, q) a descent word lands on, from its run lengths, L run first;
    unchecked: the integer core of :func:`replay_path`.

    State is the bracketing pair lo = a/b, hi = c/d plus the current node
    p/q; an L step narrows hi to the current node, an R step narrows lo.
    The walk starts on 1/1 with lo = 0/1, so the opening L lands on 1/2.  A
    run of j L steps is taken at once: the node becomes cur + j·lo and hi
    the node before it, mediant by mediant; R runs mirror that.
    """
    a, b, p, q, c, d = 0, 1, 1, 1, 1, 1
    left = True
    for count in counts:
        if left:
            p, q = p + count * a, q + count * b
            c, d = p - a, q - b
        else:
            p, q = p + count * c, q + count * d
            a, b = p - c, q - d
        left = not left
    return p, q


def farey_parents(x: Fraction) -> tuple[Fraction, Fraction]:
    """The two Farey neighbours whose mediant is x, ordered (lower, upper).

    For x = p/q the lower parent a/b is the neighbour with p·b - q·a = 1,
    so b is the inverse of p modulo q; the upper parent is
    (p - a)/(q - b).  Both sit at shallower tree levels than x.
    """
    x = _unit_fraction(x, open=True)
    (a, b), (c, d) = _parents(x.numerator, x.denominator, 1, 1)
    return Fraction(a, b), Fraction(c, d)


def _parents(p: int, q: int, below: int, above: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The Farey neighbours a/b < p/q < c/d with gaps below = p·b - q·a and
    above = q·c - p·d, as ((a, b), (c, d)), for coprime 0 < p < q.

    b < q, so b = below·p^-1 mod q and a = (p·b - below)/q; since
    b·c - a·d = 1, below·d + above·b = q and below·c + above·a = p.
    """
    b = below * pow(p, -1, q) % q
    a = (p * b - below) // q
    return (a, b), ((p - a * above) // below, (q - b * above) // below)


def tree_children(x: Fraction) -> tuple[Fraction, Fraction]:
    """The two next-level mediant children of x, in numeric order.

    They are the mediants of x with its lower and its upper Farey parent,
    formed from the integer pairs directly.  In continued-fraction terms
    the pair is {[a_1..a_m + 1], [a_1..a_m - 1, 2]}; which of the two is
    the smaller child depends on the parity of m.
    """
    lo, hi = farey_parents(x)
    p, q = x.numerator, x.denominator
    return (
        Fraction(lo.numerator + p, lo.denominator + q),
        Fraction(p + hi.numerator, q + hi.denominator),
    )


def locate_for_degree(k: int, x: Fraction) -> EnclosingBracket:
    """Locate x relative to tree levels k-3 (pivots) and k-2 (children).

    Descends the tree along the path of x one L or R run at a time
    (:func:`_walk`), so no level is materialised and the cost is O(m) for
    x = [a_1, ..., a_m], whatever k is.  The side tells whether x falls
    strictly inside the lower or upper subinterval around its pivot-level
    ancestor, exactly on a level k-2 fraction, exactly on the pivot, or
    outside the bracket altogether.  When x is shallower than the pivot
    level the side is ELSEWHERE and the three fractions are None.
    """
    x = _unit_fraction(x, open=True)
    p, q = x.numerator, x.denominator
    gaps = _walk((_degree(k),), p, q)[1]
    if gaps is None:
        return EnclosingBracket(None, None, None, BracketSide.ELSEWHERE)
    (a, b), (c, d) = _parents(p, q, *gaps)
    below, above = gaps
    # The walk's gaps give the cross-products against the pivot and its
    # children; to_child > 0 exactly when x lies strictly between the child
    # and the pivot
    to_pivot = below - above
    if to_pivot == 0:
        side = BracketSide.AT_PIVOT
    else:
        if to_pivot < 0:
            side, to_child = BracketSide.LOWER_SUBINTERVAL, 2 * below - above
        else:
            side, to_child = BracketSide.UPPER_SUBINTERVAL, 2 * above - below
        if to_child == 0:
            side = BracketSide.AT_CHILD_LEVEL
        elif to_child < 0:
            side = BracketSide.ELSEWHERE
    return EnclosingBracket(
        Fraction(2 * a + c, 2 * b + d),
        Fraction(a + c, b + d),
        Fraction(a + 2 * c, b + 2 * d),
        side,
    )


def _walk(ks: Sequence[int], p: int, q: int) -> tuple[list[int], tuple[int, int] | None]:
    """The interval form's descent towards p/q: P(k, p/q)·q for each k of ks.

    For coprime 0 < p < q and ascending int degrees ks >= 5, unchecked: the
    public entry points check their degrees (through :func:`exact._degree`).
    The descent keeps the gaps below = p·b - q·a and above = q·c - p·d to
    the current Farey parents a/b < p/q < c/d, from 0/1 and 1/1.  Each L
    run (above > below) or R run (below > above) is one step of Euclid's
    algorithm on the gaps, taken in one branch: the whole run when the
    next degree's pivot level k - 3 lies past its end, else cut short at
    that level, where :func:`_count_at` reads the count and the descent
    resumes.  Equal gaps with levels still to go mean p/q lies above that
    pivot level, so this degree and every later one count 0.  Under
    x -> 1 - x the tree swaps L and R, so the gaps swap and the counts
    stay.  Returns (counts, gaps): the counts in the order of ks, and the
    last degree's (below, above), or None when p/q is too shallow for it.
    The cost is O(m + len(ks)) for p/q = [a_1, ..., a_m].
    """
    below, above = p, q - p
    walked = 5
    counts = []
    for k in ks:
        steps = k - walked
        # Both gaps stay positive.  The node after an L run of j is
        # (j*a + c)/(j*b + d), still above p/q while j*below < above, so a
        # whole run leaves 0 < above <= below; an R run mirrors that, and a
        # descent takes one iteration per continued-fraction term.
        while steps:
            if above > below:
                run = (above - 1) // below
                if run >= steps:
                    above -= steps * below
                    break
                above -= run * below
            elif below > above:
                run = (below - 1) // above
                if run >= steps:
                    below -= steps * above
                    break
                below -= run * above
            else:  # the next node is p/q
                return counts + [0] * (len(ks) - len(counts)), None
            steps -= run
        walked = k
        counts.append(_count_at(below, above))
    return counts, (below, above)


def _count_at(below: int, above: int) -> int:
    """P(k, p/q)·q from the gaps of p/q at the pivot level k - 3.

    below = p·b - q·a and above = q·c - p·d are the gaps of p/q to the
    pivot's Farey parents a/b and c/d, as :func:`_walk` keeps them.  The
    count is the linear piece times q, the cross-product of p/q with the
    child on its side of the pivot (a + c)/(b + d): for the lower child
    (2a + c)/(2b + d) that is 2·below - above, for the upper child
    (a + 2c)/(b + 2d) it is 2·above - below.  Where that is not positive
    the count is 1 exactly on the child and 0 beyond it; it is also 0 on
    the pivot (equal gaps).
    """
    if below == above:
        return 0  # on the pivot
    cross = 2 * below - above if below < above else 2 * above - below
    return cross if cross > 0 else 1 if cross == 0 else 0
