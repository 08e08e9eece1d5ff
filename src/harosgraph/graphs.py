"""Explicit Haros-graph construction on ordered degree sequences.

A Haros graph is stored as its ordered degree sequence (the graph is
uniquely determined by it), which keeps the concatenation operator linear
in the number of nodes.  The two-node seed graph has degrees (1, 1); the
graph labelled p/q has q + 1 nodes and 2q - 1 edges.

One build core, :func:`_degrees`, writes the sequence run by run into an
:class:`array.array` of one byte per node (four from level 255 on), and one
count core, :func:`_identified_counts`, counts any sequence in C whenever
its interior degrees fit in a byte, as they do for every graph of 1/q; only
the two extremes, merged into the boundary node, are added in Python.  The
oracle counts the array directly.  :func:`build` and
:func:`identify_boundary` are each their checks and one call to a core:
the first hands out an immutable tuple of the array, the second counts
such a tuple.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction
from operator import add

from .errors import AdjacencyError, NotRationalError, ResourceLimitError
from .exact import _Value, _cf_terms, _integer, _tuple, _unit_fraction

__all__ = [
    "BUILD_MAX_DENOMINATOR",
    "HarosGraph",
    "build",
    "concat",
    "identify_boundary",
    "initial_graph",
    "iter_identified_counts",
]

# The sequence for p/q holds q + 1 node degrees; refuse anything that would
# not fit comfortably in memory.  Closed-form evaluation has no such limit.
BUILD_MAX_DENOMINATOR = 10**7


class HarosGraph(_Value):
    """Ordered degree sequence of the graph labelled by a unit fraction.

    Degrees run along the graph's natural left-to-right order with the two
    extreme nodes first and last.  The label is checked as :func:`build`
    checks x, and the degrees are held as a tuple: degrees that are not a
    sequence raise :class:`NotRationalError`.
    """

    __match_args__ = ("label", "degrees")
    label: Fraction
    degrees: tuple[int, ...]

    def __init__(self, label: Fraction, degrees: Sequence[int]) -> None:
        object.__setattr__(self, "label", _unit_fraction(label, open=False))
        object.__setattr__(self, "degrees", _tuple(degrees, "the degrees of a graph"))

    @property
    def node_count(self) -> int:
        return len(self.degrees)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2


def _graph(g: HarosGraph) -> HarosGraph:
    """g itself if it is a :class:`HarosGraph`; anything else raises
    :class:`NotRationalError` naming its type."""
    if not isinstance(g, HarosGraph):
        raise NotRationalError(f"expected a HarosGraph, got {type(g).__name__} {g!r}")
    return g


def initial_graph(label: Fraction) -> HarosGraph:
    """The seed graph: two nodes joined by a single edge."""
    label = _unit_fraction(label, open=False)
    if label != 0 and label != 1:
        raise ValueError(f"the seed graph is labelled 0/1 or 1/1, not {label}")
    return HarosGraph(label, (1, 1))


def concat(left: HarosGraph, right: HarosGraph) -> HarosGraph:
    """Concatenate two adjacent Haros graphs.

    The two facing extreme nodes merge into one interior node (their degrees
    add), and one fresh edge joins the new outer extremes, raising each of
    their degrees by one.  The labels must be Farey neighbours with
    left.label < right.label; the result is labelled by their mediant.
    Anything but a :class:`HarosGraph` raises :class:`NotRationalError`.
    """
    left, right = _graph(left), _graph(right)
    p, q = left.label.numerator, left.label.denominator
    r, s = right.label.numerator, right.label.denominator
    if q * r - p * s != 1:
        raise AdjacencyError(
            f"cannot concatenate {left.label} with {right.label}: "
            "labels are not Farey neighbours in increasing order"
        )
    dl, dr = left.degrees, right.degrees
    merged = (dl[0] + 1,) + dl[1:-1] + (dl[-1] + dr[0],) + dr[1:-1] + (dr[-1] + 1,)
    return HarosGraph(Fraction(p + r, q + s), merged)


def build(x: Fraction) -> HarosGraph:
    """Construct the Haros graph of x in [0, 1] by descending the tree.

    The degrees come from :func:`_degrees`, in linear time, and are handed
    out as an immutable tuple.  A denominator above
    :data:`BUILD_MAX_DENOMINATOR` raises :class:`ResourceLimitError`.
    """
    x = _unit_fraction(x, open=False)
    if x.denominator == 1:  # 0/1 or 1/1
        return initial_graph(x)
    return HarosGraph(x, tuple(_degrees(x.numerator, x.denominator)))


def _degrees(p: int, q: int) -> array:
    """Ordered degree sequence of the graph of p/q, for coprime 0 < p < q.

    Navigation keeps the graphs of the two Farey neighbours of the current
    node: an L step concatenates the left neighbour with the current graph,
    an R step the current graph with the right neighbour.  This makes the
    adjacency precondition of :func:`concat` hold by construction.  A run of
    identical steps is written in one pass that copies each of the two
    graphs it joins once, so the work is linear in the size of the graphs
    the runs end on, which is O(q) in total.

    The sequence is an :class:`array.array` of typecode 'B', one byte per
    node, when the level a_1 + ... + a_m of p/q is below 255, and 'I'
    otherwise.  No degree passes the level plus one: the two extremes add
    up to the boundary degree, the level plus two, and an interior degree
    is at most 3 + a_1 + ... + a_{m-1}.  A degree that did not fit its cell
    would raise OverflowError, never wrap.  A denominator above
    :data:`BUILD_MAX_DENOMINATOR` raises :class:`ResourceLimitError`.
    """
    if q > BUILD_MAX_DENOMINATOR:
        raise ResourceLimitError(
            f"building {p}/{q} needs {q + 1} node degrees; "
            f"the cap is denominator <= {BUILD_MAX_DENOMINATOR}"
        )
    # The walk starts on the graph of 1/1 with 0/1 as its left neighbour, so
    # the opening L step concatenates the seeds into the graph of 1/2.  The
    # runs of the descent word are the continued-fraction terms with the
    # last one less one, L first and the sides alternating; they add up to
    # the level less one.
    runs = list(_cf_terms(p, q))
    runs[-1] -= 1
    left = cur = right = array("B" if sum(runs) < 254 else "I", (1, 1))
    for i, count in enumerate(runs):
        # the node one step short of the run's end becomes the new neighbour
        if i % 2 == 0:  # an L run
            right = _left_steps(left, cur, count - 1)
            cur = _left_steps(left, right, 1)
        else:
            left = _right_steps(cur, right, count - 1)
            cur = _right_steps(left, right, 1)
    return cur


def _left_steps(left: array, cur: array, r: int) -> array:
    """Degrees after r L steps: left ⊕ (left ⊕ ... (left ⊕ cur)).

    Each step adds one to the first degree of ``left`` and to the last one
    of the running graph, and merges the last node of ``left`` into the
    first node of the running graph, so the copies of ``left`` are joined
    by nodes of degree left[-1] + left[0] + 1.  Each sequence is copied
    once, with one C-level copy for each: ``left`` less its last node is
    repeated in place, then the whole running sequence is
    appended and its two ends are fixed.  Lists work as well as arrays of
    one typecode; the operands are left untouched.
    """
    if not r:
        return cur
    l0, last = left[0], left[-1]
    out = left[:-1]
    out[0] = last + l0 + 1  # the joint opens every copy but the first
    out *= r
    out[0] = l0 + 1
    n = len(out)
    out += cur
    out[n] += last  # the merged node
    out[-1] += r
    return out


def _right_steps(cur: array, right: array, r: int) -> array:
    """Degrees after r R steps: ((cur ⊕ right) ⊕ ...) ⊕ right, the mirror
    of :func:`_left_steps`.  Each sequence is copied once: the running
    sequence less its last node, then the whole of ``right``, with the
    merged node fixed; the r - 1 further copies of ``right[1:]``, each
    ending on a joint, are built only when r > 1 and go in after the
    merged node."""
    if not r:
        return cur
    out = cur[:-1]
    out[0] += r
    n = len(out)
    out += right
    out[n] += cur[-1]  # the merged node
    if r > 1:
        block = right[1:]
        block[-1] += right[0] + 1
        block *= r - 1
        out[n + 1:n + 1] = block
    out[-1] += 1
    return out


def identify_boundary(g: HarosGraph) -> dict[int, int]:
    """Merge the extreme nodes of g into a single boundary node.

    Returns a fresh dict degree -> number of nodes, ascending by degree.
    The boundary node keeps the sum of the extreme degrees, so the total
    degree is conserved and the counts sum to q, the node count less one.
    Undefined for the two-node seed graph; the endpoints of the unit
    interval get the all-zero degree distribution by convention instead.
    Anything but a :class:`HarosGraph` raises :class:`NotRationalError`.

    The degrees are counted by :func:`_identified_counts`, the oracle's
    count core: in C, as a byte string of the interior, whenever every
    interior degree is below 256, whatever the extremes (the graph of 1/q
    has the extreme degree q), and by a :class:`collections.Counter`
    otherwise.
    """
    degrees = _graph(g).degrees
    if len(degrees) < 3:
        raise ValueError("boundary identification is undefined for the seed graph")
    return _identified_counts(degrees)


def _identified_counts(seq: Sequence[int]) -> dict[int, int]:
    """Degree -> node count of the sequence seq with its two extremes
    merged into one boundary node, ascending by degree: the count core of
    :func:`identify_boundary` and of the oracle.

    The interior seq[1:-1] is counted in C when every interior degree is
    below 256, one ``bytes.translate`` pass per distinct degree (14 to 20
    for golden-ratio graphs of q near 10^5): an array through the low byte
    of each cell, any other sequence as a byte string of its interior.
    The extremes never go into the byte string; they go in by hand, as one
    node of degree seq[0] + seq[-1], so the graph of 1/q, whose extreme
    degree is q, is counted in C too.  An interior degree above 255, or
    below 0, sends the interior through a :class:`collections.Counter`.
    """
    if isinstance(seq, array):
        size = seq.itemsize
        raw = seq.tobytes()
        # the low byte of each cell from the second to the last but one
        start = size if sys.byteorder == "little" else 2 * size - 1
        inner = raw[start:-size:size]
        # between the extremes raw holds size - 1 high bytes for each low
        # byte; they are all zero exactly when it has that many more zero
        # bytes than inner
        if size > 1 and raw.count(0, size, -size) != (size - 1) * len(inner) + inner.count(0):
            inner = seq[1:-1]  # an interior degree above 255
        del raw  # not held through the counting passes
    else:
        inner = seq[1:-1]
        try:
            inner = bytes(inner)
        except ValueError:  # an interior degree outside 0..255
            pass
    if isinstance(inner, bytes):
        # each pass deletes every node of the first remaining degree, and
        # the drop in length is that degree's count
        counts = {}
        while inner:
            n = len(inner)
            degree = inner[0]
            inner = inner.translate(None, inner[:1])
            counts[degree] = n - len(inner)
    else:
        counts = Counter(inner)
    boundary = seq[0] + seq[-1]
    counts[boundary] = counts.get(boundary, 0) + 1
    return dict(sorted(counts.items()))


def iter_identified_counts(
    degrees: Sequence[int], max_denominator: int
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Walk every Haros graph with label denominator <= max_denominator.

    Yields (p, q, counts) for every p/q strictly inside (0, 1), ascending,
    where the tuple counts holds, for each of the distinct int degrees, its
    count in ``identify_boundary(build(p/q))`` (0 where no node has it);
    degrees ``range(2, n + 3)`` cover all of F_n.  The walk runs the
    concatenation recursion of :func:`build` on each graph's counts and two
    extreme degrees alone, so a fraction costs O(len(degrees)), not O(q):
    concatenating graphs with extreme degrees (fl, ll) and (fr, lr) sums
    their counts, drops their boundary nodes, of degrees fl + ll and
    fr + lr, and adds the merged middle node, ll + fr, and the new boundary
    node, fl + lr + 2; each seed has one node of degree 2.  The Farey tree
    is visited in order (left subtree, node, right subtree), pruned where
    the denominator passes max_denominator, which lists F_n sorted: every
    ancestor of a fraction has a smaller denominator.
    """
    ks = [_integer(k, "a degree") for k in _tuple(degrees, "the degrees to count")]
    max_denominator = _integer(max_denominator, "a Farey order")
    if max_denominator < 1:
        raise ValueError(f"Farey order must be >= 1, got {max_denominator}")
    index = {k: i for i, k in enumerate(ks)}
    if len(index) != len(ks):
        raise ValueError(f"degrees must be distinct, got {ks}")
    slot = index.get
    seed = tuple([int(k == 2) for k in ks])
    # A graph is (p, q, counts, first_degree, last_degree); ``pending``
    # holds each node whose left subtree is being walked, with its right
    # neighbour.  Nodes share their counts with the walk, hence tuples.
    left, right = (0, 1, seed, 1, 1), (1, 1, seed, 1, 1)
    pending = []
    while True:
        pl, ql, cl, fl, ll = left
        pr, qr, cr, fr, lr = right
        q = ql + qr
        if q <= max_denominator:
            counts = list(map(add, cl, cr))
            if (i := slot(fl + ll)) is not None:
                counts[i] -= 1
            if (i := slot(fr + lr)) is not None:
                counts[i] -= 1
            if (i := slot(ll + fr)) is not None:
                counts[i] += 1
            if (i := slot(fl + lr + 2)) is not None:
                counts[i] += 1
            node = (pl + pr, q, tuple(counts), fl + 1, lr + 1)
            pending.append((node, right))
            right = node
            continue
        if not pending:
            return
        left, right = pending.pop()
        yield left[0], left[1], left[2]
