"""Cross-verification suites: the invariants the library promises, runnable
in bulk over Farey sequences and tree levels.

Each check function walks a family of cases, tallies exact pass/fail
counts, and records the first counterexample as plain fractions.  The CLI
``verify`` command and the acceptance tests both run these; the CLI loads
this module only when a ``verify`` command runs.  The suite names, and the
defaults and caps of order and levels, are defined in
:mod:`harosgraph.limits`, which the parser reads; they are the same objects
here.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

from .distribution import _cf_form_counts, cf_form_distribution
from .errors import ResourceLimitError
from .exact import _Record, _cf_terms, _continuant, _integer, _suffix_continuants
from .graphs import _degrees, _identified_counts, build
from .limits import (
    DEFAULT_VERIFY_LEVELS,
    DEFAULT_VERIFY_ORDER,
    MAX_VERIFY_LEVELS,
    MAX_VERIFY_ORDER,
    SUITES,
)
from .tree import (
    LEFT,
    MAX_TREE_LEVEL,
    RIGHT,
    _level,
    _level_pairs,
    _pairs_between,
    _replay,
    _run_lengths,
    _walk,
    iter_farey_pairs,
    tree_children,
    tree_level,
)

__all__ = [
    "MAX_VERIFY_LEVELS",
    "MAX_VERIFY_ORDER",
    "RANDOM_GRID_SEED",
    "RunManifest",
    "SUITES",
    "Tally",
    "check_base_cases",
    "check_cf_continuant_link",
    "check_conservation",
    "check_continuant_identities",
    "check_descent_recurrences",
    "check_path_roundtrips",
    "check_piecewise_linearity",
    "check_triple_equality",
    "random_term_lists",
    "run_verification",
    "term_grid",
]

# Fixed seed for the randomised identity grid: repeated runs are identical.
RANDOM_GRID_SEED = 94340


class Tally(_Record):
    """Pass/fail counter for one named check."""

    __match_args__ = ("name", "passed", "failed", "first_failure")

    def __init__(
        self, name: str, passed: int = 0, failed: int = 0, first_failure: str | None = None
    ) -> None:
        self.name = name
        self.passed = passed
        self.failed = failed
        self.first_failure = first_failure

    def check(self, ok: bool, describe: Callable[[], str] | str) -> bool:
        """Count one check; ``describe`` runs at once, on the first failure only."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                detail = describe() if callable(describe) else describe
                self.first_failure = f"{self.name}: {detail}"
        return ok

    def check_pairs(
        self, got: Sequence[object], expected: Sequence[object], describe: Callable[[int], str]
    ) -> None:
        """Count one check per position of two equal-length lists: all at
        once when the lists are equal, else each pair as :meth:`check`, with
        ``describe(i)`` naming the case at position i."""
        if got == expected:
            self.passed += len(got)
            return
        for i, (a, b) in enumerate(zip(got, expected)):
            self.check(a == b, lambda: describe(i))


class RunManifest(_Record):
    """Summary of one verification run."""

    __match_args__ = (
        "command", "parameters", "started", "finished",
        "checks_passed", "checks_failed", "first_failure",
    )

    def __init__(
        self,
        command: str,
        parameters: dict[str, object],
        started: str,
        finished: str,
        checks_passed: int,
        checks_failed: int,
        first_failure: str | None = None,
    ) -> None:
        self.command = command
        self.parameters = parameters
        self.started = started
        self.finished = finished
        self.checks_passed = checks_passed
        self.checks_failed = checks_failed
        self.first_failure = first_failure

    def to_json_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "command": self.command,
            "parameters": self.parameters,
            "started": self.started,
            "finished": self.finished,
            "checks_passed": self.checks_passed,
            "checks_failed": self.checks_failed,
        }
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


def term_grid(lengths: Iterable[int], max_term: int) -> Iterator[tuple[int, ...]]:
    """Every integer list with the given lengths and terms in 1..max_term."""
    terms = range(1, _integer(max_term, "a term") + 1)
    for n in lengths:
        yield from itertools.product(terms, repeat=_integer(n, "a term-list length"))


def random_term_lists(count: int) -> Iterator[tuple[int, ...]]:
    """``count`` pseudo-random term lists of length 2..10 with terms in
    1..30, drawn from :data:`RANDOM_GRID_SEED`, so runs are identical."""
    rng = random.Random(RANDOM_GRID_SEED)
    for _ in range(count):
        n = rng.randint(2, 10)
        yield tuple([rng.randint(1, 30) for _ in range(n)])


def check_continuant_identities(term_lists: Iterable[Sequence[int]]) -> Tally:
    """Splitting and determinant identities of continuants, exactly.

    For every list: K_n = K(prefix) K(suffix) + K(shorter prefix) K(shifted
    suffix) at every split point, and
    K_n(x_1..x_n) K_{n-2}(x_2..x_{n-1}) - K_{n-1}(x_1..x_{n-1}) K_{n-1}(x_2..x_n)
    equals (-1)^n.
    """
    t = Tally("continuant-identities")
    for xs in term_lists:
        n = len(xs)
        if n < 2:
            continue
        suffix = _suffix_continuants(xs)  # suffix[i] = K(xs[i:])
        # K is symmetric, so K(xs[:i]) = rev[n - i]
        rev = _suffix_continuants(xs[::-1])
        kn = _continuant(xs)
        split_ok = all(
            kn == rev[n - m] * suffix[m] + rev[n - m + 1] * suffix[m + 1]
            for m in range(1, n)
        )
        t.check(split_ok, lambda: f"splitting identity broke on {list(xs)}")
        det = kn * _continuant(xs[1:-1]) - rev[1] * suffix[1]
        t.check(
            det == (-1) ** n,
            lambda: f"determinant on {list(xs)} gave {det}",
        )
    return t


def check_cf_continuant_link(order: int) -> Tally:
    """Continuants of the terms give back the fraction: K(terms) = q and
    K(terms[1:]) = p for every p/q in F_order."""
    t = Tally("cf-continuant-link")
    for p, q in iter_farey_pairs(order):
        if p == 0:
            continue
        terms = _cf_terms(p, q)
        t.check(
            _continuant(terms) == q and _continuant(terms[1:]) == p,
            lambda: f"{p}/{q} vs terms {list(terms)}",
        )
    return t


def check_path_roundtrips(order: int) -> Tally:
    """Descent words over F_order: run lengths match the terms with the last
    reduced by one, replay lands back on x, and the level is the term sum.

    Each x stays the integer pair (p, q) the Farey walk yields, and the
    three checks run on the tree's integer cores (:func:`tree._run_lengths`,
    :func:`tree._replay` and :func:`tree._level`), which trust a coprime
    0 < p < q; the word is spelled out only to describe a failure.
    """
    t = Tally("path-roundtrips")
    for p, q in iter_farey_pairs(order):
        if p == 0 or p == q:
            continue
        got = _run_lengths(p, q)
        expected = list(_cf_terms(p, q))
        expected[-1] -= 1
        t.check(got == expected, lambda: f"runs of {p}/{q}: {got} != {expected}")
        t.check(
            _replay(got) == (p, q),
            lambda: "replaying "
            + "".join([s * n for s, n in zip(itertools.cycle((LEFT, RIGHT)), got)])
            + f" missed {p}/{q}",
        )
        t.check(
            _level(p, q) == sum(got) + 1,
            lambda: f"level of {p}/{q} is not path length + 1",
        )
    return t


def check_triple_equality(order: int) -> Tally:
    """All three routes agree exactly over F_order.

    All three give node counts over the same q, read from the integer
    cores on (p, q); the oracle builds every graph explicitly.  The oracle
    and the continued-fraction form are compared as whole count maps
    (hence for every degree), and the interval form is compared pointwise
    for every degree from 5 up to one past the boundary degree, that is
    to the term sum plus 3; one descent per x serves all of those degrees.
    """
    t = Tally("triple-equality")
    for p, q in iter_farey_pairs(order):
        if p == 0 or p == q:
            continue
        by_graph = _identified_counts(_degrees(p, q))
        by_cf = _cf_form_counts(p, q)
        t.check(
            by_graph == by_cf,
            lambda: f"counts at {Fraction(p, q)}: oracle {by_graph} != cf form {by_cf}",
        )
        ks = range(5, sum(_cf_terms(p, q)) + 4)
        from_cf = list(map(by_cf.get, ks, itertools.repeat(0)))
        from_tree = _walk(ks, p, q)[0]
        t.check_pairs(
            from_cf,
            from_tree,
            lambda i: (
                f"P({ks[i]}, {Fraction(p, q)})·q: cf form {from_cf[i]} "
                f"!= interval form {from_tree[i]}"
            ),
        )
    return t


def check_descent_recurrences(min_level: int, max_level: int) -> Tally:
    """Descent recurrences for the emergent-degree counts, on actual graphs.

    For every node at the given tree levels and every emergent degree k_l of
    that node, the two children obey the descent recurrences: raising the
    last term gives count(child) = s^(l,m-2) + (a_m + 1) s^(l,m-1) (which is
    count(node) + 1 nodes of the top emergent degree when l = m - 1), and
    appending ", 2" after dropping one from the last term gives
    count(child) = 2 s_{a/b}^(l,m) + s_{a/b}^(l,m-1).  The left-hand counts
    are read off explicitly built graphs; each s term, the continuant of a
    decremented tail [a_{l+1} - 1, a_{l+2}, ...], is S[l] - S[l+1] of the
    list's suffix continuants S.

    Levels 1 and 2 hold no node of two or more terms, and each level from
    3 on mirrors about 1/2, the children of 1 - y being the mirrored
    children of y.  So only the first half of each level is walked, in
    order, as integer pairs, and its tally is counted twice.  Each child's
    graph is built once for the node's two checks; then only the child's
    count at its own top emergent degree 3 + a_1 + ... + a_{m-1} is kept,
    the one count it needs as a node of the next level.  A node with no
    carried count (on the first level, or a child of a one-term node)
    builds its own graph.
    """
    min_level = _integer(min_level, "a tree level")
    max_level = _integer(max_level, "a tree level")
    t = Tally("descent-recurrences")
    if min_level > max_level:
        return t
    if min_level < 1:
        raise ValueError(f"levels are numbered from 1, got {min_level}")
    if max_level > MAX_TREE_LEVEL:
        raise ResourceLimitError(
            f"level {max_level} holds 2**{max_level - 2} fractions; the cap is {MAX_TREE_LEVEL}"
        )
    carried: Iterable[int | None] = itertools.repeat(None)
    for level in range(max(min_level, 3), max_level + 1):
        passed, failed = t.passed, t.failed
        children: list[int | None] = []  # in order, the next level's first half
        half = itertools.islice(_level_pairs(level), 2 ** (level - 3))
        for (p, q), count in zip(half, carried):
            terms = _cf_terms(p, q)
            m = len(terms)
            if m < 2:
                children += (None, None)
                continue
            shorter, last = terms[:-1], terms[-1]
            dropped = shorter + (last - 1,)
            plus_terms, two_terms = shorter + (last + 1,), dropped + (2,)
            # a term list t has the value K(t[1:]) / K(t)
            plus_child = _continuant(plus_terms[1:]), _continuant(plus_terms)
            two_child = _continuant(two_terms[1:]), _continuant(two_terms)
            plus_counts = _identified_counts(_degrees(*plus_child))
            two_counts = _identified_counts(_degrees(*two_child))
            # the top emergent degree of p/q and of the raised child; the
            # appended child's is last - 1 higher
            top = 3 + sum(shorter)
            if count is None:
                count = _identified_counts(_degrees(p, q)).get(top, 0)
            s_inner = _suffix_continuants(shorter[:-1])
            s_shorter = _suffix_continuants(shorter)
            s_dropped = _suffix_continuants(dropped)
            degree = 3
            for l in range(1, m):
                degree += terms[l - 1]
                s_tail = s_shorter[l] - s_shorter[l + 1]
                if l <= m - 2:
                    expected_plus = s_inner[l] - s_inner[l + 1] + (last + 1) * s_tail
                else:
                    expected_plus = count + 1
                t.check(
                    plus_counts.get(degree, 0) == expected_plus,
                    lambda: f"raise-last descent at {p}/{q}, degree {degree} (l={l}), "
                    f"child {plus_child[0]}/{plus_child[1]}",
                )
                expected_two = 2 * (s_dropped[l] - s_dropped[l + 1]) + s_tail
                t.check(
                    two_counts.get(degree, 0) == expected_two,
                    lambda: f"append-two descent at {p}/{q}, degree {degree} (l={l}), "
                    f"child {two_child[0]}/{two_child[1]}",
                )
            # raising the last term lowers x when m is odd: that child comes first
            plus_top = plus_counts.get(top, 0)
            two_top = two_counts.get(top + last - 1, 0)
            children += (plus_top, two_top) if m % 2 else (two_top, plus_top)
        # the mirrored half passes and fails the same checks
        t.passed += t.passed - passed
        t.failed += t.failed - failed
        carried = children
    return t


def _det(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> int:
    """Determinant of the 3×3 integer matrix with rows u, v, w."""
    (a, b, c), (d, e, f), (g, h, i) = u, v, w
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def check_piecewise_linearity(order: int) -> Tally:
    """Piecewise-linear shape of P(k, .) over F_order for k = 5..8, exactly.

    Within each open subinterval between a pivot (level k-3) and one of its
    children (level k-2), all sampled values are collinear; the lines of the
    two sides meet at the pivot at height 1/q_pivot and vanish at the child
    endpoints; the sampled fractions sitting exactly on those breakpoints
    take the removable values 0 and 1/q instead.  Each subinterval is walked
    on its own in constant memory; a sample p/q is the point (p, c, q) with
    c = P(k, p/q)·q read once from the continued-fraction core, and as the
    samples have distinct x they are collinear when each one's determinant
    with the first two is 0, as is the line's at (p, 1, q) on the pivot and
    at (p, 0, q) on the child.
    """
    t = Tally("piecewise-linearity")
    order = _integer(order, "a Farey order")  # _pairs_between trusts it
    for k in (5, 6, 7, 8):
        for pivot in tree_level(k - 3):
            lower, upper = tree_children(pivot)
            a, b = pivot.numerator, pivot.denominator
            for lo, hi, child in ((lower, pivot, lower), (pivot, upper, upper)):
                pairs = _pairs_between(lo.numerator, lo.denominator, hi.numerator, hi.denominator, order)
                pts = ((p, _cf_form_counts(p, q).get(k, 0), q) for p, q in pairs)
                first, second = next(pts, None), next(pts, None)
                t.check(
                    second is None or all(_det(first, second, pt) == 0 for pt in pts),
                    lambda: f"samples not collinear in ({lo}, {hi}) for degree {k}",
                )
                if second is None:
                    continue
                t.check(
                    _det(first, second, (a, 1, b)) == 0,
                    lambda: f"piece over ({lo}, {hi}) does not reach 1/{b} at the pivot for degree {k}",
                )
                t.check(
                    _det(first, second, (child.numerator, 0, child.denominator)) == 0,
                    lambda: f"piece does not vanish at {child} for degree {k}",
                )
            # the breakpoints themselves take the removable values
            t.check(
                _cf_form_counts(a, b).get(k, 0) == 0,
                lambda: f"P({k}, {pivot}) is not 0 on the pivot",
            )
            for child in (lower, upper):
                t.check(
                    _cf_form_counts(child.numerator, child.denominator).get(k, 0) == 1,
                    lambda: f"P({k}, {child}) is not 1/q on the child level",
                )
    return t


def check_base_cases(order: int) -> Tally:
    """Low-degree probabilities over F_order: P(2) = min(x, 1-x),
    P(3) = |1 - 2x|, P(4) = 0 except P(4, 1/2) = 1/2."""
    t = Tally("base-cases")
    half = Fraction(1, 2)
    for p, q in iter_farey_pairs(order):
        if p == 0 or p == q:
            continue
        x = Fraction(p, q)
        dist = cf_form_distribution(x)
        expected4 = half if x == half else Fraction(0)
        ok = (
            dist.probability(2) == min(x, 1 - x)
            and dist.probability(3) == abs(1 - 2 * x)
            and dist.probability(4) == expected4
        )
        t.check(ok, lambda: f"low degrees of {x}: {dist.entries}")
    return t


def check_conservation(order: int) -> Tally:
    """Normalisation and counting over F_order: probabilities sum to 1 with
    mean degree (4q-2)/q, and built graphs have q+1 nodes and 2q-1 edges."""
    t = Tally("conservation")
    for p, q in iter_farey_pairs(order):
        x = Fraction(p, q)
        g = build(x)
        t.check(
            g.node_count == q + 1 and g.edge_count == 2 * q - 1,
            lambda: f"{x}: {g.node_count} nodes, {g.edge_count} edges",
        )
        if p == 0 or p == q:
            continue
        dist = cf_form_distribution(x)
        t.check(
            dist.total() == 1 and dist.mean_degree() == Fraction(4 * q - 2, q),
            lambda: f"conservation broke at {x}: {dist.entries}",
        )
    return t


def _now() -> str:
    """The current UTC time to the second, as ``2026-01-01T00:00:00+00:00``."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def run_verification(
    suite: str = "all",
    order: int = DEFAULT_VERIFY_ORDER,
    levels: int = DEFAULT_VERIFY_LEVELS,
) -> tuple[RunManifest, list[Tally]]:
    """Run the named suite and return the manifest plus per-check tallies."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose one of {SUITES}")
    order = _integer(order, "a Farey order")
    levels = _integer(levels, "a tree level")
    if not 1 <= order <= MAX_VERIFY_ORDER:
        raise ResourceLimitError(
            f"verification order must lie in 1..{MAX_VERIFY_ORDER}, got {order}"
        )
    if not 3 <= levels <= MAX_VERIFY_LEVELS:
        raise ResourceLimitError(
            f"verification levels must lie in 3..{MAX_VERIFY_LEVELS}, got {levels}"
        )
    started = _now()
    tallies: list[Tally] = []
    if suite in ("all", "identities"):
        lists = itertools.chain(
            term_grid(range(2, 7), 4), random_term_lists(2000)
        )
        tallies.append(check_continuant_identities(lists))
        tallies.append(check_cf_continuant_link(order))
        tallies.append(check_path_roundtrips(order))
    if suite in ("all", "recurrences"):
        tallies.append(check_descent_recurrences(3, levels))
    if suite in ("all", "triple"):
        tallies.append(check_triple_equality(order))
    if suite in ("all", "corollary"):
        tallies.append(check_piecewise_linearity(order))
    finished = _now()
    manifest = RunManifest(
        command="verify",
        parameters={"suite": suite, "order": order, "levels": levels},
        started=started,
        finished=finished,
        checks_passed=sum(t.passed for t in tallies),
        checks_failed=sum(t.failed for t in tallies),
        first_failure=next(
            (t.first_failure for t in tallies if t.first_failure), None
        ),
    )
    return manifest, tallies
