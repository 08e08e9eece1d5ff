"""Held memory: a command or a library loop keeps nothing once it returns.

On CPython, ``tuple()`` of an iterator with no length (a generator
expression, ``map``, ``zip``, ``filter``, ``enumerate``) starts from a
10-slot tuple and shrinks it with ``_PyTuple_Resize``; the shrunk block goes
back to the free list of its size when the tuple dies, while the next call
takes a fresh one, so every call parks one more dead tuple (up to 2,000 per
size).  Building such tuples from a list leaves nothing behind.

Each probe runs in a fresh interpreter: free lists that earlier tests have
already filled would hide the growth.  After one warm-up call (lazy imports,
first-call caches) the probe runs the job five times under ``tracemalloc``
and prints the bytes still held by blocks allocated during those runs.  A
full garbage collection empties the free lists, so the probe collects once
before it starts tracing and not after.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "harosgraph"

HELD_BOUND = 64 * 1024  # bytes

# argv: the source path, then one job.  A job is a CLI command (its words
# joined by tabs) or the name of a library loop in LOOPS.  Prints the bytes
# held after the runs.
PROBE = """
import gc, io, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from harosgraph import cf_expand, iter_farey_pairs, tree_level
from harosgraph.cli import main
from harosgraph.verify import check_continuant_identities, random_term_lists

def identities():
    for _ in range(3):
        check_continuant_identities(random_term_lists(2000))

def expansions():
    for _ in range(3):
        for p, q in iter_farey_pairs(150):
            if p:
                cf_expand(Fraction(p, q))

def levels():
    for _ in range(300):
        for k in range(2, 9):
            tree_level(k)

LOOPS = {"identities": identities, "expansions": expansions, "levels": levels}
job = sys.argv[2]

def run():
    if job in LOOPS:
        LOOPS[job]()
        return
    real = sys.stdout
    sys.stdout = io.StringIO()
    try:
        assert main(job.split("\\t")) == 0
    finally:
        sys.stdout = real

run()
gc.collect()
tracemalloc.start()
for _ in range(5):
    run()
print(tracemalloc.get_traced_memory()[0])
"""


def _held(job):
    child = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), job],
        check=True, capture_output=True, text=True, timeout=300,
    )
    return int(child.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "command",
    [
        ["cf", "10/23"],
        ["build", "10/23", "--format", "json"],
        ["dist", "46368/75025", "--method", "all"],
        ["sweep", "--k", "5,6,7,8", "--order", "60", "--out", "{out}"],
        ["verify", "--suite", "all", "--order", "40", "--levels", "8"],
    ],
    ids=lambda command: command[0],
)
def test_a_command_holds_nothing_after_it_returns(command, tmp_path):
    job = "\t".join(word.format(out=tmp_path / "sweep.csv") for word in command)
    assert _held(job) < HELD_BOUND


@pytest.mark.parametrize("loop", ["identities", "expansions", "levels"])
def test_a_library_loop_holds_nothing_after_it_returns(loop):
    assert _held(loop) < HELD_BOUND


UNSIZED = {"map", "zip", "filter", "enumerate"}


def _unsized_tuples(source, filename="<source>"):
    """(file, line) of each ``tuple()`` call whose one argument is a
    generator expression or a map/zip/filter/enumerate call."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp) or (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id in UNSIZED
        ):
            found.append((filename, node.lineno))
    return found


def test_the_scan_flags_each_unsized_form():
    source = "\n".join(
        [
            "tuple(a for a in xs)",
            "tuple(map(int, xs))",
            "tuple(zip(xs, ys))",
            "tuple(filter(None, xs))",
            "tuple(enumerate(xs))",
            "tuple([a for a in xs])",
            "tuple(xs)",
            "tuple(sorted(a for a in xs))",
        ]
    )
    assert [line for _, line in _unsized_tuples(source)] == [1, 2, 3, 4, 5]


def test_no_tuple_is_built_from_an_unsized_iterator():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _unsized_tuples(path.read_text(), path.name)
    assert found == []
