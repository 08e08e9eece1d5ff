"""Cold start: what ``import harosgraph.cli`` loads, and what each command adds.

Each probe runs in a fresh interpreter and diffs ``sys.modules`` against the
set it starts with, so modules the interpreter's ``site`` preloads do not
count.  It runs once as the interpreter starts by default and once under
``-S``, where ``site`` preloads next to nothing.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import harosgraph.limits
import harosgraph.verify

SRC = Path(__file__).resolve().parent.parent / "src"

# Loaded by no command that answers a query: the verify suites and the
# modules only ``verify``, ``cf`` or ``build`` use
DEFERRED = ("harosgraph.verify", "json", "csv", "datetime", "random", "typing")

# Loaded by neither the parser nor any command, ``verify`` included: the value
# classes are plain classes, so nothing pays for ``dataclasses`` and the
# ``inspect`` it imports (with ``ast``, ``dis`` and ``tokenize``)
NEVER = ("dataclasses", "inspect")

# Prints the modules added by the parser, then the exit code and the modules
# added by each command in turn; a command is one argument, its words joined
# by tabs.  The commands' own output is swallowed.
PROBE = """
import io, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import harosgraph.cli
harosgraph.cli.build_parser()
real = sys.stdout
print(sorted(set(sys.modules) - before), file=real)
for command in sys.argv[2:]:
    sys.stdout = sys.stderr = io.StringIO()
    code = harosgraph.cli.main(command.split("\\t"))
    print((code, sorted(set(sys.modules) - before)), file=real)
"""


def _probe(flags, *commands):
    child = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, str(SRC), *("\t".join(c) for c in commands)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return [ast.literal_eval(line) for line in child.stdout.splitlines()]


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_cli_loads_only_what_its_command_runs(flags, tmp_path):
    out = str(tmp_path / "sweep.csv")
    parser, dist, swept, verified, cf, built = _probe(
        flags,
        ["dist", "10/23"],
        ["sweep", "--k", "5,6", "--order", "12", "--out", out],
        ["verify", "--order", "5", "--levels", "3"],
        ["cf", "10/23", "--format", "json"],
        ["build", "10/23"],
    )
    assert "harosgraph.cli" in parser and "argparse" in parser
    assert [name for name in DEFERRED + NEVER if name in parser] == []
    for code, loaded in (dist, swept):
        assert code == 0
        assert [name for name in DEFERRED if name in loaded] == []
    for code, loaded in (dist, swept, verified, cf, built):
        assert code == 0
        assert [name for name in NEVER if name in loaded] == []
    assert "harosgraph.verify" in verified[1]


def test_verify_reexports_the_limits():
    # the parser reads them from limits; verify checks against the same objects
    for name in ("SUITES", "MAX_VERIFY_ORDER", "MAX_VERIFY_LEVELS"):
        assert getattr(harosgraph.verify, name) is getattr(harosgraph.limits, name)
        assert name in harosgraph.verify.__all__
    assert harosgraph.limits.SUITES == ("all", "identities", "recurrences", "triple", "corollary")
    assert (harosgraph.limits.MAX_VERIFY_ORDER, harosgraph.limits.MAX_VERIFY_LEVELS) == (1000, 16)


def test_parser_and_run_verification_share_the_verify_defaults():
    # the parser and run_verification both take them from limits
    import harosgraph.cli

    limits = harosgraph.limits
    defaults = (limits.DEFAULT_VERIFY_ORDER, limits.DEFAULT_VERIFY_LEVELS)
    assert defaults == (50, 10)
    args = harosgraph.cli.build_parser().parse_args(["verify"])
    assert (args.order, args.levels) == defaults
    assert harosgraph.verify.run_verification.__defaults__ == ("all", *defaults)
