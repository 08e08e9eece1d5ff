"""Command-line front end.

Subcommands: cf | build | dist | sweep | verify.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error, 3 resource cap, 4 strict
cross-method mismatch.  All output is deterministic; there is no randomness
anywhere in the toolchain.

Importing this module and building its parser loads only what every command
needs: the three routes, and the suite names and caps from
:mod:`harosgraph.limits`.  A command that alone needs ``json``, ``csv`` or
the verify suites imports them when it runs, so ``dist`` and ``sweep``
never load them.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import count, repeat
from math import gcd

from .distribution import (
    DEFAULT_ROW_CAP,
    DegreeDistribution,
    cf_form_distribution,
    degree_distribution_oracle,
    interval_form_distribution,
    sweep,
)
from .errors import AdjacencyError, ResourceLimitError
from .exact import cf_expand, convergents
from .graphs import build, identify_boundary
from .limits import (
    DEFAULT_VERIFY_LEVELS,
    DEFAULT_VERIFY_ORDER,
    MAX_VERIFY_LEVELS,
    MAX_VERIFY_ORDER,
    SUITES,
)
from .tree import level_index, symbolic_path

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_STRICT_MISMATCH = 4

DEFAULT_ORACLE_CAP = 10**6

SWEEP_CSV_HEADER = (
    "x_num,x_den,x_float,k,"
    "p_thm1_num,p_thm1_den,p_thm2_num,p_thm2_den,p_oracle_num,p_oracle_den"
)
# A JSON record keyed by the CSV columns, cut before the value of k; %r
# writes x_float as json.dumps does
_JSON_PREFIX, _JSON_TAIL = ("{%s}" % ", ".join(
    '"%s": %s' % (name, "%r" if name == "x_float" else "%d") for name in SWEEP_CSV_HEADER.split(",")
)).split('"k": ')
# A sweep file in each format: its head; the row prefix on (p, q, x_float)
# and the row tail on (k, n1, d1, n2, d2, n3, d3); its foot; and how many
# characters to drop of what follows the head, the "," before the first JSON
# record or the "\n" of an empty array's foot
_SWEEP_TEXT = {
    "csv": (SWEEP_CSV_HEADER + "\n", "%d,%d,%.17g,", "%d,%d,%d,%d,%d,%d,%d\n", "", 0),
    "json": ("[", ",\n" + _JSON_PREFIX + '"k": ', _JSON_TAIL, "\n]\n", 1),
}

_FRACTION_RE = re.compile(r"\s*(\d+)\s*/\s*(\d+)\s*\Z")


class _UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    match = _FRACTION_RE.match(text)
    if match is None:
        raise _UsageError(f"expected a fraction literal like 10/23, got {text!r}")
    try:
        num, den = int(match.group(1)), int(match.group(2))
    except ValueError:  # a run of digits fails only on the int-string limit
        raise _UsageError(
            f"fraction literal with more than {sys.get_int_max_str_digits()} digits "
            "in its numerator or denominator (Python's int-string limit)"
        )
    if den == 0:
        raise _UsageError(f"zero denominator in {text!r}")
    x = Fraction(num, den)
    if not 0 <= x <= 1:
        raise _UsageError(f"{text!r} lies outside [0, 1]")
    if (x.numerator, x.denominator) != (num, den):
        print(f"note: {text.strip()} normalised to {x}", file=sys.stderr)
    return x


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _degree_list(text: str) -> list[int]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            k = int(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad degree {token!r} in {text!r}")
        if k < 5:
            raise argparse.ArgumentTypeError(f"sweep degrees start at 5, got {k}")
        out.append(k)
    if not out:
        raise argparse.ArgumentTypeError(f"no degrees in {text!r}")
    return sorted(set(out))


def _check_build_cap(x: Fraction, cap: int) -> None:
    """Refuse an explicit graph build of x above the --max-q cap."""
    if x.denominator > cap:
        raise ResourceLimitError(
            f"denominator {x.denominator} exceeds the build cap {cap} "
            "(raise it with --max-q)"
        )


def _fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cmd_cf(args: argparse.Namespace) -> int:
    x = _parse_fraction(args.fraction)
    if x == 0:
        report = {
            "fraction": _fmt(x),
            "terms": None,
            "convergents": None,
            "path": None,
            "level": 1,
            "note": "0 has no continued fraction of the unit form",
        }
    elif x == 1:
        report = {
            "fraction": _fmt(x),
            "terms": [1],
            "convergents": ["1/1"],
            "path": None,
            "level": 1,
            "note": "level-1 endpoint: no descent path",
        }
    else:
        word = symbolic_path(x).word  # refuses a word above MAX_CF_WORD_STEPS
        cf = cf_expand(x)
        report = {
            "fraction": _fmt(x),
            "terms": list(cf.terms),
            "convergents": [_fmt(c) for c in convergents(cf)],
            "path": word,
            "level": level_index(x),
        }
    if args.format == "json":
        import json

        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    x = _parse_fraction(args.fraction)
    _check_build_cap(x, args.max_q)
    g = build(x)
    interior = 0 < x < 1
    identified = identify_boundary(g) if interior else None
    note = None if interior else "P(k,0) = P(k,1) = 0 by convention"
    if args.format == "json":
        import json

        # json.dumps with an indent runs the pure-Python encoder, several
        # calls per item; the degrees (q + 1 of them) are written as one join
        # in its layout, spliced in for the null that holds their place
        payload = {
            "label": _fmt(x),
            "nodes": g.node_count,
            "edges": g.edge_count,
            "degree_sequence": None,
            "identified_counts": (
                {str(k): m for k, m in identified.items()} if identified else {}
            ),
        }
        if note:
            payload["note"] = note
        sequence = ",\n    ".join(map(str, g.degrees))
        print(json.dumps(payload, indent=2).replace(
            '"degree_sequence": null', f'"degree_sequence": [\n    {sequence}\n  ]', 1
        ))
    else:
        import csv

        # the summary rows go through csv.writer (the note holds commas and
        # is quoted); the sequence rows hold only ints, written as one join
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        writer.writerow(["summary", "label", _fmt(x)])
        writer.writerow(["summary", "nodes", g.node_count])
        writer.writerow(["summary", "edges", g.edge_count])
        if note:
            writer.writerow(["summary", "note", note])
        sys.stdout.write("".join(map("sequence,{},{}\n".format, count(), g.degrees)))
        if identified:
            for degree, multiplicity in identified.items():
                writer.writerow(["multiset", degree, multiplicity])
    return EXIT_OK


def _cmd_dist(args: argparse.Namespace) -> int:
    x = _parse_fraction(args.fraction)
    q = x.denominator
    if q == 1:  # 0/1 or 1/1
        print("k  P(k)")
        print("(empty distribution: P(k,0) = P(k,1) = 0 by convention)")
        return EXIT_OK
    method = args.method
    if method in ("oracle", "all"):
        _check_build_cap(x, args.max_q)
    columns: dict[str, DegreeDistribution] = {}
    if method in ("thm1", "all"):
        columns["thm1"] = cf_form_distribution(x)
    if method in ("thm2", "all"):
        columns["thm2"] = interval_form_distribution(x)
    if method in ("oracle", "all"):
        columns["oracle"] = degree_distribution_oracle(x)
    # every route counts nodes over the same q = x.denominator; the table is
    # built a column at a time, each column's counts in the order of ks
    counts = [dist.counts for dist in columns.values()]
    ks = sorted(set().union(*counts))
    values = [list(map(c.get, ks, repeat(0))) for c in counts]
    over_q = f"/{q}"

    def reduced(column: list[int]) -> list[str]:
        # each count over q in lowest terms, as _fmt writes a Fraction: a
        # count coprime to q as it stands
        return [f"{m}{over_q}" if (g := gcd(m, q)) == 1 else f"{m // g}/{q // g}" for m in column]

    # a row whose counts agree: its k, then its one cell in every column
    template = "{0}" + "  {1}" * len(values) + ("  ok" if method == "all" else "")
    agree = values.count(values[0]) == len(values)  # one column, or all equal
    if agree:
        rows = map(template.format, ks, reduced(values[0]))
    else:
        # equal counts over one q are equal cells, so each row compares text
        rows = [
            template.format(k, row[0]) if row.count(row[0]) == len(row)
            else f"{k}  " + "  ".join(row) + "  MISMATCH"
            for k, *row in zip(ks, *map(reduced, values))
        ]
    header = "  ".join(["k", *columns] + (["match"] if method == "all" else []))
    sys.stdout.write(header + "\n" + "\n".join(rows) + "\n")
    if not agree and args.strict:
        print("error: methods disagree", file=sys.stderr)
        return EXIT_STRICT_MISMATCH
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    out_path = args.out
    tmp_path = out_path + ".partial"
    head, prefix_format, tail, foot, skip = _SWEEP_TEXT[args.format]
    ks = args.k
    count = 0
    worst = Fraction(0)
    # Most rows of a sweep are zero in all three columns: their tail after
    # the prefix depends on k alone.  A third of the x are zero at every k,
    # and each of those is the prefix joined to the prebuilt tails.
    zero_tails = {k: tail % (k, 0, 1, 0, 1, 0, 1) for k in ks}
    zero_group = ["", *zero_tails.values()]
    try:
        handle = open(tmp_path, "w", newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path!r}: {exc}")
    try:
        with handle:
            handle.write(head)
            for p, q, thm1, thm2, oracle in sweep(ks, args.order, row_cap=args.max_rows):
                # each x is written as one string, its prefix joining the row tails
                prefix = prefix_format % (p, q, p / q)
                if thm1 == thm2 == oracle:
                    if not any(thm1):
                        tails = zero_group
                    else:
                        # the routes agree: each count over q in lowest terms
                        # is one cell, written three times
                        tails = [""]
                        for k, a in zip(ks, thm1):
                            if a:
                                n, d = a // (g := gcd(a, q)), q // g
                                tails.append(tail % (k, n, d, n, d, n, d))
                            else:
                                tails.append(zero_tails[k])
                else:  # an x whose columns differ: row by row
                    tails = [""]
                    for k, a, b, c in zip(ks, thm1, thm2, oracle):
                        if not a == b == c:
                            # the three counts share the denominator q
                            worst = max(worst, Fraction(max(a, b, c) - min(a, b, c), q))
                        # each count over q in lowest terms: numerator, denominator
                        tails.append(tail % (
                            k,
                            a // (g := gcd(a, q)), q // g,
                            b // (g := gcd(b, q)), q // g,
                            c // (g := gcd(c, q)), q // g,
                        ))
                text = prefix.join(tails)
                handle.write(text if count else text[skip:])
                count += len(ks)
            handle.write(foot if count else foot[skip:])
        os.replace(tmp_path, out_path)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path!r}: {exc}")
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{exc} (set the row cap with --max-rows)") from exc
    finally:
        # after a successful os.replace there is nothing left to remove
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    print(
        f"wrote {count} rows to {out_path}; "
        f"max cross-method discrepancy: {_fmt(worst)}"
    )
    return EXIT_OK


def run_verification(suite: str, order: int, levels: int):
    """:func:`harosgraph.verify.run_verification`, loaded on the first call."""
    from .verify import run_verification

    return run_verification(suite, order, levels)


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    manifest, tallies = run_verification(args.suite, args.order, args.levels)
    for tally in tallies:
        print(
            f"{tally.name}: passed={tally.passed} failed={tally.failed}",
            file=sys.stderr,
        )
    print(json.dumps(manifest.to_json_dict(), indent=2))
    return EXIT_VERIFY_FAILED if manifest.checks_failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``haros`` parser, built once per process: it has no input, and a
    parse leaves it as it was.  ``main`` finds each subcommand's handler by
    name when it runs it, so a replaced ``_cmd_*`` takes effect."""
    parser = argparse.ArgumentParser(
        prog="haros",
        description=(
            "Haros graphs: exact degree sequences and degree distributions "
            "over the Farey tree"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser(
        "cf", help="continued fraction, convergents, descent word and level"
    )
    p_cf.add_argument("fraction", help='fraction literal "p/q" in [0, 1]')
    p_cf.add_argument("--format", choices=("text", "json"), default="text")

    p_build = sub.add_parser(
        "build", help="degree sequence and identified multiset of one graph"
    )
    p_build.add_argument("fraction", help='fraction literal "p/q" in [0, 1]')
    p_build.add_argument("--format", choices=("json", "csv"), default="json")
    p_build.add_argument(
        "--max-q",
        type=_positive_int,
        default=DEFAULT_ORACLE_CAP,
        help=f"override the build denominator cap (default {DEFAULT_ORACLE_CAP})",
    )

    p_dist = sub.add_parser("dist", help="degree distribution table")
    p_dist.add_argument("fraction", help='fraction literal "p/q" in [0, 1]')
    p_dist.add_argument(
        "--method",
        choices=("thm1", "thm2", "oracle", "all"),
        default="all",
        help=(
            "thm1: continued-fraction closed form; thm2: piecewise-linear "
            "interval form; oracle: explicit graph construction"
        ),
    )
    p_dist.add_argument(
        "--strict",
        action="store_true",
        help="exit 4 if the methods disagree (with --method all)",
    )
    p_dist.add_argument("--max-q", type=_positive_int, default=DEFAULT_ORACLE_CAP)

    p_sweep = sub.add_parser(
        "sweep", help="tabulate P(k, x) over a Farey sequence, three ways"
    )
    p_sweep.add_argument(
        "--k", type=_degree_list, required=True, help="degrees, e.g. 5,6,7,8"
    )
    p_sweep.add_argument("--order", type=_positive_int, required=True)
    p_sweep.add_argument("--out", required=True, help="output file path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument(
        "--max-rows",
        type=_positive_int,
        default=DEFAULT_ROW_CAP,
        help=f"row cap (default {DEFAULT_ROW_CAP})",
    )

    p_verify = sub.add_parser(
        "verify", help="run the exact cross-verification suites"
    )
    p_verify.add_argument(
        "--order",
        type=_positive_int,
        default=DEFAULT_VERIFY_ORDER,
        help=f"Farey order for the bulk checks (max {MAX_VERIFY_ORDER})",
    )
    p_verify.add_argument(
        "--levels",
        type=_positive_int,
        default=DEFAULT_VERIFY_LEVELS,
        help=f"tree depth for the descent recurrences (max {MAX_VERIFY_LEVELS})",
    )
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # looked up at call time, not fixed when the cached parser was built
    handler = globals()["_cmd_" + args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AdjacencyError as exc:  # a sweep whose walk did not list F_order
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
