#!/usr/bin/env python3
"""Benchmark of the ``haros`` command line on three workloads.

Run it from the repository root; it imports harosgraph from ``src/``:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs untraced and traced passes in turn and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md`` for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "checks_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# The traced functions, as "<defining module>.<function>".  Functions left
# out here count toward the self time of their traced caller.
LAYERS = (
    "exact.cf_expand",
    "exact.convergents",
    "exact.continuant",
    "exact.suffix_continuants",
    "tree.iter_farey_pairs",
    "tree.level_index",
    "tree.locate_for_degree",
    "tree.symbolic_path",
    "tree.replay_path",
    "tree.tree_level",
    "tree.tree_children",
    "graphs.build",
    "graphs.concat",
    "graphs.identify_boundary",
    "graphs.iter_identified_counts",
    "distribution.cf_form_distribution",
    "distribution.interval_form_value",
    "distribution.interval_form_distribution",
    "distribution.degree_distribution_oracle",
    "distribution.sweep",
    "verify.check_continuant_identities",
    "verify.check_cf_continuant_link",
    "verify.check_path_roundtrips",
    "verify.check_descent_recurrences",
    "verify.check_triple_equality",
    "verify.check_piecewise_linearity",
    "cli.main",
    "cli.build_parser",
    "cli._cmd_sweep",
    "cli._cmd_dist",
    "cli._cmd_verify",
)
LAYER_UNITS = {"calls": "count", "self_s": "s", "share": "frac", "errors": "count"}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in LAYER_UNITS.items()},
    "trace.overhead_frac": "frac",
    "graphs.build.doubling_ratio": "ratio",
    "distribution.interval_form_distribution.doubling_ratio": "ratio",
}

# Fresh interpreters started before each pass to time set-up, so that the
# samples spread over the run like the passes do; the median is reported.
# The child prints the system-wide monotonic clock once its parser is built:
# interpreter exit is not counted, and no polling of the child blurs it.
SETUP_SAMPLES_PER_PASS = 2
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import harosgraph.cli; harosgraph.cli.build_parser(); "
    "import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def load_workloads():
    """Import the workloads module, and with it harosgraph from ``src/``."""
    sys.path.insert(0, str(SRC))
    try:
        import harosgraph
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import harosgraph from {SRC}: {exc}")
    if Path(harosgraph.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: harosgraph was imported from outside {SRC}")
    return workloads


def time_setup() -> float:
    """Seconds from spawning a fresh interpreter to the CLI parser built."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(child.stdout) - start


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, lowered until ten values lie above it.

    Never lower than the median: with fewer than twenty values (a run of
    sweep or verify passes) this is the median.
    """
    n = len(values)
    pct = max(50, min(pct, 100 * (n - 10) // n))
    if n == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def repeat_within(seconds: float, step) -> list:
    """Run ``step`` at least once, and again while another run still fits."""
    results = []
    start = perf_counter()
    longest = 0.0
    while True:
        began = perf_counter()
        results.append(step())
        now = perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > seconds:
            return results


def doubling_ratio(func, xs) -> float:
    """Time factor per doubling of the denominator, from a log-log fit."""
    points = []
    for x in sorted(set(xs)):
        best = math.inf
        for _ in range(2):
            start = perf_counter()
            func(x)
            best = min(best, perf_counter() - start)
        points.append((math.log2(x.denominator), math.log2(best)))
    slope = statistics.linear_regression(*zip(*points)).slope
    return 2**slope


def end_to_end(workload, seconds: float) -> tuple[dict[str, float], list]:
    setup = []

    def step():
        setup.extend(time_setup() for _ in range(SETUP_SAMPLES_PER_PASS))
        return workload.run_pass()

    passes = repeat_within(seconds, step)
    latencies = [t for p in passes for t in p.latencies]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "rows_per_s": statistics.median(p.rows / p.wall for p in passes),
        "checks_per_s": statistics.median(p.checks / p.wall for p in passes),
        "queries_per_s": statistics.median(len(p.latencies) / p.wall for p in passes),
        "query_p50_ms": percentile(latencies, 50) * 1000,
        "query_p90_ms": percentile(latencies, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, passes


def per_layer(workloads, workload, seed: int, scale, seconds: float):
    import harosgraph.distribution
    import harosgraph.graphs

    start = perf_counter()
    queries = workloads.point_queries(seed, scale)
    values = {
        "graphs.build.doubling_ratio": doubling_ratio(
            harosgraph.graphs.build,
            [q.x for q in queries if q.family == "one-term"],
        ),
        "distribution.interval_form_distribution.doubling_ratio": doubling_ratio(
            harosgraph.distribution.interval_form_distribution,
            [q.x for q in queries if q.family == "deep-L"],
        ),
    }
    tracer = spans.Tracer(LAYERS)
    untraced, traced = [], []

    def pair():
        untraced.append(workload.run_pass())
        with tracer.installed():
            traced.append(workload.run_pass())

    repeat_within(seconds - (perf_counter() - start), pair)
    n = len(traced)
    traced_wall = sum(p.wall for p in traced)
    for layer, stats in tracer.stats.items():
        values[f"{layer}.calls"] = stats.calls / n
        values[f"{layer}.self_s"] = stats.self_s / n
        values[f"{layer}.share"] = stats.self_s / traced_wall
        values[f"{layer}.errors"] = stats.errors / n
    values["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced)
        - 1
    )
    return values, untraced + traced


def run(name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    workloads = load_workloads()
    scale = scale or workloads.FULL
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        make = workloads.WORKLOADS[name]
        make(seed, workloads.TINY, workdir).run_pass()  # warm-up, not measured
        workload = make(seed, scale, workdir)
        if trace:
            values, passes = per_layer(workloads, workload, seed, scale, seconds)
            units = PER_LAYER_UNITS
        else:
            values, passes = end_to_end(workload, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def report(workload: str, result: dict) -> None:
    """Print every metric with its unit, then the result object last."""
    for key, metric in result["metrics"].items():
        print(f"{workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{workload} failed_frac = {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} operations failed)"
    )
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "point", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report(args.workload, run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
