"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json

import pytest

import run

workloads = run.load_workloads()
TINY = workloads.TINY
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_metric_names_match_benchmark_json():
    assert run.END_TO_END_UNITS == declared("end_to_end")
    assert run.PER_LAYER_UNITS == declared("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["sweep", "point", "verify"])
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    run.report(name, run.run(name, seed=7, seconds=0.2, trace=bool(trace), scale=TINY))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for key, unit in expected.items():
        assert any(
            line.startswith(f"{name} {key} = ") and line.endswith(f" {unit}")
            for line in lines
        ), key
    assert any(line.startswith(f"{name} failed_frac = 0 ") for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def corrupt_first_row(text: str, sep: str, column: int) -> str:
    """Overwrite one cell of the first data row with 7."""
    lines = text.split("\n")
    cells = lines[1].split(sep)
    cells[column] = "7"
    lines[1] = sep.join(cells)
    return "\n".join(lines)


def test_one_corrupted_sweep_row_per_pass_is_counted(monkeypatch):
    real = workloads.call_cli

    def corrupting(argv):
        code, elapsed, stdout = real(argv)
        out = argv[argv.index("--out") + 1]
        with open(out) as handle:
            text = handle.read()
        with open(out, "w") as handle:
            handle.write(corrupt_first_row(text, ",", 4))
        return code, elapsed, stdout

    monkeypatch.setattr(workloads, "call_cli", corrupting)
    result = run.run("sweep", seed=7, seconds=0.2, trace=False, scale=TINY)
    passes = result["attempted"] // TINY.sweep_rows
    assert result["attempted"] == passes * TINY.sweep_rows
    assert result["failed"] == passes and not result["correct"]


def test_one_corrupted_query_per_pass_is_counted(monkeypatch):
    queries = workloads.point_queries(7, TINY)
    target = queries[0].argv()
    real = workloads.call_cli

    def corrupting(argv):
        code, elapsed, stdout = real(argv)
        if argv == target:
            stdout = corrupt_first_row(stdout, "  ", 1)
        return code, elapsed, stdout

    monkeypatch.setattr(workloads, "call_cli", corrupting)
    result = run.run("point", seed=7, seconds=0.2, trace=False, scale=TINY)
    passes = result["attempted"] // len(queries)
    assert result["attempted"] == passes * len(queries)
    assert result["failed"] == passes and not result["correct"]


def test_disagreeing_thm1_and_thm2_answers_are_counted(monkeypatch):
    point = workloads.Point(7, TINY, run.ROOT)
    x = workloads.Fraction(3, 7)
    point.queries = [workloads.Query("bigint", x, m) for m in ("thm1", "thm2")]
    tables = {
        "thm1": "k  thm1\n2  3/7\n3  1/7\n5  2/7\n6  1/7\n",
        "thm2": "k  thm2\n2  3/7\n3  1/7\n5  1/7\n6  2/7\n",
    }
    monkeypatch.setattr(workloads, "call_cli", lambda argv: (0, 0.001, tables[argv[-1]]))
    result = point.run_pass()
    assert (result.attempted, result.failed) == (2, 1)


def test_verify_count_mismatch_is_counted():
    manifest = json.dumps({"checks_passed": TINY.verify_checks - 1, "checks_failed": 0})
    assert workloads.check_verify_manifest(manifest, TINY.verify_checks) == (
        TINY.verify_checks - 1,
        1,
    )
