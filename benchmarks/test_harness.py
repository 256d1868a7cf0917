"""Self-test of the benchmark harness at toy size.

    PYTHONPATH=src python3 -m pytest benchmarks -q

Every workload runs once untraced and once traced through run.py, as a
user would run it; the result line must name exactly the metrics of
BENCHMARK.json with their units.  In-process, each traced op's span self
times must sum to its traced duration.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES + workloads.BY_HAND)
def test_toy_run_prints_every_metric(name, trace):
    proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], float)


@pytest.mark.parametrize("name", workloads.NAMES + workloads.BY_HAND)
def test_span_self_times_sum_to_op_duration(tmp_path, name):
    run = harness.Run(workloads.make(name, toy=True), seed=5, workdir=tmp_path)
    run.setup()
    n_ops = run.w.trace_ops
    _, traced, tracer = run.traced(n_ops)
    assert not run.failures
    own = tracing.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"] * n_ops
    per_op = Counter()
    for s in tracer.spans:
        per_op[s.op_id] += own[id(s)] + sum(s.leaf_time.values())
    for root, wall in zip(roots, traced):
        assert per_op[root.op_id] == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
        assert root.duration <= wall
    # the tracer leaves the package as it found it
    from hexflow import conformal, solve
    assert solve.curvature is conformal.curvature
    assert not hasattr(conformal.curvature, "__wrapped__")


def test_counts_repeat_for_a_seed(tmp_path):
    def counts(sub):
        (tmp_path / sub).mkdir()
        run = harness.Run(workloads.make("flow_fractional", toy=True), seed=9,
                          workdir=tmp_path / sub)
        run.setup()
        _, _, tracer = run.traced(2)
        totals = tracing.layer_totals(tracer.spans)
        return {k: v for k, v in totals.items() if not k.endswith("self_s")}

    assert counts("a") == counts("b")


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([1.0] * 5 + [2.0]) == (1.0, 50.0)
    xs = [float(i) for i in range(40)]
    value, pct = harness.tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == 75.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "fixtures_small", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
