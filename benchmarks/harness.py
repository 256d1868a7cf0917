"""Measurement loop, metrics and result line of the hexflow benchmark.

Ops call `hexflow.cli.main(argv)` in this process with stdout and stderr
captured; each op's correctness gate runs after its timed region.  An
untraced run (`--trace 0`) measures ops for `--seconds` and reports the
end-to-end metrics.  A traced run (`--trace 1`) runs a fixed number of ops,
each once untraced and once traced, and reports the per-layer metrics; its
op count does not depend on speed, so its counts repeat exactly per seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import hexflow
from hexflow import cli

import tracing
import workloads

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "triangulation.load_surface.self_s": "s",
    **{f"conformal.{fn}.{m}": u
       for fn in ("curvature", "global_jacobian", "admissibility")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "conformal.curvature_dump.self_s": "s",
    **{f"hexagon.{fn}.{m}": u
       for fn in ("face_metric", "face_jacobian_closed")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "quadrature.line_integral.calls": "count",
    "quadrature.line_integral.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.nodes_per_call": "count",
    "solve.velocity.calls": "count",
    "solve.velocity.self_s": "s",
    "solve.run_flow.self_s": "s",
    "solve.solve_prescribed.self_s": "s",
    "solve.steps_accepted": "count",
    "solve.curvature_trials": "count",
    "solve.accept_ratio": "ratio",
    "solve.newton_iters": "count",
    "solve.line_search_trials": "count",
    "volume.relative_volume.calls": "count",
    "volume.relative_volume.self_s": "s",
    "volume.volume_hessian.self_s": "s",
    "trace_overhead": "ratio",
}
MIN_TAIL_BEYOND = 10
# Set-up repeats are spread over the timed window, so their median sees the
# same machine as the ops: about SETUP_SHARE of --seconds, 3 to 25 repeats.
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One op: exit code and captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, never below the median: with 20 samples or fewer no
    percentile above the median has ten samples beyond it, and the median is
    reported (percentile 50)."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 1 - MIN_TAIL_BEYOND  # index with exactly ten samples above it
    if k < (n - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / n


class Run:
    """One workload in one temporary directory inside the checkout."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.failures: list[str] = []
        self.attempted = 0
        self.setup_times: list[float] = []
        self.setup_dirs: list[Path] = []

    def setup(self) -> None:
        """Set up once more, in a fresh directory that replaces the last."""
        last = self.setup_dirs[-1] if self.setup_dirs else None
        d = self.workdir / f"setup{len(self.setup_dirs)}"
        d.mkdir()
        gc.collect()
        t0 = perf_counter()
        self.w.setup(d, self.seed)
        self.setup_times.append(perf_counter() - t0)
        self.setup_dirs.append(d)
        if last is not None:
            shutil.rmtree(last)

    def _one(self, i: int, op, tracer=None) -> float:
        # Freeze what the harness holds (surfaces, spans) so the cyclic
        # collector walks only the op's own objects, as in a fresh process.
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.op_id = i
            tracer.install()
        try:
            t0 = perf_counter()
            try:
                rc, err = run_cli(op.argv)
            except Exception as exc:  # an exception escaping the CLI fails the op
                rc, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
            gc.unfreeze()
        self.attempted += 1
        reason = "exception escaped the CLI" if rc is None else op.check(rc)
        if reason is not None:
            last = " ".join(err.strip().splitlines()[-1:])
            self.failures.append(f"op {i} ({op.kind}): {reason} {last}".strip())
        return dt

    def timed(self, seconds: float, max_ops: int | None = None) -> list[float]:
        """Untraced ops, in whole passes, until the next pass would end more
        than half a pass after `seconds`.  Set-up repeats fall due at even
        intervals of the window and run between passes, inside it."""
        repeats = max(SETUP_MIN_REPEATS, min(
            SETUP_MAX_REPEATS, int(SETUP_SHARE * seconds / self.setup_times[0])))
        samples = []
        t_start = perf_counter()
        i = 0
        while True:
            samples.append(self._one(i, self.w.op(i)))
            i += 1
            if max_ops is not None and i >= max_ops:
                break
            if i % self.w.pass_len == 0:
                elapsed = perf_counter() - t_start
                while (len(self.setup_times) < repeats
                       and elapsed >= len(self.setup_times) * seconds / repeats):
                    self.setup()
                    elapsed = perf_counter() - t_start
                per_pass = elapsed / (i // self.w.pass_len)
                if elapsed + 0.5 * per_pass > seconds:
                    break
        while len(self.setup_times) < SETUP_MIN_REPEATS:
            self.setup()
        return samples

    def traced(self, n_ops: int):
        """n_ops ops, each run untraced then traced.  Returns the untraced
        and traced times and the tracer holding the traced spans."""
        tracer = tracing.Tracer()
        plain, traced = [], []
        for i in range(n_ops):
            op = self.w.op(i)
            plain.append(self._one(i, op))
            traced.append(self._one(i, op, tracer))
        return plain, traced, tracer


def layer_metrics(tracer, n_ops: int, plain: list[float], traced: list[float]) -> dict:
    totals = tracing.layer_totals(tracer.spans)
    vals = {name: totals.get(name, 0.0) / n_ops for name in PER_LAYER}
    li_calls = totals.get("quadrature.line_integral.calls", 0)
    vals["quadrature.nodes_per_call"] = totals["quadrature.nodes"] / li_calls if li_calls else 0.0
    trials = totals["solve.curvature_trials"]
    vals["solve.accept_ratio"] = totals["solve.steps_accepted"] / trials if trials else 0.0
    vals["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return vals


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hexflow": hexflow.__version__,
        "seed": seed,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "processes": 1,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + workloads.BY_HAND)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="self-test size: tiny surfaces, one op (one pass of fixtures)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.make(args.workload, toy=args.toy)
    tmp_root = workloads.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    run = Run(workload, args.seed, workdir)
    try:
        run.setup()
        detail = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
        if args.trace:
            n_ops = workload.trace_ops
            plain, traced, tracer = run.traced(n_ops)
            values = layer_metrics(tracer, n_ops, plain, traced)
            units = PER_LAYER
            detail.update(ops=n_ops, spans=len(tracer.spans))
        else:
            samples = run.timed(args.seconds, max_ops=workload.pass_len if args.toy else None)
            tail_s, tail_pct = tail(samples)
            ok = run.attempted - len(run.failures)
            values = {
                "op_s.p50": statistics.median(samples),
                "op_s.tail": tail_s,
                "ops_per_s": ok / math.fsum(samples),
                "setup_s": statistics.median(run.setup_times),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END
            detail.update(samples=len(samples), tail_percentile=tail_pct,
                          setups=len(run.setup_times),
                          ops_failed=len(run.failures), ops_total=run.attempted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only when no other run is using it
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0
