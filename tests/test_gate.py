"""The admissibility gate `factor_margin`, the length check every surface
evaluation shares through it, the names the benchmark tracer wraps, and
guards that survive `python -O`."""

import ast
import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from hexflow import (
    ConformalFactor,
    LengthMismatch,
    admissibility,
    curvature,
    energy,
    factor_margin,
    factor_margins,
    global_jacobian,
    sample_admissible,
)
from hexflow.conformal import curvature_dump
from conftest import PROFILES, load, reference_factor

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"
SOURCES = sorted((ROOT / "src" / "hexflow").glob("*.py"))


@pytest.mark.parametrize("fixture", ["f1", "f2"])
@pytest.mark.parametrize("profile", PROFILES)
def test_gate_is_the_reports_min_margin(fixture, profile):
    s = load(fixture, profile)
    rng = np.random.default_rng(17)
    factors = [sample_admissible(s, rng, margin=0.0) for _ in range(10)]
    for a in factors:
        assert factor_margin(s, a.alpha) == admissibility(s, a).min_margin
    # a batch of rows gates on its worst row
    rows = np.array([a.alpha for a in factors])
    assert factor_margin(s, rows) == min(admissibility(s, a).min_margin for a in factors)


@pytest.mark.parametrize("value", [0.0, math.pi / 2, math.nan])
def test_gate_is_minus_inf_off_the_open_box(pants, value):
    alpha = np.array([0.3, value, 0.3])
    assert factor_margin(pants, alpha) == -math.inf
    rows = np.array([[0.3, 0.3, 0.3], alpha])
    assert factor_margin(pants, rows) == -math.inf


@pytest.mark.parametrize("value", [1e308, -1e308, math.inf])
def test_gate_is_silent_far_off_the_box(pants, value):
    # a_i + a_j overflows, or is inf - inf: -inf without a RuntimeWarning
    alpha = np.array([[value, value, 0.3], [value, -value, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factor_margins(pants, alpha).tolist() == [-math.inf, -math.inf]


@pytest.mark.parametrize("value", [0.0, math.pi / 2, math.nan, math.inf])
def test_per_row_gate(pants, value):
    rows = np.array([[0.3, 0.3, 0.3], [0.3, value, 0.3], [0.5, 0.6, 0.4]])
    margins = factor_margins(pants, rows)
    assert margins.tolist() == [factor_margin(pants, row) for row in rows]
    assert margins[1] == -math.inf and factor_margin(pants, rows) == margins.min()
    grid = np.stack([rows, rows[::-1]])
    assert np.array_equal(factor_margins(pants, grid), np.stack([margins, margins[::-1]]))


def _evaluations():
    def energy_at(s, a):
        return energy(s, a)

    def energy_from(s, a):
        return energy(s, reference_factor(s), a)

    return [curvature, global_jacobian, energy_at, energy_from, admissibility, curvature_dump]


@pytest.mark.parametrize("evaluate", _evaluations(), ids=lambda f: f.__name__)
@pytest.mark.parametrize("extra", [-1, 1])
def test_wrong_length_raises_length_mismatch(pants, evaluate, extra):
    a = ConformalFactor(np.full(pants.n_boundary + extra, 0.3))
    with pytest.raises(LengthMismatch):
        evaluate(pants, a)
    with pytest.raises(LengthMismatch):
        factor_margin(pants, a.alpha)


def _tracer_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


@pytest.mark.parametrize("module,function,kind", _tracer_targets())
def test_benchmark_tracer_targets_exist(module, function, kind):
    # the benchmark wraps these names by identity; a rename would silently
    # drop its span
    assert callable(getattr(importlib.import_module(f"hexflow.{module}"), function, None))


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_guards(path):
    # python -O strips assert statements, so every guard must raise
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements at lines {lines}"


def test_solve_evaluates_through_curvature_only():
    # flows and Newton take J from their one curvature call per point
    solve = importlib.import_module("hexflow.solve")
    assert not hasattr(solve, "global_jacobian")
