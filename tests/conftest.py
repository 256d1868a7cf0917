import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import hexflow.solve
from hexflow import (
    ConformalFactor,
    CornerAlpha,
    FaceEta,
    curvature,
    default_base_point,
    load_surface,
)
from hexflow.conformal import _evaluate
from hexflow.triangulation import _parse_surface_dict

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

SURFACE_FILES = {
    ("f1", "eta0"): "f1_pants_eta0.json",
    ("f1", "eta15"): "f1_pants_eta15.json",
    ("f1", "mixed"): "f1_pants_mixed.json",
    ("f2", "eta0"): "f2_sixhex_eta0.json",
    ("f2", "eta15"): "f2_sixhex_eta15.json",
    ("f2", "mixed"): "f2_sixhex_mixed.json",
}

PROFILES = ("eta0", "eta15", "mixed")


def fixture_path(fixture: str, profile: str) -> Path:
    return FIXTURES / SURFACE_FILES[(fixture, profile)]


def load(fixture: str, profile: str):
    return load_surface(fixture_path(fixture, profile))


def torus(m: int):
    """The benchmark's m x m torus grid (n = m^2) in the mixed profile."""
    spec = importlib.util.spec_from_file_location("torus", ROOT / "benchmarks" / "torus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return _parse_surface_dict(module.torus_grid(m, "mixed"), strict=True)


@pytest.fixture(scope="session")
def pants():
    return load("f1", "eta0")


@pytest.fixture(scope="session")
def pants_mixed():
    return load("f1", "mixed")


@pytest.fixture(scope="session")
def sixhex():
    return load("f2", "eta0")


@pytest.fixture(scope="session")
def sixhex_mixed():
    return load("f2", "mixed")


def reference_factor(surface) -> ConformalFactor:
    """A deterministic, mildly asymmetric admissible factor for a surface:
    the guaranteed-admissible base point stretched per component."""
    base = default_base_point(surface).alpha
    n = surface.n_boundary
    scale = 1.0 + 0.1 * np.arange(n) / max(1, n - 1)
    return ConformalFactor(base * scale)


def alpha_third() -> float:
    return math.pi / 6.0


def random_admissible_alpha(rng, eta: FaceEta, margin=1e-3) -> CornerAlpha:
    """A uniform draw of one face's corners with every edge margin above
    margin."""
    while True:
        a = rng.uniform(margin, math.pi / 2 - margin, size=3)
        pairs = ((a[0], a[1], eta.e_ij), (a[0], a[2], eta.e_ik), (a[1], a[2], eta.e_jk))
        if all(math.cos(x + y) + e > margin for x, y, e in pairs):
            return CornerAlpha(*a)


def stub_jacobians(monkeypatch, jacobians):
    """Make solve's evaluations (the start through curvature, then every
    trial through the ungated _evaluate) return the next of jacobians in
    place of the Jacobian."""

    def stub(evaluate):
        def stubbed(s, a, jacobian=False):
            return dataclasses.replace(evaluate(s, a, jacobian), jacobian=next(jacobians))

        return stubbed

    monkeypatch.setattr(hexflow.solve, "curvature", stub(curvature))
    monkeypatch.setattr(hexflow.solve, "_evaluate", stub(_evaluate))
