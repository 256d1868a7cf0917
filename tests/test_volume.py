import math

import numpy as np
import pytest

from hexflow import (
    CornerAlpha,
    FaceEta,
    NotAdmissible,
    PyramidChart,
    face_metric,
    relative_volume,
    volume_gradient,
    volume_hessian,
)
from conftest import random_admissible_alpha

ETA_PROFILES = [
    (0.0, 0.0, 0.0),
    (1.5, 1.5, 1.5),
    (-0.5, 1.0, 1.0),
]


def chart_for(etas):
    base = CornerAlpha(0.25, 0.25, 0.25)
    return PyramidChart(eta=FaceEta(*etas), base_alpha=base)


def test_zero_at_base():
    for etas in ETA_PROFILES:
        chart = chart_for(etas)
        assert relative_volume(chart, chart.base_alpha) == 0.0


def test_shrinking_angles_increases_volume():
    # moving from pi/6 to pi/8 with positive arcs and negative da gives
    # -1/2 integral th . da > 0
    chart = PyramidChart(
        eta=FaceEta(0.0, 0.0, 0.0),
        base_alpha=CornerAlpha(math.pi / 6, math.pi / 6, math.pi / 6),
    )
    V = relative_volume(chart, CornerAlpha(math.pi / 8, math.pi / 8, math.pi / 8))
    assert V > 0.0


def test_path_independence():
    chart = chart_for((-0.5, 1.0, 1.0))
    a = CornerAlpha(0.35, 0.3, 0.42)
    mid = CornerAlpha(0.33, 0.26, 0.31)
    direct = relative_volume(chart, a)
    leg1 = relative_volume(chart, mid)
    leg2 = relative_volume(PyramidChart(eta=chart.eta, base_alpha=mid), a)
    assert abs(direct - (leg1 + leg2)) < 1e-8


def test_inadmissible_target_rejected():
    chart = chart_for((0.0, 0.0, 0.0))
    with pytest.raises(NotAdmissible):
        relative_volume(chart, CornerAlpha(0.8, 0.8, 0.3))


def test_gradient_is_minus_half_arcs():
    chart = chart_for((0.3, -0.2, 0.8))
    a = CornerAlpha(0.4, 0.45, 0.5)
    g = volume_gradient(chart, a)
    m = face_metric(a, chart.eta)
    assert np.allclose(g, -0.5 * np.array(m.angles), rtol=1e-14)
    h = 1e-6
    base = list(a.as_tuple())
    for i in range(3):
        hi, lo = list(base), list(base)
        hi[i] += h
        lo[i] -= h
        fd = (
            relative_volume(chart, CornerAlpha(*hi))
            - relative_volume(chart, CornerAlpha(*lo))
        ) / (2 * h)
        assert fd == pytest.approx(g[i], rel=1e-6)


def test_hessian_matches_second_differences():
    chart = chart_for((-0.5, 1.0, 1.0))
    a = CornerAlpha(0.3, 0.35, 0.4)
    H = volume_hessian(chart, a)
    assert np.abs(H - H.T).max() <= 1e-10 * max(1.0, np.abs(H).max())
    h = 1e-4
    base = list(a.as_tuple())
    Hfd = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            tpp, tpm, tmp, tmm = (list(base) for _ in range(4))
            tpp[i] += h
            tpp[j] += h
            tpm[i] += h
            tpm[j] -= h
            tmp[i] -= h
            tmp[j] += h
            tmm[i] -= h
            tmm[j] -= h
            Hfd[i, j] = (
                relative_volume(chart, CornerAlpha(*tpp))
                - relative_volume(chart, CornerAlpha(*tpm))
                - relative_volume(chart, CornerAlpha(*tmp))
                + relative_volume(chart, CornerAlpha(*tmm))
            ) / (4 * h * h)
    scale = np.abs(H).max()
    assert np.abs(H - Hfd).max() / scale < 1e-4


@pytest.mark.parametrize("etas", ETA_PROFILES)
def test_concave_everywhere_sampled(etas):
    chart = chart_for(etas)
    rng = np.random.default_rng(60)
    for _ in range(100):
        a = random_admissible_alpha(rng, chart.eta)
        H = volume_hessian(chart, a)
        assert np.linalg.eigvalsh(H).max() < 0.0


def test_concavity_along_chords():
    chart = chart_for((-0.5, 1.0, 1.0))
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = np.array(random_admissible_alpha(rng, chart.eta, margin=5e-3).as_tuple())
        q = np.array(random_admissible_alpha(rng, chart.eta, margin=5e-3).as_tuple())
        Vp = relative_volume(chart, CornerAlpha(*p))
        Vq = relative_volume(chart, CornerAlpha(*q))
        Vm = relative_volume(chart, CornerAlpha(*(0.5 * (p + q))))
        margin = Vm - 0.5 * (Vp + Vq)
        if np.abs(p - q).max() > 1e-3:
            assert margin > 0.0
        else:
            assert margin > -1e-12


def test_chart_requires_admissible_base():
    with pytest.raises(NotAdmissible):
        PyramidChart(eta=FaceEta(0.0, 0.0, 0.0), base_alpha=CornerAlpha(0.8, 0.8, 0.8))


def test_volume_run_gates_each_point_once(monkeypatch, capsys):
    # the chart gates its base, volume_grid gates the grid, and the line
    # integral of the volumes gates neither again
    from hexflow import conformal, volume
    from hexflow.cli import main

    gated = []
    margins = conformal.factor_margins

    def spy(s, alpha):
        gated.append(alpha.shape)
        return margins(s, alpha)

    monkeypatch.setattr(conformal, "factor_margins", spy)
    monkeypatch.setattr(volume, "factor_margins", spy)
    args = ["volume", "--eta", "1.5", "1.5", "1.5", "--base", "0.3", "0.3", "0.3",
            "--grid-step", str(math.pi / 20)]
    assert main(args) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(gated) == 2
    assert gated[0] == (3,) and gated[1] == (1 + 9**3, 3)  # the base, then row 0 and the grid
    assert len(rows) > 1
