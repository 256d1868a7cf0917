"""The batched segment integral against a copy of the one-segment loop it
replaced, the flow trace's pending potential column, the batched
`hexflow volume` grid against its per-point loop, and the Jacobian's CSR
data view."""

import json
import math
import warnings

import numpy as np
import pytest

import hexflow.conformal as conformal
import hexflow.quadrature as quadrature
import hexflow.solve as solve
from hexflow import (
    ConformalFactor,
    CornerAlpha,
    DomainError,
    FaceEta,
    HexflowError,
    NotAdmissible,
    PyramidChart,
    QuadratureWarning,
    curvature,
    default_base_point,
    global_jacobian,
    relative_volume,
    sample_admissible,
    volume_hessian,
)
from hexflow.cli import main
from hexflow.conformal import _check_factors, _faces, _segment_curvature_integral, curvature_dump
from hexflow.solve import FlowConfig, run_flow
from hexflow.tolerances import QUAD_INIT_NODES, QUAD_MAX_NODES, QUAD_REL_TOL
from conftest import PROFILES, fixture_path, load, reference_factor, torus


# One segment at a time, as the integral was evaluated before it was
# batched: one kernel call per level, np.dot with the weights per level.


def loop_line_integral(f, rtol=QUAD_REL_TOL, max_nodes=QUAD_MAX_NODES):
    def level(n):
        x, w = np.polynomial.legendre.leggauss(n)
        return float(np.dot(0.5 * w, f(0.5 * (x + 1.0))))

    n = QUAD_INIT_NODES
    prev = level(n)
    while n < max_nodes:
        n *= 2
        cur = level(n)
        if abs(cur - prev) < rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    warnings.warn("not converged", QuadratureWarning)
    return prev


def loop_segment_integral(s, start, end, max_nodes=QUAD_MAX_NODES):
    _check_factors(s, end)
    _check_factors(s, start)
    d = end - start
    if not np.any(d):
        return 0.0
    d_corners = d[s.corners].ravel()

    def integrand(t):
        alpha = start + t[:, None] * d
        return _faces(s, alpha).arcs.reshape(t.size, -1) @ d_corners

    return loop_line_integral(integrand, max_nodes=max_nodes)


def random_segments(s, rng, m):
    points = np.array([sample_admissible(s, rng).alpha for _ in range(m + 1)])
    starts, ends = points[:-1].copy(), points[1:].copy()
    ends[::7] = starts[::7]  # zero-length segments
    return starts, ends


def assert_matches_loop(s, starts, ends, **loop_kwargs):
    got = _segment_curvature_integral(s, starts, ends)
    want = [loop_segment_integral(s, a, b, **loop_kwargs) for a, b in zip(starts, ends)]
    assert got.tolist() == want


def kernel_calls(s, starts, ends):
    """The batched integrals and the node points of each kernel call."""
    points = []
    faces = conformal._faces

    def counted(s, alpha, jacobian=False):
        points.append(alpha[..., 0].size)
        return faces(s, alpha, jacobian)

    conformal._faces = counted
    try:
        return _segment_curvature_integral(s, starts, ends), points
    finally:
        conformal._faces = faces


@pytest.mark.parametrize("fixture", ["f1", "f2"])
@pytest.mark.parametrize("profile", PROFILES)
def test_batch_equals_one_segment_loop(fixture, profile):
    s = load(fixture, profile)
    starts, ends = random_segments(s, np.random.default_rng(11), 60)
    assert_matches_loop(s, starts, ends)


def test_batch_equals_loop_on_a_volume_chart():
    chart = PyramidChart(eta=FaceEta(-0.5, 1.0, 1.0), base_alpha=CornerAlpha(0.3, 0.3, 0.3))
    starts, ends = random_segments(chart.surface, np.random.default_rng(12), 80)
    assert_matches_loop(chart.surface, starts, ends)


def test_one_segment_view_is_a_float():
    s = load("f2", "mixed")
    a, b = default_base_point(s).alpha, reference_factor(s).alpha
    got = _segment_curvature_integral(s, a, b)
    assert type(got) is float and got == loop_segment_integral(s, a, b)
    assert _segment_curvature_integral(s, a, a) == 0.0


def test_zero_length_segments_evaluate_nothing():
    s = load("f1", "mixed")
    a = np.tile(reference_factor(s).alpha, (4, 1))
    got, calls = kernel_calls(s, a, a)
    assert got.tolist() == [0.0] * 4
    assert calls == []


def test_calls_respect_the_cap():
    s = load("f2", "eta15")  # six faces
    starts, ends = random_segments(s, np.random.default_rng(13), 150)
    moving = int(np.any(ends != starts, axis=1).sum())
    _, calls = kernel_calls(s, starts, ends)
    assert max(calls) * 6 <= conformal.BATCH_FACE_EVALS
    # the first level, 16 nodes of every moving segment, in full calls
    group = conformal.BATCH_FACE_EVALS // 6 // 16
    full, rest = divmod(moving, group)
    assert full > 1 and calls[: full + 1] == [group * 16] * full + [rest * 16]


@pytest.mark.parametrize("cap", [1, 6 * 16, 6 * 16 * 3 + 5])
def test_small_caps_keep_whole_levels(monkeypatch, cap):
    # a call holds at least one segment's whole level, even above the cap
    s = load("f2", "mixed")
    starts, ends = random_segments(s, np.random.default_rng(14), 20)
    monkeypatch.setattr(conformal, "BATCH_FACE_EVALS", cap)
    got, calls = kernel_calls(s, starts, ends)
    max_points = cap // 6
    levels = [16 * 2**i for i in range(7)]
    assert all(points in levels if points > max_points else points % 16 == 0 for points in calls)
    assert got.tolist() == [loop_segment_integral(s, a, b) for a, b in zip(starts, ends)]


def test_one_segment_refines_while_its_neighbours_stop():
    s = load("f1", "eta0")
    base = default_base_point(s).alpha
    steep = np.array([0.785, 0.785, 0.3])  # margin 8e-4: needs 256 nodes
    starts = np.array([base, base, base])
    ends = np.array([0.9 * base, steep, 1.1 * base])
    got, calls = kernel_calls(s, starts, ends)
    assert calls == [3 * 16, 3 * 32, 64, 128, 256]
    assert got.tolist() == [loop_segment_integral(s, a, b) for a, b in zip(starts, ends)]


def test_unconverged_segment_warns_once_per_segment(monkeypatch):
    s = load("f1", "eta0")
    base = default_base_point(s).alpha
    starts = np.array([base] * 4)
    # the second and the last need more than 64 nodes
    ends = np.array([0.9 * base, [0.785, 0.785, 0.3], [1.5, 0.01, 0.01], [0.7853, 0.7853, 0.785]])
    monkeypatch.setattr(quadrature, "QUAD_MAX_NODES", 64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _segment_curvature_integral(s, starts, ends)
    assert [w.category for w in caught] == [QuadratureWarning] * 2
    assert "at 64 nodes" in str(caught[0].message)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        want = [loop_segment_integral(s, a, b, max_nodes=64) for a, b in zip(starts, ends)]
    assert got.tolist() == want


def test_warns_at_the_node_cap_with_the_loops_value():
    s = load("f1", "eta0")
    base = default_base_point(s).alpha
    starts, ends = np.array([base, base]), np.array([1.1 * base, [0.78539, 0.78539, 0.2]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _segment_curvature_integral(s, starts, ends)
    assert [w.category for w in caught] == [QuadratureWarning]
    assert f"at {QUAD_MAX_NODES} nodes" in str(caught[0].message)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert got.tolist() == [loop_segment_integral(s, a, b) for a, b in zip(starts, ends)]


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.array([math.pi / 2 - 0.01, 0.7, 0.01]), NotAdmissible),  # through a facet
        (np.array([-0.1, 0.3, 0.3]), DomainError),  # out of the box
    ],
)
def test_end_point_check_raises_as_the_loop(bad, error):
    s = load("f1", "eta0")
    start = np.full(3, math.pi / 6)
    good = 0.9 * start
    with pytest.raises(error) as want:
        loop_segment_integral(s, start, bad)
    with pytest.raises(error) as got:
        _segment_curvature_integral(s, np.array([start, start, start]), np.array([good, bad, good]))
    assert str(got.value) == str(want.value)
    if error is NotAdmissible:
        # the bad end point itself, not a node on the way to it
        assert got.value.deficit == conformal.factor_margin(s, bad)
        assert np.array_equal(got.value.report.margins, want.value.report.margins)


def test_the_gate_runs_twice_per_call(monkeypatch):
    s = load("f1", "eta0")
    starts, ends = random_segments(s, np.random.default_rng(15), 40)
    base = default_base_point(s).alpha
    # the last segment refines to 256 nodes
    starts, ends = np.vstack((starts, base)), np.vstack((ends, [0.785, 0.785, 0.3]))
    gated = []
    margins = conformal.factor_margins

    def spy(s, alpha):
        gated.append(alpha.copy())
        return margins(s, alpha)

    monkeypatch.setattr(conformal, "factor_margins", spy)
    got, calls = kernel_calls(s, starts, ends)
    assert len(calls) >= 5  # levels of 16 to 256 nodes
    # ends first: a before base in energy and relative_volume
    assert len(gated) == 2
    assert np.array_equal(gated[0], ends) and np.array_equal(gated[1], starts)
    monkeypatch.undo()
    assert got.tolist() == [loop_segment_integral(s, a, b) for a, b in zip(starts, ends)]


def test_segments_along_a_facet_integrate():
    # end points with the edge-2 margin cos(a_0 + a_1) = 2e-12, just above
    # ADMISSIBILITY_EPS; the nodes between them sit as close to the facet
    s = load("f1", "eta0")
    c = math.acos(2e-12)
    points = np.array([[x, c - x, z] for x, z in
                       [(0.7, 0.3), (0.785, 0.4), (0.9, 0.5), (0.6, 0.2), (0.75, 0.05)]])
    margins = conformal.factor_margins(s, points)
    assert np.all((margins > conformal.ADMISSIBILITY_EPS) & (margins < 3e-12))
    starts, ends = points[:-1], points[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _segment_curvature_integral(s, starts, ends)
        assert got.tolist() == [loop_segment_integral(s, a, b) for a, b in zip(starts, ends)]


def test_line_integral_rows_equal_the_loop():
    fs = [lambda t: 3.0 * t**5 - 2.0 * t**2 + 1.0, lambda t: np.sqrt(np.abs(t - 1 / 3)), np.exp]
    calls = []

    def f(level):
        rows, t = level
        calls.append((rows.tolist(), t.size))
        return np.array([fs[r](t) for r in rows])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = quadrature.line_integral(f, 3, max_points=40)
    # the square root alone misses rtol at the cap
    assert [w.category for w in caught] == [QuadratureWarning]
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert got.tolist() == [loop_line_integral(g) for g in fs]
    # 40 points per call: two integrands of 16 nodes, then one of 32
    assert calls[:5] == [([0, 1], 16), ([2], 16), ([0], 32), ([1], 32), ([2], 32)]
    assert calls[5:] == [([1], n) for n in (64, 128, 256, 512, 1024)]


# The flow trace's potential column is pending until its rows are read.


def flow_problem(fixture="f2", profile="mixed"):
    s = load(fixture, profile)
    base = default_base_point(s)
    Kbar = curvature(s, ConformalFactor(base.alpha * 1.075)).K
    a0 = ConformalFactor(base.alpha * (1.0 + 0.2 * np.linspace(0.0, 1.0, s.n_boundary)))
    return s, a0, Kbar


def test_unread_flow_makes_no_quadrature_call(monkeypatch, tmp_path, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("line integral evaluated")

    monkeypatch.setattr(conformal, "line_integral", forbidden)
    s, a0, Kbar = flow_problem()
    _, trace = run_flow(s, a0, Kbar, FlowConfig(method="calabi"))
    assert trace.last("step") > 0 and trace.last("resid_inf") <= 1e-10
    assert trace.pending is not None
    factor, target = tmp_path / "a0.json", tmp_path / "target.json"
    factor.write_text(json.dumps({"alpha": a0.alpha.tolist()}))
    target.write_text(json.dumps({"K": Kbar.tolist()}))
    path = str(fixture_path("f2", "mixed"))
    assert main(["flow", path, str(factor), str(target), "--out", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().out.startswith("status=Converged steps=")


@pytest.mark.parametrize("method", ["ricci", "calabi", "fractional"])
@pytest.mark.parametrize("fixture", ["f1", "f2"])
def test_read_trace_equals_eager_reference(monkeypatch, fixture, method):
    paths = []
    pending = solve._path_potential

    def keep_path(s, path, Kbar):
        paths.append(list(path))
        return pending(s, path, Kbar)

    monkeypatch.setattr(solve, "_path_potential", keep_path)
    s, a0, Kbar = flow_problem(fixture, "mixed")
    _, trace = run_flow(s, a0, Kbar, FlowConfig(method=method, s=0.5))
    text = trace.to_csv()
    (path,) = paths
    assert len(path) == len(trace.rows) > 2

    # the potential as the flow accumulated it step by step
    base = default_base_point(s).alpha
    pot = loop_segment_integral(s, base, path[0]) - float(Kbar @ (path[0] - base))
    eager = [pot]
    for prev, a in zip(path, path[1:]):
        pot += loop_segment_integral(s, prev, a) - float(Kbar @ (a - prev))
        eager.append(pot)
    idx = trace.columns.index("potential")
    trace.rows[:] = [row[:idx] + (p,) + row[idx + 1:] for row, p in zip(trace.rows, eager)]
    assert text == trace.to_csv()


# `hexflow volume` against its per-point loop.


def loop_volume_csv(eta, base, step):
    chart = PyramidChart(eta=FaceEta(*eta), base_alpha=CornerAlpha(*base))
    lines = ["alpha_i,alpha_j,alpha_k,volume,hess_eig_min,hess_eig_max"]

    def emit(a, H):
        V = relative_volume(chart, a)
        eig = np.linalg.eigvalsh(H)
        lines.append(",".join(repr(float(x)) for x in (*a.as_tuple(), V, eig[0], eig[-1])))

    emit(chart.base_alpha, volume_hessian(chart, chart.base_alpha))
    ticks = []
    k = 1
    while k * step < 0.5 * math.pi:
        ticks.append(k * step)
        k += 1
    for a_i in ticks:
        for a_j in ticks:
            for a_k in ticks:
                try:
                    a = CornerAlpha(a_i, a_j, a_k)
                    H = volume_hessian(chart, a)
                except HexflowError:
                    continue
                emit(a, H)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "eta, base, step",
    [
        # the benchmark's three grids; -0.5 1 1 has inadmissible points
        ((0.0, 0.0, 0.0), (0.3, 0.3, 0.3), math.pi / 20),
        ((1.5, 1.5, 1.5), (0.3, 0.3, 0.3), math.pi / 20),
        ((-0.5, 1.0, 1.0), (0.3, 0.3, 0.3), math.pi / 20),
        # the default step
        ((-0.5, 1.0, 1.0), (0.25, 0.4, 0.35), None),
        # 29 of 729 points make the kernel's Jacobian overflow
        ((1e153, 1e153, 1.0), (0.3, 0.3, 0.3), math.pi / 20),
        # the base point is a grid point, whose volume is 0.0
        ((0.0, 0.0, 0.0), (2 * math.pi / 20,) * 3, math.pi / 20),
        # no tick: the base row alone
        ((0.0, 0.0, 0.0), (0.3, 0.3, 0.3), 2.0),
    ],
)
def test_volume_csv_equals_per_point_loop(tmp_path, eta, base, step):
    out = tmp_path / "vol.csv"
    argv = ["volume", "--eta", *map(repr, eta), "--base", *map(repr, base), "--out", str(out)]
    if step is not None:
        argv += ["--grid-step", repr(step)]
    assert main(argv) == 0
    assert out.read_text() == loop_volume_csv(eta, base, math.pi / 60 if step is None else step)


# The curvature Jacobian as CSR data on the surface's pattern.


def surfaces():
    return [load(f, p) for f in ("f1", "f2") for p in PROFILES] + [torus(8)]


def test_dense_and_coo_dump_equal_the_scipy_matrix():
    for s in surfaces():
        a = reference_factor(s)
        J = global_jacobian(s, a)
        assert np.array_equal(J.dense(), J.matrix.toarray())
        coo = J.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        triplets = curvature_dump(s, a)["jacobian"]
        assert {k: v.tolist() for k, v in triplets.items()} == {
            "rows": [int(r) for r in coo.row[order]],
            "cols": [int(c) for c in coo.col[order]],
            "vals": [float(v) for v in coo.data[order]],
        }


def test_jacobians_share_the_pattern():
    s = load("f2", "mixed")
    J1 = global_jacobian(s, reference_factor(s))
    J2 = global_jacobian(s, default_base_point(s))
    assert J1.pattern is J2.pattern
    assert not J1.pattern.flat.flags.writeable


# Targets must be finite and positive.


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", ["flow", "solve"])
def test_non_finite_target_exits_2(tmp_path, capsys, command, bad):
    path = str(fixture_path("f1", "eta0"))
    factor, target = tmp_path / "a0.json", tmp_path / "target.json"
    factor.write_text(json.dumps({"alpha": [math.pi / 6] * 3}))
    target.write_text(json.dumps({"K": [bad, 1.0, 1.0]}))  # Infinity, -Infinity, NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, path, str(factor), str(target), "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert caught == []
    assert "finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
