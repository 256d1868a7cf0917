"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS line when it holds; a failed assertion marks
the criterion failed.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest

from hexflow import (
    ConformalFactor,
    CornerAlpha,
    FaceEta,
    FlowConfig,
    PyramidChart,
    chain_global_jacobian,
    curvature,
    curvature_from_lengths,
    default_base_point,
    det_length_alpha_jacobian,
    det_lower_bound,
    diagonal_identity_residuals,
    edge_length_alpha,
    energy,
    face_jacobian_fd,
    face_jacobian_closed,
    face_metric,
    fd_global_jacobian,
    global_jacobian,
    length_jacobian_fd,
    relative_volume,
    run_flow,
    sample_admissible,
    solve_prescribed,
    volume_hessian,
)
from hexflow.errors import HexflowError
from hexflow.solve import CONVERGED
from conftest import PROFILES, load, reference_factor

FIXTURE_KEYS = ["f1", "f2"]
N_SAMPLES = 100

ETA_FACE_PROFILES = {
    "eta0": (0.0, 0.0, 0.0),
    "eta15": (1.5, 1.5, 1.5),
    "mixed": (-0.5, 1.0, 1.0),
}


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def seeded_samples(surface, seed, count=N_SAMPLES, margin=1e-4):
    rng = np.random.default_rng(seed)
    return [sample_admissible(surface, rng, margin=margin) for _ in range(count)]


def each_surface():
    for fixture in FIXTURE_KEYS:
        for profile in PROFILES:
            yield fixture, profile, load(fixture, profile)


def face_states(surface, factor):
    for f in surface.faces:
        ca = CornerAlpha(*(factor.alpha[c] for c in f.corners))
        fe = FaceEta(*surface.face_etas(f))
        yield f, ca, fe, face_metric(ca, fe)


def test_criterion_1_jacobian_symmetry():
    worst = 0.0
    for fixture, profile, s in each_surface():
        for a in seeded_samples(s, seed=1):
            J = chain_global_jacobian(s, a)
            worst = max(worst, J.symmetry_residual())
            assert J.symmetry_residual() <= 1e-10
    report(1, f"Jacobian symmetry residual <= 1e-10 (worst {worst:.2e})")


def test_criterion_2_positive_definiteness():
    worst = math.inf
    for fixture, profile, s in each_surface():
        for a in seeded_samples(s, seed=2):
            m = global_jacobian(s, a).min_eigenvalue()
            worst = min(worst, m)
            assert m > 0.0
    report(2, f"global Jacobian positive definite (min eigenvalue {worst:.3e})")


def test_criterion_3_closed_form_vs_fd():
    # interior sampling margin: central differences of the length map lose
    # accuracy near the polytope facets where l ~ sqrt(margin)
    worst_face = 0.0
    worst_global = 0.0
    for fixture, profile, s in each_surface():
        for a in seeded_samples(s, seed=3, margin=1e-2):
            for _f, ca, fe, m in face_states(s, a):
                J = face_jacobian_closed(ca, fe)
                F = face_jacobian_fd(ca, fe, h=1e-6)
                dev = np.abs(J - F).max() / max(1.0, np.abs(J).max())
                worst_face = max(worst_face, dev)
                assert dev < 1e-5
            dense = global_jacobian(s, a).dense()
            fd = fd_global_jacobian(s, a)
            dev = np.abs(dense - fd).max() / max(1.0, np.abs(dense).max())
            worst_global = max(worst_global, dev)
            assert dev < 1e-5
    report(
        3,
        "closed-form Jacobians match central differences to 1e-5 "
        f"(worst face {worst_face:.2e}, global {worst_global:.2e})",
    )


def test_criterion_4_zero_weight_identity():
    worst = 0.0
    for fixture in FIXTURE_KEYS:
        s = load(fixture, "eta0")
        for a in seeded_samples(s, seed=4):
            for _f, ca, fe, m in face_states(s, a):
                res = max(abs(r) for r in diagonal_identity_residuals(ca, fe))
                worst = max(worst, res)
                assert res <= 1e-9
    report(4, f"zero-weight diagonal identity residual <= 1e-9 (worst {worst:.2e})")


def test_criterion_5_determinant_formula():
    worst_dev = 0.0
    for fixture, profile, s in each_surface():
        for a in seeded_samples(s, seed=5, count=40, margin=1e-2):
            for _f, ca, fe, m in face_states(s, a):
                det_fd = float(np.linalg.det(length_jacobian_fd(ca, fe)))
                det = det_length_alpha_jacobian(ca, fe)
                dev = abs(det - det_fd) / abs(det)
                worst_dev = max(worst_dev, dev)
                assert dev < 1e-6
                assert det > 0.0
                assert det >= det_lower_bound(ca, fe) - 1e-9
    report(
        5,
        "length-Jacobian determinant matches FD to 1e-6, positive, above "
        f"product bound (worst dev {worst_dev:.2e})",
    )


def test_criterion_6_rigidity_round_trip():
    worst = 0.0
    for fixture, profile, s in each_surface():
        abar = reference_factor(s)
        Kbar = curvature(s, abar).K
        rng = np.random.default_rng(6)
        for _ in range(10):
            a0 = sample_admissible(s, rng, margin=1e-3)
            sol, log = solve_prescribed(s, a0, Kbar)
            assert log.status == CONVERGED
            err = float(np.abs(sol.alpha - abar.alpha).max())
            worst = max(worst, err)
            assert err < 1e-8
    report(6, f"Newton recovers the generating factor from 10 starts (worst {worst:.2e})")


FLOW_CASES = [("ricci", 0.0), ("calabi", 0.0), ("fractional", 0.5), ("fractional", 2.0)]


@pytest.fixture(scope="module")
def flow_traces():
    traces = {}
    for fixture, profile, s in each_surface():
        abar = reference_factor(s)
        Kbar = curvature(s, abar).K
        n = s.n_boundary
        delta = 0.02 * np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        a0 = ConformalFactor(abar.alpha + delta)
        for method, sval in FLOW_CASES:
            cfg = FlowConfig(method=method, s=sval, tol=1e-10)
            result, trace = run_flow(s, a0, Kbar, cfg)
            traces[(fixture, profile, method, sval)] = (abar, result, trace)
    return traces


def test_criterion_7_flow_convergence(flow_traces):
    slowest = 0
    for (fixture, profile, method, sval), (abar, result, trace) in flow_traces.items():
        assert trace.status == CONVERGED, (fixture, profile, method, sval)
        assert trace.rows[-1][3] <= 1e-10
        cal = trace.column("calabi_energy")
        assert np.all(np.diff(cal) <= 0.0)
        # geometric decay envelope: resid_k <= resid_0 exp(-rho t_k) for a
        # positive rho, and the tail itself decays exponentially (the head
        # and tail rates differ when dt sits near the Euler stability edge)
        t = trace.column("t")
        resid = trace.column("resid_inf")
        pos = resid > 0.0
        rho_env = np.min(
            (np.log(resid[0]) - np.log(resid[1:][pos[1:]])) / t[1:][pos[1:]]
        )
        assert rho_env > 0.0
        sel = pos & (t >= 0.5 * t[-1])
        if sel.sum() < 2:
            sel = pos
        tail_slope = np.polyfit(t[sel], np.log(resid[sel]), 1)[0]
        assert tail_slope < 0.0
        slowest = max(slowest, trace.rows[-1][0])
    report(
        7,
        "ricci/calabi/fractional(0.5, 2) flows converge to 1e-10 with "
        f"monotone Calabi energy and geometric envelope (max {slowest} steps)",
    )


def test_criterion_8_reduction_identities():
    for fixture in FIXTURE_KEYS:
        s = load(fixture, "eta0")
        abar = reference_factor(s)
        Kbar = curvature(s, abar).K
        a0 = ConformalFactor(abar.alpha + 0.02 * np.array([1.0, -1.0, 1.0]))
        _, t_r = run_flow(s, a0, Kbar, FlowConfig(method="ricci"))
        _, t_f0 = run_flow(s, a0, Kbar, FlowConfig(method="fractional", s=0.0))
        assert t_r.to_csv() == t_f0.to_csv()
        _, t_c = run_flow(s, a0, Kbar, FlowConfig(method="calabi"))
        _, t_f1 = run_flow(s, a0, Kbar, FlowConfig(method="fractional", s=1.0))
        assert t_c.to_csv() == t_f1.to_csv()
    report(8, "fractional flow with s=0 and s=1 reproduces ricci and calabi traces bitwise")


def test_criterion_9_closed_one_forms():
    # energy 1-form on the mixed six-hexagon fixture
    s = load("f2", "mixed")
    base = default_base_point(s)
    a = reference_factor(s)
    via = ConformalFactor(0.5 * (a.alpha + base.alpha) + 0.01 * np.array([1, -1, 1]))
    direct = energy(s, a, base)
    dogleg = energy(s, via, base) + energy(s, a, via)
    assert abs(direct - dogleg) < 1e-8

    K = curvature(s, a).K
    h = 1e-6
    for i in range(s.n_boundary):
        hi, lo = a.alpha.copy(), a.alpha.copy()
        hi[i] += h
        lo[i] -= h
        g = (
            energy(s, ConformalFactor(hi), base) - energy(s, ConformalFactor(lo), base)
        ) / (2 * h)
        assert g == pytest.approx(K[i], rel=1e-6)

    # volume 1-form on a single face
    chart = PyramidChart(eta=FaceEta(-0.5, 1.0, 1.0), base_alpha=CornerAlpha(0.25, 0.25, 0.25))
    target = CornerAlpha(0.35, 0.3, 0.42)
    mid = CornerAlpha(0.33, 0.26, 0.31)
    direct_v = relative_volume(chart, target)
    dogleg_v = relative_volume(chart, mid) + relative_volume(
        PyramidChart(eta=chart.eta, base_alpha=mid), target
    )
    assert abs(direct_v - dogleg_v) < 1e-8

    m = face_metric(target, chart.eta)
    base_t = list(target.as_tuple())
    for i in range(3):
        hi, lo = list(base_t), list(base_t)
        hi[i] += h
        lo[i] -= h
        g = (
            relative_volume(chart, CornerAlpha(*hi))
            - relative_volume(chart, CornerAlpha(*lo))
        ) / (2 * h)
        assert g == pytest.approx(-0.5 * m.angles[i], rel=1e-6)
    report(9, "energy and volume 1-forms are closed (dog-leg 1e-8) with exact gradients to 1e-6")


def test_criterion_10_volume_concavity_grid():
    step = math.pi / 60
    ticks = [k * step for k in range(1, 30)]
    counts = {}
    for name, etas in ETA_FACE_PROFILES.items():
        eta = FaceEta(*etas)
        base = CornerAlpha(0.25, 0.25, 0.25)
        chart = PyramidChart(eta=eta, base_alpha=base)
        count = 0
        for a_i in ticks:
            for a_j in ticks:
                for a_k in ticks:
                    try:
                        a = CornerAlpha(a_i, a_j, a_k)
                        H = volume_hessian(chart, a)
                    except HexflowError:
                        continue
                    assert np.linalg.eigvalsh(H).max() < 0.0
                    count += 1
        assert count > 0
        counts[name] = count
    report(
        10,
        "volume Hessian negative definite on the pi/60 grid "
        f"({', '.join(f'{k}: {v} pts' for k, v in counts.items())})",
    )


def test_criterion_11_boundary_behavior(flow_traces):
    s = load("f1", "eta0")

    # (a) alpha-space ray toward the facet a_0 + a_1 = arccos(0): curvature
    # grows monotonically and exceeds 10 at a representable ray parameter
    # (the ray stops where the margin hits the kernel floor ~1e-12)
    prev = -math.inf
    first_over_10 = None
    shifts = [2.0**-k for k in range(2, 40)]
    for shift in shifts:
        a = ConformalFactor(
            np.array([math.pi / 4 - shift, math.pi / 4 - shift, math.pi / 8])
        )
        K = curvature(s, a).K
        assert K[0] > prev
        prev = K[0]
        if first_over_10 is None and K[0] > 10.0:
            first_over_10 = shift
    assert first_over_10 is not None

    # (b) the same ray continued past float resolution of the factor: the
    # pinched edge length is an exact monotone reparameterization of the ray
    # parameter, and the other lengths converge to their facet limits
    l_limit = edge_length_alpha(math.pi / 4, math.pi / 8, 0.0)
    exceed_at = {}
    prev_K = -math.inf
    for l_pinch in [math.exp(-4), math.exp(-8), math.exp(-16), math.exp(-50),
                    math.exp(-120), math.exp(-500)]:
        K = curvature_from_lengths(
            s, {0: l_limit, 1: l_limit, 2: l_pinch}
        )
        assert K[0] > prev_K
        prev_K = K[0]
        for bound in (10.0, 100.0, 1000.0):
            if bound not in exceed_at and K[0] > bound:
                exceed_at[bound] = l_pinch
    assert set(exceed_at) == {10.0, 100.0, 1000.0}
    assert exceed_at[10.0] > exceed_at[100.0] > exceed_at[1000.0]

    # (c) accepted flow steps never dip below the admissibility margin
    for (_fx, _pr, _m, _s), (_abar, _res, trace) in flow_traces.items():
        assert np.all(trace.column("min_margin") >= 1e-9)
    report(
        11,
        "curvature exceeds 10/100/1000 monotonically along the pinching ray "
        f"(pinched lengths {exceed_at[10.0]:.1e}/{exceed_at[100.0]:.1e}/"
        f"{exceed_at[1000.0]:.1e}); flow margins never underflow 1e-9",
    )


def test_criterion_12_worked_value():
    s = load("f1", "eta0")
    a = ConformalFactor(np.full(3, math.pi / 6))
    K = curvature(s, a).K
    expected = 2.0 * math.acosh(1.5)
    assert np.abs(K - expected).max() <= 1e-9
    report(12, f"pair of pants at pi/6 has boundary lengths {expected:.10f} (+-1e-9)")
