"""The array kernel and its batched callers against the scalar oracle in
hexflow.hexagon, which evaluates one face at a time."""

import math
import warnings

import numpy as np
import pytest

from hexflow import (
    ConformalFactor,
    CornerAlpha,
    DomainError,
    FaceEta,
    NotAdmissible,
    PyramidChart,
    QuadratureWarning,
    admissibility,
    curvature,
    face_jacobian_closed,
    face_metric,
    factor_margins,
    global_jacobian,
    volume_gradient,
    volume_hessian,
)
from hexflow.conformal import _segment_curvature_integral
from hexflow.kernel import face_arcs, face_kernel
from hexflow.quadrature import line_integral
from hexflow.tolerances import QUAD_INIT_NODES, QUAD_MAX_NODES, QUAD_REL_TOL
from conftest import SURFACE_FILES, load, reference_factor, torus

RTOL = 1e-13
NEAR_MARGIN = 1e-6


def near_boundary_factor(s) -> ConformalFactor:
    """A factor whose smallest edge margin lies just below NEAR_MARGIN,
    found by bisection from the reference factor toward the facet of its
    tightest edge.  With all weights 1.5 no facet cuts the box (every
    margin is at least 0.5), so there the factor sits 1e-7 from the box
    walls instead."""
    a = reference_factor(s).alpha
    if min(e.eta for e in s.edges) > 1.0:
        return ConformalFactor(np.where(np.arange(a.size) % 2 == 0, 1e-7, math.pi / 2 - 1e-7))
    rep = admissibility(s, ConformalFactor(a))
    i, j = s.edge(rep.nearest_edge).ends
    step = np.zeros_like(a)
    step[i] += 1.0
    step[j] += 1.0
    lo, hi = 0.0, (math.acos(-s.edge(rep.nearest_edge).eta) - a[i] - a[j]) / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if admissibility(s, ConformalFactor(a + mid * step)).min_margin > 0.5 * NEAR_MARGIN:
            lo = mid
        else:
            hi = mid
    near = ConformalFactor(a + lo * step)
    assert 0.25 * NEAR_MARGIN < admissibility(s, near).min_margin < NEAR_MARGIN
    return near


def oracle_faces(s, a: ConformalFactor):
    for f in s.faces:
        ca = CornerAlpha(*(a.alpha[c] for c in f.corners))
        fe = FaceEta(*s.face_etas(f))
        m = face_metric(ca, fe)
        yield f, m, face_jacobian_closed(ca, fe)


def relative_error(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


SURFACES = sorted(SURFACE_FILES)
POINTS = ("reference", "near_boundary")


def factor_at(s, point):
    return reference_factor(s) if point == "reference" else near_boundary_factor(s)


@pytest.mark.parametrize("fixture,profile", SURFACES)
@pytest.mark.parametrize("point", POINTS)
def test_kernel_matches_scalar_oracle(fixture, profile, point):
    s = load(fixture, profile)
    a = factor_at(s, point)
    got = face_kernel(a.alpha[s.corners], s.etas, jacobian=True)
    K = np.zeros(s.n_boundary)
    J = np.zeros((s.n_boundary, s.n_boundary))
    for k, (f, m, block) in enumerate(oracle_faces(s, a)):
        assert relative_error(got.lengths[k], m.lengths) <= RTOL
        assert relative_error(got.arcs[k], m.angles) <= RTOL
        assert relative_error(got.A[k], m.A) <= RTOL
        assert relative_error(got.jacobian[k], block) <= RTOL
        for p, cp in enumerate(f.corners):
            K[cp] += m.angles[p]
            for q, cq in enumerate(f.corners):
                J[cp, cq] += block[p, q]
    assert relative_error(curvature(s, a).K, K) <= RTOL
    assert relative_error(global_jacobian(s, a).dense(), J) <= RTOL


@pytest.mark.parametrize("fixture,profile", SURFACES)
@pytest.mark.parametrize("point", POINTS)
def test_kernel_jacobian_exactly_symmetric(fixture, profile, point):
    s = load(fixture, profile)
    a = factor_at(s, point)
    blocks = face_kernel(a.alpha[s.corners], s.etas, jacobian=True).jacobian
    assert np.array_equal(blocks, blocks.swapaxes(-1, -2))
    J = global_jacobian(s, a).dense()
    assert np.array_equal(J, J.T)


def test_face_arcs_is_the_arc_half_of_the_kernel():
    s = load("f2", "mixed")
    full = face_kernel(reference_factor(s).alpha[s.corners], s.etas)
    _, arcs, A = face_arcs(full.lengths)
    assert np.array_equal(arcs, full.arcs)
    assert np.array_equal(A, full.A)


def test_batch_axes_match_single_points():
    s = load("f2", "mixed")
    base = reference_factor(s).alpha
    batch = base * np.linspace(0.8, 1.1, 5)[:, None]
    got = face_kernel(batch[..., s.corners], s.etas, jacobian=True)
    for b in range(batch.shape[0]):
        one = face_kernel(batch[b][s.corners], s.etas, jacobian=True)
        for name in ("lengths", "arcs", "A", "jacobian"):
            assert relative_error(getattr(got, name)[b], getattr(one, name)) <= RTOL


# The kernel computes slot-major but returns C-ordered (..., F, k) arrays:
# the bincount and matmul reductions downstream keep their bits only then.
FIELDS = ("lengths", "arcs", "A", "jacobian")


def near_reference_batch(s, shape, seed=0):
    """Admissible factors of batch shape `shape`, within 2% of the reference
    factor component by component."""
    rng = np.random.default_rng(seed)
    spread = 0.02 * rng.uniform(-1.0, 1.0, shape + (s.n_boundary,))
    alpha = reference_factor(s).alpha * (1.0 + spread)
    assert (factor_margins(s, alpha) > 0.1).all()
    return alpha


@pytest.mark.parametrize("batch", [(), (5,), (4, 2)], ids=["one-point", "batch", "batch-2d"])
@pytest.mark.parametrize("jacobian", [False, True], ids=["no-J", "J"])
def test_kernel_outputs_are_c_contiguous(batch, jacobian):
    s = load("f2", "mixed")
    F = len(s.face_ids)
    got = face_kernel(near_reference_batch(s, batch)[..., s.corners], s.etas, jacobian)
    shapes = {"lengths": (F, 3), "arcs": (F, 3), "A": (F,), "jacobian": (F, 3, 3)}
    for name in FIELDS if jacobian else FIELDS[:3]:
        x = getattr(got, name)
        assert x.shape == batch + shapes[name], name
        assert x.flags.c_contiguous, name
    assert jacobian or got.jacobian is None


@pytest.mark.parametrize("surface", ["f2_sixhex_mixed", "torus_m8"])
@pytest.mark.parametrize("jacobian", [False, True], ids=["no-J", "J"])
def test_batch_equals_single_points_bit_for_bit(surface, jacobian):
    s = load("f2", "mixed") if surface == "f2_sixhex_mixed" else torus(8)
    alpha = near_reference_batch(s, (64, 32))
    got = face_kernel(alpha[..., s.corners], s.etas, jacobian)
    singles = [face_kernel(a[s.corners], s.etas, jacobian) for a in alpha.reshape(-1, s.n_boundary)]
    for name in FIELDS if jacobian else FIELDS[:3]:
        one_by_one = np.array([getattr(v, name) for v in singles])
        assert np.array_equal(getattr(got, name), one_by_one.reshape(getattr(got, name).shape)), name


def test_face_arcs_batch_equals_single_lengths():
    s = load("f2", "mixed")
    lengths = face_kernel(near_reference_batch(s, (16,))[..., s.corners], s.etas).lengths
    with np.errstate(all="ignore"):
        got = face_arcs(lengths)
        singles = [face_arcs(L) for L in lengths]
    for k, name in enumerate(("sinh", "arcs", "A")):
        assert got[k].flags.c_contiguous, name
        assert np.array_equal(got[k], np.array([one[k] for one in singles])), name


@pytest.mark.parametrize("bad, what", [
    (0.0, "edge length"), (-0.0, "edge length"), (-1.0, "edge length"),
    (math.inf, "edge length"), (math.nan, "edge length"),
    (1e-320, "boundary arc"), (800.0, "boundary arc"),
])
def test_face_arcs_names_the_failing_face(bad, what):
    # three faces; only the middle one has a side that fails
    lengths = np.full((3, 3), 1.0)
    lengths[1, 2] = bad
    with np.errstate(all="ignore"), pytest.raises(DomainError, match=f"^face 1: {what} not"):
        face_arcs(lengths)


def test_segment_integral_matches_scalar_oracle():
    # the batched integrand against the node-by-node scalar route
    s = load("f2", "mixed")
    start = reference_factor(s).alpha
    end = 0.8 * start

    def scalar_K_dot_d(t):
        a = ConformalFactor(start + t * (end - start))
        K = np.zeros(s.n_boundary)
        for f, m, _ in oracle_faces(s, a):
            for p, c in enumerate(f.corners):
                K[c] += m.angles[p]
        return float(K @ (end - start))

    want = loop_line_integral(scalar_K_dot_d)
    assert _segment_curvature_integral(s, start, end) == pytest.approx(want, rel=RTOL)


def test_segment_integral_gates_its_end_points():
    s = load("f1", "eta0")
    start = np.full(3, math.pi / 6)
    # no quadrature node is gated: these errors come from the gate on the
    # end points, which rejects the bad end itself
    with pytest.raises(NotAdmissible) as err:
        _segment_curvature_integral(s, start, np.array([math.pi / 2 - 0.01, 0.7, 0.01]))
    assert err.value.report is not None and not err.value.report.admissible
    with pytest.raises(DomainError):
        _segment_curvature_integral(s, start, np.array([-0.1, 0.3, 0.3]))


def test_volume_matches_scalar_oracle():
    eta = FaceEta(-0.5, 1.0, 1.0)
    chart = PyramidChart(eta=eta, base_alpha=CornerAlpha(0.25, 0.25, 0.25))
    a = CornerAlpha(0.35, 0.3, 0.42)
    m = face_metric(a, eta)
    assert relative_error(volume_gradient(chart, a), -0.5 * np.array(m.angles)) <= RTOL
    assert relative_error(volume_hessian(chart, a), -0.5 * face_jacobian_closed(a, eta)) <= RTOL


class TestNonFinite:
    def test_sine_underflow_raises_domain_error_naming_face(self):
        s = load("f1", "eta0")
        a = ConformalFactor(np.array([1e-170, 1e-170, 0.5]))
        with pytest.raises(DomainError, match="face 0"):
            curvature(s, a)
        with pytest.raises(DomainError, match="face 0"):
            global_jacobian(s, a)


def loop_line_integral(f, rtol=QUAD_REL_TOL):
    """The node-by-node form of line_integral: same nodes, weights,
    doubling and stopping rule, with a scalar integrand."""
    n = QUAD_INIT_NODES
    x, w = np.polynomial.legendre.leggauss(n)
    prev = float(np.dot(0.5 * w, [f(ti) for ti in 0.5 * (x + 1.0)]))
    while n < QUAD_MAX_NODES:
        n *= 2
        x, w = np.polynomial.legendre.leggauss(n)
        cur = float(np.dot(0.5 * w, [f(ti) for ti in 0.5 * (x + 1.0)]))
        if abs(cur - prev) < rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


class TestLineIntegral:
    @staticmethod
    def counted(f):
        sizes = []

        def g(level):
            _, t = level
            sizes.append(len(t))
            return f(t)[None]

        return g, sizes

    @pytest.mark.parametrize(
        "f, levels",
        [
            (lambda t: 3.0 * t**5 - 2.0 * t**2 + 1.0, [16, 32]),
            (lambda t: np.exp(np.sin(3.0 * t)) / (1.0 + t * t), [16, 32]),
        ],
    )
    def test_one_call_per_level_matches_loop(self, f, levels):
        g, sizes = self.counted(f)
        got = line_integral(g)
        assert sizes == levels
        assert got == pytest.approx(loop_line_integral(lambda t: float(f(t))), rel=1e-14, abs=1e-14)

    def test_warns_at_node_cap(self):
        g, sizes = self.counted(np.exp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = line_integral(g, rtol=0.0)
        assert any(issubclass(w.category, QuadratureWarning) for w in caught)
        assert sizes == [16, 32, 64, 128, 256, 512, 1024]
        assert got == pytest.approx(math.e - 1.0, rel=1e-14)
