import math

import numpy as np
import pytest

from hexflow import (
    CornerAlpha,
    DomainError,
    FaceEta,
    NotAdmissible,
    central_difference,
    det_length_alpha_jacobian,
    det_lower_bound,
    diagonal_identity_residuals,
    edge_length_alpha,
    edge_length_u,
    face_jacobian_chain,
    face_jacobian_closed,
    face_jacobian_fd,
    face_metric,
    hexagon_angles,
    length_jacobian_fd,
)
from hexflow.hexagon import acosh1p, cosine_law_residual, length_alpha_jacobian
from conftest import random_admissible_alpha

ARCCOSH3 = math.acosh(3.0)

# weight triples: zero, uniformly large, and a sign-mixed set satisfying the
# per-face inequalities
ETA_TRIPLES = [
    (0.0, 0.0, 0.0),
    (1.5, 1.5, 1.5),
    (-0.5, 1.0, 1.0),
    (0.3, -0.2, 0.8),
]


class TestEdgeLength:
    def test_value_pi_sixth(self):
        assert edge_length_alpha(math.pi / 6, math.pi / 6, 0.0) == pytest.approx(
            ARCCOSH3, abs=1e-12
        )

    def test_boundary_of_admissibility(self):
        with pytest.raises(NotAdmissible) as err:
            edge_length_alpha(math.pi / 4, math.pi / 4, 0.0)
        assert err.value.deficit == pytest.approx(0.0, abs=1e-15)

    def test_underflowing_sines_are_log_safe(self):
        # sin(1e-170)^2 underflows to 0 and e^(2 u) overflows at the same
        # corner, u = -log tan(1e-170); both forms give the finite length
        expect = 783.57207879853548  # mpmath at 60 digits
        assert edge_length_alpha(1e-170, 1e-170, 0.0) == pytest.approx(expect, rel=1e-13)
        u = 391.43946580898777
        assert edge_length_u(u, u, 0.0) == pytest.approx(expect, rel=1e-13)

    # edge_length_alpha switches to log t where t = cosh(l) - 1 exceeds 1e12
    # (a_i = a_j near 1e-6), edge_length_u where log_root exceeds 700
    # (u_i = u_j near 350); points on each side of both switches
    @pytest.mark.parametrize("a", [1e-5, 2e-6, 1e-6, 5e-7, 1e-100, 1e-170, 5e-324])
    @pytest.mark.parametrize("eta", [0.0, 0.5, -0.3])
    def test_alpha_form_matches_mpmath(self, a, eta):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            x, e = mp.mpf(a), mp.mpf(eta)
            expect = mp.acosh(1 + (mp.cos(2 * x) + e) / mp.sin(x) ** 2)
        assert edge_length_alpha(a, a, eta) == pytest.approx(float(expect), rel=1e-13)

    @pytest.mark.parametrize("u", [340.0, 349.9, 350.1, 360.0, 391.43946580898777, 1e4])
    @pytest.mark.parametrize("u_j, eta", [("u", 0.0), ("u", 2.0), (-5.0, 0.5), (3.0, -0.5)])
    def test_u_form_matches_mpmath(self, u, u_j, eta):
        mp = pytest.importorskip("mpmath")
        u_j = u if u_j == "u" else u_j
        with mp.workdps(60):
            x, y, e = mp.mpf(u), mp.mpf(u_j), mp.mpf(eta)
            root = mp.sqrt((1 + mp.exp(2 * x)) * (1 + mp.exp(2 * y)))
            expect = mp.acosh(1 + mp.expm1(x + y) + e * root)
        assert edge_length_u(u, u_j, eta) == pytest.approx(float(expect), rel=1e-13)

    def test_u_beyond_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError):
            edge_length_u(1e308, 1e308, 0.0)

    def test_large_weight_value(self):
        got = edge_length_alpha(math.pi / 3, math.pi / 3, 2.0)
        assert got == pytest.approx(math.acosh((0.25 + 2.0) / 0.75), rel=1e-14)
        assert got == pytest.approx(ARCCOSH3, rel=1e-14)

    def test_u_form_values(self):
        assert edge_length_u(0.0, 0.0, 1.0) == pytest.approx(math.acosh(3.0), rel=1e-14)
        with pytest.raises(NotAdmissible):
            edge_length_u(0.0, 0.0, 0.0)  # degenerate, argument exactly 1

    def test_u_form_matches_alpha_form_at_pi_sixth(self):
        u = math.log(math.sqrt(3.0))  # -log tan(pi/6)
        assert edge_length_u(u, u, 0.0) == pytest.approx(ARCCOSH3, rel=1e-12)

    def test_parameterizations_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            u_i, u_j = rng.uniform(-3.0, 3.0, size=2)
            eta = rng.uniform(-0.8, 3.0)
            a_i = math.atan(math.exp(-u_i))
            a_j = math.atan(math.exp(-u_j))
            try:
                l_alpha = edge_length_alpha(a_i, a_j, eta)
            except NotAdmissible:
                continue
            l_u = edge_length_u(u_i, u_j, eta)
            assert l_u == pytest.approx(l_alpha, rel=1e-12)

    def test_extreme_u_is_overflow_safe(self):
        for u_i, u_j in [(30.0, 30.0), (-30.0, -30.0), (30.0, -30.0)]:
            val = edge_length_u(u_i, u_j, 2.0)
            assert math.isfinite(val) and val > 0.0
        # also consistent with the angle form at the extremes
        u = 30.0
        a = math.atan(math.exp(-u))
        assert edge_length_u(u, u, 2.0) == pytest.approx(
            edge_length_alpha(a, a, 2.0), rel=1e-12
        )


class TestHexagonAngles:
    def test_equilateral_value(self):
        th_i, th_j, th_k, A = hexagon_angles(ARCCOSH3, ARCCOSH3, ARCCOSH3)
        expected = math.acosh(1.5)  # cosh(th) = 3*4/8
        for th in (th_i, th_j, th_k):
            assert th == pytest.approx(expected, abs=1e-12)
        assert A == pytest.approx(8.0 * math.sinh(expected), rel=1e-12)

    def test_equilateral_large_length_limit(self):
        # equal sides L: cosh(th) = cosh(L) / (cosh(L) - 1), decreasing in L;
        # evaluate the oracle as arccosh(1 + t) with t = 1/(cosh L - 1) to
        # keep it accurate when th is tiny
        prev = math.inf
        for L in (1.0, 2.0, 5.0, 10.0, 20.0):
            th = hexagon_angles(L, L, L)[0]
            t = 1.0 / (math.cosh(L) - 1.0)
            expected = math.log1p(t + math.sqrt(t * (t + 2.0)))
            assert th == pytest.approx(expected, rel=1e-10)
            assert th < prev
            prev = th
        th5 = hexagon_angles(5.0, 5.0, 5.0)[0]
        assert math.cosh(th5) == pytest.approx(1.013659, abs=1e-5)
        assert th5 == pytest.approx(0.165096, abs=1e-5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            l = rng.uniform(0.2, 4.0, size=3)
            th = hexagon_angles(*l)[:3]
            # relabel corners cyclically: (i,j,k) -> (j,k,i)
            shifted = hexagon_angles(l[2], l[0], l[1])[:3]
            assert shifted == pytest.approx((th[1], th[2], th[0]), rel=1e-12)

    def test_invariant_A_is_cyclic(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            l_ij, l_ik, l_jk = rng.uniform(0.1, 5.0, size=3)
            th_i, th_j, th_k, A = hexagon_angles(l_ij, l_ik, l_jk)
            A_j = math.sinh(l_ij) * math.sinh(l_jk) * math.sinh(th_j)
            A_k = math.sinh(l_ik) * math.sinh(l_jk) * math.sinh(th_k)
            assert A_j == pytest.approx(A, rel=1e-10)
            assert A_k == pytest.approx(A, rel=1e-10)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(DomainError):
            hexagon_angles(0.0, 1.0, 1.0)

    def test_overflow_is_a_domain_error(self):
        # sinh(800) overflows a double
        with pytest.raises(DomainError):
            hexagon_angles(800.0, 800.0, 1.0)

    def test_tiny_length_still_geometric(self):
        th_i = hexagon_angles(1e-250, 1.0, 1.0)[0]
        assert math.isfinite(th_i) and th_i > 500.0


class TestCentralDifference:
    def test_column_c_differentiates_coordinate_c(self):
        # exact for quadratics up to rounding: d(x0 x1, x1^2)/dx at (2, 3)
        J = central_difference(lambda x: np.array([x[0] * x[1], x[1] ** 2]), [2.0, 3.0], 1e-3)
        assert np.allclose(J, [[3.0, 2.0], [0.0, 6.0]], rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("etas", ETA_TRIPLES)
    def test_length_jacobian_fd_matches_closed_form(self, etas):
        rng = np.random.default_rng(108)
        eta = FaceEta(*etas)
        for _ in range(20):
            alpha = random_admissible_alpha(rng, eta, margin=1e-2)
            exact = length_alpha_jacobian(alpha, eta, face_metric(alpha, eta))
            F = length_jacobian_fd(alpha, eta)
            assert np.abs(F - exact).max() / max(1.0, np.abs(exact).max()) < 1e-6


class TestMetric:
    @pytest.mark.parametrize("etas", ETA_TRIPLES)
    def test_cosine_law_residual(self, etas):
        rng = np.random.default_rng(11)
        eta = FaceEta(*etas)
        for _ in range(50):
            m = face_metric(random_admissible_alpha(rng, eta), eta)
            assert cosine_law_residual(m) <= 1e-12

    def test_not_admissible_propagates(self):
        with pytest.raises(NotAdmissible):
            face_metric(CornerAlpha(0.8, 0.8, 0.3), FaceEta(0.0, 0.0, 0.0))


class TestFaceJacobian:
    @pytest.mark.parametrize("etas", ETA_TRIPLES)
    def test_closed_matches_fd(self, etas):
        rng = np.random.default_rng(100)
        eta = FaceEta(*etas)
        for _ in range(100):
            alpha = random_admissible_alpha(rng, eta)
            J = face_jacobian_closed(alpha, eta)
            F = face_jacobian_fd(alpha, eta, h=1e-6)
            scale = max(1.0, np.abs(J).max())
            assert np.abs(J - F).max() / scale < 1e-5

    def test_fd_is_second_order(self):
        eta = FaceEta(0.3, -0.2, 0.8)
        alpha = CornerAlpha(0.45, 0.52, 0.38)
        J = face_jacobian_closed(alpha, eta)
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            errs.append(np.abs(face_jacobian_fd(alpha, eta, h=h) - J).max())
        # halving h shrinks the error ~4x
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_symmetric_inputs_give_circulant_matrix(self):
        eta = FaceEta(0.5, 0.5, 0.5)
        alpha = CornerAlpha(0.4, 0.4, 0.4)
        J = face_jacobian_closed(alpha, eta)
        assert J[0, 0] == pytest.approx(J[1, 1], rel=1e-12)
        assert J[1, 1] == pytest.approx(J[2, 2], rel=1e-12)
        assert J[0, 1] == pytest.approx(J[0, 2], rel=1e-12)
        assert J[0, 1] == pytest.approx(J[1, 2], rel=1e-12)

    @pytest.mark.parametrize("etas", ETA_TRIPLES)
    def test_chain_rule_is_symmetric(self, etas):
        rng = np.random.default_rng(101)
        eta = FaceEta(*etas)
        for _ in range(100):
            J = face_jacobian_chain(random_admissible_alpha(rng, eta), eta)
            scale = max(1.0, np.abs(J).max())
            assert np.abs(J - J.T).max() <= 1e-10 * scale

    @pytest.mark.parametrize("etas", ETA_TRIPLES)
    def test_chain_and_closed_agree(self, etas):
        rng = np.random.default_rng(102)
        eta = FaceEta(*etas)
        for _ in range(50):
            alpha = random_admissible_alpha(rng, eta)
            Jc = face_jacobian_closed(alpha, eta)
            Jr = face_jacobian_chain(alpha, eta)
            scale = max(1.0, np.abs(Jc).max())
            assert np.abs(Jc - Jr).max() / scale < 1e-10

    @pytest.mark.parametrize("etas", ETA_TRIPLES[:3])
    def test_positive_definite_under_structure_condition(self, etas):
        rng = np.random.default_rng(103)
        eta = FaceEta(*etas)
        assert eta.satisfies_structure_condition()
        for _ in range(100):
            J = face_jacobian_closed(random_admissible_alpha(rng, eta), eta)
            assert np.linalg.eigvalsh(J).min() > 0.0

    def test_offdiagonals_nonnegative_for_small_weights(self):
        # weights in (-1, 1] under the structure condition
        rng = np.random.default_rng(104)
        for etas in [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 0.3, 0.3), (-0.5, 1.0, 1.0)]:
            eta = FaceEta(*etas)
            assert eta.satisfies_structure_condition()
            for _ in range(25):
                J = face_jacobian_closed(random_admissible_alpha(rng, eta), eta)
                off = J[~np.eye(3, dtype=bool)]
                assert np.all(off >= -1e-15)

    def test_zero_weight_diagonal_identity(self):
        rng = np.random.default_rng(105)
        eta = FaceEta(0.0, 0.0, 0.0)
        for _ in range(100):
            alpha = random_admissible_alpha(rng, eta)
            res = diagonal_identity_residuals(alpha, eta)
            assert max(abs(r) for r in res) <= 1e-10

    def test_zero_weight_identity_row_form(self):
        # J_ii = J_ij cosh(l_ij) + J_ik cosh(l_ik) with cosh(l) = cot cot
        eta = FaceEta(0.0, 0.0, 0.0)
        alpha = CornerAlpha(math.pi / 6, math.pi / 5, math.pi / 7)
        m = face_metric(alpha, eta)
        assert math.cosh(m.l_ij) == pytest.approx(
            1.0 / (math.tan(alpha.a_i) * math.tan(alpha.a_j)), rel=1e-12
        )
        J = face_jacobian_closed(alpha, eta)
        assert J[0, 0] == pytest.approx(
            J[0, 1] * math.cosh(m.l_ij) + J[0, 2] * math.cosh(m.l_ik), abs=1e-10
        )

    def test_general_weight_identity_is_diagnostic_only(self):
        # residual is exposed but no smallness is promised for eta != 0
        eta = FaceEta(0.8, 0.8, 0.8)
        alpha = CornerAlpha(0.3, 0.35, 0.4)
        res = diagonal_identity_residuals(alpha, eta)
        assert all(math.isfinite(r) for r in res)

    def test_fd_outside_admissible_raises(self):
        eta = FaceEta(0.0, 0.0, 0.0)
        # margin below the finite-difference step
        a = CornerAlpha(math.pi / 4 - 2e-8, math.pi / 4 - 2e-8, 0.3)
        for oracle in (face_jacobian_fd, length_jacobian_fd):
            with pytest.raises(NotAdmissible) as info:
                oracle(a, eta)
            # the perturbed corner parameters are plain floats in the message
            assert "np.float64" not in str(info.value)


class TestLengthJacobianDeterminant:
    @pytest.mark.parametrize("etas", ETA_TRIPLES)
    def test_matches_fd_determinant(self, etas):
        rng = np.random.default_rng(106)
        eta = FaceEta(*etas)
        for _ in range(50):
            alpha = random_admissible_alpha(rng, eta)
            det_fd = float(np.linalg.det(length_jacobian_fd(alpha, eta)))
            det = det_length_alpha_jacobian(alpha, eta)
            assert det == pytest.approx(det_fd, rel=1e-6)

    @pytest.mark.parametrize("etas", ETA_TRIPLES[:3])
    def test_positive_and_above_product_bound(self, etas):
        rng = np.random.default_rng(107)
        eta = FaceEta(*etas)
        assert eta.satisfies_structure_condition()
        for _ in range(100):
            alpha = random_admissible_alpha(rng, eta)
            det = det_length_alpha_jacobian(alpha, eta)
            bound = det_lower_bound(alpha, eta)
            assert det > 0.0
            assert bound > 0.0
            assert det >= bound - 1e-9


@pytest.mark.parametrize("h", [0.0, -1e-6, math.nan])
def test_central_difference_rejects_bad_step(h):
    with pytest.raises(DomainError):
        face_jacobian_fd(CornerAlpha(0.4, 0.5, 0.6), FaceEta(0.0, 0.0, 0.0), h=h)


@pytest.mark.parametrize("make, message", [
    (lambda: CornerAlpha(0.0, 0.5, 0.5), r"^a_i = 0\.0 outside \(0, pi/2\)$"),
    (lambda: FaceEta(-1.0, 0.0, 0.0), r"^e_ij = -1\.0 is not > -1$"),
    (lambda: acosh1p(-1e-3), r"^arccosh argument below 1: 1 \+ -0\.001$"),
], ids=["corner-at-zero", "eta-at-minus-one", "acosh-below-one"])
def test_arguments_outside_the_domain_raise(make, message):
    with pytest.raises(DomainError, match=message):
        make()
