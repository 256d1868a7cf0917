import math

import numpy as np
import pytest

from hexflow import (
    CornerAlpha,
    DomainError,
    FaceEta,
    NotAdmissible,
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
)
from hexflow.hexagon import cosine_law_residual

ARCCOSH3 = math.acosh(3.0)

# weight triples: zero, uniformly large, and a sign-mixed set satisfying the
# per-face inequalities
ETA_TRIPLES = [
    (0.0, 0.0, 0.0),
    (1.5, 1.5, 1.5),
    (-0.5, 1.0, 1.0),
    (0.3, -0.2, 0.8),
]


def random_admissible_alpha(rng, eta: FaceEta, margin=1e-3) -> CornerAlpha:
    while True:
        a = rng.uniform(margin, math.pi / 2 - margin, size=3)
        pairs = ((a[0], a[1], eta.e_ij), (a[0], a[2], eta.e_ik), (a[1], a[2], eta.e_jk))
        if all(math.cos(x + y) + e > margin for x, y, e in pairs):
            return CornerAlpha(*a)


class TestEdgeLength:
    def test_value_pi_sixth(self):
        assert edge_length_alpha(math.pi / 6, math.pi / 6, 0.0) == pytest.approx(
            ARCCOSH3, abs=1e-12
        )

    def test_boundary_of_admissibility(self):
        with pytest.raises(NotAdmissible) as err:
            edge_length_alpha(math.pi / 4, math.pi / 4, 0.0)
        assert err.value.deficit == pytest.approx(0.0, abs=1e-15)

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
        J = face_jacobian_closed(alpha, eta, m)
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
        a = (math.pi / 4 - 2e-8, math.pi / 4 - 2e-8, 0.3)
        with pytest.raises(NotAdmissible):
            face_jacobian_fd(CornerAlpha(*a), eta, h=1e-6)


class TestLengthJacobianDeterminant:
    @pytest.mark.parametrize("etas", ETA_TRIPLES)
    def test_matches_fd_determinant(self, etas):
        rng = np.random.default_rng(106)
        eta = FaceEta(*etas)
        h = 1e-6
        for _ in range(50):
            alpha = random_admissible_alpha(rng, eta)

            def lengths(a):
                return np.array(
                    [
                        edge_length_alpha(a[0], a[1], eta.e_ij),
                        edge_length_alpha(a[0], a[2], eta.e_ik),
                        edge_length_alpha(a[1], a[2], eta.e_jk),
                    ]
                )

            base = list(alpha.as_tuple())
            cols = []
            for t in range(3):
                hi, lo = list(base), list(base)
                hi[t] += h
                lo[t] -= h
                cols.append((lengths(hi) - lengths(lo)) / (2 * h))
            det_fd = float(np.linalg.det(np.column_stack(cols)))
            det = det_length_alpha_jacobian(alpha, eta)
            assert det == pytest.approx(det_fd, rel=1e-6)

    @pytest.mark.parametrize("etas", ETA_TRIPLES[:3])
    def test_positive_and_above_product_bound(self, etas):
        rng = np.random.default_rng(107)
        eta = FaceEta(*etas)
        assert eta.satisfies_structure_condition()
        for _ in range(100):
            alpha = random_admissible_alpha(rng, eta)
            m = face_metric(alpha, eta)
            det = det_length_alpha_jacobian(alpha, eta, m)
            bound = det_lower_bound(alpha, eta, m)
            assert det > 0.0
            assert bound > 0.0
            assert det >= bound - 1e-9
