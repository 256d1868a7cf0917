import math

import numpy as np
import pytest

from hexflow import (
    ConformalFactor,
    DomainError,
    Edge,
    Face,
    LengthMismatch,
    NotAdmissible,
    Surface,
    admissibility,
    calabi_energy,
    chain_global_jacobian,
    curvature,
    curvature_from_lengths,
    default_base_point,
    edge_length_alpha,
    energy,
    fd_global_jacobian,
    global_jacobian,
    potential,
    sample_admissible,
)
from hexflow.conformal import curvature_dump
from conftest import PROFILES, load, reference_factor

ARCCOSH15 = math.acosh(1.5)


def uniform_factor(n, value):
    return ConformalFactor(np.full(n, value))


class TestConformalFactor:
    def test_u_round_trip(self):
        alpha = np.array([0.3, 0.7, 1.1])
        f = ConformalFactor(alpha)
        back = ConformalFactor.from_u(f.u)
        assert np.allclose(back.alpha, alpha, rtol=1e-14)

    def test_u_out_of_range_rejected(self):
        from hexflow import DomainError

        with pytest.raises(DomainError):
            ConformalFactor.from_u([-1000.0, 0.0, 0.0])

    def test_open_box_enforced(self):
        from hexflow import DomainError

        with pytest.raises(DomainError):
            ConformalFactor(np.array([0.0, 0.3, 0.3]))
        with pytest.raises(DomainError):
            ConformalFactor(np.array([0.3, math.pi / 2, 0.3]))

    def test_immutable(self):
        f = uniform_factor(3, 0.4)
        with pytest.raises(ValueError):
            f.alpha[0] = 0.5


class TestAdmissibility:
    def test_pants_pi_sixth_margins(self, pants):
        rep = admissibility(pants, uniform_factor(3, math.pi / 6))
        assert rep.admissible
        assert np.allclose(rep.margins, 0.5, atol=1e-15)

    def test_pants_pi_fourth_is_boundary(self, pants):
        rep = admissibility(pants, uniform_factor(3, math.pi / 4))
        assert not rep.admissible
        assert np.allclose(rep.margins, 0.0, atol=1e-15)

    def test_large_weights_admit_whole_box(self):
        s = load("f1", "eta15")
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = ConformalFactor(rng.uniform(1e-6, math.pi / 2 - 1e-6, size=3))
            assert admissibility(s, a).admissible

    def test_report_locates_worst_edge(self, pants_mixed):
        # the eta=-0.5 edge (id 0, joining components 1 and 2) binds first
        rep = admissibility(pants_mixed, uniform_factor(3, math.pi / 8))
        assert rep.nearest_edge == 0
        assert rep.min_margin == pytest.approx(
            math.cos(math.pi / 4) - 0.5, abs=1e-15
        )

    def test_self_edge_margin(self):
        edges = (
            Edge(id=0, ends=(0, 0), eta=0.9),
            Edge(id=1, ends=(0, 1), eta=0.9),
            Edge(id=2, ends=(0, 1), eta=0.9),
        )
        faces = (Face(id=0, corners=(1, 0, 0), edges=(0, 1, 2)),)
        s = Surface(n_boundary=2, edges=edges, faces=faces, strict_mode=False)
        a = ConformalFactor(np.array([0.3, 0.4]))
        rep = admissibility(s, a)
        idx = rep.edge_ids.index(0)
        assert rep.margins[idx] == pytest.approx(math.cos(0.6) + 0.9, rel=1e-14)

    def test_convexity_of_admissible_region(self):
        for profile in PROFILES:
            s = load("f2", profile)
            rng = np.random.default_rng(5)
            for _ in range(20):
                a = sample_admissible(s, rng)
                b = sample_admissible(s, rng)
                for t in (0.25, 0.5, 0.75):
                    blend = ConformalFactor((1 - t) * a.alpha + t * b.alpha)
                    assert admissibility(s, blend).admissible


class TestCurvature:
    def test_pants_zero_weights_value(self, pants):
        K = curvature(pants, uniform_factor(3, math.pi / 6)).K
        assert np.allclose(K, 2.0 * ARCCOSH15, atol=1e-12)

    def test_single_face_curvature_equals_arcs(self):
        edges = (
            Edge(id=0, ends=(1, 2), eta=0.0),
            Edge(id=1, ends=(0, 2), eta=0.0),
            Edge(id=2, ends=(0, 1), eta=0.0),
        )
        faces = (Face(id=0, corners=(0, 1, 2), edges=(0, 1, 2)),)
        s = Surface(n_boundary=3, edges=edges, faces=faces)
        a = uniform_factor(3, math.pi / 6)
        res = curvature(s, a)
        assert np.allclose(res.K, res.face_angles[0], atol=0.0)

    def test_inadmissible_raises_with_report(self, pants):
        with pytest.raises(NotAdmissible) as err:
            curvature(pants, uniform_factor(3, math.pi / 4))
        assert err.value.report is not None
        assert not err.value.report.admissible

    def test_monotone_blowup_along_ray(self, pants):
        # push a_0 + a_1 toward the arccos(0) facet; K_0 and K_1 must exceed
        # any preset bound, monotonically (the factor-space ray is capped by
        # the kernel margin floor; deeper exceedance is covered through the
        # pinched-edge length in test_acceptance)
        prev = -math.inf
        crossed_20 = None
        for k in range(2, 40):
            sshift = 2.0**-k
            a = ConformalFactor(
                np.array([math.pi / 4 - sshift, math.pi / 4 - sshift, math.pi / 8])
            )
            K = curvature(pants, a).K
            assert K[0] > prev
            assert K[0] == pytest.approx(K[1], rel=1e-12)
            prev = K[0]
            if crossed_20 is None and K[0] > 20.0:
                crossed_20 = k
        assert crossed_20 is not None

    def test_from_lengths_matches_factor_route(self, sixhex_mixed):
        a = reference_factor(sixhex_mixed)
        lengths = {}
        for e in sixhex_mixed.edges:
            i, j = e.ends
            lengths[e.id] = edge_length_alpha(a.alpha[i], a.alpha[j], e.eta)
        K_direct = curvature_from_lengths(sixhex_mixed, lengths)
        K = curvature(sixhex_mixed, a).K
        assert np.allclose(K_direct, K, rtol=1e-14)

    def test_from_lengths_missing_edge(self, pants):
        with pytest.raises(LengthMismatch):
            curvature_from_lengths(pants, {0: 1.0, 1: 1.0})

    # lengths that are not positive and finite (all negative ones give
    # positive arcs), and lengths whose sinh overflows
    @pytest.mark.parametrize("l0,l", [(-1.0, -1.0), (-1.0, 1.0), (0.0, 1.0), (math.nan, 1.0),
                                      (math.inf, 1.0), (800.0, 800.0)])
    def test_from_lengths_rejects_bad_lengths(self, pants, l0, l):
        with pytest.raises(DomainError):
            curvature_from_lengths(pants, {0: l0, 1: l, 2: l})


class TestGlobalJacobian:
    @pytest.mark.parametrize("fixture", ["f1", "f2"])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_symmetry_chain_blocks(self, fixture, profile):
        s = load(fixture, profile)
        rng = np.random.default_rng(20)
        for _ in range(20):
            a = sample_admissible(s, rng)
            J = chain_global_jacobian(s, a)
            assert J.symmetry_residual() <= 1e-10

    @pytest.mark.parametrize("fixture", ["f1", "f2"])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_positive_definite_under_structure_condition(self, fixture, profile):
        s = load(fixture, profile)
        rng = np.random.default_rng(21)
        for _ in range(30):
            a = sample_admissible(s, rng)
            assert global_jacobian(s, a).min_eigenvalue() > 0.0

    @pytest.mark.parametrize("fixture", ["f1", "f2"])
    def test_matches_fd(self, fixture):
        s = load(fixture, "mixed")
        rng = np.random.default_rng(22)
        for _ in range(10):
            a = sample_admissible(s, rng)
            dense = global_jacobian(s, a).dense()
            fd = fd_global_jacobian(s, a)
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(dense - fd).max() / scale < 1e-5

    @pytest.mark.parametrize("fixture", ["f1", "f2"])
    def test_chain_reference_matches_kernel(self, fixture):
        s = load(fixture, "mixed")
        a = reference_factor(s)
        J = global_jacobian(s, a).dense()
        chain = chain_global_jacobian(s, a).dense()
        assert np.abs(chain - J).max() <= 1e-12 * np.abs(J).max()

    def test_repeated_corner_blocks_sum(self):
        # one face touching component 0 twice: row/col 0 accumulates the four
        # slot pairs that project onto it
        edges = (
            Edge(id=0, ends=(0, 0), eta=1.2),
            Edge(id=1, ends=(0, 1), eta=1.2),
            Edge(id=2, ends=(0, 1), eta=1.2),
        )
        faces = (Face(id=0, corners=(1, 0, 0), edges=(0, 1, 2)),)
        s = Surface(n_boundary=2, edges=edges, faces=faces, strict_mode=False)
        a = ConformalFactor(np.array([0.5, 0.6]))

        from hexflow import CornerAlpha, FaceEta, face_jacobian_closed

        block = face_jacobian_closed(
            CornerAlpha(a.alpha[1], a.alpha[0], a.alpha[0]),
            FaceEta(*s.face_etas(faces[0])),
        )
        J = global_jacobian(s, a).dense()
        assert J[0, 0] == pytest.approx(
            block[1, 1] + block[1, 2] + block[2, 1] + block[2, 2], rel=1e-12
        )
        assert J[0, 1] == pytest.approx(block[1, 0] + block[2, 0], rel=1e-12)
        # chain rule through the slot projection agrees with direct FD
        fd = fd_global_jacobian(s, a)
        assert np.abs(J - fd).max() / max(1.0, np.abs(J).max()) < 1e-5

    def test_coo_dump_round_trips(self, pants):
        a = uniform_factor(3, math.pi / 6)
        J = global_jacobian(pants, a)
        d = curvature_dump(pants, a)["jacobian"]
        rebuilt = np.zeros((3, 3))
        for r, c, v in zip(d["rows"], d["cols"], d["vals"]):
            rebuilt[r, c] += v
        assert np.allclose(rebuilt, J.dense(), atol=0.0)

    def test_large_assembly_uses_iterative_extremal_eigenvalue(self):
        # above the dense cutoff the minimum eigenvalue comes from an
        # iterative extremal estimate; check it against a known spectrum
        import scipy.sparse as sp

        from hexflow.conformal import GlobalJacobian
        from hexflow.tolerances import DENSE_EIG_MAX_N
        from hexflow.triangulation import CsrPattern

        n = DENSE_EIG_MAX_N + 64
        diag = np.linspace(2.0, 5.0, n)
        off = np.full(n - 1, 0.25)
        mat = sp.diags([off, diag, off], offsets=(-1, 0, 1), format="csr")
        J = GlobalJacobian(mat.data, CsrPattern(n, mat.indptr, mat.indices))
        dense_min = float(np.linalg.eigvalsh(mat.toarray()).min())
        assert J.min_eigenvalue() == pytest.approx(dense_min, rel=1e-8)


class TestEnergy:
    def test_zero_at_base(self, sixhex):
        a = reference_factor(sixhex)
        assert energy(sixhex, a, a) == 0.0

    def test_path_independence(self, sixhex_mixed):
        s = sixhex_mixed
        base = default_base_point(s)
        a = reference_factor(s)
        via = ConformalFactor(0.5 * (a.alpha + base.alpha) + 0.01 * np.array([1, -1, 1]))
        direct = energy(s, a, base)
        dogleg = energy(s, via, base) + energy(s, a, via)
        assert abs(direct - dogleg) < 1e-8

    def test_base_point_shifts_by_constant(self, pants):
        rng = np.random.default_rng(30)
        a = sample_admissible(pants, rng)
        c = sample_admissible(pants, rng)
        b1 = default_base_point(pants)
        b2 = ConformalFactor(b1.alpha * 1.4)
        lhs = energy(pants, a, b1) - energy(pants, c, b1)
        rhs = energy(pants, a, b2) - energy(pants, c, b2)
        assert abs(lhs - rhs) < 1e-8

    def test_gradient_is_curvature(self, pants_mixed):
        s = pants_mixed
        base = default_base_point(s)
        a = reference_factor(s)
        K = curvature(s, a).K
        h = 1e-6
        for i in range(3):
            hi, lo = a.alpha.copy(), a.alpha.copy()
            hi[i] += h
            lo[i] -= h
            g = (energy(s, ConformalFactor(hi), base) - energy(s, ConformalFactor(lo), base)) / (2 * h)
            assert g == pytest.approx(K[i], rel=1e-6)

    def test_default_base_point_is_admissible(self):
        for fixture in ("f1", "f2"):
            for profile in PROFILES:
                s = load(fixture, profile)
                assert admissibility(s, default_base_point(s)).admissible


class TestPotential:
    def test_stationary_at_solution(self, pants):
        abar = uniform_factor(3, math.pi / 6)
        Kbar = curvature(pants, abar).K
        h = 1e-6
        for i in range(3):
            hi, lo = abar.alpha.copy(), abar.alpha.copy()
            hi[i] += h
            lo[i] -= h
            g = (
                potential(pants, ConformalFactor(hi), Kbar)
                - potential(pants, ConformalFactor(lo), Kbar)
            ) / (2 * h)
            assert abs(g) < 1e-6

    def test_convex_along_chords(self, sixhex_mixed):
        s = sixhex_mixed
        rng = np.random.default_rng(31)
        Kbar = curvature(s, default_base_point(s)).K
        for _ in range(5):
            p = sample_admissible(s, rng, margin=5e-3)
            q = sample_admissible(s, rng, margin=5e-3)
            vals = []
            for t in (0.3, 0.4, 0.5, 0.6, 0.7):
                x = ConformalFactor((1 - t) * p.alpha + t * q.alpha)
                vals.append(potential(s, x, Kbar))
            second = np.diff(vals, n=2)
            assert np.all(second >= -1e-12)

    def test_length_mismatch(self, pants):
        with pytest.raises(LengthMismatch):
            potential(pants, uniform_factor(3, 0.4), np.ones(4))


class TestCalabiEnergy:
    def test_zero_at_target(self):
        K = np.array([1.0, 2.0, 3.0])
        assert calabi_energy(K, K) == 0.0

    def test_unit_deviation(self):
        K = np.array([2.0, 1.0, 1.0])
        Kbar = np.array([1.0, 1.0, 1.0])
        assert calabi_energy(K, Kbar) == 0.5

    def test_permutation_invariant(self):
        rng = np.random.default_rng(32)
        K = rng.uniform(1, 3, size=5)
        Kbar = rng.uniform(1, 3, size=5)
        perm = rng.permutation(5)
        assert calabi_energy(K, Kbar) == pytest.approx(
            calabi_energy(K[perm], Kbar[perm]), rel=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            calabi_energy(np.ones(3), np.ones(2))


@pytest.mark.parametrize("margin", [0.8, -0.1, math.nan])
def test_sample_admissible_rejects_bad_margin(pants, margin):
    with pytest.raises(DomainError):
        sample_admissible(pants, np.random.default_rng(0), margin=margin)


def test_sample_admissible_is_deterministic(sixhex_mixed):
    a = sample_admissible(sixhex_mixed, np.random.default_rng(9))
    b = sample_admissible(sixhex_mixed, np.random.default_rng(9))
    assert np.array_equal(a.alpha, b.alpha)


def base_point_by_loop(s):
    cap = 0.25 * math.pi
    for e in s.edges:
        cap = min(cap, 0.5 * math.acos(-min(e.eta, 1.0)))
    return np.full(s.n_boundary, 0.5 * cap)


@pytest.mark.parametrize("fixture", ["f1", "f2"])
@pytest.mark.parametrize("profile", PROFILES)
def test_default_base_point_matches_edge_loop(fixture, profile):
    s = load(fixture, profile)
    assert default_base_point(s).alpha.tobytes() == base_point_by_loop(s).tobytes()


@pytest.mark.parametrize(
    "etas", [(-0.5, 0.3, 2.0), (0.9, -0.99, 1.0), (1.5, 1.2, 3.0), (-0.25, -0.25, -0.3)]
)
def test_default_base_point_matches_edge_loop_on_weights(etas):
    from hexflow import pair_of_pants

    s = pair_of_pants(etas)
    assert default_base_point(s).alpha.tobytes() == base_point_by_loop(s).tobytes()
