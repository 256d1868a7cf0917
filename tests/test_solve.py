import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from hexflow import (
    ConformalFactor,
    DomainError,
    FlowConfig,
    JacobianNotPD,
    NewtonConfig,
    NotAttained,
    calabi_energy,
    curvature,
    default_base_point,
    global_jacobian,
    measured_decay_rate,
    potential,
    run_flow,
    sample_admissible,
    solve_prescribed,
    solve_prescribed_multistart,
    velocity,
)
import hexflow.conformal
import hexflow.solve
from hexflow.conformal import GlobalJacobian, _evaluate
from hexflow.solve import (
    CONVERGED,
    MAX_ITERS,
    MAX_STEPS,
    STALLED_STEP,
    RunLog,
    _cholesky_solver,
    _descend,
    _spd_apply,
)
from hexflow.tolerances import DENSE_EIG_MAX_N, STEP_FLOOR, STEP_MARGIN, STEP_SHRINK
from hexflow.triangulation import CsrPattern
from conftest import PROFILES, SURFACE_FILES, load, reference_factor, stub_jacobians, torus


def round_trip_problem(s, spread=0.02):
    """Known solution abar, its curvature as target, and a perturbed start."""
    abar = reference_factor(s)
    Kbar = curvature(s, abar).K
    n = s.n_boundary
    delta = spread * np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    a0 = ConformalFactor(abar.alpha + delta)
    return abar, Kbar, a0


@pytest.fixture(scope="module")
def J(pants):
    a = reference_factor(pants)
    return global_jacobian(pants, a).dense()


@pytest.fixture(scope="module")
def state(pants):
    a = reference_factor(pants)
    K = curvature(pants, a).K
    Kbar = K + np.array([0.1, -0.2, 0.3])
    return K, Kbar, global_jacobian(pants, a)


class TestSpdApply:
    R = np.array([0.3, -1.2, 0.7])

    @pytest.mark.parametrize("p, reference", [
        (1.0, lambda J, r: J @ r),
        (-1.0, np.linalg.solve),
        (0.5, lambda J, r: scipy.linalg.fractional_matrix_power(J, 0.5) @ r),
        (2.0, lambda J, r: J @ (J @ r)),
    ], ids=["1", "-1", "0.5", "2"])
    def test_matches_reference(self, J, p, reference):
        assert np.allclose(_spd_apply(J, self.R, p), reference(J, self.R), rtol=1e-12, atol=0.0)

    def test_zeroth_power_reads_no_jacobian(self):
        assert _spd_apply(None, self.R, 0.0) is self.R

    @pytest.mark.parametrize("p", [1.0, -1.0, 0.5], ids=["cholesky", "cholesky-solve", "eigh"])
    def test_not_pd_reports_min_eigenvalue(self, p):
        with pytest.raises(JacobianNotPD) as err:
            _spd_apply(np.diag([1.0, -2.0]), self.R[:2], p)
        assert err.value.min_eigenvalue == -2.0


class TestCholeskySolver:
    """The dense Cholesky calls LAPACK potrf/potrs itself: the same bits as
    scipy's cho_factor/cho_solve, and None for a matrix that is not positive
    definite."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 64])
    def test_matches_cho_solve(self, n):
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        x = rng.standard_normal(n)
        expect = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, check_finite=False), x,
                                        check_finite=False)
        A_before = A.copy()
        got = _cholesky_solver(A)(x)
        assert np.array_equal(got, expect)
        assert np.array_equal(A, A_before)  # A is not overwritten

    @pytest.mark.parametrize("A", [np.diag([1.0, -2.0, 3.0]), np.ones((3, 3))],
                             ids=["indefinite", "singular"])
    def test_not_pd_is_none(self, A):
        assert _cholesky_solver(A) is None


class TestShiftedSpdApply:
    """(I + h J^(p+1))^-1 J^p r, the linearly implicit Euler velocity."""

    R = TestSpdApply.R

    @pytest.mark.parametrize("h", [0.1, 10.0])
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.5, 2.0])
    def test_matches_dense_solve(self, J, p, h):
        power = functools.partial(scipy.linalg.fractional_matrix_power, J)
        expect = np.linalg.solve(np.eye(3) + h * power(p + 1.0), power(p) @ self.R)
        assert np.allclose(_spd_apply(J, self.R, p, h), expect, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, 0.5], ids=["ricci", "calabi", "fractional"])
    def test_not_pd_reports_min_eigenvalue(self, p):
        # the shifted matrix is positive definite; J is tested, not it
        with pytest.raises(JacobianNotPD) as err:
            _spd_apply(np.diag([1.0, -2.0]), self.R[:2], p, 0.1)
        assert err.value.min_eigenvalue == -2.0


class TestSparseArms:
    """Above DENSE_EIG_MAX_N a GlobalJacobian is factored sparsely, and the
    factorisation is the definiteness test."""

    @pytest.fixture(scope="class")
    def torus_state(self):
        s = torus(23)  # n = 529, just above the dense threshold
        J = global_jacobian(s, reference_factor(s))
        r = np.sin(np.arange(s.n_boundary, dtype=float))
        return J, r

    @staticmethod
    def no_cholesky(monkeypatch):
        def fail(A):
            raise AssertionError("a GlobalJacobian above the threshold takes the sparse arm")

        monkeypatch.setattr(hexflow.solve, "_cholesky_solver", fail)

    @pytest.mark.parametrize("h", [0.0, 0.1, 10.0])
    @pytest.mark.parametrize("p", [0.0, 1.0, -1.0])
    def test_sparse_matches_dense(self, torus_state, p, h, monkeypatch):
        J, r = torus_state
        assert J.n > DENSE_EIG_MAX_N
        dense = _spd_apply(J.dense(), r, p, h)
        self.no_cholesky(monkeypatch)
        assert np.allclose(_spd_apply(J, r, p, h), dense, rtol=1e-10, atol=0.0)

    @staticmethod
    def tridiagonal(corner: float, first: float = 1.0) -> GlobalJacobian:
        # diagonally dominant except row 0, whose leading block is
        # [[first, corner], [corner, 2]]: for first = 1, positive definite
        # when corner < sqrt(2), not diagonally dominant when corner > 1
        n = DENSE_EIG_MAX_N + 64
        mat = sp.diags([np.full(n - 1, 0.25), np.full(n, 2.0), np.full(n - 1, 0.25)],
                       offsets=(-1, 0, 1), format="lil")
        mat[0, 0], mat[0, 1], mat[1, 0] = first, corner, corner
        mat = mat.tocsr()
        return GlobalJacobian(mat.data, CsrPattern(n, mat.indptr, mat.indices))

    @pytest.mark.parametrize("p", [0.0, 1.0, -1.0])
    def test_pd_not_dominant_takes_sparse_arm(self, p, monkeypatch):
        J = self.tridiagonal(1.2)
        r = np.cos(np.arange(J.n, dtype=float))
        A = J.dense()
        expect = np.linalg.solve(np.eye(J.n) + 0.1 * np.linalg.matrix_power(A, int(p) + 1),
                                 np.linalg.matrix_power(A, int(p)) @ r)
        self.no_cholesky(monkeypatch)
        assert np.allclose(_spd_apply(J, r, p, 0.1), expect, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -1.0])
    def test_uncertified_indefinite_raises(self, p, monkeypatch):
        # not diagonally dominant and indefinite: the sparse factorisation
        # raises, and no dense eigensolver runs
        J = self.tridiagonal(1.6)
        dense_min = np.linalg.eigvalsh(J.dense())[0]

        def no_dense(*args, **kwargs):
            raise AssertionError("a dense eigensolver ran above the threshold")

        self.no_cholesky(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        with pytest.raises(JacobianNotPD) as err:
            _spd_apply(J, np.ones(J.n), p, 0.1)
        assert err.value.min_eigenvalue == pytest.approx(dense_min, rel=1e-8)
        assert err.value.min_eigenvalue < 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("corner, first", [(1.2, 0.0), (0.0, 0.0)],
                             ids=["zero-diagonal", "singular"])
    def test_zero_pivot_raises_not_pd(self, corner, first, p, monkeypatch):
        # an exactly zero diagonal entry, then an exactly zero row and column:
        # SuperLU either pivots off the diagonal or stops on a zero pivot
        J = self.tridiagonal(corner, first)
        dense_min = np.linalg.eigvalsh(J.dense())[0]
        self.no_cholesky(monkeypatch)
        with pytest.raises(JacobianNotPD) as err:
            _spd_apply(J, np.ones(J.n), p, 0.1)
        assert err.value.min_eigenvalue == pytest.approx(dense_min, rel=1e-8, abs=1e-10)
        assert err.value.min_eigenvalue < 1e-10


class TestVelocity:
    def test_fractional_zero_is_ricci_bitwise(self, state):
        K, Kbar, J = state
        assert np.array_equal(
            velocity("fractional", 0.0, K, Kbar, J), velocity("ricci", 0.0, K, Kbar)
        )

    def test_fractional_one_is_calabi_bitwise(self, state):
        K, Kbar, J = state
        assert np.array_equal(
            velocity("fractional", 1.0, K, Kbar, J),
            velocity("calabi", 0.0, K, Kbar, J),
        )

    def test_equilibrium_gives_zero(self, state):
        K, _, J = state
        for method, s in (("ricci", 0.0), ("calabi", 0.0), ("fractional", 0.5), ("fractional", 2.0)):
            v = velocity(method, s, K, K, J)
            assert np.all(v == 0.0)

    def test_calabi_matches_direct_product(self, state):
        K, Kbar, J = state
        v = velocity("calabi", 0.0, K, Kbar, J)
        assert np.allclose(v, -(J.dense() @ (K - Kbar)), rtol=1e-14)

    def test_fractional_uses_matrix_power(self, state):
        K, Kbar, J = state
        v = velocity("fractional", 0.5, K, Kbar, J)
        expect = -(scipy.linalg.fractional_matrix_power(J.dense(), 0.5) @ (K - Kbar))
        assert np.allclose(v, expect, rtol=1e-12)

    def test_not_pd_reported(self, state):
        K, Kbar, _ = state
        bad = np.diag([1.0, 1.0, -0.5])
        for method, s in (("calabi", 0.0), ("fractional", 0.5)):
            with pytest.raises(JacobianNotPD) as err:
                velocity(method, s, K, Kbar, bad)
            assert err.value.min_eigenvalue == pytest.approx(-0.5)

    def test_calabi_tests_definiteness_without_eigh(self, state, pants, monkeypatch):
        K, Kbar, J = state
        expect = velocity("calabi", 0.0, K, Kbar, J)
        newton = np.linalg.solve(J.dense(), Kbar - K)

        def no_eigh(*args, **kwargs):
            raise AssertionError("the calabi and Newton steps must not diagonalise J")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert np.array_equal(velocity("calabi", 0.0, K, Kbar, J), expect)
        assert np.array_equal(velocity("fractional", 1.0, K, Kbar, J), expect)
        assert np.allclose(-_spd_apply(J, K - Kbar, -1.0), newton, rtol=1e-12, atol=0.0)
        _, target, a0 = round_trip_problem(pants)
        assert solve_prescribed(pants, a0, target)[1].status == CONVERGED
        bad = np.array([[2.0, 1.0, 0.0], [1.0, 0.4, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(JacobianNotPD) as err:
            velocity("calabi", 0.0, K, Kbar, bad)
        assert err.value.min_eigenvalue == np.linalg.eigvalsh(bad)[0]

    def test_ricci_is_negative_potential_gradient(self, pants):
        s = pants
        a = reference_factor(s)
        Kbar = curvature(s, default_base_point(s)).K
        v = velocity("ricci", 0.0, curvature(s, a).K, Kbar)
        h = 1e-6
        for i in range(3):
            hi, lo = a.alpha.copy(), a.alpha.copy()
            hi[i] += h
            lo[i] -= h
            g = (
                potential(s, ConformalFactor(hi), Kbar)
                - potential(s, ConformalFactor(lo), Kbar)
            ) / (2 * h)
            assert v[i] == pytest.approx(-g, abs=1e-8)

    def test_calabi_is_negative_calabi_gradient(self, pants):
        s = pants
        a = reference_factor(s)
        Kbar = curvature(s, default_base_point(s)).K
        J = global_jacobian(s, a)
        v = velocity("calabi", 0.0, curvature(s, a).K, Kbar, J)
        h = 1e-6
        for i in range(3):
            hi, lo = a.alpha.copy(), a.alpha.copy()
            hi[i] += h
            lo[i] -= h
            g = (
                calabi_energy(curvature(s, ConformalFactor(hi)).K, Kbar)
                - calabi_energy(curvature(s, ConformalFactor(lo)).K, Kbar)
            ) / (2 * h)
            assert v[i] == pytest.approx(-g, abs=1e-8)

    def test_non_finite_fractional_power_rejected(self):
        # w**s underflows to 0 and overflows to inf: J^s r is NaN
        J = np.diag([1e-3, 1e3])
        with pytest.raises(DomainError, match="s = 1000"):
            velocity("fractional", 1000.0, np.ones(2), np.full(2, 2.0), J)

    @pytest.mark.parametrize("method, dt", [("calabi", 0.0), ("fractional", 0.0), ("ricci", 0.5)])
    def test_missing_jacobian_rejected(self, state, method, dt):
        # every velocity but the explicit ricci one reads J
        K, Kbar, _ = state
        with pytest.raises(DomainError, match="needs the curvature Jacobian"):
            velocity(method, 0.5, K, Kbar, dt=dt)

    def test_unknown_method(self, state):
        K, Kbar, J = state
        with pytest.raises(DomainError):
            velocity("yamabe", 0.0, K, Kbar, J)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -0.5])
    @pytest.mark.parametrize("method", ["ricci", "calabi", "fractional"])
    def test_bad_dt_rejected(self, state, method, dt):
        # a negative dt would turn the implicit step uphill
        K, Kbar, J = state
        with pytest.raises(DomainError, match="dt must be"):
            velocity(method, 0.5, K, Kbar, J, dt)


class TestDescendGuard:
    # _descend's step guard, driven by a stub move from a = (0.3, 0.3, 0.3)
    # on the zero-weight pants, whose edge margins are cos(a_i + a_j): the
    # full "outside-box" step leaves the box, the full "under-margin" step
    # stays in the box but crosses a facet, and both pass at half the step.
    # The target is the curvature at 0.4 d, or at 0.3 d for "energy-rise",
    # whose full step is admissible but raises the Calabi energy.
    A0 = np.full(3, 0.3)

    def descend(self, pants, monkeypatch, move, step, Kbar):
        """One move of _descend from A0 with a budget of one: its stop, the
        steps the move was called with, the points curvature evaluated and
        the path."""
        moved, evaluated = [], []

        def checked(alpha):
            # the start, then only trials that cleared the box and STEP_MARGIN
            assert np.all((alpha > 0.0) & (alpha < 0.5 * math.pi))
            assert np.cos(alpha[0] + alpha[1]) >= STEP_MARGIN
            evaluated.append(alpha)

        def checked_curvature(s, a, jacobian=False):  # the start
            checked(a.alpha)
            return curvature(s, a, jacobian=jacobian)

        def checked_evaluate(s, alpha, jacobian=False):  # the trials
            checked(alpha)
            return _evaluate(s, alpha, jacobian=jacobian)

        def propose(c, _step):
            return (lambda h: moved.append(h) or move(h)), step

        monkeypatch.setattr(hexflow.solve, "curvature", checked_curvature)
        monkeypatch.setattr(hexflow.solve, "_evaluate", checked_evaluate)
        path = [self.A0]
        why = _descend(pants, path, Kbar, RunLog(()), 1e-10, 1, propose, lambda *row: row)
        return why, moved, evaluated, path

    @pytest.mark.parametrize(
        "d,target_step,rejected",
        [
            pytest.param([-0.45] * 3, 0.4, [], id="outside-box"),
            pytest.param([0.6] * 3, 0.4, [], id="under-margin"),
            pytest.param([0.05] * 3, 0.3, [1.0], id="energy-rise"),
        ],
    )
    def test_halved_once_and_accepted(self, pants, monkeypatch, d, target_step, rejected):
        d = np.array(d)
        Kbar = curvature(pants, ConformalFactor(self.A0 + target_step * d)).K
        why, moved, evaluated, path = self.descend(pants, monkeypatch, lambda h: h * d, 1.0, Kbar)
        assert why == MAX_STEPS  # one accepted step spends the budget
        assert moved == [1.0, 0.5]
        expected = [self.A0] + [self.A0 + h * d for h in rejected + [0.5]]
        assert len(evaluated) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(evaluated, expected))
        assert len(path) == 2 and np.array_equal(path[-1], self.A0 + 0.5 * d)

    def test_floor(self, pants, monkeypatch):
        # a move that leaves the box at every step is never evaluated
        Kbar = curvature(pants, ConformalFactor(self.A0)).K * 1.5
        why, moved, evaluated, path = self.descend(
            pants, monkeypatch, lambda h: np.full(3, -1.0), 1.0, Kbar)
        assert why == STALLED_STEP
        assert moved == [0.5**k for k in range(47)]
        assert moved[-1] >= STEP_FLOOR > moved[-1] * STEP_SHRINK
        assert len(evaluated) == 1 and len(path) == 1

    def test_kernel_error_on_a_trial_stalls(self, pants, monkeypatch):
        # a trial the kernel cannot evaluate (its arcs overflow) ends the
        # descent at the first trial, which passes the guard
        trials = []

        def overflowing(s, alpha, jacobian=False):
            trials.append(alpha)
            raise DomainError("face 0: boundary arc not finite and positive")

        monkeypatch.setattr(hexflow.solve, "_evaluate", overflowing)
        Kbar = curvature(pants, ConformalFactor(self.A0)).K * 1.5
        path = [self.A0]
        move = lambda h: h * np.full(3, 0.01)
        why = _descend(pants, path, Kbar, RunLog(()), 1e-10, 1, lambda c, _step: (move, 1.0),
                       lambda *row: row)
        assert why == STALLED_STEP
        assert len(trials) == 1 and np.array_equal(trials[0], self.A0 + 0.01)
        assert len(path) == 1

    @pytest.mark.parametrize("step", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_step_stalls(self, pants, monkeypatch, step):
        # inf * STEP_SHRINK stays inf: the loop must end, not spin
        Kbar = curvature(pants, ConformalFactor(self.A0)).K * 1.5
        why, moved, evaluated, path = self.descend(
            pants, monkeypatch, lambda h: h * np.full(3, 0.01), step, Kbar)
        assert why == STALLED_STEP
        assert moved == [] and len(evaluated) == 1 and len(path) == 1


class TestRunFlow:
    @pytest.mark.parametrize("config,settings", [
        pytest.param(FlowConfig, {"method": "fractional", "dt0": math.inf}, id="dt0-inf"),
        pytest.param(FlowConfig, {"method": "fractional", "s": math.nan}, id="s-nan"),
        pytest.param(FlowConfig, {"tol": math.inf}, id="tol-inf"),
        pytest.param(FlowConfig, {"tol": math.nan}, id="tol-nan"),
        pytest.param(FlowConfig, {"max_steps": -5}, id="max_steps-negative"),
        pytest.param(NewtonConfig, {"tol": math.inf}, id="newton-tol-inf"),
        pytest.param(NewtonConfig, {"tol": 0.0}, id="newton-tol-zero"),
        pytest.param(NewtonConfig, {"max_iters": -1}, id="newton-max_iters-negative"),
    ])
    def test_config_rejects_non_finite(self, config, settings):
        with pytest.raises(DomainError):
            config(**settings)

    def test_start_at_equilibrium(self, pants):
        abar = reference_factor(pants)
        Kbar = curvature(pants, abar).K
        result, trace = run_flow(pants, abar, Kbar, FlowConfig(method="ricci"))
        assert trace.status == CONVERGED
        assert len(trace.rows) == 1
        assert trace.rows[0][0] == 0
        assert np.array_equal(result.alpha, abar.alpha)

    @pytest.mark.parametrize("method,s", [("ricci", 0.0), ("calabi", 0.0), ("fractional", 0.5)])
    @pytest.mark.parametrize("fixture", ["f1", "f2"])
    def test_round_trip_convergence(self, fixture, method, s):
        surf = load(fixture, "eta0")
        abar, Kbar, a0 = round_trip_problem(surf)
        result, trace = run_flow(surf, a0, Kbar, FlowConfig(method=method, s=s))
        assert trace.status == CONVERGED
        assert np.abs(result.alpha - abar.alpha).max() < 1e-8

    def test_calabi_energy_strictly_decreasing(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="calabi"))
        cal = trace.column("calabi_energy")
        assert np.all(np.diff(cal) < 0.0)

    def test_ricci_potential_nonincreasing(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="ricci"))
        pot = trace.column("potential")
        assert np.all(np.diff(pot) <= 0.0)

    def test_margins_respect_floor(self, pants_mixed):
        _, Kbar, a0 = round_trip_problem(pants_mixed, spread=0.01)
        cfg = FlowConfig(method="ricci")
        _, trace = run_flow(pants_mixed, a0, Kbar, cfg)
        assert trace.status == CONVERGED
        assert np.all(trace.column("min_margin") >= 1e-9)

    def test_reduction_identities_bitwise(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, t_ricci = run_flow(pants, a0, Kbar, FlowConfig(method="ricci"))
        _, t_frac0 = run_flow(pants, a0, Kbar, FlowConfig(method="fractional", s=0.0))
        assert t_ricci.to_csv() == t_frac0.to_csv()
        _, t_calabi = run_flow(pants, a0, Kbar, FlowConfig(method="calabi"))
        _, t_frac1 = run_flow(pants, a0, Kbar, FlowConfig(method="fractional", s=1.0))
        assert t_calabi.to_csv() == t_frac1.to_csv()

    def test_decay_rate_needs_two_rows(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="ricci", max_steps=0))
        assert len(trace.rows) == 1
        assert math.isnan(measured_decay_rate(trace))

    def test_geometric_decay(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="ricci"))
        rate = measured_decay_rate(trace)
        assert rate > 0.0
        # every residual sits under an anchored geometric envelope
        t = trace.column("t")
        resid = trace.column("resid_inf")
        pos = resid > 0.0
        rho = np.min((np.log(resid[0]) - np.log(resid[1:][pos[1:]])) / t[1:][pos[1:]])
        assert rho > 0.0

    @pytest.mark.parametrize("method", ["ricci", "calabi", "fractional"])
    def test_huge_dt0_returns(self, pants, method):
        # dt grows after every accepted step and must stay finite
        _, Kbar, a0 = round_trip_problem(pants)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method=method, dt0=1e308))
        assert trace.status == CONVERGED
        assert np.isfinite(trace.column("dt")).all()

    def test_max_steps_exhaustion(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="ricci", max_steps=1))
        assert trace.status == MAX_STEPS
        assert trace.rows[-1][0] == 1

    def test_unattainable_target_stalls_without_crash(self, pants):
        a0 = reference_factor(pants)
        Kbar = np.array([1e6, 1.0, 1.0])
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="ricci", max_steps=3000))
        assert trace.status in (STALLED_STEP, MAX_STEPS)
        assert np.all(trace.column("min_margin") >= 1e-9)

    def test_nonpositive_target_rejected(self, pants):
        with pytest.raises(DomainError):
            run_flow(pants, reference_factor(pants), np.array([1.0, -1.0, 1.0]), FlowConfig())

    def test_jacobian_not_pd_status(self, pants, monkeypatch):
        _, Kbar, a0 = round_trip_problem(pants)
        stub_jacobians(monkeypatch, itertools.repeat(np.diag([1.0, 1.0, -1.0])))
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="calabi"))
        assert trace.status == "JacobianNotPD"

    def test_ricci_jacobian_not_pd_status(self, pants, monkeypatch):
        # the implicit ricci step reads J and tests it like the other flows
        _, Kbar, a0 = round_trip_problem(pants)
        stub_jacobians(monkeypatch, itertools.repeat(np.diag([1.0, 1.0, -1.0])))
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="ricci"))
        assert trace.status == "JacobianNotPD"
        assert len(trace.rows) == 1

    def test_power_overflow_after_first_step_stalls(self, pants, monkeypatch):
        # J^s (K - Kbar) is finite at a0 and overflows from the second step
        # on: the run ends as StalledStep and keeps its first step.
        _, Kbar, a0 = round_trip_problem(pants)
        jacobians = itertools.chain([np.eye(3)], itertools.repeat(np.diag([1.0, 1.0, 1e200])))
        stub_jacobians(monkeypatch, jacobians)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="fractional", s=2.0))
        assert trace.status == STALLED_STEP
        assert len(trace.rows) == 2

    def test_structure_condition_flagged(self):
        from hexflow import pair_of_pants

        s = pair_of_pants((-0.9, -0.9, -0.9))
        a0 = reference_factor(s)
        Kbar = curvature(s, a0).K * 1.01
        _, trace = run_flow(s, a0, Kbar, FlowConfig(method="ricci", max_steps=50))
        assert trace.structure_condition is False

    def test_trace_csv_shape(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, trace = run_flow(pants, a0, Kbar, FlowConfig(method="ricci"))
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "step,t,dt,resid_inf,calabi_energy,potential,min_margin"
        assert lines[-1] == "# status=Converged"
        assert lines[-2] == "# structure_condition=true"
        assert len(lines) == len(trace.rows) + 3
        t_col = trace.column("t")
        assert np.all(np.diff(t_col) > 0.0)


# The flows of the CLI digest pins: every fixture from its default base
# point toward K(base * 1.075).  The linearly implicit step takes at most 11
# accepted steps here; a stiff step (an explicit Euler step under a dt cap
# took up to 923) would break the budget.
@pytest.mark.parametrize("cfg", [
    FlowConfig(method="ricci"),
    FlowConfig(method="calabi"),
    FlowConfig(method="fractional", s=0.5),
    FlowConfig(method="fractional", s=2.0),
], ids=["ricci", "calabi", "fractional_0.5", "fractional_2"])
@pytest.mark.parametrize("fixture, profile", sorted(SURFACE_FILES))
def test_flow_step_budget(fixture, profile, cfg):
    s = load(fixture, profile)
    base = default_base_point(s)
    a_star = base.alpha * 1.075
    result, trace = run_flow(s, base, curvature(s, ConformalFactor(a_star)).K, cfg)
    assert trace.status == CONVERGED
    assert trace.last("step") <= 40
    assert np.abs(result.alpha - a_star).max() < 1e-8



@pytest.mark.parametrize("at_target", [False, True], ids=["away", "at-target"])
@pytest.mark.parametrize("solver, cfg, spent", [
    (run_flow, FlowConfig(max_steps=0), MAX_STEPS),
    (solve_prescribed, NewtonConfig(max_iters=0), MAX_ITERS),
], ids=["flow", "newton"])
def test_zero_budget(pants, solver, cfg, spent, at_target):
    # no move is made: row 0 only, and the start is returned
    abar, Kbar, a0 = round_trip_problem(pants)
    start = abar if at_target else a0
    result, log = solver(pants, start, Kbar, cfg)
    assert log.status == (CONVERGED if at_target else spent)
    assert len(log.rows) == 1 and log.rows[0][0] == 0
    assert np.array_equal(result.alpha, start.alpha)


class TestNewton:
    @pytest.mark.parametrize("fixture", ["f1", "f2"])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_rigidity_round_trip(self, fixture, profile):
        s = load(fixture, profile)
        abar = reference_factor(s)
        Kbar = curvature(s, abar).K
        rng = np.random.default_rng(50)
        for _ in range(3):
            a0 = sample_admissible(s, rng, margin=1e-3)
            sol, log = solve_prescribed(s, a0, Kbar)
            assert log.status == CONVERGED
            assert np.abs(sol.alpha - abar.alpha).max() < 1e-8

    def test_quadratic_tail(self, sixhex):
        abar, Kbar, a0 = round_trip_problem(sixhex, spread=0.05)
        _, log = solve_prescribed(sixhex, a0, Kbar, NewtonConfig(tol=1e-12))
        resid = log.column("resid_inf")
        # find the last two full steps before convergence and check the
        # residual roughly squares
        tail = resid[resid > 0]
        assert len(tail) >= 3
        r1, r2 = tail[-2], tail[-1]
        assert r2 < 10.0 * r1**2 / max(tail[-3], 1e-30) or r2 < 1e-12

    def test_multistart_consistency(self, pants_mixed):
        s = pants_mixed
        abar = reference_factor(s)
        Kbar = curvature(s, abar).K
        rng = np.random.default_rng(51)
        starts = [sample_admissible(s, rng, margin=1e-3) for _ in range(4)]
        sol = solve_prescribed_multistart(s, starts, Kbar)
        assert np.abs(sol.alpha - abar.alpha).max() < 1e-8

    def test_multistart_disagreement_raises(self, pants, monkeypatch):
        _, Kbar, a0 = round_trip_problem(pants)
        factor, log = solve_prescribed(pants, a0, Kbar)
        factors = iter([factor, ConformalFactor(factor.alpha + [0.0, 0.0, 1e-6])])
        monkeypatch.setattr(hexflow.solve, "solve_prescribed", lambda *args: (next(factors), log))
        with pytest.raises(AssertionError, match="^multi-start solutions disagree by 1.000e-06 "):
            solve_prescribed_multistart(pants, [a0, a0], Kbar)

    def test_huge_target_is_controlled(self, pants):
        a0 = reference_factor(pants)
        Kbar = np.array([1e6, 1.0, 1.0])
        try:
            _, log = solve_prescribed(pants, a0, Kbar, NewtonConfig(max_iters=30))
            assert log.status in (MAX_ITERS, CONVERGED)
        except NotAttained:
            pass  # also an allowed, controlled outcome

    def test_not_attained_carries_the_last_iterate(self, pants):
        Kbar = np.array([1e6, 1.0, 1.0])
        with pytest.raises(NotAttained) as err:
            solve_prescribed(pants, ConformalFactor([0.5, 0.6, 0.7]), Kbar)
        log, factor = err.value.log, err.value.factor
        assert log.last("iter") > 0
        resid = float(np.max(np.abs(curvature(pants, factor).K - Kbar)))
        assert resid == log.last("resid_inf")
        # a start that multistart gives up on is its own last iterate
        a0 = ConformalFactor([0.5, 0.6, 0.7])
        with pytest.raises(NotAttained) as err:
            solve_prescribed_multistart(pants, [a0], Kbar, NewtonConfig(max_iters=0))
        assert np.array_equal(err.value.factor.alpha, a0.alpha)

    def test_not_attained_on_persistent_line_search_failure(self, pants, monkeypatch):
        a0 = reference_factor(pants)
        Kbar = curvature(pants, a0).K * 1.5
        # every energy read is larger than the one before: each trial step
        # looks like a rise of the Calabi energy
        energies = itertools.count()
        monkeypatch.setattr(
            hexflow.solve, "calabi_energy", lambda K, Kbar: float(next(energies))
        )
        resid = float(np.max(np.abs(curvature(pants, a0).K - Kbar)))
        with pytest.raises(NotAttained) as err:
            solve_prescribed(pants, a0, Kbar)
        assert err.value.log is not None
        assert err.value.log.status == "NotAttained"
        # the first line search stalls, at the start's residual
        assert f"stalled at iteration 1 with residual {resid:.3e} " in str(err.value)

    def test_gradient_fallback_then_not_pd(self, pants, monkeypatch):
        a0 = reference_factor(pants)
        Kbar = curvature(pants, a0).K * 1.2

        class FakeJac:
            def dense(self):
                return np.diag([1.0, 1.0, -1.0])

        stub_jacobians(monkeypatch, itertools.repeat(FakeJac()))
        with pytest.raises(JacobianNotPD) as err:
            solve_prescribed(pants, a0, Kbar, NewtonConfig(max_iters=5))
        assert err.value.min_eigenvalue == -1.0

    def test_log_csv(self, pants):
        _, Kbar, a0 = round_trip_problem(pants)
        _, log = solve_prescribed(pants, a0, Kbar)
        text = log.to_csv()
        assert text.startswith("iter,resid_inf,step_len,potential,min_margin")
        assert text.rstrip().endswith("# status=Converged")


@pytest.mark.parametrize("method", ["ricci", "calabi"])
def test_trials_pass_only_the_step_guard(sixhex_mixed, monkeypatch, method):
    # the start passes curvature's gate; a trial that clears STEP_MARGIN
    # clears that gate too, so it is evaluated ungated
    _, Kbar, a0 = round_trip_problem(sixhex_mixed)
    calls = Counter()
    gate, evaluate = hexflow.conformal._check_factors, _evaluate
    monkeypatch.setattr(hexflow.conformal, "_check_factors",
                        lambda s, alpha: calls.update(["gate"]) or gate(s, alpha))
    monkeypatch.setattr(hexflow.solve, "_evaluate",
                        lambda *args, **kwargs: calls.update(["trial"]) or evaluate(*args, **kwargs))
    _, trace = run_flow(sixhex_mixed, a0, Kbar, FlowConfig(method=method))  # the trace is not read
    assert trace.status == CONVERGED
    assert calls["gate"] == 1
    assert calls["trial"] >= trace.last("step") > 1


class TestOneEvaluationPerPoint:
    """Every point a flow or Newton visits runs the kernel once: the kernel
    calls equal solve's evaluations (curvature at the start, _evaluate at
    each trial), and neither loop integrates until its log is read."""

    @staticmethod
    def count(monkeypatch) -> Counter:
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        line_integral = hexflow.conformal.line_integral
        monkeypatch.setattr(hexflow.conformal, "face_kernel",
                            counting("kernel", hexflow.conformal.face_kernel))
        # the start through curvature, every trial through _evaluate
        monkeypatch.setattr(hexflow.solve, "curvature", counting("curvature", curvature))
        monkeypatch.setattr(hexflow.solve, "_evaluate", counting("curvature", _evaluate))
        monkeypatch.setattr(hexflow.conformal, "line_integral",
                            lambda f, *args, **kwargs: line_integral(
                                counting("integrand", f), *args, **kwargs))
        return calls

    @pytest.mark.parametrize("cfg", [FlowConfig(method="calabi"),
                                     FlowConfig(method="fractional", s=0.5)],
                             ids=["calabi", "fractional"])
    def test_flow(self, sixhex_mixed, cfg, monkeypatch):
        _, Kbar, a0 = round_trip_problem(sixhex_mixed)
        calls = self.count(monkeypatch)
        _, trace = run_flow(sixhex_mixed, a0, Kbar, cfg)  # the trace is not read
        assert trace.status == CONVERGED
        assert calls["curvature"] > trace.last("step") > 1
        assert calls["integrand"] == 0
        assert calls["kernel"] == calls["curvature"]

    def test_newton(self, sixhex_mixed, monkeypatch):
        _, Kbar, a0 = round_trip_problem(sixhex_mixed, spread=0.05)
        calls = self.count(monkeypatch)
        _, log = solve_prescribed(sixhex_mixed, a0, Kbar)
        assert log.status == CONVERGED
        assert calls["integrand"] == 0
        assert calls["kernel"] == calls["curvature"]
        # reading the log integrates its potential column
        assert calls["curvature"] == len(log.rows) > 2
        assert calls["kernel"] == calls["curvature"] + calls["integrand"]
        assert calls["integrand"] > 0
