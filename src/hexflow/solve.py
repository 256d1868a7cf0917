"""Curvature flows and the prescribed-boundary-length Newton solver.

Three flows in the angle parameters drive the boundary lengths K toward a
positive target Kbar:

    ricci       da/dt = Kbar - K
    calabi      da/dt = -J (K - Kbar),        J = dK/da
    fractional  da/dt = -J^s (K - Kbar)

With r = K - Kbar, a flow's velocity is -J^p r with p = 0 (ricci), 1
(calabi) or s (fractional), and Newton's direction is -J^-1 r.  One routine,
`_spd_apply`, computes (I + h J^(p+1))^-1 J^p r and owns the positive
definiteness test: a factorisation of J for p in {0, 1, -1} (Cholesky, or
above DENSE_EIG_MAX_N a sparse LDL^T), the symmetric eigendecomposition for
any other p.  At h = 0 it is J^p r: the flows' right-hand side and Newton's
direction.  s = 0 and s = 1 reach the ricci and calabi arms, so those
traces agree bit for bit.

Flows and Newton are one descent loop, `_descend`, with two moves.  The
loop evaluates the current point once, by one `curvature` call that also
gives J, and the move proposes a displacement for each step: a flow's is
h v(h) with v(h) = -(I + h J^(p+1))^-1 J^p r, a linearly implicit
(Rosenbrock) Euler step from h = dt, and Newton's is lam d from lam = 1.
The loop shrinks the step by STEP_SHRINK until the trial stays inside the
open angle box with every edge margin at least STEP_MARGIN, and only then
evaluates it: its Calabi energy |r|^2 / 2 may not rise.  The accepted
trial's K and J drive the next move.  The flow's move is not linear in h,
so each trial solves again.  The implicit step linearises the flow as
da/dt = -J^(p+1) (a - a*) and is A-stable there: dt grows by
1 / STEP_SHRINK after every accepted step, without a cap, and as dt grows
the step tends to Newton's.  Every flow therefore reads J, and a ricci flow
whose J is not positive definite ends with JacobianNotPD.  Along Newton's
direction the energy's slope is -|r|^2.  The guard rejects without
raising.  The start passes curvature's gate (ADMISSIBILITY_EPS), so an
inadmissible start raises; a trial that clears STEP_MARGIN clears that
gate too, so the loop evaluates it ungated (`conformal._evaluate`) and
builds no ConformalFactor for it.  The step-control constants live in
`hexflow.tolerances`.

The loop records one `RunLog` row per accepted step.  Nothing in it reads
the potential, so a log keeps the accepted path and computes the potential
column, in one batched line integral, when it is first read.

scipy is imported inside the function that calls it: the Cholesky solver
imports `scipy.linalg` (LAPACK potrf/potrs), and only the sparse arms above
DENSE_EIG_MAX_N import `scipy.sparse` themselves, so a fractional flow loads
no scipy module and a ricci or calabi flow or a Newton solve at
n <= DENSE_EIG_MAX_N loads what `scipy.linalg` loads: no `scipy.sparse` with
scipy 1.17, the `scipy.sparse` that older releases (1.10 among them) import
with `scipy.linalg`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conformal import (
    ConformalFactor,
    GlobalJacobian,
    calabi_energy,
    curvature,
    default_base_point,
    factor_margin,
    min_eigenvalue,
    _evaluate,
    _segment_curvature_integral,
)
from .errors import DomainError, JacobianNotPD, NotAttained
from .tolerances import (
    DENSE_EIG_MAX_N,
    MULTISTART_TOL,
    STEP_FLOOR,
    STEP_MARGIN,
    STEP_SHRINK,
)
from .triangulation import Surface, structure_condition_holds

# Terminal statuses shared by flows and the Newton solver.
CONVERGED = "Converged"
MAX_STEPS = "MaxSteps"
STALLED_STEP = "StalledStep"
JACOBIAN_NOT_PD = "JacobianNotPD"
MAX_ITERS = "MaxIters"
NOT_ATTAINED = "NotAttained"


@dataclass
class FlowConfig:
    method: str = "ricci"
    s: float = 0.5
    dt0: float = 0.1
    tol: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        _flow_power(self.method, self.s)  # raises for an unknown method
        if not 0.0 < self.tol < math.inf:
            raise DomainError("tol must be positive and finite")
        if not self.max_steps >= 0:
            raise DomainError("max_steps must be non-negative")
        if not 0.0 < self.dt0 < math.inf:
            raise DomainError("dt0 must be positive and finite")
        if not math.isfinite(self.s):
            raise DomainError("s must be finite")


TRACE_COLUMNS = ("step", "t", "dt", "resid_inf", "calabi_energy", "potential", "min_margin")
NEWTON_COLUMNS = ("iter", "resid_inf", "step_len", "potential", "min_margin", "gradient_fallback")


@dataclass
class RunLog:
    """One row per accepted flow step or Newton iteration (row 0 is the
    initial state), the terminal status and, for flows, whether the weight
    structure condition held.

    A column may be pending: its rows hold None until the first read of
    every row (rows, to_csv) or of that column (column, last) fills them
    from pending(), which returns the whole column."""

    columns: tuple[str, ...]
    status: str = ""
    structure_condition: bool | None = None
    pending: tuple[str, Callable[[], list]] | None = field(default=None, init=False, repr=False)
    _rows: list[tuple] = field(default_factory=list, init=False, repr=False)

    @property
    def rows(self) -> list[tuple]:
        if self.pending is not None:
            name, compute = self.pending
            idx = self.columns.index(name)
            values = compute()
            self._rows = [row[:idx] + (v,) + row[idx + 1:] for row, v in zip(self._rows, values)]
            self.pending = None
        return self._rows

    def last(self, name: str):
        """Column name of the last row, as a Python scalar."""
        return self.column(name)[-1].item()

    def column(self, name: str) -> np.ndarray:
        """Column name of every row, filling no pending column but name."""
        idx = self.columns.index(name)
        rows = self.rows if self.pending and self.pending[0] == name else self._rows
        return np.array([row[idx] for row in rows])

    def to_csv(self) -> str:
        """Floats in shortest round-trip decimal; counters and flags as
        integers."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(
                ",".join(repr(float(v)) if isinstance(v, float) else str(int(v)) for v in row)
            )
        if self.structure_condition is not None:
            lines.append(f"# structure_condition={str(self.structure_condition).lower()}")
        lines.append(f"# status={self.status}")
        return "\n".join(lines) + "\n"


def _flow_power(method: str, s: float) -> float:
    """The power p of J in a flow's velocity -J^p (K - Kbar)."""
    try:
        return {"ricci": 0.0, "calabi": 1.0, "fractional": s}[method]
    except KeyError:
        raise DomainError(f"unknown flow method {method!r}") from None


def velocity(method: str, s: float, K, Kbar, J=None, dt: float = 0.0) -> np.ndarray:
    """-(I + dt J^(p+1))^-1 J^p (K - Kbar) for the chosen flow at curvature
    K, target Kbar: p is 0 for ricci, 1 for calabi and s for fractional.
    At dt = 0 it is the flow's right-hand side -J^p (K - Kbar), and for
    dt > 0 the linearly implicit Euler velocity of step dt.  `_spd_apply`
    computes it, so s = 0 and s = 1 take the ricci and calabi arithmetic
    exactly.  dt must be non-negative and finite."""
    if not 0.0 <= dt < math.inf:
        raise DomainError(f"dt must be non-negative and finite, not {dt!r}")
    r = np.asarray(K, dtype=float) - np.asarray(Kbar, dtype=float)
    return -_spd_apply(J, r, _flow_power(method, s), dt)


def _spd_apply(J, r: np.ndarray, p: float, h: float = 0.0) -> np.ndarray:
    """(I + h J^(p+1))^-1 J^p r for the curvature Jacobian J (a
    GlobalJacobian or an array) and h >= 0; J must be positive definite
    unless p == 0 and h == 0.  At h == 0 this is J^p r.

    p == 0 with h == 0 returns r and reads no J.  p in {0, 1, -1} factors J,
    which tests its definiteness, and the shifted matrix: by Cholesky, or
    above DENSE_EIG_MAX_N for a GlobalJacobian by a sparse LDL^T.  Any other
    p uses the eigendecomposition, V (w^p / (1 + h w^(p+1))) V^T r, and
    raises DomainError when that is not finite (p too large for the
    eigenvalues of J).  Every arm raises JacobianNotPD for an indefinite J,
    with its minimum eigenvalue, which is computed only then.  The shift is
    applied as (I/h + J^(p+1))^-1 / h, so no entry overflows for a huge h.
    """
    if p == 0 and h == 0:
        return r
    if J is None:
        raise DomainError(f"J^p r with p = {p!r} needs the curvature Jacobian")
    n = r.shape[0]
    if p in (0, 1, -1):
        if n > DENSE_EIG_MAX_N and isinstance(J, GlobalJacobian):
            import scipy.sparse as sp

            A, eye, factor = J.matrix, sp.identity(n, format="csr"), _ldl_solver
        else:
            A, eye, factor = _dense(J), np.eye(n), _cholesky_solver
        solve = factor(A)  # the definiteness test
        if solve is None:
            raise _not_pd(A)
        v = solve(r) if p == -1 else A @ r if p == 1 else r
        if h == 0 or p == -1:  # at p == -1, J^(p+1) = I; at h == 0, v / 1.0 is v
            return v / (1.0 + h)
        shifted = factor(eye / h + (A if p == 0 else A @ A))
        if shifted is None:
            raise _not_pd(A)
        return shifted(v) / h
    A = _dense(J)
    try:
        w, V = np.linalg.eigh(A)
        if w[0] <= 0.0:
            raise np.linalg.LinAlgError  # handled below like a failed factorisation
    except np.linalg.LinAlgError:
        raise _not_pd(A) from None
    with np.errstate(all="ignore"):  # w**p may overflow; the product is tested instead
        if h == 0:
            v = (V * w**p) @ (V.T @ r)
        else:
            v = (V * (w**p / (1.0 / h + w ** (p + 1)))) @ (V.T @ r) / h
    if not np.isfinite(v).all():
        raise DomainError(f"fractional order s = {p!r}: J^s (K - Kbar) is not finite")
    return v


def _dense(J) -> np.ndarray:
    return J if isinstance(J, np.ndarray) else J.dense()


def _not_pd(A) -> JacobianNotPD:
    min_eig = min_eigenvalue(A)
    return JacobianNotPD(
        f"curvature Jacobian not positive definite, min eigenvalue {min_eig:.3e}",
        min_eigenvalue=min_eig,
    )


def _cholesky_solver(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """x -> A^-1 x by a Cholesky factorisation of the dense symmetric A, or
    None unless A is positive definite: LAPACK potrf/potrs, the routines
    behind scipy's cho_factor/cho_solve, without their wrappers' overhead."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(A, lower=0, clean=0)
    if info:
        return None
    return lambda x: dpotrs(factor, x, lower=0)[0]


def _ldl_solver(A: "scipy.sparse.spmatrix") -> Callable[[np.ndarray], np.ndarray] | None:
    """x -> A^-1 x by a sparse LDL^T factorisation of the symmetric A (SuperLU,
    diagonal pivots in a symmetric minimum-degree order), or None unless A is
    positive definite: exactly when every pivot is positive (Sylvester)."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    try:
        lu = splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        return None
    pd = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)
    return lu.solve if pd else None


def _target(s: Surface, Kbar) -> np.ndarray:
    Kbar = np.asarray(Kbar, dtype=float)
    if Kbar.shape != (s.n_boundary,) or not np.all((Kbar > 0.0) & (Kbar < math.inf)):
        raise DomainError(
            "target boundary lengths must be finite and positive, one per component"
        )
    return Kbar


@np.errstate(over="ignore")  # once per run; see the docstring
def _descend(s: Surface, path: list[np.ndarray], Kbar: np.ndarray, log: RunLog, tol: float,
             budget: int, propose, row) -> str:
    """Descend from path[0] toward curvature Kbar, appending each accepted
    point to path and its row to log, whose potential column is pending.
    Returns why the descent stopped: CONVERGED, MAX_STEPS (budget moves
    made) or STALLED_STEP (a move's step left [STEP_FLOOR, inf) before a
    trial passed the guard, or the kernel raised DomainError on a trial,
    as when its arcs overflow).

    propose(c, step) gives the move (step -> displacement) from the point
    evaluated as c, and its first step; step is the one that reached the
    point, 0.0 at path[0].  The move is called once per trial, as a flow's
    implicit step is not linear in the step.  row(k, t, step, resid, cal,
    margin) makes row k, with t the sum of the accepted steps (kept finite),
    resid the largest |K - Kbar|, cal the Calabi energy and margin the
    smallest edge margin.  Overflow is silenced for the whole descent: a
    residual beyond about 1e154 overflows the Calabi energy, J r and an
    off-box trial's margins to their true, infinite values.
    """
    alpha = path[0]
    c = curvature(s, ConformalFactor(alpha), jacobian=True)  # raises if path[0] inadmissible
    resid = float(np.max(np.abs(c.K - Kbar)))
    cal = calabi_energy(c.K, Kbar)
    log.pending = ("potential", lambda: _path_potential(s, path, Kbar))
    k, t, step = 0, 0.0, 0.0
    log._rows.append(row(k, t, step, resid, cal, factor_margin(s, alpha)))
    while not resid <= tol:  # a NaN residual has not converged
        if k == budget:
            return MAX_STEPS
        k += 1
        move, step = propose(c, step)
        while STEP_FLOOR <= step < math.inf:
            trial = alpha + move(step)
            margin = factor_margin(s, trial)  # -inf outside the box
            if margin >= STEP_MARGIN:  # so curvature's own gate would pass
                try:
                    trial_c = _evaluate(s, trial, jacobian=True)
                except DomainError:  # the kernel overflowed on the trial
                    return STALLED_STEP
                trial_cal = calabi_energy(trial_c.K, Kbar)
                if trial_cal <= cal:  # the Calabi energy may not rise
                    break
            step *= STEP_SHRINK
        else:
            return STALLED_STEP
        alpha, c, cal = trial, trial_c, trial_cal
        path.append(alpha)
        t = min(t + step, sys.float_info.max)
        resid = float(np.max(np.abs(c.K - Kbar)))
        log._rows.append(row(k, t, step, resid, cal, margin))
    return CONVERGED


def run_flow(
    s: Surface, a0: ConformalFactor, Kbar, cfg: FlowConfig
) -> tuple[ConformalFactor, RunLog]:
    """Integrate the configured flow from a0 toward curvature Kbar by
    linearly implicit Euler steps.

    Dynamics never raise: the trace records a terminal status of Converged,
    MaxSteps, StalledStep (dt underflow, a trial the kernel cannot evaluate,
    or a step that is not finite after the first) or JacobianNotPD.
    Malformed inputs (inadmissible a0, Kbar not finite and positive, a
    fractional order s so large that J^s (K - Kbar) is not finite at a0) do
    raise.

    Nothing in the dynamics reads the potential, so the trace's potential
    column is pending: the trace keeps the accepted path, 8n bytes per
    accepted step, and the first read of its rows integrates the segment
    from the default base point to a0 and every step in one batched call
    (`_path_potential`).
    """
    Kbar = _target(s, Kbar)
    trace = RunLog(TRACE_COLUMNS, structure_condition=structure_condition_holds(s))

    def propose(c, step):
        # dt doubles after every accepted step; float(), so the trace writes dt0 as one
        dt = min(step / STEP_SHRINK, sys.float_info.max) if step else float(cfg.dt0)
        return (lambda h: h * velocity(cfg.method, cfg.s, c.K, Kbar, c.jacobian, h)), dt

    def row(k, t, dt, resid, cal, margin):
        return (k, t, dt, resid, cal, None, margin)

    path = [a0.alpha.copy()]
    try:
        trace.status = _descend(s, path, Kbar, trace, cfg.tol, cfg.max_steps, propose, row)
    except JacobianNotPD:
        trace.status = JACOBIAN_NOT_PD
    except DomainError:
        if len(path) == 1:  # at a0: a malformed input
            raise
        trace.status = STALLED_STEP
    return ConformalFactor(path[-1]), trace


@np.errstate(over="ignore")  # Kbar . (a - prev) beyond the float range is inf
def _path_potential(s: Surface, path: list[np.ndarray], Kbar: np.ndarray) -> list[float]:
    """The potential (for target Kbar, against the default base point) at
    every point of a flow's or Newton's path: the line integrals of the
    segment from the base point to path[0] and of every step, in one batched
    call, summed in step order."""
    base = default_base_point(s).alpha
    ends = np.array(path)
    starts = np.concatenate((base[None], ends[:-1]))
    integrals = _segment_curvature_integral(s, starts, ends).tolist()
    pot = integrals[0] - float(Kbar @ (path[0] - base))
    out = [pot]
    for prev, a, integral in zip(path, path[1:], integrals[1:]):
        pot += integral - float(Kbar @ (a - prev))
        out.append(pot)
    return out


def measured_decay_rate(trace: RunLog) -> float:
    """Least-squares rate r of resid ~ C exp(-r t) over the trace rows with
    positive resid; positive means geometric decay."""
    t = trace.column("t")
    resid = trace.column("resid_inf")
    keep = resid > 0.0
    t, resid = t[keep], resid[keep]
    if t.size < 2:
        return math.nan
    slope = np.polyfit(t, np.log(resid), 1)[0]
    return float(-slope)


@dataclass
class NewtonConfig:
    tol: float = 1e-10
    max_iters: int = 100

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise DomainError("tol must be positive and finite")
        if not self.max_iters >= 0:
            raise DomainError("max_iters must be non-negative")


def solve_prescribed(
    s: Surface, a0: ConformalFactor, Kbar, cfg: NewtonConfig | None = None
) -> tuple[ConformalFactor, RunLog]:
    """Damped Newton descent on the convex potential for target boundary
    lengths Kbar.

    Directions are d = -J^-1 r, r = K - Kbar, from `_spd_apply`; steps
    backtrack in the flows' loop, `_descend`, so the Calabi energy
    |r|^2 / 2 must not rise, and along d its slope is -|r|^2.  A Jacobian
    that is not positive definite falls back to one step d = -r, which
    descends that energy only where J is positive definite (the paper
    proves it is on the admissible set), before a second consecutive
    failure raises JacobianNotPD.  Persistent line-search failure against
    the admissible boundary, or a trial the kernel cannot evaluate, raises
    NotAttained (no admissible factor realizes this target).  Both errors
    carry the log, whose status they set, and the last accepted iterate.
    Returns on Converged or MaxIters.  As in a flow's trace, the log's
    potential column is pending.
    """
    if cfg is None:
        cfg = NewtonConfig()
    Kbar = _target(s, Kbar)
    log = RunLog(NEWTON_COLUMNS)
    fallback = False

    def propose(c, _step):
        nonlocal fallback
        r = c.K - Kbar
        try:
            d = -_spd_apply(c.jacobian, r, -1)
            fallback = False
        except JacobianNotPD as exc:
            if fallback:  # the previous iteration fell back too
                log.status = JACOBIAN_NOT_PD
                raise JacobianNotPD(
                    "curvature Jacobian not positive definite on consecutive "
                    f"iterations, min eigenvalue {exc.min_eigenvalue:.3e}",
                    min_eigenvalue=exc.min_eigenvalue, log=log, factor=ConformalFactor(path[-1]),
                ) from None
            d, fallback = -r, True
        return (lambda lam: lam * d), 1.0

    def row(k, _t, lam, resid, _cal, margin):
        return (k, resid, lam, None, margin, fallback)

    path = [a0.alpha.copy()]
    why = _descend(s, path, Kbar, log, cfg.tol, cfg.max_iters, propose, row)
    if why == STALLED_STEP:
        log.status = NOT_ATTAINED
        raise NotAttained(
            f"line search stalled at iteration {log.last('iter') + 1} with residual "
            f"{log.last('resid_inf'):.3e} and min margin {log.last('min_margin'):.3e}; "
            "no admissible factor appears to realize this target",
            log=log, factor=ConformalFactor(path[-1]),
        )
    log.status = MAX_ITERS if why == MAX_STEPS else why
    return ConformalFactor(path[-1]), log


def solve_prescribed_multistart(
    s: Surface, starts, Kbar, cfg: NewtonConfig | None = None
) -> ConformalFactor:
    """Solve from several starts and assert the solutions coincide to within
    MULTISTART_TOL (they must: the potential is strictly convex, so the
    solution is unique)."""
    solutions = []
    for a0 in starts:
        factor, log = solve_prescribed(s, a0, Kbar, cfg)
        if log.status != CONVERGED:
            raise NotAttained(f"start did not converge: {log.status}", log=log, factor=factor)
        solutions.append(factor.alpha)
    ref = solutions[0]
    for other in solutions[1:]:
        spread = float(np.max(np.abs(other - ref)))
        if spread > MULTISTART_TOL:
            raise AssertionError(
                f"multi-start solutions disagree by {spread:.3e} "
                f"(> {MULTISTART_TOL:g}); uniqueness violated"
            )
    return ConformalFactor(ref)
