"""Curvature flows and the prescribed-boundary-length Newton solver.

Three flows in the angle parameters drive the boundary lengths K toward a
positive target Kbar:

    ricci       da/dt = Kbar - K
    calabi      da/dt = -J (K - Kbar),        J = dK/da
    fractional  da/dt = -J^s (K - Kbar)

with J^s from the symmetric eigendecomposition.  s = 0 and s = 1 reduce the
fractional flow to the ricci and calabi flows exactly, and the reductions are
implemented as exact dispatch so the traces agree bit for bit.

Time stepping is explicit Euler with two per-step guards: the proposed point
must stay admissible (with a configurable margin) inside the open angle box,
and the quadratic curvature error must not increase.  Rejected steps shrink
dt; runs of accepted steps grow it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import (
    ConformalFactor,
    calabi_energy,
    curvature,
    default_base_point,
    global_jacobian,
    potential,
    _segment_curvature_integral,
)
from .errors import DomainError, JacobianNotPD, NotAttained, NotSPD
from .kernel import edge_margins
from .triangulation import Surface, structure_condition_holds

_HALF_PI = 0.5 * math.pi

FLOW_METHODS = ("ricci", "calabi", "fractional")

# Terminal statuses shared by flows and the Newton solver.
CONVERGED = "Converged"
MAX_STEPS = "MaxSteps"
STALLED_STEP = "StalledStep"
JACOBIAN_NOT_PD = "JacobianNotPD"
MAX_ITERS = "MaxIters"
NOT_ATTAINED = "NotAttained"

DT_FLOOR = 1e-14
STEP_FLOOR = 1e-14


@dataclass
class FlowConfig:
    method: str = "ricci"
    s: float = 0.5
    dt0: float = 0.1
    tol: float = 1e-10
    max_steps: int = 100_000
    shrink: float = 0.5
    admissibility_margin: float = 1e-9
    grow_after: int = 5
    dt_cap_factor: float = 10.0

    def __post_init__(self):
        if self.method not in FLOW_METHODS:
            raise DomainError(f"unknown flow method {self.method!r}")
        if not self.tol > 0.0:
            raise DomainError("tol must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise DomainError("shrink must lie in (0, 1)")
        if not self.dt0 > 0.0:
            raise DomainError("dt0 must be positive")
        if self.admissibility_margin < 0.0:
            raise DomainError("admissibility_margin must be >= 0")


TRACE_COLUMNS = ("step", "t", "dt", "resid_inf", "calabi_energy", "potential", "min_margin")


@dataclass
class FlowTrace:
    """One row per accepted step (row 0 is the initial state) plus the
    terminal status and whether the weight structure condition held."""

    rows: list[tuple] = field(default_factory=list)
    status: str = ""
    structure_condition: bool = True

    def column(self, name: str) -> np.ndarray:
        idx = TRACE_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self) -> str:
        lines = [",".join(TRACE_COLUMNS)]
        for row in self.rows:
            step = str(row[0])
            rest = ",".join(repr(float(v)) for v in row[1:])
            lines.append(f"{step},{rest}")
        lines.append(f"# structure_condition={str(self.structure_condition).lower()}")
        lines.append(f"# status={self.status}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def spd_power(J, s: float) -> np.ndarray:
    """Real power of a symmetric positive definite matrix via its
    eigendecomposition; raises NotSPD on asymmetry or eigenvalues <= 0."""
    A = np.asarray(getattr(J, "dense", lambda: J)(), dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSPD("matrix must be square")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-8 * scale:
        raise NotSPD("matrix is not symmetric")
    w, V = np.linalg.eigh(A)
    if w[0] <= 0.0:
        raise NotSPD(f"matrix not positive definite, min eigenvalue {w[0]:.3e}",
                     min_eigenvalue=float(w[0]))
    return (V * w**s) @ V.T


def _as_dense(J) -> np.ndarray:
    if hasattr(J, "dense"):
        return J.dense()
    return np.asarray(J, dtype=float)


def velocity(method: str, s: float, K, Kbar, J=None) -> np.ndarray:
    """Right-hand side of the chosen flow at curvature K, target Kbar.

    The fractional flow with s = 0 or s = 1 dispatches to the ricci or
    calabi branch so the reduction identities hold exactly.  The calabi and
    fractional branches require the Jacobian to be positive definite and
    raise JacobianNotPD (reporting the minimum eigenvalue) otherwise.
    """
    if method not in FLOW_METHODS:
        raise DomainError(f"unknown flow method {method!r}")
    K = np.asarray(getattr(K, "K", K), dtype=float)
    Kbar = np.asarray(getattr(Kbar, "K", Kbar), dtype=float)
    if method == "fractional":
        if s == 0.0:
            method = "ricci"
        elif s == 1.0:
            method = "calabi"

    if method == "ricci":
        return Kbar - K

    if J is None:
        raise DomainError(f"method {method!r} needs the curvature Jacobian")
    A = _as_dense(J)
    w, V = np.linalg.eigh(A)
    if w[0] <= 0.0:
        raise JacobianNotPD(
            f"curvature Jacobian not positive definite, min eigenvalue {w[0]:.3e}",
            min_eigenvalue=float(w[0]),
        )
    r = K - Kbar
    if method == "calabi":
        return -(A @ r)
    return -((V * w**s) @ (V.T @ r))


def _min_edge_margin(s: Surface, alpha: np.ndarray) -> float:
    return float(np.min(edge_margins(s.arrays, alpha), initial=math.inf))


def _in_open_box(alpha: np.ndarray) -> bool:
    return bool(np.all((alpha > 0.0) & (alpha < _HALF_PI)))


def run_flow(
    s: Surface, a0: ConformalFactor, Kbar, cfg: FlowConfig
) -> tuple[ConformalFactor, FlowTrace]:
    """Integrate the configured flow from a0 toward curvature Kbar.

    Dynamics never raise: the trace records a terminal status of Converged,
    MaxSteps, StalledStep (dt underflow) or JacobianNotPD.  Malformed inputs
    (inadmissible a0, nonpositive Kbar) do raise.
    """
    Kbar = np.asarray(getattr(Kbar, "K", Kbar), dtype=float)
    if Kbar.shape != (s.n_boundary,) or not np.all(Kbar > 0.0):
        raise DomainError("target boundary lengths must be positive, one per component")

    base = default_base_point(s)
    trace = FlowTrace(structure_condition=structure_condition_holds(s))

    alpha = a0.alpha.copy()
    K = curvature(s, ConformalFactor(alpha)).K  # raises if a0 inadmissible
    resid = float(np.max(np.abs(K - Kbar)))
    cal = calabi_energy(K, Kbar)
    pot = potential(s, ConformalFactor(alpha), Kbar, base)
    trace.rows.append((0, 0.0, 0.0, resid, cal, pot, _min_edge_margin(s, alpha)))

    if resid <= cfg.tol:
        trace.status = CONVERGED
        return ConformalFactor(alpha), trace

    needs_jacobian = cfg.method == "calabi" or (
        cfg.method == "fractional" and cfg.s != 0.0
    )
    dt = cfg.dt0
    dt_cap = cfg.dt0 * cfg.dt_cap_factor
    t = 0.0
    accepted_run = 0

    for step in range(1, cfg.max_steps + 1):
        J = global_jacobian(s, ConformalFactor(alpha)) if needs_jacobian else None
        try:
            v = velocity(cfg.method, cfg.s, K, Kbar, J)
        except JacobianNotPD:
            trace.status = JACOBIAN_NOT_PD
            return ConformalFactor(alpha), trace

        # shrink dt until the proposed point passes both guards
        while True:
            if dt < DT_FLOOR:
                trace.status = STALLED_STEP
                return ConformalFactor(alpha), trace
            trial = alpha + dt * v
            if not _in_open_box(trial):
                dt *= cfg.shrink
                accepted_run = 0
                continue
            margin = _min_edge_margin(s, trial)
            if margin < cfg.admissibility_margin:
                dt *= cfg.shrink
                accepted_run = 0
                continue
            K_trial = curvature(s, ConformalFactor(trial)).K
            cal_trial = calabi_energy(K_trial, Kbar)
            if cal_trial > cal:
                dt *= cfg.shrink
                accepted_run = 0
                continue
            break

        pot += _segment_curvature_integral(s, alpha, trial) - float(
            Kbar @ (trial - alpha)
        )
        alpha, K, cal = trial, K_trial, cal_trial
        t += dt
        resid = float(np.max(np.abs(K - Kbar)))
        trace.rows.append((step, t, dt, resid, cal, pot, margin))

        if resid <= cfg.tol:
            trace.status = CONVERGED
            return ConformalFactor(alpha), trace

        accepted_run += 1
        if accepted_run >= cfg.grow_after:
            dt = min(dt / cfg.shrink, dt_cap)
            accepted_run = 0

    trace.status = MAX_STEPS
    return ConformalFactor(alpha), trace


def measured_decay_rate(trace: FlowTrace, tail_floor: float = 0.0) -> float:
    """Least-squares rate r of resid ~ C exp(-r t) over the trace rows with
    resid above tail_floor; positive means geometric decay."""
    t = trace.column("t")
    resid = trace.column("resid_inf")
    keep = resid > tail_floor
    t, resid = t[keep], resid[keep]
    if t.size < 2:
        return math.nan
    slope = np.polyfit(t, np.log(resid), 1)[0]
    return float(-slope)


@dataclass
class NewtonConfig:
    tol: float = 1e-10
    max_iters: int = 100
    armijo: float = 1e-4
    backtrack: float = 0.5
    admissibility_margin: float = 1e-9

    def __post_init__(self):
        if not self.tol > 0.0:
            raise DomainError("tol must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise DomainError("backtrack must lie in (0, 1)")
        if not 0.0 < self.armijo < 1.0:
            raise DomainError("armijo constant must lie in (0, 1)")


NEWTON_COLUMNS = ("iter", "resid_inf", "step_len", "potential", "min_margin", "gradient_fallback")


@dataclass
class NewtonLog:
    rows: list[tuple] = field(default_factory=list)
    status: str = ""

    def column(self, name: str) -> np.ndarray:
        idx = NEWTON_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self) -> str:
        lines = [",".join(NEWTON_COLUMNS)]
        for row in self.rows:
            lines.append(
                f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]!r},{int(row[5])}"
            )
        lines.append(f"# status={self.status}")
        return "\n".join(lines) + "\n"


def solve_prescribed(
    s: Surface, a0: ConformalFactor, Kbar, cfg: NewtonConfig | None = None
) -> tuple[ConformalFactor, NewtonLog]:
    """Damped Newton descent on the convex potential for target boundary
    lengths Kbar.

    Directions solve J d = -(K - Kbar) with a Cholesky factorization; a
    failed factorization falls back to one plain gradient step before a
    second consecutive failure raises JacobianNotPD.  Steps backtrack under
    an Armijo test on the potential with the same box and admissibility
    guards as the flows.  Persistent line-search failure against the
    admissible boundary raises NotAttained (no admissible factor realizes
    this target).  Returns on Converged or MaxIters.
    """
    if cfg is None:
        cfg = NewtonConfig()
    Kbar = np.asarray(getattr(Kbar, "K", Kbar), dtype=float)
    if Kbar.shape != (s.n_boundary,) or not np.all(Kbar > 0.0):
        raise DomainError("target boundary lengths must be positive, one per component")

    base = default_base_point(s)
    log = NewtonLog()
    alpha = a0.alpha.copy()
    K = curvature(s, ConformalFactor(alpha)).K
    pot = potential(s, ConformalFactor(alpha), Kbar, base)
    resid = float(np.max(np.abs(K - Kbar)))
    log.rows.append((0, resid, 0.0, pot, _min_edge_margin(s, alpha), False))
    if resid <= cfg.tol:
        log.status = CONVERGED
        return ConformalFactor(alpha), log

    previous_fallback = False
    for it in range(1, cfg.max_iters + 1):
        grad = K - Kbar
        J = global_jacobian(s, ConformalFactor(alpha)).dense()
        fallback = False
        try:
            c = np.linalg.cholesky(J)
            d = -np.linalg.solve(c.T, np.linalg.solve(c, grad))
        except np.linalg.LinAlgError:
            if previous_fallback:
                min_eig = float(np.linalg.eigvalsh(J).min())
                raise JacobianNotPD(
                    "curvature Jacobian not positive definite on consecutive "
                    f"iterations, min eigenvalue {min_eig:.3e}",
                    min_eigenvalue=min_eig,
                ) from None
            d = -grad
            fallback = True
        previous_fallback = fallback

        slope = float(grad @ d)
        lam = 1.0
        while True:
            if lam < STEP_FLOOR:
                log.status = NOT_ATTAINED
                raise NotAttained(
                    f"line search stalled at iteration {it} with residual "
                    f"{resid:.3e} and min margin {_min_edge_margin(s, alpha):.3e}; "
                    "no admissible factor appears to realize this target",
                    log=log,
                )
            trial = alpha + lam * d
            if not _in_open_box(trial):
                lam *= cfg.backtrack
                continue
            margin = _min_edge_margin(s, trial)
            if margin < cfg.admissibility_margin:
                lam *= cfg.backtrack
                continue
            dpot = _segment_curvature_integral(s, alpha, trial) - float(
                Kbar @ (trial - alpha)
            )
            if dpot <= cfg.armijo * lam * slope:
                break
            lam *= cfg.backtrack

        alpha = trial
        pot += dpot
        K = curvature(s, ConformalFactor(alpha)).K
        resid = float(np.max(np.abs(K - Kbar)))
        log.rows.append((it, resid, lam, pot, margin, fallback))
        if resid <= cfg.tol:
            log.status = CONVERGED
            return ConformalFactor(alpha), log

    log.status = MAX_ITERS
    return ConformalFactor(alpha), log


def solve_prescribed_multistart(
    s: Surface,
    starts,
    Kbar,
    cfg: NewtonConfig | None = None,
    consistency_tol: float = 1e-8,
) -> ConformalFactor:
    """Solve from several starts and assert the solutions coincide (they
    must: the potential is strictly convex, so the solution is unique)."""
    solutions = []
    for a0 in starts:
        factor, log = solve_prescribed(s, a0, Kbar, cfg)
        if log.status != CONVERGED:
            raise NotAttained(f"start did not converge: {log.status}", log=log)
        solutions.append(factor.alpha)
    ref = solutions[0]
    for other in solutions[1:]:
        spread = float(np.max(np.abs(other - ref)))
        if spread > consistency_tol:
            raise AssertionError(
                f"multi-start solutions disagree by {spread:.3e} "
                f"(> {consistency_tol:g}); uniqueness violated"
            )
    return ConformalFactor(ref)
