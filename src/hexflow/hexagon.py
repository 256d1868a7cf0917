"""Scalar per-face reference for right-angled hyperbolic hexagons.

A face carries three corner parameters a in (0, pi/2), three edge weights
eta > -1, and the derived hexagon metric: side lengths

    cosh(l_ij) = (cos(a_i) cos(a_j) + eta_ij) / (sin(a_i) sin(a_j)),

which is a positive length exactly when cos(a_i + a_j) > -eta_ij, and
boundary-arc lengths (generalized angles) from the hexagon cosine law

    cosh(th_i) = (cosh(l_ij) cosh(l_ik) + cosh(l_jk)) / (sinh(l_ij) sinh(l_ik)).

Everything here is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotAdmissible
from .tolerances import ADMISSIBILITY_EPS, FD_STEP

_HALF_PI = 0.5 * math.pi


def acosh1p(t: float) -> float:
    """arccosh(1 + t) for t >= 0, accurate for t near 0 and huge t."""
    if t < 0.0:
        raise DomainError(f"arccosh argument below 1: 1 + {t!r}")
    if t > 1e12:
        return _acosh1p_log(math.log(t))
    return math.log1p(t + math.sqrt(t * (t + 2.0)))


def _acosh1p_log(log_t: float) -> float:
    # arccosh(1 + t) for t = e^log_t > 1e12, which may be beyond the float
    # range: log(2 (1 + t)) up to O(1/t^2), and log(1 + t) = log_t + log1p(1/t)
    return math.log(2.0) + log_t + math.log1p(math.exp(-log_t))


def _log1pexp(x: float) -> float:
    # log(1 + e^x) without overflow
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


@dataclass(frozen=True)
class CornerAlpha:
    """Corner parameters of one face, each strictly inside (0, pi/2)."""

    a_i: float
    a_j: float
    a_k: float

    def __post_init__(self):
        for name, a in (("a_i", self.a_i), ("a_j", self.a_j), ("a_k", self.a_k)):
            if not (0.0 < a < _HALF_PI):
                raise DomainError(f"{name} = {a!r} outside (0, pi/2)")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a_i, self.a_j, self.a_k)


@dataclass(frozen=True)
class FaceEta:
    """Edge weights of one face; gammas are recomputed on access."""

    e_ij: float
    e_ik: float
    e_jk: float

    def __post_init__(self):
        for name, e in (("e_ij", self.e_ij), ("e_ik", self.e_ik), ("e_jk", self.e_jk)):
            if not e > -1.0:
                raise DomainError(f"{name} = {e!r} is not > -1")

    @property
    def gamma_i(self) -> float:
        return self.e_jk + self.e_ij * self.e_ik

    @property
    def gamma_j(self) -> float:
        return self.e_ik + self.e_ij * self.e_jk

    @property
    def gamma_k(self) -> float:
        return self.e_ij + self.e_ik * self.e_jk

    def satisfies_structure_condition(self) -> bool:
        return self.gamma_i >= 0.0 and self.gamma_j >= 0.0 and self.gamma_k >= 0.0


@dataclass(frozen=True)
class HexagonMetric:
    """Side lengths, boundary-arc lengths and the sine-law invariant
    A = sinh(l_ij) sinh(l_ik) sinh(th_i) of one right-angled hexagon."""

    l_ij: float
    l_ik: float
    l_jk: float
    th_i: float
    th_j: float
    th_k: float
    A: float

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.l_ij, self.l_ik, self.l_jk)

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.th_i, self.th_j, self.th_k)


def edge_margin(a_i: float, a_j: float, eta: float) -> float:
    """Admissibility margin cos(a_i + a_j) + eta; the edge length is positive
    exactly when this is positive."""
    return math.cos(a_i + a_j) + eta


def edge_length_alpha(a_i: float, a_j: float, eta: float) -> float:
    """Hyperbolic length of the edge between corners with parameters a_i, a_j.

    Uses cosh(l) - 1 = (cos(a_i + a_j) + eta) / (sin(a_i) sin(a_j)), which is
    exact and avoids cancellation near the admissibility boundary; where that
    quotient t exceeds 1e12 the length is computed from log t, so a product of
    sines that underflows (a_i, a_j near 0) still gives the finite length.
    The array kernel (`curvature`) raises DomainError at such points, where
    its sinh overflows.  Raises NotAdmissible (carrying the deficit) when the
    margin is at most ADMISSIBILITY_EPS.
    """
    margin = edge_margin(a_i, a_j, eta)
    if margin <= ADMISSIBILITY_EPS:
        raise NotAdmissible(
            f"cos(a_i + a_j) + eta = {margin:.3e} <= {ADMISSIBILITY_EPS:g} "
            f"at (a_i, a_j, eta) = ({a_i!r}, {a_j!r}, {eta!r})",
            deficit=margin,
        )
    sin_i, sin_j = math.sin(a_i), math.sin(a_j)
    den = sin_i * sin_j
    if den >= 1e-12 * margin:
        return acosh1p(margin / den)
    if not (sin_i > 0.0 and sin_j > 0.0):
        raise DomainError(f"sin(a_i) sin(a_j) is not positive at (a_i, a_j) = ({a_i!r}, {a_j!r})")
    return _acosh1p_log(math.log(margin) - math.log(sin_i) - math.log(sin_j))


def edge_length_u(u_i: float, u_j: float, eta: float) -> float:
    """Edge length in the log-scale parameters u = -log(tan(a)).

    cosh(l) - 1 = expm1(u_i + u_j) + eta * sqrt((1 + e^{2 u_i})(1 + e^{2 u_j}))
    with the logarithm of the square root, log_root, evaluated first.  Where
    the root would overflow, t = cosh(l) - 1 is computed as its logarithm,
    log_root + log(cos(a_i + a_j) + eta), as 1 / root = sin(a_i) sin(a_j);
    so the formula is safe for every u up to where 2 u overflows, and raises
    DomainError beyond.  The array kernel (`curvature`) raises DomainError at
    such points, where its sinh overflows.
    """
    log_root = 0.5 * (_log1pexp(2.0 * u_i) + _log1pexp(2.0 * u_j))
    if log_root > 700.0:  # e^log_root is near the float range
        if log_root == math.inf:
            raise DomainError(f"2 u overflows at (u_i, u_j) = ({u_i!r}, {u_j!r})")
        margin = math.exp(u_i + u_j - log_root) - math.exp(-log_root) + eta
        if margin <= 0.0:
            raise NotAdmissible(
                f"cos(a_i + a_j) + eta = {margin:.3e} <= 0 at (u_i, u_j, eta) = "
                f"({u_i!r}, {u_j!r}, {eta!r})",
                deficit=margin,
            )
        return _acosh1p_log(log_root + math.log(margin))
    t = math.expm1(u_i + u_j) + eta * math.exp(log_root)
    if t <= 0.0:
        raise NotAdmissible(
            f"cosh(l) - 1 = {t:.3e} <= 0 at (u_i, u_j, eta) = "
            f"({u_i!r}, {u_j!r}, {eta!r})",
            deficit=t,
        )
    return acosh1p(t)


def _corner_arc(l_a: float, l_b: float, l_opp: float) -> float:
    # cosh(th) - 1 = (cosh(l_a - l_b) + cosh(l_opp)) / (sinh(l_a) sinh(l_b));
    # the numerator is >= 2, so any positive lengths give a valid arc unless
    # a cosh or sinh overflows.
    try:
        t = (math.cosh(l_a - l_b) + math.cosh(l_opp)) / (math.sinh(l_a) * math.sinh(l_b))
    except OverflowError:
        t = math.nan
    if not 0.0 < t < math.inf:
        raise DomainError(
            f"hexagon cosine law out of float range at lengths ({l_a!r}, {l_b!r}, {l_opp!r})"
        )
    return acosh1p(t)


def hexagon_angles(l_ij: float, l_ik: float, l_jk: float):
    """Boundary-arc lengths (th_i, th_j, th_k) and the invariant A from the
    hexagon cosine law.  Any positive side lengths are geometric."""
    if not (l_ij > 0.0 and l_ik > 0.0 and l_jk > 0.0):
        raise DomainError(
            f"side lengths must be positive, got ({l_ij!r}, {l_ik!r}, {l_jk!r})"
        )
    th_i = _corner_arc(l_ij, l_ik, l_jk)
    th_j = _corner_arc(l_ij, l_jk, l_ik)
    th_k = _corner_arc(l_ik, l_jk, l_ij)
    A = math.sinh(l_ij) * math.sinh(l_ik) * math.sinh(th_i)
    return th_i, th_j, th_k, A


def face_metric(alpha: CornerAlpha, eta: FaceEta) -> HexagonMetric:
    """Build the hexagon metric of a face from its corner parameters and
    weights.  Raises NotAdmissible if any edge degenerates."""
    l_ij = edge_length_alpha(alpha.a_i, alpha.a_j, eta.e_ij)
    l_ik = edge_length_alpha(alpha.a_i, alpha.a_k, eta.e_ik)
    l_jk = edge_length_alpha(alpha.a_j, alpha.a_k, eta.e_jk)
    th_i, th_j, th_k, A = hexagon_angles(l_ij, l_ik, l_jk)
    return HexagonMetric(l_ij, l_ik, l_jk, th_i, th_j, th_k, A)


def angle_length_jacobian(m: HexagonMetric) -> np.ndarray:
    """d(th_i, th_j, th_k) / d(l_ij, l_ik, l_jk) from the derivative cosine
    law; each entry is -sinh(l_opp) cosh(th) / A up to the sign pattern."""
    s_ij, s_ik, s_jk = math.sinh(m.l_ij), math.sinh(m.l_ik), math.sinh(m.l_jk)
    c_i, c_j, c_k = math.cosh(m.th_i), math.cosh(m.th_j), math.cosh(m.th_k)
    return (-1.0 / m.A) * np.array(
        [
            [s_jk * c_j, s_jk * c_k, -s_jk],
            [s_ik * c_i, -s_ik, s_ik * c_k],
            [-s_ij, s_ij * c_i, s_ij * c_j],
        ]
    )


def length_alpha_jacobian(
    alpha: CornerAlpha, eta: FaceEta, m: HexagonMetric
) -> np.ndarray:
    """d(l_ij, l_ik, l_jk) / d(a_i, a_j, a_k); each length depends only on
    its two endpoint parameters."""

    def d(l, a_p, a_q, e):
        # d l_pq / d a_p
        return -(math.cos(a_q) + e * math.cos(a_p)) / (
            math.sinh(l) * math.sin(a_p) ** 2 * math.sin(a_q)
        )

    a_i, a_j, a_k = alpha.as_tuple()
    return np.array(
        [
            [d(m.l_ij, a_i, a_j, eta.e_ij), d(m.l_ij, a_j, a_i, eta.e_ij), 0.0],
            [d(m.l_ik, a_i, a_k, eta.e_ik), 0.0, d(m.l_ik, a_k, a_i, eta.e_ik)],
            [0.0, d(m.l_jk, a_j, a_k, eta.e_jk), d(m.l_jk, a_k, a_j, eta.e_jk)],
        ]
    )


def face_jacobian_chain(alpha: CornerAlpha, eta: FaceEta) -> np.ndarray:
    """Angle Jacobian d(th)/d(a) as the product of the derivative cosine law
    with the length derivatives.  Symmetric up to rounding."""
    m = face_metric(alpha, eta)
    return angle_length_jacobian(m) @ length_alpha_jacobian(alpha, eta, m)


def face_jacobian_closed(alpha: CornerAlpha, eta: FaceEta) -> np.ndarray:
    """Angle Jacobian d(th)/d(a) with exactly symmetric off-diagonal entries.

    Off-diagonal entries use the closed form

        dth_i/da_j = [(1 - e_ij^2) cos(a_k) + gamma_j cos(a_i)
                      + gamma_i cos(a_j)]
                     / (A sinh^2(l_ij) sin^2(a_i) sin^2(a_j) sin(a_k)),

    diagonal entries come from the chain rule (no closed form exists for
    general weights).
    """
    m = face_metric(alpha, eta)
    a_i, a_j, a_k = alpha.as_tuple()
    s_i, s_j, s_k = math.sin(a_i), math.sin(a_j), math.sin(a_k)
    c_i, c_j, c_k = math.cos(a_i), math.cos(a_j), math.cos(a_k)
    g_i, g_j, g_k = eta.gamma_i, eta.gamma_j, eta.gamma_k

    d_ij = ((1.0 - eta.e_ij**2) * c_k + g_j * c_i + g_i * c_j) / (
        m.A * math.sinh(m.l_ij) ** 2 * s_i**2 * s_j**2 * s_k
    )
    d_ik = ((1.0 - eta.e_ik**2) * c_j + g_k * c_i + g_i * c_k) / (
        m.A * math.sinh(m.l_ik) ** 2 * s_i**2 * s_k**2 * s_j
    )
    d_jk = ((1.0 - eta.e_jk**2) * c_i + g_k * c_j + g_j * c_k) / (
        m.A * math.sinh(m.l_jk) ** 2 * s_j**2 * s_k**2 * s_i
    )

    chain = angle_length_jacobian(m) @ length_alpha_jacobian(alpha, eta, m)
    return np.array(
        [
            [chain[0, 0], d_ij, d_ik],
            [d_ij, chain[1, 1], d_jk],
            [d_ik, d_jk, chain[2, 2]],
        ]
    )


def central_difference(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of the vector map f at the point x: column
    c is (f(x + h e_c) - f(x - h e_c)) / (2h).  The one loop behind every
    finite-difference oracle; raises DomainError unless 0 < h < inf."""
    if not 0.0 < h < math.inf:
        raise DomainError(f"finite-difference step {h!r} must be positive and finite")
    x = np.asarray(x, dtype=float)
    cols = []
    for c in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[c] += h
        lo[c] -= h
        cols.append((f(hi) - f(lo)) / (2.0 * h))
    return np.column_stack(cols)


def face_jacobian_fd(alpha: CornerAlpha, eta: FaceEta, h: float = FD_STEP) -> np.ndarray:
    """Central-difference oracle for the angle Jacobian; raises NotAdmissible
    if a perturbed point leaves the admissible set."""
    return central_difference(
        lambda a: np.array(face_metric(CornerAlpha(*a.tolist()), eta).angles), alpha.as_tuple(), h
    )


def length_jacobian_fd(alpha: CornerAlpha, eta: FaceEta) -> np.ndarray:
    """Central-difference oracle for d(l_ij, l_ik, l_jk) / d(a_i, a_j, a_k);
    raises NotAdmissible if a perturbed point leaves the admissible set."""

    def lengths(a):
        a_i, a_j, a_k = a.tolist()
        sides = ((a_i, a_j, eta.e_ij), (a_i, a_k, eta.e_ik), (a_j, a_k, eta.e_jk))
        return np.array([edge_length_alpha(*side) for side in sides])

    return central_difference(lengths, alpha.as_tuple())


def _det_denominator(alpha: CornerAlpha, m: HexagonMetric) -> float:
    # sinh(l_ij) sinh(l_ik) sinh(l_jk) sin^3(a_i) sin^3(a_j) sin^3(a_k), shared
    # by det_length_alpha_jacobian and det_lower_bound
    s_i, s_j, s_k = (math.sin(a) for a in alpha.as_tuple())
    return math.sinh(m.l_ij) * math.sinh(m.l_ik) * math.sinh(m.l_jk) * s_i**3 * s_j**3 * s_k**3


def det_length_alpha_jacobian(alpha: CornerAlpha, eta: FaceEta) -> float:
    """Closed-form determinant of d(l_ij, l_ik, l_jk)/d(a_i, a_j, a_k);
    strictly positive whenever the structure condition holds."""
    m = face_metric(alpha, eta)
    a_i, a_j, a_k = alpha.as_tuple()
    c_i, c_j, c_k = math.cos(a_i), math.cos(a_j), math.cos(a_k)
    num = (
        2.0 * (1.0 + eta.e_ij * eta.e_ik * eta.e_jk) * c_i * c_j * c_k
        + eta.gamma_i * c_i * (c_j**2 + c_k**2)
        + eta.gamma_j * c_j * (c_i**2 + c_k**2)
        + eta.gamma_k * c_k * (c_i**2 + c_j**2)
    )
    return num / _det_denominator(alpha, m)


def det_lower_bound(alpha: CornerAlpha, eta: FaceEta) -> float:
    """Product lower bound 2 cos(a_i) cos(a_j) cos(a_k) (1+e_ij)(1+e_ik)(1+e_jk)
    over the same denominator; valid under the structure condition."""
    m = face_metric(alpha, eta)
    a_i, a_j, a_k = alpha.as_tuple()
    num = (
        2.0
        * math.cos(a_i)
        * math.cos(a_j)
        * math.cos(a_k)
        * (1.0 + eta.e_ij)
        * (1.0 + eta.e_ik)
        * (1.0 + eta.e_jk)
    )
    return num / _det_denominator(alpha, m)


def diagonal_identity_residuals(alpha: CornerAlpha, eta: FaceEta) -> tuple[float, float, float]:
    """Residuals J_pp - sum_q J_pq cosh(l_pq) per corner.

    Exactly zero (in exact arithmetic) when all weights vanish; exposed as a
    diagnostic for general weights, where the identity is only conjectural.
    """
    m = face_metric(alpha, eta)
    J = face_jacobian_closed(alpha, eta)
    ch_ij, ch_ik, ch_jk = math.cosh(m.l_ij), math.cosh(m.l_ik), math.cosh(m.l_jk)
    r_i = J[0, 0] - J[0, 1] * ch_ij - J[0, 2] * ch_ik
    r_j = J[1, 1] - J[1, 0] * ch_ij - J[1, 2] * ch_jk
    r_k = J[2, 2] - J[2, 0] * ch_ik - J[2, 1] * ch_jk
    return (r_i, r_j, r_k)


def cosine_law_residual(m: HexagonMetric) -> float:
    """Worst absolute residual of the cosine law across the three corners."""
    res = 0.0
    for th, (l_a, l_b, l_opp) in zip(
        m.angles,
        (
            (m.l_ij, m.l_ik, m.l_jk),
            (m.l_ij, m.l_jk, m.l_ik),
            (m.l_ik, m.l_jk, m.l_ij),
        ),
    ):
        lhs = math.cosh(th) * math.sinh(l_a) * math.sinh(l_b)
        rhs = math.cosh(l_a) * math.cosh(l_b) + math.cosh(l_opp)
        res = max(res, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return res
