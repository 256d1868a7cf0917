"""Array-native hexagon kernel: every face of a surface, at any number of
points, in one pass of numpy expressions.

The kernel evaluates, per face with corner parameters (a_i, a_j, a_k) and
weights (e_ij, e_ik, e_jk), the same formulas as the scalar functions in
`hexflow.hexagon` (which remain as the reference the tests compare
against): side lengths from the admissibility margin, boundary arcs from
the cancellation-free cosine law, the invariant A, and the angle Jacobian
with closed-form off-diagonal entries and chain-rule diagonal entries.
Inputs carry any leading batch axes, so one call covers every node of a
quadrature level.

The kernel does not check admissibility; callers check the box and the
edge margins first (`edge_margins`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .triangulation import SurfaceArrays

# Corner slots of the face sides (ij, ik, jk), in length order, and the
# corner opposite each side.
_P = np.array([0, 0, 1])
_Q = np.array([1, 2, 2])
_R = np.array([2, 1, 0])
# For corner p: the other two corners, and the sides joining them to p.
_Q1, _E1 = np.array([1, 0, 0]), np.array([0, 0, 1])
_Q2, _E2 = np.array([2, 2, 1]), np.array([1, 2, 2])
# Row-major 3x3 block from (J_ii, J_jj, J_kk, J_ij, J_ik, J_jk).
_BLOCK = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


@dataclass(frozen=True)
class FaceValues:
    """Kernel output over batch axes (..., F): lengths (l_ij, l_ik, l_jk)
    and arcs (th_i, th_j, th_k) of shape (..., F, 3), A of shape (..., F),
    and, when requested, the angle Jacobian blocks d(th)/d(a) of shape
    (..., F, 3, 3), exactly symmetric."""

    lengths: np.ndarray
    arcs: np.ndarray
    A: np.ndarray
    jacobian: np.ndarray | None = None


def edge_margins(arrays: SurfaceArrays, alpha: np.ndarray) -> np.ndarray:
    """Admissibility margins cos(a_i + a_j) + eta per edge, in surface edge
    order, for factors alpha of shape (..., n); returns (..., M)."""
    ends = arrays.ends
    return np.cos(alpha[..., ends[:, 0]] + alpha[..., ends[:, 1]]) + arrays.edge_etas


def _acosh1p(t: np.ndarray) -> np.ndarray:
    # arccosh(1 + t) = log1p(t + sqrt(t (t + 2))); the root is split so
    # that it does not overflow before the result does
    return np.log1p(t + np.sqrt(t) * np.sqrt(t + 2.0))


def _check_faces(face_ids, checks) -> None:
    # Raise DomainError for the first face with a value that is not finite
    # (and, where required, positive) at any batch point.  checks holds
    # (name, values (..., F, k), positive).
    for what, x, positive in checks:
        ok = np.isfinite(x) & (x > 0.0) if positive else np.isfinite(x)
        ok = ok.reshape(-1, x.shape[-2], x.shape[-1]).all(axis=(0, 2))
        if not ok.all():
            f = int(np.argmin(ok))
            name = face_ids[f] if face_ids is not None else f
            qualifier = "finite and positive" if positive else "finite"
            raise DomainError(f"face {name}: {what} not {qualifier}")


def face_kernel(
    a: np.ndarray, eta: np.ndarray, jacobian: bool = False, face_ids=None
) -> FaceValues:
    """Evaluate every face at once.

    a has shape (..., F, 3) (corner parameters by slot) and eta shape (F, 3)
    (weights e_ij, e_ik, e_jk).  Raises DomainError naming the face (by its
    id in face_ids, else its position) when a length, arc or A is not finite
    and positive, or a Jacobian entry is not finite; this happens when a
    sine underflows or a sinh overflows at extreme points.
    """
    with np.errstate(all="ignore"):
        sa = np.sin(a)
        # cosh(l) - 1 = (cos(a_p + a_q) + eta) / (sin(a_p) sin(a_q))
        t = (np.cos(a.take(_P, -1) + a.take(_Q, -1)) + eta) / (sa.take(_P, -1) * sa.take(_Q, -1))
        lengths = _acosh1p(t)
        sh = np.sinh(lengths)
        # cosh(th) - 1 = (cosh(l_a - l_b) + cosh(l_opp)) / (sinh(l_a) sinh(l_b))
        # for th_i, th_j, th_k with (l_a, l_b, l_opp) = (ij, ik, jk),
        # (ij, jk, ik), (ik, jk, ij)
        t = (
            np.cosh(lengths.take(_P, -1) - lengths.take(_Q, -1)) + np.cosh(lengths.take(_R, -1))
        ) / (sh.take(_P, -1) * sh.take(_Q, -1))
        arcs = _acosh1p(t)
        A = sh[..., 0] * sh[..., 1] * np.sinh(arcs[..., 0])
        # A NaN or infinite length makes some arc NaN, infinite or zero, so
        # finite positive arcs and A cover the lengths too.
        if not (np.isfinite(arcs.sum() + A.sum()) and arcs.min() > 0.0 and A.min() > 0.0):
            _check_faces(
                face_ids,
                (
                    ("edge length", lengths, True),
                    ("boundary arc", arcs, True),
                    ("invariant A", A[..., None], True),
                ),
            )
        if not jacobian:
            return FaceValues(lengths, arcs, A)

        ca = np.cos(a)
        s2 = sa * sa
        A3 = A[..., None]
        inv_A = 1.0 / A3
        # gamma_i, gamma_j, gamma_k
        g = eta.take(_R, 1) + eta.take(_P, 1) * eta.take(_Q, 1)
        off = (
            (1.0 - eta**2) * ca.take(_R, -1)
            + g.take(_Q, 1) * ca.take(_P, -1)
            + g.take(_P, 1) * ca.take(_Q, -1)
        ) / (A3 * sh**2 * s2.take(_P, -1) * s2.take(_Q, -1) * sa.take(_R, -1))

        # J_pp is the sum over the two sides pq at corner p of
        # dth_p/dl_pq * dl_pq/da_p, where dth_p/dl_pq = -sinh(l_opp(p))
        # cosh(th_q) / A and dl_pq/da_p = -(cos a_q + e_pq cos a_p)
        # / (sinh(l_pq) sin(a_p)^2 sin(a_q)); the two signs cancel exactly.
        s_opp = sh.take(_R, -1)
        ch = np.cosh(arcs)

        def term(q, e):
            dl = (ca.take(q, -1) + eta.take(e, 1) * ca) / (sh.take(e, -1) * s2 * sa.take(q, -1))
            return (inv_A * (s_opp * ch.take(q, -1))) * dl

        diag = term(_Q1, _E1) + term(_Q2, _E2)
        J = np.concatenate((diag, off), axis=-1).take(_BLOCK, -1).reshape(a.shape + (3,))
        if not np.isfinite(J.sum()):
            _check_faces(face_ids, (("angle Jacobian", J.reshape(J.shape[:-2] + (9,)), False),))
    return FaceValues(lengths, arcs, A, J)
