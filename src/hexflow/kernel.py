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

The kernel computes slot-major.  It transposes the (..., F, 3) input once
to a contiguous (3, F, ...) array, so that each per-slot operand is a
gather along axis 0, which copies whole blocks; numpy copies a gather
along the last axis element by element (at shape (2048, 1, 3), 1.8 us
against 26 us on a 2-vCPU x86-64 VM).  Its outputs keep the C layout
(..., F, 3), (..., F) and (..., F, 3, 3), so every reduction downstream
(the bincount of the arcs in face-then-slot order, the matmul of the
potential's integrand) keeps its bits; matmul rounds a transposed view
differently.

The kernel does not check admissibility; callers pass every point, or a
segment's end points, through the gate `conformal.factor_margins` first.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .triangulation import _P, _Q, _QQ, _R, Surface

# Row-major 3x3 block from (J_ii, J_jj, J_kk, J_ij, J_ik, J_jk).
_BLOCK = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


class FaceValues(NamedTuple):
    """Kernel output over batch axes (..., F): lengths (l_ij, l_ik, l_jk)
    and arcs (th_i, th_j, th_k) of shape (..., F, 3), A of shape (..., F),
    and, when requested, the angle Jacobian blocks d(th)/d(a) of shape
    (..., F, 3, 3), exactly symmetric."""

    lengths: np.ndarray
    arcs: np.ndarray
    A: np.ndarray
    jacobian: np.ndarray | None = None


def edge_margins(s: Surface, alpha: np.ndarray) -> np.ndarray:
    """Admissibility margins cos(a_i + a_j) + eta per edge, in surface edge
    order, for factors alpha of shape (..., n); returns (..., M)."""
    ends = s.ends
    return np.cos(alpha[..., ends[:, 0]] + alpha[..., ends[:, 1]]) + s.edge_etas


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


def _c_layout(x: np.ndarray) -> np.ndarray:
    # a slot-major (k, F, ...) array in the C layout (..., F, k) of the outputs
    return np.ascontiguousarray(x.T)


def _slot_arcs(L: np.ndarray, face_ids):
    # face_arcs on slot-major lengths L (3, F, ...); A has shape (F, ...)
    sh = np.sinh(L)
    # cosh(th) - 1 = (cosh(l_a - l_b) + cosh(l_opp)) / (sinh(l_a) sinh(l_b))
    # for th_i, th_j, th_k with (l_a, l_b, l_opp) = (ij, ik, jk),
    # (ij, jk, ik), (ik, jk, ij)
    t = (np.cosh(L.take(_P, 0) - L.take(_Q, 0)) + np.cosh(L.take(_R, 0))) / (
        sh.take(_P, 0) * sh.take(_Q, 0)
    )
    arcs = _acosh1p(t)
    A = sh[0] * sh[1] * np.sinh(arcs[0])
    # A NaN or infinite length makes some arc NaN, infinite or zero, and no
    # arc is negative, so a finite sum of log(th A) shows every arc and A
    # finite and positive; an over- or underflow of th A only runs the check.
    if not math.isfinite(np.log(arcs * A).sum()):
        _check_faces(
            face_ids,
            (
                ("edge length", L.T, True),
                ("boundary arc", arcs.T, True),
                ("invariant A", A.T[..., None], True),
            ),
        )
    return sh, arcs, A


def face_arcs(lengths: np.ndarray, face_ids=None):
    """The arc half of face_kernel: (sinh(lengths), arcs, A) from side
    lengths (l_ij, l_ik, l_jk) of shape (..., F, 3), raising as face_kernel
    does when an arc or A fails.  Call it inside np.errstate(all="ignore")."""
    return tuple(map(_c_layout, _slot_arcs(_c_layout(lengths), face_ids)))


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
        a = _c_layout(a)
        eta = _c_layout(eta[(None,) * (a.ndim - 2)])  # (3, F, 1, ...)
        sa = np.sin(a)
        # cosh(l) - 1 = (cos(a_p + a_q) + eta) / (sin(a_p) sin(a_q))
        t = (np.cos(a.take(_P, 0) + a.take(_Q, 0)) + eta) / (sa.take(_P, 0) * sa.take(_Q, 0))
        L = _acosh1p(t)
        sh, arcs, A = _slot_arcs(L, face_ids)
        lengths = _c_layout(L)
        if not jacobian:
            return FaceValues(lengths, _c_layout(arcs), _c_layout(A))

        ca = np.cos(a)
        s2 = sa * sa
        # gamma_i, gamma_j, gamma_k
        g = eta.take(_R, 0) + eta.take(_P, 0) * eta.take(_Q, 0)
        off = (
            (1.0 - eta**2) * ca.take(_R, 0)
            + g.take(_Q, 0) * ca.take(_P, 0)
            + g.take(_P, 0) * ca.take(_Q, 0)
        ) / (A * sh**2 * s2.take(_P, 0) * s2.take(_Q, 0) * sa.take(_R, 0))

        # J_pp is the sum over the two sides pq at corner p of
        # dth_p/dl_pq * dl_pq/da_p, where dth_p/dl_pq = -sinh(l_opp(p))
        # cosh(th_q) / A and dl_pq/da_p = -(cos a_q + e_pq cos a_p)
        # / (sinh(l_pq) sin(a_p)^2 sin(a_q)); the two signs cancel exactly.
        # The corners q are _QQ, and the sides pq are (_P, _Q).
        pq = (_P, _Q)
        dl = (ca.take(_QQ, 0) + eta.take(pq, 0) * ca) / (sh.take(pq, 0) * s2 * sa.take(_QQ, 0))
        terms = ((1.0 / A) * (sh.take(_R, 0) * np.cosh(arcs).take(_QQ, 0))) * dl
        J = _c_layout(np.concatenate((terms[0] + terms[1], off)).take(_BLOCK, 0))
        J = J.reshape(lengths.shape + (3,))
        if not math.isfinite(J.sum()):
            _check_faces(face_ids, (("angle Jacobian", J.reshape(J.shape[:-2] + (9,)), False),))
    return FaceValues(lengths, _c_layout(arcs), _c_layout(A), J)
