"""Relative volume of the hyperbolic pyramid over a right-angled hexagon.

With the edge weights of a face held fixed, the volume of the associated
truncated pyramid is a function of the three corner dihedral angles alone,
and its differential is -(1/2) (th_i da_i + th_j da_j + th_k da_k).  Only
volume differences against a chart's base point are computed; the absolute
normalization would require decomposing the truncated polytope and is out of
scope.  The Hessian is -(1/2) times the angle Jacobian, hence negative
definite under the structure condition: the volume is strictly concave in
the dihedral angles.

`volume_grid` tabulates a chart over many points at once: one gate
evaluation for all of them, the Hessians in batched kernel calls and the
volumes in one batched line integral, which gates nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import (
    ConformalFactor, _faces, _segment_curvature_integral, _segment_integrals, curvature,
    factor_margins,
)
from .errors import DomainError
from .hexagon import CornerAlpha, FaceEta
from .tolerances import ADMISSIBILITY_EPS, BATCH_FACE_EVALS
from .triangulation import Edge, Face, Surface


@dataclass(frozen=True)
class PyramidChart:
    """Fixed weights (hyper-ideal vertex positions) plus an admissible base
    point at which the relative volume vanishes."""

    eta: FaceEta
    base_alpha: CornerAlpha

    def __post_init__(self):
        # raises NotAdmissible if the base point is bad, DomainError if the
        # kernel fails there (its Hessian included), so volume_grid keeps it
        curvature(self.surface, ConformalFactor(self.base_alpha.as_tuple()), jacobian=True)

    @cached_property
    def surface(self) -> Surface:
        """The chart's face as a one-face surface on components 0, 1, 2, so
        its curvature is the arc vector (th_i, th_j, th_k)."""
        edges = (
            Edge(id=0, ends=(1, 2), eta=self.eta.e_jk),
            Edge(id=1, ends=(0, 2), eta=self.eta.e_ik),
            Edge(id=2, ends=(0, 1), eta=self.eta.e_ij),
        )
        return Surface(n_boundary=3, edges=edges, faces=(Face(0, (0, 1, 2), (0, 1, 2)),))


def relative_volume(chart: PyramidChart, a: CornerAlpha) -> float:
    """V(a) - V(base): minus half the line integral of th . da along the
    straight segment from the base point, which gates a and the base."""
    start = np.array(chart.base_alpha.as_tuple())
    end = np.array(a.as_tuple())
    # 0.0 - x, not -x: the base point's zero-length segment gives 0.0, not -0.0
    return 0.0 - 0.5 * _segment_curvature_integral(chart.surface, start, end)


def volume_gradient(chart: PyramidChart, a: CornerAlpha) -> np.ndarray:
    """Gradient of the relative volume: -(1/2) times the boundary arcs."""
    return -0.5 * curvature(chart.surface, ConformalFactor(a.as_tuple())).K


def volume_hessian(chart: PyramidChart, a: CornerAlpha) -> np.ndarray:
    """Hessian of the relative volume: -(1/2) times the angle Jacobian.
    All eigenvalues are negative under the structure condition."""
    J = curvature(chart.surface, ConformalFactor(a.as_tuple()), jacobian=True).jacobian
    return -0.5 * J.dense()


def volume_grid(chart: PyramidChart, alphas: np.ndarray):
    """The rows of alphas (N, 3) at which volume_hessian evaluates, with the
    relative volume and the ascending Hessian eigenvalues at each:
    (points (N', 3), volumes (N',), eigenvalues (N', 3)), the same values
    as relative_volume and volume_hessian point by point.

    A row is skipped where volume_hessian would raise: where the gate
    rejects it (factor_margins at most ADMISSIBILITY_EPS) or the kernel
    raises DomainError on it.
    """
    surface = chart.surface
    points = alphas[factor_margins(surface, alphas) > ADMISSIBILITY_EPS]
    evaluated = np.zeros(len(points), bool)
    eigs = np.empty_like(points)
    # a chart is one face: BATCH_FACE_EVALS points per kernel call
    for i in range(0, len(points), BATCH_FACE_EVALS):
        ok, hessians = _hessians(surface, points[i:i + BATCH_FACE_EVALS])
        evaluated[i:i + BATCH_FACE_EVALS] = ok
        eigs[i:i + BATCH_FACE_EVALS][ok] = np.linalg.eigvalsh(hessians)
    points, eigs = points[evaluated], eigs[evaluated]
    base = np.array(chart.base_alpha.as_tuple())
    # the chart admitted its base and the filter above every point: the
    # segments' end points are gated once, here and in the chart
    integrals = _segment_integrals(surface, np.broadcast_to(base, points.shape), points)
    return points, 0.0 - 0.5 * integrals, eigs  # as relative_volume: 0.0 at the base


def _hessians(surface: Surface, alphas: np.ndarray):
    """Volume Hessians at the rows of alphas (N, 3) the kernel evaluates,
    and the mask of those rows; the rows of a call that raises DomainError
    are retried in halves down to the one that raised."""
    try:
        jacobians = _faces(surface, alphas, jacobian=True).jacobian[:, 0]
        return np.ones(len(alphas), bool), -0.5 * jacobians
    except DomainError:
        if len(alphas) == 1:
            return np.zeros(1, bool), np.empty((0, 3, 3))
        half = len(alphas) // 2
        (ok_lo, h_lo), (ok_hi, h_hi) = (_hessians(surface, alphas[:half]),
                                        _hessians(surface, alphas[half:]))
        return np.concatenate((ok_lo, ok_hi)), np.concatenate((h_lo, h_hi))
