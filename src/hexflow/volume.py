"""Relative volume of the hyperbolic pyramid over a right-angled hexagon.

With the edge weights of a face held fixed, the volume of the associated
truncated pyramid is a function of the three corner dihedral angles alone,
and its differential is -(1/2) (th_i da_i + th_j da_j + th_k da_k).  Only
volume differences against a chart's base point are computed; the absolute
normalization would require decomposing the truncated polytope and is out of
scope.  The Hessian is -(1/2) times the angle Jacobian, hence negative
definite under the structure condition: the volume is strictly concave in
the dihedral angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import _check_factors, _faces, _segment_curvature_integral
from .hexagon import CornerAlpha, FaceEta
from .kernel import FaceValues
from .triangulation import Edge, Face, Surface


@dataclass(frozen=True)
class PyramidChart:
    """Fixed weights (hyper-ideal vertex positions) plus an admissible base
    point at which the relative volume vanishes."""

    eta: FaceEta
    base_alpha: CornerAlpha

    def __post_init__(self):
        _face_values(self, self.base_alpha)  # raises NotAdmissible if bad

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


def _face_values(chart: PyramidChart, a: CornerAlpha, jacobian: bool = False) -> FaceValues:
    alpha = np.array(a.as_tuple())
    _check_factors(chart.surface, alpha)
    return _faces(chart.surface, alpha, jacobian)


def relative_volume(chart: PyramidChart, a: CornerAlpha) -> float:
    """V(a) - V(base): minus half the line integral of th . da along the
    straight segment from the base point (admissible by convexity)."""
    start = np.array(chart.base_alpha.as_tuple())
    end = np.array(a.as_tuple())
    if not np.any(end - start):
        return 0.0
    _check_factors(chart.surface, end)  # endpoint check
    return -0.5 * _segment_curvature_integral(chart.surface, start, end)


def volume_gradient(chart: PyramidChart, a: CornerAlpha) -> np.ndarray:
    """Gradient of the relative volume: -(1/2) times the boundary arcs."""
    return -0.5 * _face_values(chart, a).arcs[0]


def volume_hessian(chart: PyramidChart, a: CornerAlpha) -> np.ndarray:
    """Hessian of the relative volume: -(1/2) times the angle Jacobian.
    All eigenvalues are negative under the structure condition."""
    return -0.5 * _face_values(chart, a, jacobian=True).jacobian[0]
