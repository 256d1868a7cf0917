"""Adaptive Gauss-Legendre integration over [0, 1] for smooth integrands."""

import warnings
from functools import lru_cache

import numpy as np

from .errors import QuadratureWarning
from .tolerances import QUAD_INIT_NODES, QUAD_MAX_NODES, QUAD_REL_TOL


@lru_cache(maxsize=None)
def _nodes_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    # shared by every caller through the cache
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def line_integral(f, rtol: float = QUAD_REL_TOL) -> float:
    """Integrate a smooth scalar function over [0, 1].

    f takes a 1-d array of nodes in [0, 1] and returns the array of its
    values at those nodes; it is called once per refinement level, with all
    of that level's Gauss-Legendre nodes.  The node count starts at
    QUAD_INIT_NODES and doubles until two successive estimates agree to rtol
    (relative to max(1, |estimate|)) or the cap QUAD_MAX_NODES is reached,
    in which case a QuadratureWarning is emitted and the last estimate is
    returned.
    """
    n = QUAD_INIT_NODES
    t, w = _nodes_01(n)
    prev = float(np.dot(w, f(t)))
    while n < QUAD_MAX_NODES:
        n *= 2
        t, w = _nodes_01(n)
        cur = float(np.dot(w, f(t)))
        if abs(cur - prev) < rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    warnings.warn(
        f"line integral not converged to rtol={rtol:g} at {QUAD_MAX_NODES} nodes",
        QuadratureWarning,
        stacklevel=2,
    )
    return prev
