"""Adaptive Gauss-Legendre integration over [0, 1] for smooth integrands,
many integrands at once."""

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


def line_integral(f, m: int = 1, rtol: float = QUAD_REL_TOL, max_points=None) -> np.ndarray:
    """Integrate m smooth scalar functions over [0, 1]; returns their m
    integrals.

    f takes one argument, a pair (rows, t) of integrand indices (k,) and
    Gauss-Legendre nodes t (p,) in [0, 1], and returns the (k, p) array of
    those integrands' values at those nodes.  Each integrand's node count
    starts at QUAD_INIT_NODES and doubles until two successive estimates
    agree to rtol (relative to max(1, |estimate|)) or the cap
    QUAD_MAX_NODES is reached, in which case a QuadratureWarning is emitted
    for it and its last estimate is returned.  Every level of the
    integrands still refining is one call of f, or several when max_points
    caps the nodes of a call; a call always holds at least one integrand's
    whole level.
    """
    result = np.empty(m)
    prev = np.empty(m)
    active = np.arange(m)
    n = QUAD_INIT_NODES
    while active.size:
        t, w = _nodes_01(n)
        group = len(active) if max_points is None else max(1, max_points // n)
        cur = np.concatenate([
            # a stacked vector dot per row rounds as np.dot(w, row) does;
            # values @ w (one matrix-vector product) would not
            np.matmul(f((rows, t))[:, None, :], w[:, None])[:, 0, 0]
            for rows in np.array_split(active, range(group, len(active), group))
        ])
        if n > QUAD_INIT_NODES:
            done = np.abs(cur - prev[active]) < rtol * np.maximum(1.0, np.abs(cur))
            result[active[done]] = cur[done]
            active, cur = active[~done], cur[~done]
        prev[active] = cur
        if n >= QUAD_MAX_NODES:
            for _ in active:
                warnings.warn(
                    f"line integral not converged to rtol={rtol:g} at {QUAD_MAX_NODES} nodes",
                    QuadratureWarning,
                    stacklevel=2,
                )
            result[active] = cur
            break
        n *= 2
    return result
