"""Surface-level conformal machinery.

Conformal factors live canonically in the angle parameters a in (0, pi/2)^n,
one per boundary component.  The log-scale parameters u with
a = arctan(e^-u) are another view, representable in double precision for
about -36.3 < u < 745.1: beyond those ends a rounds to pi/2 or to 0 and
the factor is rejected.  The curvature of a factor is the vector of boundary
lengths K, its Jacobian dK/da is assembled face by face, and the convex
potential behind the flows and the Newton solver is a line integral of the
closed 1-form K . da.

Every evaluation runs the array kernel (`hexflow.kernel`) on all faces at
once: curvature is a scatter of its arcs over the corner indices, the
Jacobian a scatter of its blocks into a CSR pattern built once per surface,
and the line integrals of many segments evaluate each quadrature level of
all of them in a few kernel calls.

scipy is imported inside the function that calls it: the CSR matrix of a
Jacobian and the sparse eigenvalue estimate import `scipy.sparse`, and
nothing else here does, so a curvature evaluation loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, LengthMismatch, NotAdmissible, ParseError
from .hexagon import CornerAlpha, FaceEta, central_difference, face_jacobian_chain
from .jsonio import dump, floats, load
from .kernel import FaceValues, edge_margins, face_arcs, face_kernel
from .quadrature import line_integral
from .tolerances import ADMISSIBILITY_EPS, BATCH_FACE_EVALS, DENSE_EIG_MAX_N, SAMPLE_MAX_TRIES
from .triangulation import _R, CsrPattern, Surface

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class ConformalFactor:
    """Vector of angle parameters, one per boundary component, each strictly
    inside (0, pi/2)."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.array(self.alpha, dtype=float, copy=True)
        if arr.ndim != 1:
            raise DomainError("conformal factor must be a 1-d vector")
        if not np.all((arr > 0.0) & (arr < _HALF_PI)):
            raise DomainError("conformal factor components must lie in (0, pi/2)")
        arr.flags.writeable = False
        object.__setattr__(self, "alpha", arr)

    @classmethod
    def from_u(cls, u) -> "ConformalFactor":
        u = np.asarray(u, dtype=float)
        # exp overflows to inf for u < -709.78; arctan(inf) = pi/2 is then
        # rejected by the box check like any other u below about -36.3
        with np.errstate(over="ignore"):
            alpha = np.arctan(np.exp(-u))
        return cls(alpha)

    @property
    def u(self) -> np.ndarray:
        return -np.log(np.tan(self.alpha))

    def __len__(self) -> int:
        return self.alpha.shape[0]

    def to_dict(self) -> dict:
        return {"alpha": self.alpha.tolist()}


def load_factor(path, n: int | None = None) -> ConformalFactor:
    """Read a factor file holding exactly one of the keys "alpha" or "u",
    whose entries are numbers."""
    data = load(path, "factor")
    if not isinstance(data, dict) or len(keys := data.keys() & {"alpha", "u"}) != 1:
        raise ParseError(
            f"factor file {path} must hold exactly one of the keys 'alpha' or 'u'"
        )
    (key,) = keys
    values = floats(data, key, path, "factor")
    try:
        factor = ConformalFactor(values) if key == "alpha" else ConformalFactor.from_u(values)
    except DomainError as exc:
        raise DomainError(f"factor file {path}: {exc}") from exc
    if n is not None and len(factor) != n:
        raise ParseError(
            f"factor file {path} has {len(factor)} components, surface has {n}"
        )
    return factor


def save_factor(factor: ConformalFactor, path) -> None:
    dump(factor.to_dict(), path, "factor")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-edge margins cos(a_i + a_j) + eta, in surface edge order.

    admissible is True when every margin clears the kernel minimum
    ADMISSIBILITY_EPS, so it agrees exactly with what the geometric kernel
    will accept; nearest_edge is the id of the edge with the smallest
    margin, -1 on a surface without edges.
    """

    edge_ids: tuple[int, ...]
    margins: np.ndarray

    @property
    def admissible(self) -> bool:
        return bool(np.all(self.margins > ADMISSIBILITY_EPS))

    @property
    def nearest_edge(self) -> int:
        return self.edge_ids[int(np.argmin(self.margins))] if self.margins.size else -1

    @property
    def min_margin(self) -> float:
        return float(self.margins.min()) if self.margins.size else math.inf


def _check_length(s: Surface, alpha: np.ndarray) -> None:
    if alpha.shape[-1] != s.n_boundary:
        raise LengthMismatch(f"factor has {alpha.shape[-1]} components, surface has {s.n_boundary}")


def factor_margins(s: Surface, alpha: np.ndarray) -> np.ndarray:
    """The admissibility gate per factor: for factors alpha of shape
    (..., n), the smallest edge margin of each, or -inf where a component
    leaves the open box (0, pi/2) (NaN included); shape (...).  Raises
    LengthMismatch unless the last axis has n_boundary components."""
    _check_length(s, alpha)
    if alpha.min(initial=math.inf) > 0.0 and alpha.max(initial=-math.inf) < _HALF_PI:
        return edge_margins(s, alpha).min(axis=-1, initial=math.inf)
    inside = ((alpha > 0.0) & (alpha < _HALF_PI)).all(axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):  # a_i + a_j = inf, cos(inf) off the box
        margins = edge_margins(s, alpha).min(axis=-1, initial=math.inf)
    return np.where(inside, margins, -math.inf)


def factor_margin(s: Surface, alpha: np.ndarray) -> float:
    """The admissibility gate: the smallest of factor_margins over factors
    alpha of shape (n,) or (N, n).  Every test of whether a point may be
    evaluated compares this one number, or factor_margins per point, with
    its threshold."""
    return float(factor_margins(s, alpha).min(initial=math.inf))


def admissibility(s: Surface, a: ConformalFactor) -> AdmissibilityReport:
    """Evaluate every edge's admissibility margin for a factor."""
    _check_length(s, a.alpha)
    return AdmissibilityReport(s.edge_ids, edge_margins(s, a.alpha))


def _check_factors(s: Surface, alpha: np.ndarray) -> None:
    """Pass factors alpha of shape (..., n) whose factor_margins all clear
    ADMISSIBILITY_EPS; otherwise raise for the first one that does not:
    DomainError outside the box, else NotAdmissible with its report."""
    failed = factor_margins(s, alpha) <= ADMISSIBILITY_EPS
    if failed.any():
        row = alpha.reshape(-1, s.n_boundary)[np.argmax(failed.ravel())]
        # ConformalFactor raises DomainError outside the box
        report = admissibility(s, ConformalFactor(row))
        raise NotAdmissible(
            f"factor inadmissible: min margin {report.min_margin:.3e} "
            f"at edge {report.nearest_edge}",
            deficit=report.min_margin,
            report=report,
        )


def _faces(s: Surface, alpha: np.ndarray, jacobian: bool = False) -> FaceValues:
    """Kernel values of every face at factors alpha (..., n), which the
    caller has checked."""
    return face_kernel(alpha[..., s.corners], s.etas, jacobian, s.face_ids)


def _scatter_arcs(s: Surface, arcs: np.ndarray) -> np.ndarray:
    """Boundary lengths from the arcs (F, 3) of one factor, summed into
    their components in face-then-slot order."""
    return np.bincount(s.corners.ravel(), weights=arcs.ravel(), minlength=s.n_boundary)


@dataclass(frozen=True)
class CurvatureVector:
    """Boundary lengths K, the per-face arcs behind them (face_angles[f]
    holds (th_i, th_j, th_k) by corner slot of the f-th face, shape (F, 3))
    and, when requested, the Jacobian dK/da from the same kernel call."""

    K: np.ndarray
    face_angles: np.ndarray
    jacobian: GlobalJacobian | None = None

    def __len__(self) -> int:
        return self.K.shape[0]


def curvature(s: Surface, a: ConformalFactor, jacobian: bool = False) -> CurvatureVector:
    """Total boundary length per component: the sum of hexagon boundary arcs
    over all face corners incident to it, and dK/da if jacobian.  The one
    gated kernel evaluation of a factor: raises NotAdmissible (with the
    report attached) for inadmissible factors."""
    _check_factors(s, a.alpha)
    return _evaluate(s, a.alpha, jacobian)


def _evaluate(s: Surface, alpha: np.ndarray, jacobian: bool = False) -> CurvatureVector:
    """curvature at the factor alpha (n,), which the caller has gated."""
    faces = _faces(s, alpha, jacobian)
    J = _assemble(s, faces.jacobian) if jacobian else None
    return CurvatureVector(_scatter_arcs(s, faces.arcs), faces.arcs, J)


def curvature_from_lengths(s: Surface, lengths: dict[int, float]) -> np.ndarray:
    """Boundary lengths of an explicit discrete metric (edge id -> length).

    This bypasses the conformal parameterization entirely; useful for probing
    degenerating metrics whose factor-space preimage is beyond float
    resolution.  Raises DomainError unless every length is positive and
    finite.
    """
    missing = set(s.edge_ids) - lengths.keys()
    if missing:
        raise LengthMismatch(f"lengths missing for edges {sorted(missing)}")
    # (l_ij, l_ik, l_jk) per face
    L = np.array([lengths[e] for e in s.edge_ids], dtype=float)[s.slot_edges[:, _R]]
    if not np.all((L > 0.0) & (L < math.inf)):
        raise DomainError("edge lengths must be positive and finite")
    with np.errstate(all="ignore"):
        _, arcs, _ = face_arcs(L, s.face_ids)
    return _scatter_arcs(s, arcs)


@dataclass(frozen=True)
class GlobalJacobian:
    """Sparse symmetric curvature Jacobian dK/da, assembled by scattering
    per-face 3x3 blocks over corner indices (repeated corners sum): the CSR
    data vector on the surface's shared pattern."""

    data: np.ndarray
    pattern: CsrPattern

    @property
    def n(self) -> int:
        return self.pattern.n

    @cached_property
    def matrix(self) -> "scipy.sparse.csr_matrix":
        import scipy.sparse as sp

        p = self.pattern
        return sp.csr_matrix((self.data, p.indices, p.indptr), shape=(p.n, p.n))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.n * self.n)
        out[self.pattern.flat] = self.data
        return out.reshape(self.n, self.n)

    def min_eigenvalue(self) -> float:
        return min_eigenvalue(self.dense() if self.n <= DENSE_EIG_MAX_N else self.matrix)

    def symmetry_residual(self) -> float:
        d = self.matrix - self.matrix.T
        scale = max(1.0, abs(self.matrix).max() if self.matrix.nnz else 0.0)
        return float(abs(d).max() / scale) if d.nnz else 0.0


def min_eigenvalue(A) -> float:
    """The smallest eigenvalue of the symmetric A: exact (eigvalsh) for an
    array, an iterative extremal estimate (eigsh) for a sparse matrix.  An
    np.ndarray (np.matrix too) is never sparse, so it imports no scipy."""
    if not isinstance(A, np.ndarray):
        import scipy.sparse as sp

        if sp.issparse(A):
            from scipy.sparse.linalg import eigsh

            # ARPACK starts in the range of its operator, so it never sees
            # an exact null vector of A; c, twice the largest absolute row
            # sum, makes A + c I positive definite, with A's eigenvalues
            # shifted by c
            c = 2.0 * float(abs(A).sum(axis=1).max()) or 1.0
            B = A + c * sp.identity(A.shape[0], format="csr")
            w = eigsh(B, k=1, which="SA", return_eigenvectors=False)
            return float(w[0]) - c
    return float(np.linalg.eigvalsh(A)[0])


def global_jacobian(s: Surface, a: ConformalFactor) -> GlobalJacobian:
    """dK/da, the curvature evaluation's exactly symmetric Jacobian."""
    return curvature(s, a, jacobian=True).jacobian


def _assemble(s: Surface, blocks: np.ndarray) -> GlobalJacobian:
    # per-face blocks (F, 3, 3) summed into the CSR pattern in face-then-slot
    # order (repeated corners sum)
    pattern, slot = s.jacobian_pattern
    data = np.bincount(slot, weights=blocks.ravel(), minlength=pattern.indices.size)
    return GlobalJacobian(data, pattern)


def default_base_point(s: Surface) -> ConformalFactor:
    """A factor with all components equal to half the tightest per-edge cap
    (capped at pi/4).  It is admissible unless the smallest weight is very
    close to -1: there its smallest margin is about 0.75 (1 + min eta),
    which the gate rejects once it falls to ADMISSIBILITY_EPS."""
    etas = s.edge_etas
    cap = 0.25 * math.pi
    if etas.size:
        # acos(-x) increases with x: the smallest weight sets the cap
        cap = min(cap, 0.5 * math.acos(-min(float(etas.min()), 1.0)))
    return ConformalFactor(np.full(s.n_boundary, 0.5 * cap))


def _segment_curvature_integral(
    s: Surface, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Integrals of K . da along the M straight segments from starts to
    ends, both of shape (M, n); starts and ends of shape (n,) are the M = 1
    view and give a float.  A segment of length zero is 0.0 and evaluates
    nothing.  All ends, then all starts, pass _check_factors (the first
    that fails raises), and no node does: the admissible set is convex, so
    nodes between admissible end points are admissible up to one rounding.
    """
    if starts.ndim == 1:
        return float(_segment_curvature_integral(s, starts[None], ends[None])[0])
    _check_factors(s, ends)
    _check_factors(s, starts)
    return _segment_integrals(s, starts, ends)


def _segment_integrals(s: Surface, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """_segment_curvature_integral of segments (M, n) whose end points the
    caller has gated.  Moving segments share each Gauss-Legendre level
    while they refine: a kernel call covers at most BATCH_FACE_EVALS
    face-node evaluations, and never less than one segment's whole level.
    """
    d = ends - starts
    moving = np.flatnonzero(d.any(axis=1))
    out = np.zeros(len(d))
    if not moving.size:
        return out
    starts, d = starts[moving], d[moving]
    # K . d summed face by face: each arc times the step of its component
    d_corners = d[:, s.corners].reshape(len(d), -1, 1)

    def integrand(level) -> np.ndarray:
        rows, t = level
        alpha = starts[rows, None] + t[:, None] * d[rows, None]
        arcs = _faces(s, alpha).arcs.reshape(len(rows), t.size, -1)
        return np.matmul(arcs, d_corners[rows])[..., 0]

    max_points = BATCH_FACE_EVALS // len(s.face_ids)
    out[moving] = line_integral(integrand, len(moving), max_points=max_points)
    return out


def energy(s: Surface, a: ConformalFactor, base: ConformalFactor | None = None) -> float:
    """Potential difference E(a) - E(base) of the closed 1-form K . da along
    the straight segment (path independent by symmetry of dK/da), whose
    integral gates a, then base, and admits its nodes by convexity."""
    if base is None:
        base = default_base_point(s)
    return _segment_curvature_integral(s, base.alpha, a.alpha)


def potential(
    s: Surface,
    a: ConformalFactor,
    kbar,
    base: ConformalFactor | None = None,
) -> float:
    """Convex potential for target boundary lengths kbar:
    energy(a) - kbar . (a - base).  Its gradient is K(a) - kbar."""
    if base is None:
        base = default_base_point(s)
    kbar = np.asarray(kbar, dtype=float)
    if kbar.shape != (s.n_boundary,):
        raise LengthMismatch(
            f"target has shape {kbar.shape}, surface has {s.n_boundary} components"
        )
    return energy(s, a, base) - float(kbar @ (a.alpha - base.alpha))


def calabi_energy(K, Kbar) -> float:
    """Half the squared 2-norm of the curvature error."""
    K = np.asarray(K, dtype=float)
    Kbar = np.asarray(Kbar, dtype=float)
    if K.shape != Kbar.shape:
        raise LengthMismatch(f"shape mismatch {K.shape} vs {Kbar.shape}")
    d = K - Kbar
    return 0.5 * float(d @ d)


def sample_admissible(
    s: Surface, rng: np.random.Generator, margin: float = 1e-4
) -> ConformalFactor:
    """Rejection-sample a factor uniform in the inset box with every edge
    margin above `margin`, in at most SAMPLE_MAX_TRIES draws."""
    if not 0.0 <= margin < 0.25 * math.pi:
        raise DomainError(f"sampling margin {margin!r} is not in [0, pi/4)")
    n = s.n_boundary
    for _ in range(SAMPLE_MAX_TRIES):
        alpha = rng.uniform(margin, _HALF_PI - margin, size=n)
        if factor_margin(s, alpha) > margin:
            return ConformalFactor(alpha)
    raise NotAdmissible(
        f"the uniform draw found no admissible point in {SAMPLE_MAX_TRIES} tries",
        deficit=None,
    )


def curvature_dump(s: Surface, a: ConformalFactor) -> dict:
    """JSON-ready dump of K, the Jacobian triplets in row-major order and the
    edge margins by edge id: K and the triplet columns are 1-d float64 and
    int64 arrays, which hexflow.jsonio writes as the lists they hold."""
    c = curvature(s, a, jacobian=True)
    p = c.jacobian.pattern
    return {
        "K": c.K,
        "jacobian": {
            "rows": p.rows.astype(np.int64, copy=False),
            "cols": p.indices.astype(np.int64),
            "vals": c.jacobian.data,
        },
        "margins": dict(zip(map(str, s.edge_ids), edge_margins(s, a.alpha).tolist())),
    }


# References for the tests and `hexflow jacobian-check`, off every
# evaluation path: nothing above calls them.


def chain_global_jacobian(s: Surface, a: ConformalFactor) -> GlobalJacobian:
    """dK/da assembled from the raw chain-rule blocks of the scalar
    reference, symmetric only up to rounding."""
    _check_factors(s, a.alpha)
    chain = [
        face_jacobian_chain(CornerAlpha(*a.alpha[c]), FaceEta(*e))
        for c, e in zip(s.corners, s.etas.tolist())
    ]
    return _assemble(s, np.array(chain))


def fd_global_jacobian(s: Surface, a: ConformalFactor) -> np.ndarray:
    """Central-difference oracle for the global curvature Jacobian."""
    return central_difference(lambda x: curvature(s, ConformalFactor(x)).K, a.alpha)
