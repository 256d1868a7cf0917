"""Surface-level conformal machinery.

Conformal factors live canonically in the angle parameters a in (0, pi/2)^n,
one per boundary component; the log-scale parameters u with a = arctan(e^-u)
are a lossless view.  The curvature of a factor is the vector of boundary
lengths K, its Jacobian dK/da is assembled face by face, and the convex
potential behind the flows and the Newton solver is a line integral of the
closed 1-form K . da.

Every evaluation runs the array kernel (`hexflow.kernel`) on all faces at
once: curvature is a scatter of its arcs over the corner indices, the
Jacobian a scatter of its blocks into a CSR pattern built once per surface,
and the line integral evaluates all nodes of a quadrature level in one call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import DomainError, LengthMismatch, NotAdmissible, ParseError
from .hexagon import CornerAlpha, FaceEta, face_jacobian_chain, face_metric, hexagon_angles
from .kernel import FaceValues, edge_margins, face_kernel
from .quadrature import line_integral
from .tolerances import ADMISSIBILITY_EPS, FD_STEP
from .triangulation import Surface

_HALF_PI = 0.5 * math.pi

# Dense eigenvalue checks up to this size; iterative extremal estimates above.
DENSE_EIG_MAX_N = 512


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
        return cls(np.arctan(np.exp(-u)))

    @property
    def u(self) -> np.ndarray:
        return -np.log(np.tan(self.alpha))

    def __len__(self) -> int:
        return self.alpha.shape[0]

    def to_dict(self) -> dict:
        return {"alpha": [float(a) for a in self.alpha]}


def load_factor(path, n: int | None = None) -> ConformalFactor:
    """Read a factor file holding exactly one of the keys "alpha" or "u"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read factor file {path}: {exc}") from exc
    if not isinstance(data, dict) or len(data.keys() & {"alpha", "u"}) != 1:
        raise ParseError(
            f"factor file {path} must hold exactly one of the keys 'alpha' or 'u'"
        )
    try:
        if "alpha" in data:
            factor = ConformalFactor(np.asarray(data["alpha"], dtype=float))
        else:
            factor = ConformalFactor.from_u(np.asarray(data["u"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"factor file {path}: {exc}") from exc
    if n is not None and len(factor) != n:
        raise ParseError(
            f"factor file {path} has {len(factor)} components, surface has {n}"
        )
    return factor


def save_factor(factor: ConformalFactor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(factor.to_dict(), fh, indent=1)
        fh.write("\n")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-edge margins cos(a_i + a_j) + eta, in surface edge order.

    admissible is True when every margin clears the kernel minimum
    ADMISSIBILITY_EPS, so it agrees exactly with what the geometric kernel
    will accept.  distance_to_boundary is the Euclidean distance in the
    angle box to the nearest face of the admissible polytope (box walls
    included).
    """

    admissible: bool
    edge_ids: tuple[int, ...]
    margins: np.ndarray
    nearest_edge: int
    distance_to_boundary: float

    @property
    def min_margin(self) -> float:
        return float(self.margins.min()) if self.margins.size else math.inf


def _report(s: Surface, alpha: np.ndarray, margins: np.ndarray) -> AdmissibilityReport:
    arrays = s.arrays
    dist = float(np.min(np.minimum(alpha, _HALF_PI - alpha))) if alpha.size else math.inf
    capped = arrays.edge_etas <= 1.0
    if capped.any():
        i, j = arrays.ends[capped].T
        gap = np.arccos(-arrays.edge_etas[capped]) - (alpha[i] + alpha[j])
        # distance to the hyperplane a_i + a_j = cap (2 a_i = cap for a
        # self-edge)
        dist = min(dist, float(np.min(gap / np.where(i == j, 2.0, math.sqrt(2.0)))))
    admissible = bool(np.all(margins > ADMISSIBILITY_EPS)) if margins.size else True
    nearest = arrays.edge_ids[int(np.argmin(margins))] if margins.size else -1
    return AdmissibilityReport(
        admissible=admissible,
        edge_ids=arrays.edge_ids,
        margins=margins,
        nearest_edge=nearest,
        distance_to_boundary=dist,
    )


def admissibility(s: Surface, a: ConformalFactor) -> AdmissibilityReport:
    """Evaluate every edge's admissibility margin for a factor."""
    return _report(s, a.alpha, edge_margins(s.arrays, a.alpha))


def _raise_inadmissible(report: AdmissibilityReport):
    raise NotAdmissible(
        f"factor inadmissible: min margin {report.min_margin:.3e} "
        f"at edge {report.nearest_edge}",
        deficit=report.min_margin,
        edge_id=report.nearest_edge,
        report=report,
    )


def require_admissible(s: Surface, a: ConformalFactor) -> AdmissibilityReport:
    report = admissibility(s, a)
    if not report.admissible:
        _raise_inadmissible(report)
    return report


def _check_factors(s: Surface, alpha: np.ndarray) -> None:
    """The box check of ConformalFactor and the margin check of
    require_admissible, on factors alpha of shape (n,) or (N, n) at once;
    raises their error (NotAdmissible with the report attached) for the
    first factor that fails."""
    margins = edge_margins(s.arrays, alpha)
    if not (
        alpha.min() > 0.0
        and alpha.max() < _HALF_PI
        and np.min(margins, initial=math.inf) > ADMISSIBILITY_EPS
    ):
        alpha = alpha.reshape(-1, s.n_boundary)
        margins = margins.reshape(alpha.shape[0], -1)
        ok = np.all((alpha > 0.0) & (alpha < _HALF_PI), axis=1)
        ok &= np.all(margins > ADMISSIBILITY_EPS, axis=1)
        k = int(np.argmin(ok))
        ConformalFactor(alpha[k])  # raises DomainError outside the box
        _raise_inadmissible(_report(s, alpha[k], margins[k]))


def _faces(s: Surface, alpha: np.ndarray, jacobian: bool = False) -> FaceValues:
    """Kernel values of every face at factors alpha (..., n), which the
    caller has checked."""
    arrays = s.arrays
    return face_kernel(alpha[..., arrays.corners], arrays.etas, jacobian, arrays.face_ids)


def _scatter_arcs(s: Surface, arcs: np.ndarray) -> np.ndarray:
    """Boundary lengths from the arcs (F, 3) of one factor, summed into
    their components in face-then-slot order."""
    return np.bincount(s.arrays.corners.ravel(), weights=arcs.ravel(), minlength=s.n_boundary)


@dataclass(frozen=True)
class CurvatureVector:
    """Boundary lengths K plus the per-face arc-length table used to build
    them: face_angles[f] holds (th_i, th_j, th_k) by corner slot of the f-th
    face in surface order, an (F, 3) array."""

    K: np.ndarray
    face_angles: np.ndarray

    def __len__(self) -> int:
        return self.K.shape[0]


def curvature(s: Surface, a: ConformalFactor) -> CurvatureVector:
    """Total boundary length per component: the sum of hexagon boundary arcs
    over all face corners incident to it.  Raises NotAdmissible (with the
    report attached) for inadmissible factors."""
    _check_factors(s, a.alpha)
    arcs = _faces(s, a.alpha).arcs
    return CurvatureVector(K=_scatter_arcs(s, arcs), face_angles=arcs)


def curvature_from_lengths(s: Surface, lengths: dict[int, float]) -> np.ndarray:
    """Boundary lengths of an explicit discrete metric (edge id -> length).

    This bypasses the conformal parameterization entirely; useful for probing
    degenerating metrics whose factor-space preimage is beyond float
    resolution.
    """
    missing = {e.id for e in s.edges} - lengths.keys()
    if missing:
        raise LengthMismatch(f"lengths missing for edges {sorted(missing)}")
    K = np.zeros(s.n_boundary)
    for f in s.faces:
        l_jk = lengths[f.edges[0]]
        l_ik = lengths[f.edges[1]]
        l_ij = lengths[f.edges[2]]
        th = hexagon_angles(l_ij, l_ik, l_jk)[:3]
        for slot, comp in enumerate(f.corners):
            K[comp] += th[slot]
    return K


@dataclass(frozen=True)
class GlobalJacobian:
    """Sparse symmetric curvature Jacobian dK/da, assembled by scattering
    per-face 3x3 blocks over corner indices (repeated corners sum)."""

    matrix: sp.csr_matrix
    n: int

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def min_eigenvalue(self) -> float:
        if self.n <= DENSE_EIG_MAX_N:
            return float(np.linalg.eigvalsh(self.dense()).min())
        vals = scipy.sparse.linalg.eigsh(
            self.matrix, k=1, which="SA", return_eigenvectors=False
        )
        return float(vals[0])

    def symmetry_residual(self) -> float:
        d = self.matrix - self.matrix.T
        scale = max(1.0, abs(self.matrix).max() if self.matrix.nnz else 0.0)
        return float(abs(d).max() / scale) if d.nnz else 0.0

    def to_coo_dict(self) -> dict:
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return {
            "rows": [int(r) for r in coo.row[order]],
            "cols": [int(c) for c in coo.col[order]],
            "vals": [float(v) for v in coo.data[order]],
        }


def global_jacobian(
    s: Surface, a: ConformalFactor, blocks: str = "closed"
) -> GlobalJacobian:
    """Assemble dK/da.  blocks selects the per-face formula: "closed" gives
    exactly symmetric blocks, "chain" the raw chain-rule product (symmetric
    only up to rounding; useful for verifying the closed form)."""
    if blocks not in ("closed", "chain"):
        raise ValueError(f"unknown block formula {blocks!r}")
    _check_factors(s, a.alpha)
    if blocks == "closed":
        return _assemble(s, _faces(s, a.alpha, jacobian=True).jacobian)
    chain = []
    for f in s.faces:
        ca = CornerAlpha(*(a.alpha[c] for c in f.corners))
        fe = FaceEta(*s.face_etas(f))
        chain.append(face_jacobian_chain(ca, fe, face_metric(ca, fe)))
    return _assemble(s, np.array(chain).reshape(-1, 3, 3))


def _assemble(s: Surface, blocks: np.ndarray) -> GlobalJacobian:
    # per-face blocks (F, 3, 3) summed into the CSR pattern in face-then-slot
    # order (repeated corners sum)
    indptr, indices, slot = s.arrays.jacobian_pattern
    data = np.bincount(slot, weights=blocks.ravel(), minlength=indices.size)
    n = s.n_boundary
    return GlobalJacobian(matrix=sp.csr_matrix((data, indices, indptr), shape=(n, n)), n=n)


def fd_global_jacobian(s: Surface, a: ConformalFactor, h: float = FD_STEP) -> np.ndarray:
    """Central-difference oracle for the global curvature Jacobian."""
    n = s.n_boundary
    J = np.empty((n, n))
    for c in range(n):
        hi = a.alpha.copy()
        lo = a.alpha.copy()
        hi[c] += h
        lo[c] -= h
        K_hi = curvature(s, ConformalFactor(hi)).K
        K_lo = curvature(s, ConformalFactor(lo)).K
        J[:, c] = (K_hi - K_lo) / (2.0 * h)
    return J


def default_base_point(s: Surface) -> ConformalFactor:
    """A factor guaranteed admissible for this surface: all components equal
    to half the tightest per-edge cap (capped at pi/4)."""
    cap = 0.25 * math.pi
    for e in s.edges:
        cap = min(cap, 0.5 * math.acos(-min(e.eta, 1.0)))
    return ConformalFactor(np.full(s.n_boundary, 0.5 * cap))


def _segment_curvature_integral(
    s: Surface, start: np.ndarray, end: np.ndarray
) -> float:
    """Integral of K . da along the straight segment from start to end."""
    d = end - start
    if not np.any(d):
        return 0.0

    # K . d summed face by face: each arc times the step of its component
    d_corners = d[s.arrays.corners].ravel()

    def integrand(t: np.ndarray) -> np.ndarray:
        alpha = start + t[:, None] * d
        _check_factors(s, alpha)
        return _faces(s, alpha).arcs.reshape(t.size, -1) @ d_corners

    return line_integral(integrand)


def energy(s: Surface, a: ConformalFactor, base: ConformalFactor | None = None) -> float:
    """Potential difference E(a) - E(base) of the closed 1-form K . da,
    integrated along the straight segment (path independent by symmetry of
    dK/da; the segment stays admissible because the region is convex)."""
    if base is None:
        base = default_base_point(s)
    require_admissible(s, a)
    require_admissible(s, base)
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
    K = np.asarray(getattr(K, "K", K), dtype=float)
    Kbar = np.asarray(getattr(Kbar, "K", Kbar), dtype=float)
    if K.shape != Kbar.shape:
        raise LengthMismatch(f"shape mismatch {K.shape} vs {Kbar.shape}")
    d = K - Kbar
    return 0.5 * float(d @ d)


def sample_admissible(
    s: Surface,
    rng: np.random.Generator,
    margin: float = 1e-4,
    max_tries: int = 100_000,
) -> ConformalFactor:
    """Rejection-sample a factor uniform in the inset box with every edge
    margin above `margin`."""
    n = s.n_boundary
    for _ in range(max_tries):
        alpha = rng.uniform(margin, _HALF_PI - margin, size=n)
        cand = ConformalFactor(alpha)
        if admissibility(s, cand).min_margin > margin:
            return cand
    raise NotAdmissible(
        f"no admissible sample found in {max_tries} tries; "
        "pass an explicit factor file instead",
        deficit=None,
    )


def curvature_dump(s: Surface, a: ConformalFactor) -> dict:
    """JSON-ready dump of curvature, Jacobian triplets and edge margins, from
    one admissibility check and one kernel run."""
    report = require_admissible(s, a)
    faces = _faces(s, a.alpha, jacobian=True)
    K = _scatter_arcs(s, faces.arcs)
    J = _assemble(s, faces.jacobian)
    return {
        "K": [float(k) for k in K],
        "jacobian": J.to_coo_dict(),
        "margins": {
            str(eid): float(m) for eid, m in zip(report.edge_ids, report.margins)
        },
    }
