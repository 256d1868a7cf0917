"""Combinatorial ideal triangulations of surfaces with boundary.

A surface is a set of hexagonal faces glued along weighted edges.  Each face
touches three boundary components (its corners); the edge stored at corner
slot t joins the two corners at the other slots.  Edges are identified by id,
not by endpoint pair, so parallel edges and self-edges are representable and
may carry distinct weights.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EtaOutOfRange, ParseError, ValidationError

logger = logging.getLogger(__name__)

ETA_LOWER_BOUND = -1.0

STRUCTURE_LABELS = ("gamma_i", "gamma_j", "gamma_k")


@dataclass(frozen=True)
class Edge:
    """Edge joining two boundary components (which may coincide), with a
    weight eta > -1."""

    id: int
    ends: tuple[int, int]
    eta: float


@dataclass(frozen=True)
class Face:
    """Hexagonal face: corners are boundary-component ids at slots 0,1,2 and
    edges[t] is the edge id opposite corner slot t."""

    id: int
    corners: tuple[int, int, int]
    edges: tuple[int, int, int]


@dataclass(frozen=True)
class SurfaceArrays:
    """A surface compiled into index arrays, in surface face and edge order.

    corners[f, t] is the component at corner slot t of face f, and
    etas[f] holds that face's weights (e_ij, e_ik, e_jk) as in
    Surface.face_etas; ends[e] and edge_etas[e] are the endpoints and weight
    of edge e.
    """

    n: int
    face_ids: tuple[int, ...]
    corners: np.ndarray
    etas: np.ndarray
    edge_ids: tuple[int, ...]
    ends: np.ndarray
    edge_etas: np.ndarray

    def __post_init__(self):
        # shared by every evaluation on the surface
        for arr in (self.corners, self.etas, self.ends, self.edge_etas):
            arr.flags.writeable = False

    @cached_property
    def jacobian_pattern(self) -> tuple[CsrPattern, np.ndarray]:
        """CSR pattern of the n x n curvature Jacobian, and for each entry of
        the per-face 3x3 blocks, flattened in face-then-slot order, the
        position of its summand in the CSR data vector."""
        rows = np.repeat(self.corners, 3, axis=1).ravel()
        cols = np.tile(self.corners, 3).ravel()
        keys, slot = np.unique(rows * self.n + cols, return_inverse=True)
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // self.n, minlength=self.n), out=indptr[1:])
        # int32, the index type scipy picks for these sizes, so building a
        # matrix copies nothing; read-only, as every matrix shares them
        indices, slot = (keys % self.n).astype(np.int32), slot.astype(np.int32)
        for arr in (indptr, indices, slot):
            arr.flags.writeable = False
        return CsrPattern(self.n, indptr, indices), slot


@dataclass(frozen=True)
class CsrPattern:
    """Sparsity pattern of an n x n CSR matrix with sorted, unique column
    indices in each row."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every entry."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    @cached_property
    def flat(self) -> np.ndarray:
        """Position of every entry in the row-major dense n x n matrix."""
        flat = self.rows * self.n + self.indices
        flat.flags.writeable = False
        return flat


@dataclass(frozen=True)
class Surface:
    """Validated, immutable triangulation.

    strict_mode rejects faces whose corners repeat a boundary component;
    pass strict_mode=False to admit them (the conformal layer then sums
    partial derivatives over the repeated slots).
    """

    n_boundary: int
    edges: tuple[Edge, ...]
    faces: tuple[Face, ...]
    strict_mode: bool = True

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "faces", tuple(self.faces))
        _validate(self)
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in self.edges})

    def edge(self, edge_id: int) -> Edge:
        return self._edge_by_id[edge_id]

    def face_etas(self, face: Face) -> tuple[float, float, float]:
        """Weights of a face's edges as (e_ij, e_ik, e_jk) for corner slots
        (i, j, k) = (0, 1, 2); slot t stores the edge opposite corner t."""
        e_jk = self._edge_by_id[face.edges[0]].eta
        e_ik = self._edge_by_id[face.edges[1]].eta
        e_ij = self._edge_by_id[face.edges[2]].eta
        return (e_ij, e_ik, e_jk)

    @cached_property
    def arrays(self) -> SurfaceArrays:
        """The index arrays of this surface, built on first use."""
        return SurfaceArrays(
            n=self.n_boundary,
            face_ids=tuple(f.id for f in self.faces),
            corners=np.fromiter(
                (c for f in self.faces for c in f.corners), np.intp, 3 * len(self.faces)
            ).reshape(-1, 3),
            etas=np.fromiter(
                (e for f in self.faces for e in self.face_etas(f)), float, 3 * len(self.faces)
            ).reshape(-1, 3),
            edge_ids=tuple(e.id for e in self.edges),
            ends=np.fromiter(
                (b for e in self.edges for b in e.ends), np.intp, 2 * len(self.edges)
            ).reshape(-1, 2),
            edge_etas=np.fromiter((e.eta for e in self.edges), float, len(self.edges)),
        )

    def to_dict(self) -> dict:
        return {
            "n_boundary": self.n_boundary,
            "edges": [
                {"id": e.id, "ends": list(e.ends), "eta": e.eta} for e in self.edges
            ],
            "faces": [
                {"id": f.id, "corners": list(f.corners), "edges": list(f.edges)}
                for f in self.faces
            ],
        }


def _validate(s: Surface) -> None:
    if not isinstance(s.n_boundary, int) or s.n_boundary <= 0:
        raise ValidationError(f"n_boundary must be a positive integer, got {s.n_boundary!r}")

    edge_ids = set()
    for e in s.edges:
        if e.id in edge_ids:
            raise ValidationError(f"duplicate edge id {e.id}")
        edge_ids.add(e.id)
        if len(e.ends) != 2:
            raise ValidationError(f"edge {e.id}: ends must be a pair")
        for b in e.ends:
            if not (0 <= b < s.n_boundary):
                raise ValidationError(
                    f"edge {e.id}: endpoint {b} outside [0, {s.n_boundary})"
                )
        if not e.eta > ETA_LOWER_BOUND:
            raise EtaOutOfRange(
                f"edge {e.id}: eta = {e.eta!r} is not > {ETA_LOWER_BOUND}"
            )

    referenced: set[int] = set()
    face_ids = set()
    edge_by_id = {e.id: e for e in s.edges}
    for f in s.faces:
        if f.id in face_ids:
            raise ValidationError(f"duplicate face id {f.id}")
        face_ids.add(f.id)
        if len(f.corners) != 3 or len(f.edges) != 3:
            raise ValidationError(f"face {f.id}: corners and edges must be triples")
        for b in f.corners:
            if not (0 <= b < s.n_boundary):
                raise ValidationError(
                    f"face {f.id}: corner {b} outside [0, {s.n_boundary})"
                )
        if len(set(f.edges)) != 3:
            raise ValidationError(f"face {f.id}: edge ids must be distinct")
        if s.strict_mode and len(set(f.corners)) != 3:
            raise ValidationError(
                f"face {f.id}: repeated corner in strict mode, corners={f.corners}"
            )
        for t in range(3):
            eid = f.edges[t]
            if eid not in edge_by_id:
                raise ValidationError(f"face {f.id}: unknown edge id {eid}")
            referenced.add(eid)
            want = sorted((f.corners[(t + 1) % 3], f.corners[(t + 2) % 3]))
            got = sorted(edge_by_id[eid].ends)
            if want != got:
                raise ValidationError(
                    f"face {f.id}: edge {eid} at slot {t} joins {got}, "
                    f"expected {want}"
                )

    unreferenced = edge_ids - referenced
    if unreferenced:
        logger.warning("edges not referenced by any face: %s", sorted(unreferenced))


def check_structure_condition(s: Surface) -> list[tuple[int, str, float]]:
    """Evaluate the per-face weight inequalities gamma >= 0.

    For a face with corner slots (i, j, k), gamma_i = e_jk + e_ij * e_ik and
    cyclically.  Returns every strictly negative gamma as
    (face_id, label, value); an empty list means the condition holds.
    """
    violations = []
    for f in s.faces:
        e_ij, e_ik, e_jk = s.face_etas(f)
        gammas = (
            e_jk + e_ij * e_ik,
            e_ik + e_ij * e_jk,
            e_ij + e_ik * e_jk,
        )
        for label, g in zip(STRUCTURE_LABELS, gammas):
            if g < 0.0:
                violations.append((f.id, label, g))
    return violations


def structure_condition_holds(s: Surface) -> bool:
    return not check_structure_condition(s)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _parse_surface_dict(data: dict, strict: bool) -> Surface:
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("n_boundary", "edges", "faces"):
        _require(key in data, f"missing key {key!r}")
    _require(isinstance(data["n_boundary"], int), "n_boundary must be an integer")
    _require(isinstance(data["edges"], list), "edges must be a list")
    _require(isinstance(data["faces"], list), "faces must be a list")

    edges = []
    for rec in data["edges"]:
        _require(isinstance(rec, dict), "edge records must be objects")
        for key in ("id", "ends", "eta"):
            _require(key in rec, f"edge record missing {key!r}")
        _require(isinstance(rec["id"], int), "edge id must be an integer")
        ends = rec["ends"]
        _require(
            isinstance(ends, list) and len(ends) == 2
            and all(isinstance(b, int) for b in ends),
            f"edge {rec['id']}: ends must be a pair of integers",
        )
        _require(
            isinstance(rec["eta"], (int, float)) and not isinstance(rec["eta"], bool),
            f"edge {rec['id']}: eta must be a number",
        )
        edges.append(Edge(id=rec["id"], ends=(ends[0], ends[1]), eta=float(rec["eta"])))

    faces = []
    for rec in data["faces"]:
        _require(isinstance(rec, dict), "face records must be objects")
        for key in ("id", "corners", "edges"):
            _require(key in rec, f"face record missing {key!r}")
        _require(isinstance(rec["id"], int), "face id must be an integer")
        corners = rec["corners"]
        eids = rec["edges"]
        _require(
            isinstance(corners, list) and len(corners) == 3
            and all(isinstance(b, int) for b in corners),
            f"face {rec['id']}: corners must be a triple of integers",
        )
        _require(
            isinstance(eids, list) and len(eids) == 3
            and all(isinstance(b, int) for b in eids),
            f"face {rec['id']}: edges must be a triple of integers",
        )
        faces.append(Face(id=rec["id"], corners=tuple(corners), edges=tuple(eids)))

    return Surface(
        n_boundary=data["n_boundary"],
        edges=tuple(edges),
        faces=tuple(faces),
        strict_mode=strict,
    )


def load_surface(path, strict: bool = True) -> Surface:
    """Load and validate a surface from a JSON file.

    Raises ParseError for malformed files, ValidationError for violated
    combinatorial invariants (EtaOutOfRange for weights at or below -1).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read surface file {path}: {exc}") from exc
    return _parse_surface_dict(data, strict)


def save_surface(s: Surface, path) -> None:
    """Write a surface as JSON; a load of the result reproduces the surface
    bit for bit (floats are written in shortest round-trip decimal)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(s.to_dict(), fh, indent=1)
        fh.write("\n")


def pair_of_pants(etas: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> Surface:
    """The smallest closed-up gluing: two hexagons sharing three edges, one
    per pair of the three boundary components.

    etas are the weights of the edges joining components (1,2), (0,2), (0,1).
    """
    edges = (
        Edge(id=0, ends=(1, 2), eta=float(etas[0])),
        Edge(id=1, ends=(0, 2), eta=float(etas[1])),
        Edge(id=2, ends=(0, 1), eta=float(etas[2])),
    )
    faces = (
        Face(id=0, corners=(0, 1, 2), edges=(0, 1, 2)),
        Face(id=1, corners=(0, 1, 2), edges=(0, 1, 2)),
    )
    return Surface(n_boundary=3, edges=edges, faces=faces)
