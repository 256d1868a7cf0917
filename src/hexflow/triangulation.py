"""Combinatorial ideal triangulations of surfaces with boundary.

A surface is a set of hexagonal faces glued along weighted edges.  Each face
touches three boundary components (its corners); the edge stored at corner
slot t joins the two corners at the other slots.  Edges are identified by id,
not by endpoint pair, so parallel edges and self-edges are representable and
may carry distinct weights.

A surface is held as index arrays (`SurfaceArrays`).  `load_surface` reads
the JSON records straight into them, and one validator checks them, whether
they come from a file or from `Edge`/`Face` tuples.
"""

from __future__ import annotations

import json
import logging
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import EtaOutOfRange, ParseError, ValidationError
from .jsonio import dump

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
    of edge e, and slot_edges[f, t] is the position in edge order of the
    edge at corner slot t of face f.
    """

    n: int
    face_ids: tuple[int, ...]
    corners: np.ndarray
    etas: np.ndarray
    edge_ids: tuple[int, ...]
    ends: np.ndarray
    edge_etas: np.ndarray
    slot_edges: np.ndarray

    def __post_init__(self):
        # shared by every evaluation on the surface
        for arr in (self.corners, self.etas, self.ends, self.edge_etas, self.slot_edges):
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


class Surface:
    """Validated, immutable triangulation, held as index arrays (`arrays`).

    strict_mode rejects faces whose corners repeat a boundary component;
    pass strict_mode=False to admit them (the conformal layer then sums
    partial derivatives over the repeated slots).

    The constructor takes Edge and Face tuples and keeps them; a surface
    read by load_surface has only its arrays, and `edges`, `faces`,
    `edge()` and `face_etas()` build their tuples from them on first use.
    """

    def __init__(self, n_boundary: int, edges, faces, strict_mode: bool = True):
        edges, faces = tuple(edges), tuple(faces)
        arrays = _compile(
            n_boundary, strict_mode,
            [e.id for e in edges], [e.ends for e in edges], [e.eta for e in edges],
            [f.id for f in faces], [f.corners for f in faces], [f.edges for f in faces],
        )
        self.__dict__.update(
            n_boundary=n_boundary, strict_mode=strict_mode, arrays=arrays, edges=edges, faces=faces
        )

    @classmethod
    def _of_arrays(cls, n_boundary: int, strict_mode: bool, arrays: SurfaceArrays) -> Surface:
        s = cls.__new__(cls)
        s.__dict__.update(n_boundary=n_boundary, strict_mode=strict_mode, arrays=arrays)
        return s

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.arrays, other.arrays
        return (
            (self.n_boundary, self.strict_mode, a.edge_ids, a.face_ids)
            == (other.n_boundary, other.strict_mode, b.edge_ids, b.face_ids)
            and all(
                np.array_equal(x, y)
                for x, y in ((a.ends, b.ends), (a.edge_etas, b.edge_etas),
                             (a.corners, b.corners), (a.slot_edges, b.slot_edges))
            )
        )

    def __hash__(self):
        a = self.arrays
        return hash((self.n_boundary, self.strict_mode, a.edge_ids, a.face_ids))

    def __repr__(self):
        a = self.arrays
        return (
            f"Surface(n_boundary={self.n_boundary!r}, edges={len(a.edge_ids)}, "
            f"faces={len(a.face_ids)}, strict_mode={self.strict_mode!r})"
        )

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        a = self.arrays
        return tuple(map(Edge, a.edge_ids, map(tuple, a.ends.tolist()), a.edge_etas.tolist()))

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        a = self.arrays
        ids = a.edge_ids
        rows = zip(a.face_ids, a.corners.tolist(), a.slot_edges.tolist())
        return tuple(
            Face(fid, tuple(corners), (ids[i], ids[j], ids[k])) for fid, corners, (i, j, k) in rows
        )

    @cached_property
    def _edge_by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    def edge(self, edge_id: int) -> Edge:
        return self._edge_by_id[edge_id]

    def face_etas(self, face: Face) -> tuple[float, float, float]:
        """Weights of a face's edges as (e_ij, e_ik, e_jk) for corner slots
        (i, j, k) = (0, 1, 2); slot t stores the edge opposite corner t."""
        e_jk = self._edge_by_id[face.edges[0]].eta
        e_ik = self._edge_by_id[face.edges[1]].eta
        e_ij = self._edge_by_id[face.edges[2]].eta
        return (e_ij, e_ik, e_jk)

    def to_dict(self) -> dict:
        a = self.arrays
        ids = a.edge_ids
        rows = zip(a.face_ids, a.corners.tolist(), a.slot_edges.tolist())
        return {
            "n_boundary": self.n_boundary,
            "edges": [
                {"id": eid, "ends": ends, "eta": eta}
                for eid, ends, eta in zip(ids, a.ends.tolist(), a.edge_etas.tolist())
            ],
            "faces": [
                {"id": fid, "corners": corners, "edges": [ids[i], ids[j], ids[k]]}
                for fid, corners, (i, j, k) in rows
            ],
        }


class _Fault:
    """The first faulty record of one kind.

    Checks are made in the order a record is checked in, each over the
    records before the earliest fault found so far, so the earliest faulty
    record wins and, within it, its first failed check.
    """

    def __init__(self, n_records: int):
        self.limit = n_records
        self.error: Exception | None = None

    def check(self, bad, message, error=ValidationError) -> None:
        """bad flags faults by record along its first axis (a bool array or
        list that may run past `limit`, or None for none); message(i)
        describes the fault of record i."""
        if bad is None:
            return
        bad = np.asarray(bad[: self.limit], dtype=bool)
        if not bad.size:
            return
        # the first flag in row-major order belongs to the first record
        k = int(bad.argmax())
        if bad.flat[k]:
            self.limit = k // (bad.size // len(bad))
            self.error = error(message(self.limit))

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


# the corner slots the edge at slot t joins, and the ends of an unknown edge
_OTHER_SLOTS = np.array([[1, 2], [2, 0], [0, 1]])
_NO_EDGE = np.array([[-1, -1]])


def _repeats(ids: list):
    """Flags the records whose id an earlier record has; None when the ids
    are distinct."""
    if len(set(ids)) == len(ids):
        return None
    seen: set = set()
    flags = []
    for i in ids:
        flags.append(i in seen)
        seen.add(i)
    return flags


def _outside(table: np.ndarray, n: int) -> np.ndarray:
    """Flags the entries of table outside [0, n)."""
    return (table < 0) | (table >= n)


def _first_outside(row: np.ndarray, n: int):
    return next(b for b in row.tolist() if not 0 <= b < n)


def _repeated_in_row(t: np.ndarray) -> np.ndarray:
    a, b, c = t.T
    return (a == b) | (a == c) | (b == c)


def _table(rows, width: int) -> np.ndarray | None:
    """rows as an (N, width) integer array (dtype object for entries that
    are not machine integers), or None when some row is not `width` long."""
    if isinstance(rows, np.ndarray):
        return rows
    if not len(rows):
        return np.empty((0, width), np.intp)
    try:
        arr = np.array(rows)
    except (ValueError, TypeError):
        return None
    if arr.shape != (len(rows), width):
        return None
    if arr.dtype.kind == "b":
        return arr.astype(np.intp)
    return arr if arr.dtype.kind in "iu" else np.array(rows, dtype=object)


def _shaped(fault: _Fault, rows, width: int, message) -> np.ndarray:
    table = _table(rows, width)
    if table is None:
        fault.check([len(row) != width for row in rows], message)
        table = _table(rows[: fault.limit], width)
    return table


def _compile(n, strict, edge_ids, ends, etas, face_ids, corners, face_edges) -> SurfaceArrays:
    """The one validator: checks the columns of a surface (edge ids, ends
    and weights; face ids, corners and slot edge ids) and returns its
    arrays.  Raises ValidationError (EtaOutOfRange for a weight at or below
    -1) for the first faulty edge, else for the first faulty face, and
    warns about edges no face references."""
    if not isinstance(n, int) or n <= 0:
        raise ValidationError(f"n_boundary must be a positive integer, got {n!r}")

    fault = _Fault(len(edge_ids))
    fault.check(_repeats(edge_ids), lambda i: f"duplicate edge id {edge_ids[i]}")
    ends = _shaped(fault, ends, 2, lambda i: f"edge {edge_ids[i]}: ends must be a pair")
    fault.check(_outside(ends, n), lambda i: (
        f"edge {edge_ids[i]}: endpoint {_first_outside(ends[i], n)} outside [0, {n})"
    ))
    etas = np.asarray(etas, dtype=float)
    fault.check(~(etas > ETA_LOWER_BOUND), lambda i: (  # NaN included
        f"edge {edge_ids[i]}: eta = {float(etas[i])!r} is not > {ETA_LOWER_BOUND}"
    ), EtaOutOfRange)
    fault.raise_first()
    ends = ends.astype(np.intp, copy=False)

    fault = _Fault(len(face_ids))
    fault.check(_repeats(face_ids), lambda i: f"duplicate face id {face_ids[i]}")
    triples = lambda i: f"face {face_ids[i]}: corners and edges must be triples"  # noqa: E731
    corners = _shaped(fault, corners, 3, triples)
    face_edges = _shaped(fault, face_edges, 3, triples)
    corners, face_edges = corners[: fault.limit], face_edges[: fault.limit]
    fault.check(_outside(corners, n), lambda i: (
        f"face {face_ids[i]}: corner {_first_outside(corners[i], n)} outside [0, {n})"
    ))
    fault.check(_repeated_in_row(face_edges), lambda i: (
        f"face {face_ids[i]}: edge ids must be distinct"
    ))
    if strict:
        fault.check(_repeated_in_row(corners), lambda i: (
            f"face {face_ids[i]}: repeated corner in strict mode, "
            f"corners={tuple(corners[i].tolist())}"
        ))
    corners = corners[: fault.limit].astype(np.intp, copy=False)
    face_edges = face_edges[: fault.limit]
    # slot_edges[f, t]: position in edge order of the edge at slot t of
    # face f, -1 if no edge has its id
    position = dict(zip(edge_ids, range(len(edge_ids))))
    slot_edges = np.fromiter(
        map(position.get, face_edges.ravel().tolist(), repeat(-1)), np.intp, face_edges.size
    ).reshape(-1, 3)
    # the edge at slot t must join the corners at the other two slots, as
    # sorted pairs; an unknown edge joins (-1, -1), which matches no pair
    got = np.concatenate([np.sort(ends, axis=1), _NO_EDGE])[slot_edges]
    want = np.sort(corners[:, _OTHER_SLOTS], axis=2)
    bad_slot = got != want

    def slot_fault(i):
        t = int(bad_slot[i].any(axis=1).argmax())
        eid = face_edges[i].tolist()[t]
        if slot_edges[i, t] < 0:
            return f"face {face_ids[i]}: unknown edge id {eid}"
        return (
            f"face {face_ids[i]}: edge {eid} at slot {t} joins {got[i, t].tolist()}, "
            f"expected {want[i, t].tolist()}"
        )

    fault.check(bad_slot, slot_fault)
    fault.raise_first()

    referenced = np.zeros(len(edge_ids), dtype=bool)
    referenced[slot_edges.ravel()] = True
    if not referenced.all():
        unreferenced = sorted(edge_ids[i] for i in np.flatnonzero(~referenced))
        logger.warning("edges not referenced by any face: %s", unreferenced)

    return SurfaceArrays(
        n=n,
        face_ids=tuple(face_ids),
        corners=corners,
        etas=etas[slot_edges[:, ::-1]],
        edge_ids=tuple(edge_ids),
        ends=ends,
        edge_etas=etas,
        slot_edges=slot_edges,
    )


# gamma_t = e[summand] + e[factor 0] * e[factor 1] over the columns
# (e_ij, e_ik, e_jk) of SurfaceArrays.etas, for t = i, j, k
_GAMMA_SUMMAND = np.array([2, 1, 0])
_GAMMA_FACTORS = np.array([[0, 0, 1], [1, 2, 2]])


def check_structure_condition(s: Surface) -> list[tuple[int, str, float]]:
    """Evaluate the per-face weight inequalities gamma >= 0.

    For a face with corner slots (i, j, k), gamma_i = e_jk + e_ij * e_ik and
    cyclically.  Returns every strictly negative gamma as
    (face_id, label, value), by face and then label; an empty list means
    the condition holds.
    """
    e = s.arrays.etas  # columns e_ij, e_ik, e_jk
    gammas = e[:, _GAMMA_SUMMAND] + e[:, _GAMMA_FACTORS[0]] * e[:, _GAMMA_FACTORS[1]]
    faces, slots = (gammas < 0.0).nonzero()
    ids = s.arrays.face_ids
    return [
        (ids[f], STRUCTURE_LABELS[t], g)
        for f, t, g in zip(faces.tolist(), slots.tolist(), gammas[faces, slots].tolist())
    ]


def structure_condition_holds(s: Surface) -> bool:
    return not check_structure_condition(s)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _parse_records(recs: list, kind: str, keys: tuple[str, str, str]) -> tuple[_Fault, list]:
    """The fault tracker and the three columns of the edge or face records
    recs, after checking that each is an object with the keys and an
    integer id."""
    fault = _Fault(len(recs))
    if set(map(type, recs)) - {dict}:
        fault.check([not isinstance(r, dict) for r in recs],
                    lambda i: f"{kind} records must be objects", ParseError)
    try:
        cols = [list(map(itemgetter(key), recs[: fault.limit])) for key in keys]
    except KeyError:
        for key in keys:
            fault.check([key not in r for r in recs[: fault.limit]],
                        lambda i: f"{kind} record missing {key!r}", ParseError)
        cols = [list(map(itemgetter(key), recs[: fault.limit])) for key in keys]
    ids = cols[0]
    if set(map(type, ids)) - {int, bool}:
        fault.check([not isinstance(v, int) for v in ids],
                    lambda i: f"{kind} id must be an integer", ParseError)
    return fault, cols


def _parse_table(fault: _Fault, kind: str, ids: list, key: str, rows: list, width: int):
    """rows as a table (see _table), after checking that each of the
    first `fault.limit` is a list of `width` integers."""
    rows = rows[: fault.limit]
    table = _table(rows, width)
    if table is None or table.dtype == object:
        what = "a pair" if width == 2 else "a triple"
        fault.check(
            [not (isinstance(v, list) and len(v) == width and all(isinstance(b, int) for b in v))
             for v in rows],
            lambda i: f"{kind} {ids[i]}: {key} must be {what} of integers", ParseError,
        )
    return table


def _eta_fault(v) -> str | None:
    """What is wrong with the JSON weight v, or None for a number that
    converts to a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return "must be a number"
    try:
        float(v)
    except OverflowError:
        return "is an integer beyond the float range"
    return None


def _parse_surface_dict(data: dict, strict: bool) -> Surface:
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("n_boundary", "edges", "faces"):
        _require(key in data, f"missing key {key!r}")
    _require(isinstance(data["n_boundary"], int), "n_boundary must be an integer")
    _require(isinstance(data["edges"], list), "edges must be a list")
    _require(isinstance(data["faces"], list), "faces must be a list")

    fault, (edge_ids, ends, etas) = _parse_records(data["edges"], "edge", ("id", "ends", "eta"))
    ends = _parse_table(fault, "edge", edge_ids, "ends", ends, 2)
    etas = etas[: fault.limit]
    if set(map(type, etas)) - {float}:
        faults = list(map(_eta_fault, etas))
        fault.check([f is not None for f in faults],
                    lambda i: f"edge {edge_ids[i]}: eta {faults[i]}", ParseError)
    fault.raise_first()

    fault, (face_ids, corners, face_edges) = _parse_records(
        data["faces"], "face", ("id", "corners", "edges")
    )
    corners = _parse_table(fault, "face", face_ids, "corners", corners, 3)
    face_edges = _parse_table(fault, "face", face_ids, "edges", face_edges, 3)
    fault.raise_first()

    n = data["n_boundary"]
    arrays = _compile(n, strict, edge_ids, ends, etas, face_ids, corners, face_edges)
    return Surface._of_arrays(n, strict, arrays)


def load_surface(path, strict: bool = True) -> Surface:
    """Load and validate a surface from a JSON file, reading its records
    straight into the surface arrays.

    Raises ParseError for malformed files, ValidationError for violated
    combinatorial invariants (EtaOutOfRange for weights at or below -1),
    each for the first faulty record in file order (edges before faces).
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
    dump(s.to_dict(), path)


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
