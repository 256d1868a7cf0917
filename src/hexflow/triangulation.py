"""Combinatorial ideal triangulations of surfaces with boundary.

A surface is a set of hexagonal faces glued along weighted edges.  Each face
touches three boundary components (its corners); the edge stored at corner
slot t joins the two corners at the other slots.  Edges are identified by id,
not by endpoint pair, so parallel edges and self-edges are representable and
may carry distinct weights.

The face-slot convention is stated once, here, by `_P`, `_Q`, `_R` and
`_QQ`, which the other modules import.  The sides ij, ik, jk of a face
with corner slots (i, j, k) = (0, 1, 2) join the slots (_P, _Q) = (0, 1),
(0, 2), (1, 2).  The corner opposite each side, _R = (2, 1, 0), is also
the slot that stores that side's edge.  _QQ[:, p] are the two corners
other than p, and the sides to them are (_P, _Q)[:, p].

A `Surface` is its index arrays (corners and weights per face, ends and
weights per edge), held as its own attributes.  `load_surface` reads the
JSON records straight into them.  Files and `Edge`/`Face` tuples are
checked alike, in two parts.  An array pass (`_compile`, after `_columns`
for a file) decides: it builds the arrays of a valid surface and returns
None when any rule fails.  Only then a plain record walk (`_parse_records`
for a file, then `_validate`) explains: it raises for the first faulty
record in file order, edges before faces, every ParseError of a file
before any ValidationError.
"""

from __future__ import annotations

import logging
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .errors import EtaOutOfRange, ParseError, ValidationError
from .jsonio import dump, load, paused_collector

logger = logging.getLogger(__name__)

ETA_LOWER_BOUND = -1.0

STRUCTURE_LABELS = ("gamma_i", "gamma_j", "gamma_k")

# The face-slot convention of the module docstring.
_P = np.array([0, 0, 1])
_Q = np.array([1, 2, 2])
_R = np.array([2, 1, 0])
_QQ = np.array([[1, 0, 0], [2, 2, 1]])


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
    """Validated, immutable triangulation, held as index arrays in face and
    edge order, read-only as every evaluation on the surface shares them:
    corners[f, t] is the component at corner slot t of face f and etas[f]
    its weights (e_ij, e_ik, e_jk) as in face_etas; ends[e] and edge_etas[e]
    are the endpoints and weight of edge e; slot_edges[f, t] is the position
    in edge order of the edge at corner slot t of face f.  face_ids and
    edge_ids are tuples.

    strict_mode rejects faces whose corners repeat a boundary component;
    pass strict_mode=False to admit them (the conformal layer then sums
    partial derivatives over the repeated slots).

    The arrays are the surface's one state, however it was built: the
    constructor compiles its Edge and Face tuples into them and keeps
    nothing else, as load_surface does with a file's records.  `edges`,
    `faces`, `edge()` and `face_etas()` build their tuples from the arrays
    on first use, and `to_dict()` its records from those tuples, so every
    view reads the weights the kernel reads.
    """

    def __init__(self, n_boundary: int, edges, faces, strict_mode: bool = True):
        edges, faces = tuple(edges), tuple(faces)
        columns = (
            n_boundary, strict_mode,
            [e.id for e in edges], [e.ends for e in edges], [e.eta for e in edges],
            [f.id for f in faces], [f.corners for f in faces], [f.edges for f in faces],
        )
        fields = _compile(*columns) or _validate(*columns)  # the record walk raises
        vars(self).update(fields)

    @classmethod
    def _of_fields(cls, fields: dict) -> Surface:
        s = cls.__new__(cls)
        vars(s).update(fields)
        return s

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.n_boundary, self.strict_mode, self.edge_ids, self.face_ids)
            == (other.n_boundary, other.strict_mode, other.edge_ids, other.face_ids)
            and all(
                np.array_equal(getattr(self, k), getattr(other, k))
                for k in ("ends", "edge_etas", "corners", "slot_edges")
            )
        )

    def __hash__(self):
        return hash((self.n_boundary, self.strict_mode, self.edge_ids, self.face_ids))

    def __repr__(self):
        return (
            f"Surface(n_boundary={self.n_boundary!r}, edges={len(self.edge_ids)}, "
            f"faces={len(self.face_ids)}, strict_mode={self.strict_mode!r})"
        )

    @cached_property
    def jacobian_pattern(self) -> tuple[CsrPattern, np.ndarray]:
        """CSR pattern of the n x n curvature Jacobian, and for each entry of
        the per-face 3x3 blocks, flattened in face-then-slot order, the
        position of its summand in the CSR data vector."""
        n = self.n_boundary
        rows = np.repeat(self.corners, 3, axis=1).ravel()
        cols = np.tile(self.corners, 3).ravel()
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        # int32, the index type scipy picks for these sizes, so building a
        # matrix copies nothing; read-only, as every matrix shares them
        indices, slot = (keys % n).astype(np.int32), slot.astype(np.int32)
        for arr in (indptr, indices, slot):
            arr.flags.writeable = False
        return CsrPattern(n, indptr, indices), slot

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        ends, etas = self.ends.tolist(), self.edge_etas.tolist()
        return tuple(map(Edge, self.edge_ids, map(tuple, ends), etas))

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        ids = self.edge_ids
        rows = zip(self.face_ids, self.corners.tolist(), self.slot_edges.tolist())
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
        return tuple(self._edge_by_id[face.edges[t]].eta for t in _R)

    def to_dict(self) -> dict:
        return {
            "n_boundary": self.n_boundary,
            "edges": [{"id": e.id, "ends": list(e.ends), "eta": e.eta} for e in self.edges],
            "faces": [
                {"id": f.id, "corners": list(f.corners), "edges": list(f.edges)} for f in self.faces
            ],
        }


# the types an end, corner or slot edge id may have (bools are integers)
_INTEGER = (int, np.integer, np.bool_)


def _len(row) -> int:
    """len(row), or -1 for a row that has no length."""
    try:
        return len(row)
    except TypeError:
        return -1


def _table(rows, width: int) -> np.ndarray | None:
    """rows as an (N, width) np.intp array (dtype object when an integer lies
    beyond np.intp), or None when some row is not `width` long or some entry
    is not an integer."""
    try:
        if set(map(len, rows)) - {width}:
            return None
    except TypeError:  # a row that is not a sequence
        return None
    entries = list(chain.from_iterable(rows))
    if not all(issubclass(t, _INTEGER) for t in set(map(type, entries))):
        return None
    try:
        return np.fromiter(entries, np.intp, len(entries)).reshape(-1, width)
    except OverflowError:
        return np.array(rows, dtype=object)


def _repeated_in_row(t: np.ndarray) -> np.ndarray:
    a, b, c = t.T
    return (a == b) | (a == c) | (b == c)


def _compile(n, strict, edge_ids, ends, etas, face_ids, corners, face_edges) -> dict | None:
    """The array pass over the columns of a surface (edge ids, ends and
    weights; face ids, corners and slot edge ids): the attributes of its
    Surface, arrays read-only, or None when a rule fails.  Warns about
    edges no face references."""
    if not isinstance(n, int) or n <= 0:
        return None
    try:  # a weight that is not a number, an id that is not hashable
        etas = np.fromiter(etas, float, len(etas))
        if len(set(edge_ids)) < len(edge_ids) or len(set(face_ids)) < len(face_ids):
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    ends, corners, face_edges = _table(ends, 2), _table(corners, 3), _table(face_edges, 3)
    if ends is None or corners is None or face_edges is None:
        return None
    if (
        ((ends < 0) | (ends >= n)).any()
        or not ((etas > ETA_LOWER_BOUND) & (etas < np.inf)).all()  # NaN included
        or ((corners < 0) | (corners >= n)).any() or _repeated_in_row(face_edges).any()
        or (strict and _repeated_in_row(corners).any())
        or n > corners.size  # some component is a corner of no face
    ):
        return None
    # n <= corners.size, so every end and corner fits np.intp
    ends, corners = ends.astype(np.intp, copy=False), corners.astype(np.intp, copy=False)
    if not np.bincount(corners.ravel(), minlength=n).all():
        return None
    # slot_edges[f, t]: position in edge order of the edge at slot t of
    # face f, -1 if no edge has its id
    position = dict(zip(edge_ids, range(len(edge_ids))))
    slot_edges = np.fromiter(
        map(position.get, face_edges.ravel().tolist(), repeat(-1)), np.intp, face_edges.size
    ).reshape(-1, 3)
    # the edge at slot t must join the corners at the other two slots, as
    # (min, max) pairs (np.sort along an axis of two took 2.4 ms against
    # 0.3 ms for this on the m = 64 torus, 2-vCPU x86-64 VM); an unknown
    # edge joins (-1, -1), which matches no pair
    i, j = corners[:, _QQ[0]], corners[:, _QQ[1]]
    lo = np.append(np.minimum(*ends.T), -1)[slot_edges]
    hi = np.append(np.maximum(*ends.T), -1)[slot_edges]
    if ((lo != np.minimum(i, j)) | (hi != np.maximum(i, j))).any():
        return None

    referenced = np.zeros(len(edge_ids), dtype=bool)
    referenced[slot_edges.ravel()] = True
    if not referenced.all():
        unreferenced = sorted(edge_ids[i] for i in np.flatnonzero(~referenced))
        logger.warning("edges not referenced by any face: %s", unreferenced)

    face_etas = etas[slot_edges[:, _R]]
    for arr in (corners, face_etas, ends, etas, slot_edges):
        arr.flags.writeable = False  # shared by every evaluation on the surface
    return dict(
        n_boundary=n, strict_mode=strict, face_ids=tuple(face_ids), corners=corners,
        etas=face_etas, edge_ids=tuple(edge_ids), ends=ends, edge_etas=etas, slot_edges=slot_edges,
    )


def _rows(rows, width: int) -> list:
    """rows as lists, each entry as the table (see _table) of the rows
    before the first one not `width` long holds it, so that a message shows
    what the array pass compared (an int for a bool in an integer table)."""
    k = next((i for i, row in enumerate(rows) if _len(row) != width), len(rows))
    table = _table(rows[:k], width)
    return [*(rows[:k] if table is None else table.tolist()), *rows[k:]]


def _check_entries(record: str, what: str, row, n=None) -> None:
    """Raises unless every entry of row is an integer, in [0, n) if given."""
    for v in row:
        if not isinstance(v, _INTEGER):
            raise ValidationError(f"{record}: {what} {v!r} is not an integer")
        if n is not None and not 0 <= v < n:
            raise ValidationError(f"{record}: {what} {v} outside [0, {n})")


def _check_id(kind: str, rid, seen) -> None:
    """Raises unless the id of a `kind` record is hashable and not in seen."""
    try:
        duplicate = rid in seen
    except TypeError:
        raise ValidationError(f"{kind} {rid}: id is not hashable") from None
    if duplicate:
        raise ValidationError(f"duplicate {kind} id {rid}")


def _validate(n, strict, edge_ids, ends, etas, face_ids, corners, face_edges) -> None:
    """The record walk over columns that _compile rejects: raises
    ValidationError (EtaOutOfRange for a weight at or below -1, NaN or +inf)
    for n, else for the first faulty edge, else for the first faulty face,
    else for the smallest component that is a corner of no face."""
    if not isinstance(n, int) or n <= 0:
        raise ValidationError(f"n_boundary must be a positive integer, got {n!r}")
    ends_by_id = {}
    for eid, pair, eta in zip(edge_ids, _rows(ends, 2), etas):
        _check_id("edge", eid, ends_by_id)
        if _len(pair) != 2:
            raise ValidationError(f"edge {eid}: ends must be a pair")
        _check_entries(f"edge {eid}", "endpoint", pair, n)
        try:  # as the array pass converts it
            (eta,) = np.fromiter([eta], float, 1).tolist()
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"edge {eid}: eta {eta!r} does not convert to a float") from None
        if not eta > ETA_LOWER_BOUND:
            raise EtaOutOfRange(f"edge {eid}: eta = {eta!r} is not > {ETA_LOWER_BOUND}")
        if eta == np.inf:
            raise EtaOutOfRange(f"edge {eid}: eta = inf is not finite")
        ends_by_id[eid] = sorted(map(int, pair))

    seen = set()
    for fid, cs, es in zip(face_ids, _rows(corners, 3), _rows(face_edges, 3)):
        _check_id("face", fid, seen)
        seen.add(fid)
        if _len(cs) != 3 or _len(es) != 3:
            raise ValidationError(f"face {fid}: corners and edges must be triples")
        _check_entries(f"face {fid}", "corner", cs, n)
        _check_entries(f"face {fid}", "edge id", es)
        if len(set(es)) != 3:
            raise ValidationError(f"face {fid}: edge ids must be distinct")
        if strict and len(set(cs)) != 3:
            raise ValidationError(f"face {fid}: repeated corner in strict mode, corners={tuple(cs)}")
        for t, eid in enumerate(es):
            if eid not in ends_by_id:
                raise ValidationError(f"face {fid}: unknown edge id {eid}")
            got, want = ends_by_id[eid], sorted(map(int, (cs[t - 2], cs[t - 1])))
            if got != want:
                raise ValidationError(f"face {fid}: edge {eid} at slot {t} joins {got}, expected {want}")
    touched = {int(c) for cs in corners for c in cs}
    # stops within len(touched) + 1 steps, however large n is
    untouched = next((c for c in range(n) if c not in touched), None)
    if untouched is not None:
        raise ValidationError(f"boundary component {untouched} is a corner of no face")


def check_structure_condition(s: Surface) -> list[tuple[int, str, float]]:
    """Evaluate the per-face weight inequalities gamma >= 0.

    For a face with corner slots (i, j, k), gamma_i = e_jk + e_ij * e_ik and
    cyclically.  Returns every strictly negative gamma as
    (face_id, label, value), by face and then label; an empty list means
    the condition holds.
    """
    e = s.etas  # columns e_ij, e_ik, e_jk
    # weights are > -1, so a product that overflows is +inf, the right value
    with np.errstate(over="ignore"):
        gammas = e[:, _R] + e[:, _P] * e[:, _Q]
    faces, slots = (gammas < 0.0).nonzero()
    ids = s.face_ids
    return [
        (ids[f], STRUCTURE_LABELS[t], g)
        for f, t, g in zip(faces.tolist(), slots.tolist(), gammas[faces, slots].tolist())
    ]


def structure_condition_holds(s: Surface) -> bool:
    return not check_structure_condition(s)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


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


def _columns(edges: list, faces: list) -> list | None:
    """The edge and face records of a file as columns (see _compile), or
    None when a record is not an object with the keys, an id is not an
    integer or a weight not a number."""
    try:
        columns = [list(map(itemgetter(key), edges)) for key in ("id", "ends", "eta")]
        columns += [list(map(itemgetter(key), faces)) for key in ("id", "corners", "edges")]
    except (TypeError, KeyError):  # a record that is not an object, or misses a key
        return None
    edge_ids, _, etas, face_ids, _, _ = columns
    if set(map(type, edge_ids + face_ids)) - {int, bool}:
        return None
    if set(map(type, etas)) - {float} and any(map(_eta_fault, etas)):
        return None
    return columns


def _integers(v, width: int) -> bool:
    return isinstance(v, list) and _table([v], width) is not None


def _parse_records(edges: list, faces: list) -> None:
    """The record walk over the records of a file that the array pass
    rejects: raises ParseError for the first edge, else face, that breaks
    the file format."""
    for rec in edges:
        _require(isinstance(rec, dict), "edge records must be objects")
        for key in ("id", "ends", "eta"):
            _require(key in rec, f"edge record missing {key!r}")
        _require(isinstance(rec["id"], int), "edge id must be an integer")
        _require(_integers(rec["ends"], 2), f"edge {rec['id']}: ends must be a pair of integers")
        fault = _eta_fault(rec["eta"])
        _require(fault is None, f"edge {rec['id']}: eta {fault}")
    for rec in faces:
        _require(isinstance(rec, dict), "face records must be objects")
        for key in ("id", "corners", "edges"):
            _require(key in rec, f"face record missing {key!r}")
        _require(isinstance(rec["id"], int), "face id must be an integer")
        for key in ("corners", "edges"):
            _require(_integers(rec[key], 3), f"face {rec['id']}: {key} must be a triple of integers")


def _parse_surface_dict(data: dict, strict: bool) -> Surface:
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("n_boundary", "edges", "faces"):
        _require(key in data, f"missing key {key!r}")
    _require(isinstance(data["n_boundary"], int), "n_boundary must be an integer")
    _require(isinstance(data["edges"], list), "edges must be a list")
    _require(isinstance(data["faces"], list), "faces must be a list")

    n, edges, faces = data["n_boundary"], data["edges"], data["faces"]
    columns = _columns(edges, faces)
    fields = columns and _compile(n, strict, *columns)
    # where the array pass rejects, the record walk raises
    fields = fields or _parse_records(edges, faces) or _validate(n, strict, *columns)
    return Surface._of_fields(fields)


def load_surface(path, strict: bool = True) -> Surface:
    """Load and validate a surface from a JSON file, reading its records
    straight into the surface arrays.

    Raises ParseError for malformed files, ValidationError for violated
    combinatorial invariants (EtaOutOfRange for weights at or below -1,
    NaN or +inf), each for the first faulty record in file order (edges
    before faces) and with a message that names the file.
    """
    # the collector resumes only after the decoded records are gone
    with paused_collector():
        data = load(path, "surface")
        try:
            surface = _parse_surface_dict(data, strict)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"surface file {path}: {exc}") from None
        del data
    return surface


def save_surface(s: Surface, path) -> None:
    """Write a surface as JSON; a load of the result reproduces the surface
    bit for bit (floats are written in shortest round-trip decimal)."""
    dump(s.to_dict(), path, "surface")


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
