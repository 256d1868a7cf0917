import gc
import json
import logging
import math
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from hexflow import (
    CornerAlpha,
    Edge,
    EtaOutOfRange,
    Face,
    FaceEta,
    HexflowError,
    ParseError,
    Surface,
    ValidationError,
    check_structure_condition,
    default_base_point,
    load_surface,
    pair_of_pants,
    save_surface,
)
from hexflow.conformal import curvature_dump
from hexflow import triangulation
from hexflow.triangulation import STRUCTURE_LABELS, _table
from hexflow.volume import PyramidChart
from conftest import SURFACE_FILES, fixture_path


def write_surface(tmp_path, data, name="surf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def pants_dict(etas=(0.0, 0.0, 0.0)):
    return {
        "n_boundary": 3,
        "edges": [
            {"id": 0, "ends": [1, 2], "eta": etas[0]},
            {"id": 1, "ends": [0, 2], "eta": etas[1]},
            {"id": 2, "ends": [0, 1], "eta": etas[2]},
        ],
        "faces": [
            {"id": 0, "corners": [0, 1, 2], "edges": [0, 1, 2]},
            {"id": 1, "corners": [0, 1, 2], "edges": [0, 1, 2]},
        ],
    }


def test_load_pair_of_pants(tmp_path):
    s = load_surface(write_surface(tmp_path, pants_dict()))
    assert s.n_boundary == 3
    assert len(s.edges) == 3
    assert len(s.faces) == 2
    assert s.strict_mode
    assert s == pair_of_pants()


def test_eta_at_lower_bound_rejected(tmp_path):
    data = pants_dict(etas=(-1.0, 0.0, 0.0))
    with pytest.raises(EtaOutOfRange):
        load_surface(write_surface(tmp_path, data))


def test_eta_below_lower_bound_rejected():
    with pytest.raises(EtaOutOfRange):
        pair_of_pants((-1.5, 0.0, 0.0))


def test_strict_mode_rejects_repeated_corner(tmp_path):
    data = {
        "n_boundary": 2,
        "edges": [
            {"id": 0, "ends": [0, 1], "eta": 0.5},
            {"id": 1, "ends": [0, 1], "eta": 0.5},
            {"id": 2, "ends": [0, 0], "eta": 0.5},
        ],
        "faces": [{"id": 0, "corners": [0, 0, 1], "edges": [1, 0, 2]}],
    }
    path = write_surface(tmp_path, data)
    with pytest.raises(ValidationError):
        load_surface(path, strict=True)
    s = load_surface(path, strict=False)
    assert not s.strict_mode
    assert s.faces[0].corners == (0, 0, 1)


def test_missing_edge_reference(tmp_path):
    data = pants_dict()
    data["faces"][0]["edges"] = [0, 1, 9]
    with pytest.raises(ValidationError, match="unknown edge id 9"):
        load_surface(write_surface(tmp_path, data))


def test_endpoint_multiset_mismatch(tmp_path):
    data = pants_dict()
    # swap two edge slots so slot 0 no longer joins corners 1 and 2
    data["faces"][0]["edges"] = [2, 1, 0]
    with pytest.raises(ValidationError, match="slot 0"):
        load_surface(write_surface(tmp_path, data))


def test_duplicate_ids_rejected(tmp_path):
    data = pants_dict()
    data["edges"][1]["id"] = 0
    with pytest.raises(ValidationError, match="duplicate edge id"):
        load_surface(write_surface(tmp_path, data))


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        load_surface(path)


def test_missing_key_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="faces"):
        load_surface(write_surface(tmp_path, {"n_boundary": 3, "edges": []}))


def test_unreferenced_edge_warns(tmp_path, caplog):
    data = pants_dict()
    data["edges"].append({"id": 7, "ends": [0, 1], "eta": 0.25})
    with caplog.at_level(logging.WARNING, logger="hexflow.triangulation"):
        load_surface(write_surface(tmp_path, data))
    assert any("not referenced" in rec.message for rec in caplog.records)


def test_round_trip_is_bitwise(tmp_path):
    src = fixture_path("f2", "mixed")
    s = load_surface(src)
    out = tmp_path / "copy.json"
    save_surface(s, out)
    s2 = load_surface(out)
    assert s2 == s
    for e, e2 in zip(s.edges, s2.edges):
        assert e.eta == e2.eta  # exact float equality


class TestStructureCondition:
    def test_all_zero_weights_hold(self, pants):
        assert check_structure_condition(pants) == []

    def test_mixed_profile_holds(self):
        s = pair_of_pants((-0.5, 1.0, 1.0))
        assert check_structure_condition(s) == []

    def test_single_negative_gamma_reported(self):
        # weight -0.5 on the edge opposite corner slot 0, zero elsewhere
        s = pair_of_pants((-0.5, 0.0, 0.0))
        violations = check_structure_condition(s)
        assert len(violations) == 2  # both faces share the weights
        for fid, label, value in violations:
            assert label == "gamma_i"
            assert value == pytest.approx(-0.5)

    def test_gamma_values_match_direct_evaluation(self):
        s = pair_of_pants((-0.5, 1.0, 1.0))
        e_ij, e_ik, e_jk = s.face_etas(s.faces[0])
        assert e_jk + e_ij * e_ik == pytest.approx(0.5)
        assert e_ik + e_ij * e_jk == pytest.approx(0.5)
        assert e_ij + e_ik * e_jk == pytest.approx(0.5)

    def test_invariant_under_cyclic_relabeling(self):
        etas = (-0.4, 0.9, 1.3)
        base = pair_of_pants(etas)
        base_violations = check_structure_condition(base)

        # rotate corners and their opposite edge slots together
        edges = (
            Edge(id=0, ends=(2, 0), eta=etas[1]),
            Edge(id=1, ends=(1, 0), eta=etas[2]),
            Edge(id=2, ends=(1, 2), eta=etas[0]),
        )
        faces = (
            Face(id=0, corners=(1, 2, 0), edges=(0, 1, 2)),
            Face(id=1, corners=(1, 2, 0), edges=(0, 1, 2)),
        )
        rotated = Surface(n_boundary=3, edges=edges, faces=faces)
        rot_violations = check_structure_condition(rotated)
        assert sorted(v for _, _, v in base_violations) == pytest.approx(
            sorted(v for _, _, v in rot_violations)
        )
        assert len(base_violations) == len(rot_violations) == 0


def test_surface_is_immutable(pants):
    with pytest.raises(AttributeError):
        pants.n_boundary = 5
    with pytest.raises(FrozenInstanceError, match="^cannot delete field 'n_boundary'$"):
        del pants.n_boundary
    assert pants.n_boundary == 3


def test_face_etas_positional_convention(pants_mixed):
    # slot 0 stores the edge opposite corner 0, i.e. joining corners 1 and 2
    e_ij, e_ik, e_jk = pants_mixed.face_etas(pants_mixed.faces[0])
    assert (e_ij, e_ik, e_jk) == (1.0, 1.0, -0.5)


def test_self_edge_requires_nonstrict_face():
    edges = (
        Edge(id=0, ends=(0, 0), eta=0.5),
        Edge(id=1, ends=(0, 1), eta=0.5),
        Edge(id=2, ends=(0, 1), eta=0.5),
    )
    faces = (Face(id=0, corners=(1, 0, 0), edges=(0, 1, 2)),)
    with pytest.raises(ValidationError):
        Surface(n_boundary=2, edges=edges, faces=faces, strict_mode=True)
    s = Surface(n_boundary=2, edges=edges, faces=faces, strict_mode=False)
    assert s.faces[0].edges == (0, 1, 2)


def test_fixture_counts():
    f2 = load_surface(fixture_path("f2", "eta0"))
    assert f2.n_boundary == 3
    assert len(f2.edges) == 9
    assert len(f2.faces) == 6
    assert math.isclose(sum(1 for e in f2.edges if e.eta == 0.0), 9)


# Single-fault mutations of f2_sixhex_mixed (and a few multi-fault files)
# with the exception class and message the loader raised before it read
# the records into arrays: (name, strict, [(path, value)], error, message).
# A path () wraps the whole document in a list; DELETE removes the key.
DELETE, WRAP = object(), object()
LOADER_FAULTS = [
    ('top_level_list', True, [((), WRAP)],
     ParseError, 'top level must be an object'),
    ('missing_n_boundary', True, [(('n_boundary',), DELETE)],
     ParseError, "missing key 'n_boundary'"),
    ('missing_edges', True, [(('edges',), DELETE)],
     ParseError, "missing key 'edges'"),
    ('missing_faces', True, [(('faces',), DELETE)],
     ParseError, "missing key 'faces'"),
    ('n_boundary_float', True, [(('n_boundary',), 3.0)],
     ParseError, 'n_boundary must be an integer'),
    ('n_boundary_string', True, [(('n_boundary',), '3')],
     ParseError, 'n_boundary must be an integer'),
    ('edges_not_list', True, [(('edges',), {})],
     ParseError, 'edges must be a list'),
    ('faces_not_list', True, [(('faces',), 'faces')],
     ParseError, 'faces must be a list'),
    ('edge_not_object', True, [(('edges', 4), [0, 2])],
     ParseError, 'edge records must be objects'),
    ('edge_missing_id', True, [(('edges', 4, 'id'), DELETE)],
     ParseError, "edge record missing 'id'"),
    ('edge_missing_ends', True, [(('edges', 4, 'ends'), DELETE)],
     ParseError, "edge record missing 'ends'"),
    ('edge_missing_eta', True, [(('edges', 4, 'eta'), DELETE)],
     ParseError, "edge record missing 'eta'"),
    ('edge_id_float', True, [(('edges', 4, 'id'), 4.0)],
     ParseError, 'edge id must be an integer'),
    ('edge_id_string', True, [(('edges', 4, 'id'), '4')],
     ParseError, 'edge id must be an integer'),
    ('edge_id_null', True, [(('edges', 4, 'id'), None)],
     ParseError, 'edge id must be an integer'),
    ('ends_float', True, [(('edges', 4, 'ends'), [0, 2.0])],
     ParseError, 'edge 4: ends must be a pair of integers'),
    ('ends_short', True, [(('edges', 4, 'ends'), [0])],
     ParseError, 'edge 4: ends must be a pair of integers'),
    ('ends_long', True, [(('edges', 4, 'ends'), [0, 2, 1])],
     ParseError, 'edge 4: ends must be a pair of integers'),
    ('ends_not_list', True, [(('edges', 4, 'ends'), '0,2')],
     ParseError, 'edge 4: ends must be a pair of integers'),
    ('ends_string_entry', True, [(('edges', 4, 'ends'), [0, '2'])],
     ParseError, 'edge 4: ends must be a pair of integers'),
    ('eta_bool', True, [(('edges', 4, 'eta'), True)],
     ParseError, 'edge 4: eta must be a number'),
    ('eta_string', True, [(('edges', 4, 'eta'), '1.1')],
     ParseError, 'edge 4: eta must be a number'),
    ('eta_null', True, [(('edges', 4, 'eta'), None)],
     ParseError, 'edge 4: eta must be a number'),
    ('eta_list', True, [(('edges', 4, 'eta'), [1.1])],
     ParseError, 'edge 4: eta must be a number'),
    ('eta_huge_int', True, [(('edges', 4, 'eta'), 10**400)],
     ParseError, 'edge 4: eta is an integer beyond the float range'),
    ('eta_huge_negative_int', True, [(('edges', 4, 'eta'), -10**400)],
     ParseError, 'edge 4: eta is an integer beyond the float range'),
    ('face_not_object', True, [(('faces', 3), 3)],
     ParseError, 'face records must be objects'),
    ('face_missing_id', True, [(('faces', 3, 'id'), DELETE)],
     ParseError, "face record missing 'id'"),
    ('face_missing_corners', True, [(('faces', 3, 'corners'), DELETE)],
     ParseError, "face record missing 'corners'"),
    ('face_missing_edges', True, [(('faces', 3, 'edges'), DELETE)],
     ParseError, "face record missing 'edges'"),
    ('face_id_float', True, [(('faces', 3, 'id'), 3.5)],
     ParseError, 'face id must be an integer'),
    ('corners_float', True, [(('faces', 3, 'corners'), [0, 1.0, 2])],
     ParseError, 'face 3: corners must be a triple of integers'),
    ('corners_pair', True, [(('faces', 3, 'corners'), [0, 1])],
     ParseError, 'face 3: corners must be a triple of integers'),
    ('corners_not_list', True, [(('faces', 3, 'corners'), {'0': 1})],
     ParseError, 'face 3: corners must be a triple of integers'),
    ('face_edges_string', True, [(('faces', 3, 'edges'), [1, 5, '6'])],
     ParseError, 'face 3: edges must be a triple of integers'),
    ('face_edges_float', True, [(('faces', 3, 'edges'), [1.0, 5, 6])],
     ParseError, 'face 3: edges must be a triple of integers'),
    ('face_edges_long', True, [(('faces', 3, 'edges'), [1, 5, 6, 7])],
     ParseError, 'face 3: edges must be a triple of integers'),
    ('n_boundary_zero', True, [(('n_boundary',), 0)],
     ValidationError, 'n_boundary must be a positive integer, got 0'),
    ('n_boundary_negative', True, [(('n_boundary',), -2)],
     ValidationError, 'n_boundary must be a positive integer, got -2'),
    ('eta_at_bound', True, [(('edges', 4, 'eta'), -1)],
     EtaOutOfRange, 'edge 4: eta = -1.0 is not > -1.0'),
    ('eta_below_bound', True, [(('edges', 4, 'eta'), -1.5)],
     EtaOutOfRange, 'edge 4: eta = -1.5 is not > -1.0'),
    ('eta_nan', True, [(('edges', 4, 'eta'), math.nan)],
     EtaOutOfRange, 'edge 4: eta = nan is not > -1.0'),
    ('eta_minus_inf', True, [(('edges', 4, 'eta'), -math.inf)],
     EtaOutOfRange, 'edge 4: eta = -inf is not > -1.0'),
    ('duplicate_edge_id', True, [(('edges', 4, 'id'), 2)],
     ValidationError, 'duplicate edge id 2'),
    ('duplicate_face_id', True, [(('faces', 3, 'id'), 1)],
     ValidationError, 'duplicate face id 1'),
    ('endpoint_too_large', True, [(('edges', 4, 'ends'), [0, 3])],
     ValidationError, 'edge 4: endpoint 3 outside [0, 3)'),
    ('endpoint_negative', True, [(('edges', 4, 'ends'), [-1, 2])],
     ValidationError, 'edge 4: endpoint -1 outside [0, 3)'),
    ('endpoint_huge', True, [(('edges', 4, 'ends'), [0, 1000000000000000000000000000000])],
     ValidationError, 'edge 4: endpoint 1000000000000000000000000000000 outside [0, 3)'),
    ('corner_too_large', True, [(('faces', 3, 'corners'), [0, 1, 5])],
     ValidationError, 'face 3: corner 5 outside [0, 3)'),
    ('corner_negative', True, [(('faces', 3, 'corners'), [-3, 1, 2])],
     ValidationError, 'face 3: corner -3 outside [0, 3)'),
    ('repeated_edge_in_face', True, [(('faces', 3, 'edges'), [1, 5, 1])],
     ValidationError, 'face 3: edge ids must be distinct'),
    ('repeated_corner_strict', True, [(('faces', 3, 'corners'), [0, 0, 2])],
     ValidationError, 'face 3: repeated corner in strict mode, corners=(0, 0, 2)'),
    ('repeated_corner_nonstrict', False, [(('faces', 3, 'corners'), [0, 0, 2])],
     ValidationError, 'face 3: edge 1 at slot 0 joins [1, 2], expected [0, 2]'),
    ('unknown_edge_id', True, [(('faces', 3, 'edges'), [1, 5, 99])],
     ValidationError, 'face 3: unknown edge id 99'),
    ('wrong_slot_edge', True, [(('faces', 3, 'edges'), [5, 1, 6])],
     ValidationError, 'face 3: edge 5 at slot 0 joins [0, 2], expected [1, 2]'),
    ('wrong_slot_edge_last', True, [(('faces', 3, 'edges'), [1, 5, 0])],
     ValidationError, 'face 3: edge 0 at slot 2 joins [1, 2], expected [0, 1]'),
    ('component_without_face', True, [(('n_boundary',), 5)],
     ValidationError, 'boundary component 3 is a corner of no face'),
    ('n_boundary_beyond_int64', True, [(('n_boundary',), 2**64)],
     ValidationError, 'boundary component 3 is a corner of no face'),
    ('corner_beyond_int64', True, [(('n_boundary',), 2**64), (('faces', 3, 'corners'), [0, 1, 2**63])],
     ValidationError, 'face 3: edge 1 at slot 0 joins [1, 2], expected [1, 9223372036854775808]'),
    # several faults: the earliest record, and within it the first check, wins
    ('multi_edges_earliest_wins', True, [
        (('edges', 7, 'eta'), -2.0),
        (('edges', 5, 'ends'), [0, 7]),
        (('edges', 3, 'id'), 1),
        (('edges', 3, 'eta'), -3.0),
    ], ValidationError, 'duplicate edge id 1'),
    ('multi_parse_before_validation', True, [
        (('edges', 1, 'eta'), -2.0),
        (('faces', 5, 'corners'), [0, 1, 2.5]),
    ], ParseError, 'face 5: corners must be a triple of integers'),
    ('multi_parse_edges_before_faces', True, [
        (('faces', 0, 'id'), '0'),
        (('edges', 8, 'ends'), [0]),
    ], ParseError, 'edge 8: ends must be a pair of integers'),
    ('multi_record_first_check', True, [
        (('edges', 6, 'ends'), [0.0, 1]),
        (('edges', 6, 'id'), 6.5),
    ], ParseError, 'edge id must be an integer'),
    ('multi_face_first_check', True, [
        (('faces', 2, 'edges'), [1, 4, 99]),
        (('faces', 2, 'corners'), [0, 0, 2]),
    ], ValidationError, 'face 2: repeated corner in strict mode, corners=(0, 0, 2)'),
    ('multi_face_slot_order', True, [(('faces', 1, 'edges'), [0, 99, 4])],
     ValidationError, 'face 1: unknown edge id 99'),
    ('multi_faces_earliest_wins', True, [
        (('faces', 4, 'edges'), [2, 5, 99]),
        (('faces', 2, 'edges'), [1, 8, 77]),
        (('faces', 5, 'id'), 0),
    ], ValidationError, 'face 2: edge 8 at slot 1 joins [0, 1], expected [0, 2]'),
    ('multi_huge_eta_earliest_wins', True, [
        (('edges', 6, 'eta'), 'x'),
        (('edges', 5, 'ends'), [0, 7]),
        (('edges', 2, 'eta'), -10**400),
    ], ParseError, 'edge 2: eta is an integer beyond the float range'),
    ('multi_huge_eta_before_validation', True, [
        (('edges', 1, 'eta'), -2.0),
        (('edges', 7, 'eta'), 10**400),
    ], ParseError, 'edge 7: eta is an integer beyond the float range'),
    ('multi_edge_before_face', True, [
        (('faces', 0, 'corners'), [0, 1, 9]),
        (('edges', 8, 'eta'), -1.0),
    ], EtaOutOfRange, 'edge 8: eta = -1.0 is not > -1.0'),
]


def mutated(changes):
    data = json.loads(fixture_path("f2", "mixed").read_text())
    for path, value in changes:
        if not path:
            data = [data]
            continue
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        if value is DELETE:
            del obj[path[-1]]
        else:
            obj[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "strict, changes, error, message",
    [row[1:] for row in LOADER_FAULTS],
    ids=[row[0] for row in LOADER_FAULTS],
)
def test_loader_error_contract(tmp_path, strict, changes, error, message):
    path = write_surface(tmp_path, mutated(changes))
    with pytest.raises(HexflowError) as info:
        load_surface(path, strict=strict)
    assert type(info.value) is error
    assert str(info.value) == f"surface file {path}: {message}"


def test_unreferenced_edge_warning_text(tmp_path, caplog):
    data = pants_dict()
    data["edges"] += [{"id": 9, "ends": [0, 1], "eta": 0.5}, {"id": -4, "ends": [2, 2], "eta": 0.0}]
    with caplog.at_level(logging.WARNING, logger="hexflow.triangulation"):
        load_surface(write_surface(tmp_path, data))
    assert [rec.getMessage() for rec in caplog.records] == [
        "edges not referenced by any face: [-4, 9]"
    ]


def surface_from_records(data, strict=True):
    """The Surface constructor fed with Edge and Face tuples of a file's
    records."""
    edges = [Edge(e["id"], tuple(e["ends"]), float(e["eta"])) for e in data["edges"]]
    faces = [Face(f["id"], tuple(f["corners"]), tuple(f["edges"])) for f in data["faces"]]
    return Surface(data["n_boundary"], edges, faces, strict_mode=strict)


@pytest.mark.parametrize("fixture", ["f1", "f2"])
@pytest.mark.parametrize("profile", ["eta0", "eta15", "mixed"])
def test_tuples_and_file_give_the_same_surface(fixture, profile):
    path = fixture_path(fixture, profile)
    built = surface_from_records(json.loads(path.read_text()))
    loaded = load_surface(path)
    # one state, the arrays, however the surface was built
    assert set(vars(built)) == set(vars(loaded))
    assert built == loaded
    for field in ("face_ids", "corners", "etas", "edge_ids", "ends", "edge_etas", "slot_edges"):
        a, b = getattr(built, field), getattr(loaded, field)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b
    assert built.edges == loaded.edges
    assert built.faces == loaded.faces
    assert built.to_dict() == loaded.to_dict()
    for f in loaded.faces:
        assert built.face_etas(f) == loaded.face_etas(f)
    for e in loaded.edges:
        assert built.edge(e.id) == loaded.edge(e.id) == e


def test_ids_beyond_int64_load(tmp_path):
    data = json.loads(fixture_path("f2", "mixed").read_text())
    big = 2**70
    data["edges"][4]["id"] = big
    for face in data["faces"]:
        face["edges"] = [big if e == 4 else e for e in face["edges"]]
    data["faces"][3]["id"] = -big
    loaded = load_surface(write_surface(tmp_path, data))
    assert loaded == surface_from_records(data)
    assert loaded.edge(big).ends == (0, 2)
    assert loaded.to_dict() == data


# entries of the integer columns (ends, corners, slot edge ids), which the
# array pass reads with one fromiter over the chained rows: each case gives
# the surface of the unchanged file, or the error, that the loader gave
# when it read them with np.array
SAME = object()
TABLE_CASES = [
    ('bool_ends', [(('edges', 0, 'ends'), [True, 2])], SAME),
    ('bool_corners', [(('faces', 0, 'corners'), [False, True, 2])], SAME),
    ('bools_only', [(('edges', 8, 'ends'), [False, True])], SAME),
    ('bool_edge_id', [(('faces', 1, 'edges'), [False, 4, 7])], SAME),
    ('float_one_end', [(('edges', 0, 'ends'), [1.0, 2])],
     (ParseError, 'edge 0: ends must be a pair of integers')),
    ('float_end', [(('edges', 0, 'ends'), [1, 2.5])],
     (ParseError, 'edge 0: ends must be a pair of integers')),
    ('float_one_corner', [(('faces', 2, 'corners'), [0, 1.0, 2])],
     (ParseError, 'face 2: corners must be a triple of integers')),
    ('float_edge_id', [(('faces', 2, 'edges'), [1, 4, 2.5])],
     (ParseError, 'face 2: edges must be a triple of integers')),
    ('string_end', [(('edges', 3, 'ends'), ['0', 2])],
     (ParseError, 'edge 3: ends must be a pair of integers')),
    ('string_row', [(('faces', 3, 'corners'), '012')],
     (ParseError, 'face 3: corners must be a triple of integers')),
    ('none_corner', [(('faces', 4, 'corners'), [0, None, 2])],
     (ParseError, 'face 4: corners must be a triple of integers')),
    ('none_row', [(('edges', 4, 'ends'), None)],
     (ParseError, 'edge 4: ends must be a pair of integers')),
    ('nested_end', [(('edges', 5, 'ends'), [[0], 2])],
     (ParseError, 'edge 5: ends must be a pair of integers')),
    ('nested_corners', [(('faces', 5, 'corners'), [[0, 1, 2]])],
     (ParseError, 'face 5: corners must be a triple of integers')),
    ('ragged_ends', [(('edges', 6, 'ends'), [0, 1, 1])],
     (ParseError, 'edge 6: ends must be a pair of integers')),
    ('ragged_corners', [(('faces', 1, 'corners'), [0, 1])],
     (ParseError, 'face 1: corners must be a triple of integers')),
    ('object_row', [(('edges', 7, 'ends'), {'a': 0, 'b': 1})],
     (ParseError, 'edge 7: ends must be a pair of integers')),
    ('end_beyond_int64', [(('edges', 2, 'ends'), [1, 2**63])],
     (ValidationError, 'edge 2: endpoint 9223372036854775808 outside [0, 3)')),
    ('corner_beyond_int64', [(('faces', 0, 'corners'), [0, -2**70, 2])],
     (ValidationError, 'face 0: corner -1180591620717411303424 outside [0, 3)')),
    ('edge_id_beyond_int64', [(('faces', 0, 'edges'), [0, 3, 2**64])],
     (ValidationError, 'face 0: unknown edge id 18446744073709551616')),
    ('empty_columns', [(('edges',), []), (('faces',), [])],
     (ValidationError, 'boundary component 0 is a corner of no face')),
    ('empty_faces', [(('faces',), [])],
     (ValidationError, 'boundary component 0 is a corner of no face')),
]


@pytest.mark.parametrize("changes, want", [row[1:] for row in TABLE_CASES],
                         ids=[row[0] for row in TABLE_CASES])
def test_integer_columns_load_as_before(tmp_path, changes, want):
    path = write_surface(tmp_path, mutated(changes))
    if want is SAME:
        assert load_surface(path) == load_surface(fixture_path("f2", "mixed"))
        return
    error, message = want
    with pytest.raises(HexflowError) as info:
        load_surface(path)
    assert type(info.value) is error
    assert str(info.value) == f"surface file {path}: {message}"


@pytest.mark.parametrize("rows, width, want", [
    ([], 3, np.empty((0, 3), np.intp)),
    ([[True, False]], 2, np.array([[1, 0]])),
    ([[1, True], (np.int32(2), np.bool_(True))], 2, np.array([[1, 1], [2, 1]])),
    ([[2**63 - 1, -2**63]], 2, np.array([[2**63 - 1, -2**63]])),
    ([[2**70, 1]], 2, np.array([[2**70, 1]], dtype=object)),
    ([[-2**63 - 1, 0]], 2, np.array([[-2**63 - 1, 0]], dtype=object)),
    ([[1.0, 2]], 2, None), ([[1, 2.5]], 2, None), ([[np.float32(1), 1]], 2, None),
    ([["1", 2]], 2, None), (["ab"], 2, None), ([[None, 1]], 2, None), ([None], 2, None),
    ([[1, [2]]], 2, None), ([[1, 2], [3]], 2, None), ([[1, 2, 3]], 2, None), ([5, 6], 2, None),
], ids=repr)
def test_table(rows, width, want):
    got = _table(rows, width)
    if want is None:
        assert got is None
    else:
        assert got.dtype == (object if want.dtype == object else np.intp)
        assert got.shape == want.shape and got.tolist() == want.tolist()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("kind", ["valid", "malformed", "invalid"])
def test_load_surface_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled, kind):
    # the collector stays paused through the array pass, while the decoded
    # records are alive
    text = {"valid": json.dumps(pants_dict()), "malformed": "{\"n_boundary\": 3",
            "invalid": json.dumps({**pants_dict(), "n_boundary": 0})}[kind]
    path = tmp_path / "surf.json"
    path.write_text(text)
    seen, docs, resumed_with_doc = [], [], []
    parse, load, enable = triangulation._parse_surface_dict, triangulation.load, gc.enable

    class Doc(dict):  # the decoded document, which a weak reference can watch
        pass

    def loading(path, kind):
        doc = load(path, kind)
        doc = Doc(doc) if isinstance(doc, dict) else doc
        docs.append(weakref.ref(doc))
        return doc

    monkeypatch.setattr(triangulation, "_parse_surface_dict",
                        lambda data, strict: seen.append(gc.isenabled()) or parse(data, strict))
    monkeypatch.setattr(triangulation, "load", loading)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    monkeypatch.setattr(gc, "enable", lambda: resumed_with_doc.append(
        any(ref() is not None for ref in docs)) or enable())
    try:
        if kind == "valid":
            assert load_surface(path) == pair_of_pants()
        else:
            with pytest.raises((ParseError, ValidationError), match=f"surface file {path}"):
                load_surface(path)
        assert gc.isenabled() is enabled
    finally:
        monkeypatch.setattr(gc, "enable", enable)
        (gc.enable if was_enabled else gc.disable)()
    assert seen == ([] if kind == "malformed" else [False])
    if kind == "valid":
        # the decoded records are gone before the collector resumes
        assert resumed_with_doc == ([False] if enabled else [])


def test_tuple_constructor_checks_shapes():
    edges = [Edge(0, (1, 2), 0.0), Edge(1, (0, 2, 1), 0.0), Edge(2, (0, 1), 0.0)]
    faces = [Face(0, (0, 1, 2), (0, 1, 2))]
    with pytest.raises(ValidationError, match="^edge 1: ends must be a pair$"):
        Surface(3, edges, faces)
    edges[1] = Edge(1, (0, 2), 0.0)
    with pytest.raises(ValidationError, match="^face 1: corners and edges must be triples$"):
        Surface(3, edges, faces + [Face(1, (0, 1, 2), (0, 1))])
    with pytest.raises(ValidationError, match="^duplicate face id 0$"):
        Surface(3, edges, faces + [Face(0, (0, 1, 2), (0, 1))])
    with pytest.raises(ValidationError, match="^n_boundary must be a positive integer, got 3.0$"):
        Surface(3.0, edges, faces)
    # a non-integer index is rejected, not truncated; bools are integers
    with pytest.raises(ValidationError, match=r"^edge 1: endpoint 2\.9 is not an integer$"):
        Surface(3, [*edges[:1], Edge(1, (0, 2.9), 0.0), edges[2]], faces)
    with pytest.raises(ValidationError, match=r"^face 1: corner 1\.7 is not an integer$"):
        Surface(3, edges, faces + [Face(1, (0, 1.7, 2), (0, 1, 2))])
    with pytest.raises(ValidationError, match=r"^face 1: edge id 1\.0 is not an integer$"):
        Surface(3, edges, faces + [Face(1, (0, 1, 2), (0, 1.0, 2))])
    with pytest.raises(ValidationError, match="^face 1: edge id '2' is not an integer$"):
        Surface(3, edges, faces + [Face(1, (0, 1, 2), (0, 1, "2"))])
    # a field of the wrong kind raises ValidationError naming its record
    with pytest.raises(ValidationError, match="^edge 0: ends must be a pair$"):
        Surface(3, [Edge(0, 5, 0.0), *edges[1:]], faces)
    with pytest.raises(ValidationError, match="^face 0: corners and edges must be triples$"):
        Surface(3, edges, [Face(0, 7, (0, 1, 2))])
    with pytest.raises(ValidationError, match="^face 0: corners and edges must be triples$"):
        Surface(3, edges, [Face(0, (0, 1, 2), None)])
    with pytest.raises(ValidationError, match="^edge 0: eta 'x' does not convert to a float$"):
        Surface(3, [Edge(0, (1, 2), "x"), *edges[1:]], faces)
    with pytest.raises(ValidationError, match=r"^edge 0: eta \[0\.5\] does not convert to a float$"):
        Surface(3, [Edge(0, (1, 2), [0.5]), *edges[1:]], faces)
    with pytest.raises(ValidationError, match=r"^edge \[0\]: id is not hashable$"):
        Surface(3, [Edge([0], (1, 2), 0.0), *edges[1:]], faces)
    with pytest.raises(ValidationError, match=r"^face \[0\]: id is not hashable$"):
        Surface(3, edges, [Face([0], (0, 1, 2), (0, 1, 2))])
    s = Surface(3, [Edge(0, (True, 2), 0.0), *edges[1:]], faces + [Face(1, (False, 1, 2), (0, True, 2))])
    assert s.corners.tolist() == [[0, 1, 2], [0, 1, 2]]
    assert s.slot_edges.tolist() == [[0, 1, 2], [0, 1, 2]]
    # the views read the arrays: a weight the array pass converts is read
    # as its float, and ends given as a list come back as a hashable pair
    s = Surface(3, [Edge(0, (1, 2), "0.5"), Edge(1, [0, 2], 0.0), edges[2]], faces)
    assert s.edge_etas[0] == 0.5
    assert s.edges[0].eta == s.edge(0).eta == s.face_etas(s.faces[0])[2] == 0.5
    assert type(s.edges[0].eta) is float
    assert s.edges[1] == s.edge(1) == Edge(1, (0, 2), 0.0)
    assert hash(s.edges[1]) == hash(Edge(1, (0, 2), 0.0))


@pytest.mark.parametrize("make", [
    lambda: load_surface(fixture_path("f2", "mixed")),
    pair_of_pants,
    lambda: PyramidChart(FaceEta(-0.5, 1.0, 1.0), CornerAlpha(0.25, 0.25, 0.25)).surface,
], ids=["loaded", "tuples", "chart"])
def test_surface_arrays_are_read_only(make):
    # every evaluation on a surface shares its arrays
    s = make()
    pattern, slot = s.jacobian_pattern
    for arr in (s.corners, s.etas, s.ends, s.edge_etas, s.slot_edges,
                pattern.indptr, pattern.indices, slot):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_loaded_surface_builds_no_tuples(tmp_path):
    path = fixture_path("f2", "mixed")
    s = load_surface(path)
    assert "edges" not in vars(s) and "faces" not in vars(s)
    curvature_dump(s, default_base_point(s))
    check_structure_condition(s)
    assert "edges" not in vars(s) and "faces" not in vars(s)
    assert len(s.faces) == 6 and "faces" in vars(s)
    # nor does a surface built from tuples keep them: it holds what a
    # loaded one holds
    for key in SURFACE_FILES:
        path = fixture_path(*key)
        built = surface_from_records(json.loads(path.read_text()))
        assert set(vars(built)) == set(vars(load_surface(path)))
        assert "edges" not in vars(built) and "faces" not in vars(built)


def test_surface_is_hashable_and_equal_by_content():
    assert pair_of_pants() == pair_of_pants()
    assert hash(pair_of_pants()) == hash(pair_of_pants())
    assert pair_of_pants() != pair_of_pants((0.5, 0.0, 0.0))
    assert pair_of_pants() != "pants"


def structure_violations_by_loop(s):
    out = []
    for f in s.faces:
        e_ij, e_ik, e_jk = s.face_etas(f)
        gammas = (e_jk + e_ij * e_ik, e_ik + e_ij * e_jk, e_ij + e_ik * e_jk)
        out += [(f.id, label, g) for label, g in zip(STRUCTURE_LABELS, gammas) if g < 0.0]
    return out


@pytest.mark.parametrize("surface", [
    *(fixture_path(f, p) for f in ("f1", "f2") for p in ("eta0", "eta15", "mixed")),
    pair_of_pants((-0.5, 0.0, 0.0)),
    pair_of_pants((-0.9, 0.3, -0.2)),
    pair_of_pants((-0.1, -0.7, 0.45)),
], ids=str)
def test_structure_condition_matches_face_loop(surface):
    s = surface if isinstance(surface, Surface) else load_surface(surface)
    got = check_structure_condition(s)
    want = structure_violations_by_loop(s)
    assert [(f, label, g.hex()) for f, label, g in got] == [
        (f, label, g.hex()) for f, label, g in want
    ]
    assert all(type(g) is float for _, _, g in got)
