"""Seeded mutation tests of the input error contract.

Each test mutates the shipped fixtures (and factor and target files made
from them) with a fixed seed, so every run sees the same inputs:

* the surface loader's array pass and its record walk agree on every
  mutant: the pass builds arrays exactly when the walk finds no fault, and
  a surface built from tuples and one read from a file share their arrays;
* `cli.main` is total: every call returns a documented exit code, with no
  exception escaping and no numpy RuntimeWarning.
"""

import copy
import json
import math
import random
import warnings

import numpy as np

import hexflow.triangulation as tri
from hexflow import Edge, Face, HexflowError, ParseError, Surface, ValidationError, curvature
from hexflow.cli import main
from hexflow.conformal import default_base_point
from hexflow.triangulation import _parse_surface_dict
from conftest import FIXTURES

DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
SCALARS = [
    0, 1, 2, 3, 5, -1, 2**63, 2**70, -2**70, 10**400, 0.5, 2.0, -1.0, -1.5,
    math.nan, math.inf, -math.inf, True, False, "1", "x", None, [], [0, 1], [0, 1, 2, 3], {},
]
EXIT_CODES = {0, 2, 3, 4, 5, 6}


def mutate(rng, doc, rounds=3):
    """A deep copy of the JSON document doc with 1 to `rounds` random edits:
    a number scaled, or a value replaced, deleted, swapped with a sibling,
    duplicated or wrapped in a list."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, rounds)):
        nodes, stack = [], [((), doc)]
        while stack:
            path, node = stack.pop()
            nodes.append((path, node))
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            stack += [(path + (k,), v) for k, v in items]
        if len(nodes) == 1:
            break
        path, node = rng.choice(nodes[1:])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, r = path[-1], rng.random()
        if isinstance(node, float) and r < 0.4:
            parent[key] = node * rng.choice([-1.0, 0.1, 0.5, 0.9, 1.2, 1.6, 3.0])
        elif r < 0.65:
            parent[key] = copy.deepcopy(rng.choice(SCALARS))
        elif r < 0.75:
            del parent[key]
        elif r < 0.85 and isinstance(parent, list):
            j = rng.randrange(len(parent))
            parent[key], parent[j] = parent[j], parent[key]
        elif r < 0.95 and isinstance(parent, list):
            parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(node))
        else:
            parent[key] = [node]
    return json.loads(json.dumps(doc))


# the fields of a Surface that the array pass builds
FIELDS = ("n_boundary", "face_ids", "corners", "etas", "edge_ids", "ends", "edge_etas", "slot_edges")


def arrays_bytes(fields: dict):
    """The fields the array pass returns, or vars() of a Surface, as bytes."""
    return [
        (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
        for v in map(fields.__getitem__, FIELDS)
    ]


def raised(call, *args):
    """The ParseError or ValidationError call(*args) raises, or None."""
    try:
        call(*args)
    except (ParseError, ValidationError) as exc:
        return exc
    return None


def same_error(a, b):
    return type(a) is type(b) and str(a) == str(b)


def check_file(doc, strict):
    """The array pass accepts doc exactly when the record walk finds no
    fault, and the loader returns the pass's arrays or raises the walk's
    error."""
    loader_error = raised(_parse_surface_dict, doc, strict)
    if not (isinstance(doc, dict) and isinstance(doc.get("n_boundary"), int)
            and all(isinstance(doc.get(k), list) for k in ("edges", "faces"))):
        assert loader_error is not None
        return
    n, edges, faces = doc["n_boundary"], doc["edges"], doc["faces"]
    columns = tri._columns(edges, faces)
    arrays = columns and tri._compile(n, strict, *columns)
    error = raised(tri._parse_records, edges, faces) or raised(tri._validate, n, strict, *columns)
    if error is not None:
        assert not arrays and same_error(loader_error, error), (error, loader_error)
        return
    assert arrays and loader_error is None
    built = Surface(
        n,
        [Edge(e["id"], tuple(e["ends"]), e["eta"]) for e in edges],
        [Face(f["id"], tuple(f["corners"]), tuple(f["edges"])) for f in faces],
        strict,
    )
    loaded = _parse_surface_dict(doc, strict)
    assert arrays_bytes(vars(built)) == arrays_bytes(arrays) == arrays_bytes(vars(loaded))


def test_file_pass_and_walk_agree():
    rng = random.Random(20261018)
    for _ in range(1500):
        doc = mutate(rng, rng.choice(DOCS))
        for strict in (True, False):
            check_file(doc, strict)


INDICES = [0, 1, 2, 3, 5, -1, True, False, np.int64(1), np.int32(2), 2**70, 1.0, 2.5, "1", None]


def test_tuple_pass_and_walk_agree():
    rng = random.Random(7)
    accepted = 0
    for _ in range(1500):
        doc = rng.choice(DOCS)
        edges = [[e["id"], list(e["ends"]), e["eta"]] for e in doc["edges"]]
        faces = [[f["id"], list(f["corners"]), list(f["edges"])] for f in doc["faces"]]
        for _ in range(rng.randint(1, 3)):
            rec = rng.choice(edges + faces)
            field, r = rng.randrange(3), rng.random()
            if field == 0:
                rec[0] = rng.choice(INDICES[:-4] + ["a"])
            elif field == 2 and any(rec is e for e in edges):
                rec[2] = rng.choice([0.5, -1.0, -2.0, math.nan, 3, True, "0.5", np.float32(0.25)])
            elif r < 0.15:
                rec[field].pop()
            elif r < 0.25:
                rec[field].append(rng.choice(INDICES))
            elif rec[field]:
                rec[field][rng.randrange(len(rec[field]))] = rng.choice(INDICES)
        strict = rng.random() < 0.5
        columns = (
            [e[0] for e in edges], [tuple(e[1]) for e in edges], [e[2] for e in edges],
            [f[0] for f in faces], [tuple(f[1]) for f in faces], [tuple(f[2]) for f in faces],
        )
        arrays = tri._compile(doc["n_boundary"], strict, *columns)
        error = raised(tri._validate, doc["n_boundary"], strict, *columns)
        build = lambda: Surface(  # noqa: E731
            doc["n_boundary"],
            [Edge(i, tuple(e), eta) for i, e, eta in edges],
            [Face(i, tuple(c), tuple(x)) for i, c, x in faces],
            strict,
        )
        if error is not None:
            assert arrays is None and same_error(raised(build), error), error
            continue
        built = build()
        accepted += 1
        assert arrays_bytes(vars(built)) == arrays_bytes(arrays)
        if {type(i) for i in columns[0] + columns[3]} <= {int, bool}:
            loaded = _parse_surface_dict(json.loads(json.dumps(built.to_dict())), strict)
            assert arrays_bytes(vars(loaded)) == arrays_bytes(arrays)
    assert 100 < accepted < 1400


def byte_mutant(rng, text: str) -> bytes:
    data = bytearray(text.encode())
    i = rng.randrange(len(data))
    r = rng.random()
    if r < 0.4:
        data[i] = rng.randrange(256)
    elif r < 0.7:
        del data[i]
    else:
        del data[i:]
    return bytes(data)


def test_cli_is_total_on_mutated_files(tmp_path, capsys):
    rng = random.Random(5)
    codes = set()
    for k in range(240):
        doc = rng.choice(DOCS)
        surface = _parse_surface_dict(doc, True)
        alpha = default_base_point(surface).alpha
        files = {
            "surface": doc,
            "factor": {"alpha": (alpha * 1.1).tolist()},
            "target": {"K": curvature(surface, default_base_point(surface)).K.tolist()},
        }
        kind = rng.choice(list(files))
        texts = {name: json.dumps(value) for name, value in files.items()}
        texts[kind] = (
            byte_mutant(rng, texts[kind]) if rng.random() < 0.2
            else json.dumps(mutate(rng, files[kind], rounds=2)).encode()
        )
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{k}_{name}.json"
            paths[name].write_bytes(text if isinstance(text, bytes) else text.encode())
        surface_args = [str(paths["surface"]), *rng.choice([[], ["--allow-repeated"]])]
        argv = rng.choice([
            ["validate", *surface_args],
            ["curvature", *surface_args, str(paths["factor"])],
            ["flow", *surface_args, str(paths["factor"]), str(paths["target"]),
             "--method", rng.choice(["ricci", "calabi", "fractional"]), "--max-steps", "30"],
            ["solve", *surface_args, str(paths["factor"]), str(paths["target"]), "--max-iters", "10"],
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        capsys.readouterr()
        assert code in EXIT_CODES, argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        codes.add(code)
    assert {0, 2} <= codes
