"""Self-test of the torus-grid generator.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hexflow.conformal import ConformalFactor, admissibility, default_base_point  # noqa: E402
from hexflow.triangulation import load_surface, structure_condition_holds  # noqa: E402

from torus import PROFILES, torus_grid  # noqa: E402
from workloads import FACTOR_SPREAD  # noqa: E402


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("m", [3, 4, 7])
def test_torus_grid(tmp_path, m, profile):
    data = torus_grid(m, profile)
    n, E, F = data["n_boundary"], len(data["edges"]), len(data["faces"])
    assert (n, E, F) == (m * m, 3 * m * m, 2 * m * m)
    assert n - E + F == 0
    # closed surface: every edge borders exactly two faces
    uses = Counter(e for f in data["faces"] for e in f["edges"])
    assert set(uses.values()) == {2} and len(uses) == E

    path = tmp_path / "torus.json"
    path.write_text(json.dumps(data))
    surface = load_surface(path)  # strict validation: distinct corners, slot/edge match
    assert structure_condition_holds(surface)

    # the largest factor a workload draws, base * (1 + FACTOR_SPREAD), is admissible
    base = default_base_point(surface).alpha
    assert admissibility(surface, ConformalFactor(base * (1.0 + FACTOR_SPREAD))).admissible


def test_mixed_faces_carry_one_negative_weight(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus_grid(5, "mixed")))
    surface = load_surface(path)
    for face in surface.faces:
        assert sorted(surface.face_etas(face)) == [-0.5, 1.0, 1.0]


def test_rejects_small_grids():
    with pytest.raises(ValueError):
        torus_grid(2)
