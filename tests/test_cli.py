import hashlib
import json
import math

import numpy as np
import pytest

from hexflow import (
    ConformalFactor,
    Edge,
    Face,
    NotAttained,
    Surface,
    curvature,
    default_base_point,
    load_surface,
    save_factor,
    save_surface,
)
from hexflow.cli import main
from hexflow.conformal import curvature_dump
from hexflow.jsonio import dumps
from conftest import FIXTURES, fixture_path, reference_factor

ARCCOSH15 = math.acosh(1.5)


@pytest.fixture()
def pants_path():
    return str(fixture_path("f1", "eta0"))


@pytest.fixture()
def factor_file(tmp_path):
    def write(values, key="alpha", name="factor.json"):
        path = tmp_path / name
        path.write_text(json.dumps({key: list(values)}))
        return str(path)

    return write


@pytest.fixture()
def target_file(tmp_path):
    def write(values, name="target.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"K": list(values)}))
        return str(path)

    return write


class TestValidate:
    def test_ok(self, pants_path, capsys):
        assert main(["validate", pants_path]) == 0
        out = capsys.readouterr().out
        assert "structure_condition: holds" in out

    def test_reports_gamma_violation(self, tmp_path, capsys):
        data = json.loads(fixture_path("f1", "eta0").read_text())
        data["edges"][0]["eta"] = -0.5
        path = tmp_path / "viol.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "structure_condition: violated" in out
        assert "gamma_i = -0.5" in out

    def test_bad_edge_reference_exits_2(self, tmp_path):
        data = json.loads(fixture_path("f1", "eta0").read_text())
        data["faces"][0]["edges"] = [0, 1, 99]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("]")
        assert main(["validate", str(path)]) == 2

    def test_allow_repeated(self, tmp_path):
        data = {
            "n_boundary": 2,
            "edges": [
                {"id": 0, "ends": [0, 0], "eta": 0.5},
                {"id": 1, "ends": [0, 1], "eta": 0.5},
                {"id": 2, "ends": [0, 1], "eta": 0.5},
            ],
            "faces": [{"id": 0, "corners": [1, 0, 0], "edges": [0, 1, 2]}],
        }
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert main(["validate", str(path), "--allow-repeated"]) == 0


@pytest.mark.parametrize("command, n_boundary, component_2", [
    ("validate", 2**64, 2**63),  # an index beyond np.intp in the array pass
    ("jacobian-check", 2**50, 2),  # an 8 PiB Jacobian if loaded
], ids=["beyond-intp", "huge-n"])
def test_component_without_face_exits_2(tmp_path, capsys, command, n_boundary, component_2):
    data = json.loads(fixture_path("f1", "eta0").read_text())
    data["n_boundary"] = n_boundary
    for rec, key in [*((e, "ends") for e in data["edges"]), *((f, "corners") for f in data["faces"])]:
        rec[key] = [component_2 if c == 2 else c for c in rec[key]]
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    missing = 2 if component_2 != 2 else 3
    assert capsys.readouterr().err == (
        f"error: surface file {path}: boundary component {missing} is a corner of no face\n"
    )


class TestCurvature:
    def test_values(self, pants_path, factor_file, tmp_path, capsys):
        fpath = factor_file([math.pi / 6] * 3)
        out = tmp_path / "dump.json"
        assert main(["curvature", pants_path, fpath, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert np.allclose(data["K"], 2 * ARCCOSH15, atol=1e-9)
        assert set(data["margins"]) == {"0", "1", "2"}
        assert len(data["jacobian"]["vals"]) == 9

    def test_inadmissible_exits_3(self, pants_path, factor_file, capsys):
        fpath = factor_file([math.pi / 4] * 3)
        assert main(["curvature", pants_path, fpath]) == 3
        err = capsys.readouterr().err
        assert "margin" in err

    def test_underflowing_sines_exit_2(self, pants_path, factor_file, tmp_path, capsys):
        # sin(a_0) sin(a_1) underflows to zero, so the edge length is not a
        # finite number: an input error naming the face, and no output
        fpath = factor_file([1e-170, 1e-170, 0.5])
        out = tmp_path / "dump.json"
        assert main(["curvature", pants_path, fpath, "--out", str(out)]) == 2
        assert "face 0" in capsys.readouterr().err
        assert not out.exists()

    def test_u_form_accepted(self, pants_path, factor_file, capsys):
        u = 0.5 * math.log(3.0)  # alpha = arctan(e^-u) = pi/6
        fpath = factor_file([u] * 3, key="u")
        assert main(["curvature", pants_path, fpath]) == 0
        data = json.loads(capsys.readouterr().out)
        assert np.allclose(data["K"], 2 * ARCCOSH15, atol=1e-9)

    def test_two_keys_rejected(self, pants_path, tmp_path):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"alpha": [0.4] * 3, "u": [0.1] * 3}))
        assert main(["curvature", pants_path, str(path)]) == 2

    def test_wrong_length_rejected(self, pants_path, factor_file):
        assert main(["curvature", pants_path, factor_file([0.4] * 2)]) == 2

    def test_byte_identical_reruns(self, pants_path, factor_file, tmp_path):
        fpath = factor_file([0.5, 0.45, 0.4])
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["curvature", pants_path, fpath, "--out", str(out1)]) == 0
        assert main(["curvature", pants_path, fpath, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFlow:
    def setup_problem(self, factor_file, target_file):
        s = load_surface(fixture_path("f1", "eta0"))
        abar = np.full(3, math.pi / 6)
        Kbar = curvature(s, ConformalFactor(abar)).K
        a0 = abar + 0.02 * np.array([1.0, -1.0, 1.0])
        return factor_file(a0), target_file(Kbar)

    def test_converges_with_monotone_energy(
        self, pants_path, factor_file, target_file, tmp_path
    ):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        trace = tmp_path / "trace.csv"
        code = main(
            ["flow", pants_path, fpath, tpath, "--method", "calabi", "--trace", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0].startswith("step,t,dt,resid_inf")
        assert lines[-1] == "# status=Converged"
        cal = [float(line.split(",")[4]) for line in lines[1:-2]]
        assert all(b <= a for a, b in zip(cal, cal[1:]))

    def test_fractional_zero_reproduces_ricci_bytes(
        self, pants_path, factor_file, target_file, tmp_path
    ):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        t1, t2 = tmp_path / "r.csv", tmp_path / "f.csv"
        assert main(["flow", pants_path, fpath, tpath, "--method", "ricci", "--trace", str(t1)]) == 0
        assert (
            main(
                ["flow", pants_path, fpath, tpath, "--method", "fractional", "--s", "0", "--trace", str(t2)]
            )
            == 0
        )
        assert t1.read_bytes() == t2.read_bytes()

    def test_max_steps_exit_4(self, pants_path, factor_file, target_file):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        assert main(["flow", pants_path, fpath, tpath, "--max-steps", "1"]) == 4

    @pytest.mark.parametrize("command,option", [
        pytest.param("flow", ["--dt0", "inf"], id="dt0-inf"),
        pytest.param("flow", ["--method", "fractional", "--s", "nan"], id="s-nan"),
        pytest.param("flow", ["--tol", "inf"], id="tol-inf"),
        pytest.param("flow", ["--max-steps", "-5"], id="max-steps-negative"),
        pytest.param("solve", ["--tol", "inf"], id="solve-tol-inf"),
        pytest.param("solve", ["--max-iters", "-1"], id="solve-max-iters-negative"),
    ])
    def test_non_finite_step_settings_exit_2(
        self, pants_path, factor_file, target_file, command, option
    ):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        assert main([command, pants_path, fpath, tpath, *option]) == 2

    def test_huge_fractional_order_exits_2(self, pants_path, factor_file, target_file):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        assert main(["flow", pants_path, fpath, tpath, "--method", "fractional", "--s", "1000"]) == 2

    def test_writes_final_factor(self, pants_path, factor_file, target_file, tmp_path):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        out = tmp_path / "final.json"
        assert main(["flow", pants_path, fpath, tpath, "--out", str(out)]) == 0
        final = json.loads(out.read_text())
        assert np.allclose(final["alpha"], math.pi / 6, atol=1e-7)


class TestSolve:
    def test_round_trip(self, pants_path, factor_file, target_file, tmp_path):
        s = load_surface(fixture_path("f1", "eta0"))
        abar = np.array([0.5, 0.45, 0.4])
        Kbar = curvature(s, ConformalFactor(abar)).K
        fpath = factor_file([math.pi / 6] * 3)
        tpath = target_file(Kbar)
        out = tmp_path / "sol.json"
        log = tmp_path / "log.csv"
        code = main(["solve", pants_path, fpath, tpath, "--out", str(out), "--log", str(log)])
        assert code == 0
        sol = json.loads(out.read_text())
        assert np.abs(np.array(sol["alpha"]) - abar).max() < 1e-8
        assert "# status=Converged" in log.read_text()

    def test_two_starts_agree(self, pants_path, factor_file, target_file, tmp_path):
        s = load_surface(fixture_path("f1", "eta0"))
        Kbar = curvature(s, ConformalFactor(np.array([0.5, 0.45, 0.4]))).K
        tpath = target_file(Kbar)
        sols = []
        for i, start in enumerate(([0.3] * 3, [0.6, 0.2, 0.5])):
            out = tmp_path / f"sol{i}.json"
            assert main(["solve", pants_path, factor_file(start, name=f"s{i}.json"), tpath, "--out", str(out)]) == 0
            sols.append(np.array(json.loads(out.read_text())["alpha"]))
        assert np.abs(sols[0] - sols[1]).max() < 1e-8

    def test_max_iters_exit_4(self, pants_path, factor_file, target_file):
        fpath = factor_file([math.pi / 6] * 3)
        tpath = target_file([1e6, 1.0, 1.0])
        assert main(["solve", pants_path, fpath, tpath, "--max-iters", "5"]) == 4

    def test_not_attained_exit_6(self, pants_path, factor_file, target_file, monkeypatch):
        import hexflow.cli as climod

        def raise_not_attained(*args, **kwargs):
            raise NotAttained("forced")

        monkeypatch.setattr(climod, "solve_prescribed", raise_not_attained)
        fpath = factor_file([math.pi / 6] * 3)
        tpath = target_file([1.0, 1.0, 1.0])
        assert main(["solve", pants_path, fpath, tpath]) == 6


@pytest.mark.parametrize("K", ["x", {"a": 1}, [[1.0], [2.0, 3.0]]], ids=["string", "object", "ragged"])
@pytest.mark.parametrize("command", ["flow", "solve"])
def test_malformed_target_exits_2(pants_path, factor_file, tmp_path, command, K):
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"K": K}))
    assert main([command, pants_path, factor_file([math.pi / 6] * 3), str(tpath)]) == 2


@pytest.mark.parametrize("text", [b'{"K": [1.0\xff]}', b"[" * 100_000], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("kind", ["surface", "factor", "target"])
def test_unreadable_file_exits_2(pants_path, factor_file, target_file, tmp_path, capsys, kind, text):
    paths = {
        "surface": pants_path, "factor": factor_file([math.pi / 6] * 3), "target": target_file([1.0] * 3)
    }
    paths[kind] = tmp_path / "unreadable.json"
    paths[kind].write_bytes(text)
    assert main(["solve", *map(str, paths.values())]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {kind} file {paths[kind]}: ")


# every option that writes a file: (command, option, the kind of file)
WRITE_OPTIONS = [
    ("curvature", "--out", "curvature"),
    ("flow", "--trace", "trace"),
    ("flow", "--out", "factor"),
    ("solve", "--log", "log"),
    ("solve", "--out", "factor"),
    ("volume", "--out", "volume"),
]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize("command, option, kind", WRITE_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in WRITE_OPTIONS])
def test_unwritable_output_exits_2(pants_path, factor_file, target_file, tmp_path, capsys,
                                   command, option, kind, where):
    alpha = [math.pi / 6] * 3
    K = curvature(load_surface(pants_path), ConformalFactor(alpha)).K
    inputs = {
        "curvature": [pants_path, factor_file(alpha)],
        "flow": [pants_path, factor_file(alpha), target_file(K.tolist())],
        "solve": [pants_path, factor_file(alpha), target_file(K.tolist())],
        "volume": ["--eta", "0", "0", "0", "--base", "0.5", "0.5", "0.5", "--grid-step", "0.5"],
    }[command]
    path = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
    assert main([command, *inputs, option, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {kind} file {path}: ")


@pytest.mark.parametrize("kind, content, message", [
    ("factor", {"alpha": [[0.5], [0.5], [0.5]]}, "factor file {}: conformal factor must be a 1-d vector"),
    ("factor", {"u": [1e308, 0.5, 0.5]},
     "factor file {}: conformal factor components must lie in (0, pi/2)"),
    ("target", {"K": [1.0, 1.0]}, "target file {} has 2 components, surface has 3"),
    ("target", {"K": [[1.0, 1.0, 1.0]]}, "target file {} has shape (1, 3), surface has 3"),
], ids=["factor-shape", "factor-u-range", "target-length", "target-shape"])
def test_content_errors_name_the_file(pants_path, factor_file, target_file, tmp_path, capsys,
                                      kind, content, message):
    paths = {"factor": factor_file([math.pi / 6] * 3), "target": target_file([1.0] * 3)}
    paths[kind] = tmp_path / "bad.json"
    paths[kind].write_text(json.dumps(content))
    assert main(["solve", pants_path, str(paths["factor"]), str(paths["target"])]) == 2
    assert capsys.readouterr().err == f"error: {message.format(paths[kind])}\n"


HUGE_INT = "1" + "0" * 400  # valid JSON, beyond the float range


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
class TestHugeIntegers:
    """An integer beyond the float range in any input file exits 2 with a
    ParseError naming the file (for a surface, the edge) and no traceback."""

    def test_surface_eta(self, tmp_path, capsys, sign):
        text = fixture_path("f1", "eta0").read_text()
        data = json.loads(text)
        data["edges"][1]["eta"] = 12345
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(data).replace("12345", sign + HUGE_INT))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: surface file {path}: edge 1: eta is an integer beyond the float range\n"
        )

    @pytest.mark.parametrize("key", ["alpha", "u"])
    def test_factor(self, pants_path, tmp_path, capsys, sign, key):
        path = tmp_path / "factor.json"
        path.write_text(f'{{"{key}": [0.5, {sign}{HUGE_INT}, 0.5]}}')
        assert main(["curvature", pants_path, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: factor file {path}: int too large to convert to float\n"
        )

    @pytest.mark.parametrize("command", ["flow", "solve"])
    def test_target(self, pants_path, factor_file, tmp_path, capsys, sign, command):
        path = tmp_path / "target.json"
        path.write_text(f'{{"K": [1.0, {sign}{HUGE_INT}, 1.0]}}')
        assert main([command, pants_path, factor_file([math.pi / 6] * 3), str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: target file {path}: int too large to convert to float\n"
        )


class TestJacobianCheck:
    def test_zero_weight_report(self, pants_path, capsys):
        assert main(["jacobian-check", pants_path, "--samples", "25"]) == 0
        out = capsys.readouterr().out
        vals = {}
        for line in out.strip().split("\n"):
            key, _, val = line.partition("=")
            vals[key] = val
        assert float(vals["max_symmetry_residual"]) <= 1e-10
        assert float(vals["min_eigenvalue"]) > 0.0
        assert float(vals["max_fd_deviation"]) < 1e-5
        assert float(vals["max_det_deviation"]) < 1e-6
        assert float(vals["max_zero_weight_identity_residual"]) <= 1e-9
        assert vals["structure_condition"] == "holds"

    def test_mixed_profile_positive_definite(self, capsys):
        path = str(fixture_path("f2", "mixed"))
        assert main(["jacobian-check", path, "--samples", "25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max_zero_weight_identity_residual" not in out
        for line in out.strip().split("\n"):
            if line.startswith("min_eigenvalue="):
                assert float(line.split("=")[1]) > 0.0

    def test_non_structure_surface_reports_only(self, tmp_path, capsys):
        data = json.loads(fixture_path("f1", "eta0").read_text())
        for e in data["edges"]:
            e["eta"] = -0.9
        path = tmp_path / "ns.json"
        path.write_text(json.dumps(data))
        assert main(["jacobian-check", str(path), "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "structure_condition=violated" in out

    def test_deterministic_given_seed(self, pants_path, capsys):
        main(["jacobian-check", pants_path, "--samples", "10", "--seed", "7"])
        first = capsys.readouterr().out
        main(["jacobian-check", pants_path, "--samples", "10", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_zero_samples_exit_2(self, pants_path):
        assert main(["jacobian-check", pants_path, "--samples", "0"]) == 2

    def test_negative_seed_exits_2(self, pants_path, capsys):
        assert main(["jacobian-check", pants_path, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"

    @pytest.mark.parametrize("option", ["--h", "--margin"])
    def test_removed_options_are_usage_errors(self, pants_path, option):
        with pytest.raises(SystemExit) as exc:
            main(["jacobian-check", pants_path, option, "0"])
        assert exc.value.code == 2


class TestVolume:
    def test_grid(self, tmp_path):
        out = tmp_path / "vol.csv"
        code = main(
            [
                "volume",
                "--eta", "0", "0", "0",
                "--base", "0.5", "0.5", "0.5",
                "--grid-step", "0.15",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha_i,alpha_j,alpha_k,volume,hess_eig_min,hess_eig_max"
        base_row = lines[1].split(",")
        assert float(base_row[3]) == 0.0
        for line in lines[1:]:
            cells = line.split(",")
            assert math.isfinite(float(cells[3]))
            assert float(cells[5]) < 0.0  # max Hessian eigenvalue

    def test_byte_identical_reruns(self, tmp_path):
        args = ["volume", "--eta", "1.5", "1.5", "1.5", "--base", "0.4", "0.4", "0.4",
                "--grid-step", "0.3"]
        out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
def test_volume_rejects_bad_grid_step(step):
    args = ["volume", "--eta", "0", "0", "0", "--base", "0.5", "0.5", "0.5"]
    assert main(args + [f"--grid-step={step}"]) == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hexflow" in capsys.readouterr().out


def test_volume_rejects_oversized_grid():
    # about 3.9e9 points; rejected before a single tick is built
    args = ["volume", "--eta", "0", "0", "0", "--base", "0.5", "0.5", "0.5"]
    assert main(args + ["--grid-step", "1e-3"]) == 2


def test_parser_is_built_once():
    from hexflow.cli import build_parser

    assert build_parser() is build_parser()


def torus_surface(m: int) -> Surface:
    """An m x m torus grid (2 m^2 faces) with weights 1, 1 and -0.5 on the
    horizontal, vertical and diagonal edges."""
    def v(i, j):
        return (i % m) * m + j % m

    edges, faces = [], []
    for i in range(m):
        for j in range(m):
            a = v(i, j)
            edges += [
                Edge(3 * a, (a, v(i, j + 1)), 1.0),
                Edge(3 * a + 1, (a, v(i + 1, j)), 1.0),
                Edge(3 * a + 2, (a, v(i + 1, j + 1)), -0.5),
            ]
            faces += [
                Face(2 * a, (a, v(i, j + 1), v(i + 1, j + 1)),
                     (3 * v(i, j + 1) + 1, 3 * a + 2, 3 * a)),
                Face(2 * a + 1, (a, v(i + 1, j + 1), v(i + 1, j)),
                     (3 * v(i + 1, j), 3 * a + 1, 3 * a + 2)),
            ]
    return Surface(m * m, edges, faces)


ENCODER_EDGE_CASES = [
    -0.0, 1e-320, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
    [], {}, [[]], [{}], {"a": [], "b": {}}, (1, 2.5),
    [0.1, -0.0, 1e-320], [math.nan, 1.0], [1.0, math.inf], [1e308, 1e308], [-math.inf, 2.0],
    [1, True, None, "x\u00e9\n", 2.5, [1.5], {"k": -0.0}],
    [True, False], [2**70, -3], ["a", "b"],
    {"3": 1.5, "-1": math.nan}, {"q": [0], "r": {"s": None, "t": False}},
]


@pytest.mark.parametrize("value", ENCODER_EDGE_CASES, ids=repr)
def test_encoder_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=1)


@pytest.mark.parametrize("fixture", ["f1", "f2"])
@pytest.mark.parametrize("profile", ["eta0", "eta15", "mixed"])
def test_encoder_matches_stdlib_on_dumps(fixture, profile):
    s = load_surface(fixture_path(fixture, profile))
    for factor in (default_base_point(s), reference_factor(s)):
        data = curvature_dump(s, factor)
        assert dumps(data) == json.dumps(data, indent=1)
    assert dumps(s.to_dict()) == json.dumps(s.to_dict(), indent=1)


def test_encoder_matches_stdlib_on_a_large_surface():
    s = torus_surface(11)
    assert len(s.faces) == 242
    data = curvature_dump(s, reference_factor(s))
    assert dumps(data) == json.dumps(data, indent=1)
    assert dumps(s.to_dict()) == json.dumps(s.to_dict(), indent=1)


# sha256 of the curvature dump (written with --out and printed), the
# default base point written by save_factor and the surface written by
# save_surface, as the stdlib encoder wrote them; file and stdout agree
# byte for byte.
GOLDEN_SHA256 = {
    "f1_pants_eta0": (
        "fcb19991cbec548a2d2d97de200860f517dfe73fb98aa914ec36de4962762bc3",
        "fcb19991cbec548a2d2d97de200860f517dfe73fb98aa914ec36de4962762bc3",
        "409201a66cf7a2278ec7bf3a2277d86f679de0e0a892ce23df553dd49ee5613d",
        "928c8f6c30b084ccdd8c2de64df0d03c2b8709e1d46ffa8505cb469e837ec9f1",
    ),
    "f1_pants_eta15": (
        "1f7f7bdb57064a83ed790d0c15956b381eda09ffa27e1c92b6e732ee172ac90d",
        "1f7f7bdb57064a83ed790d0c15956b381eda09ffa27e1c92b6e732ee172ac90d",
        "409201a66cf7a2278ec7bf3a2277d86f679de0e0a892ce23df553dd49ee5613d",
        "fd6522917fdc3a9276f70f7a1b838577a9a9915b4d574386eb8a944829c9b8f1",
    ),
    "f1_pants_mixed": (
        "a80edfd80b6697ad66113ff6222bd32b70caf5933bd346961efcc41e5aead8d9",
        "a80edfd80b6697ad66113ff6222bd32b70caf5933bd346961efcc41e5aead8d9",
        "5eacadd8825a4dd1822795cb36932a503b2c444890fcda77639a2858ad7425c2",
        "d80f70a494bc7738a629fe76c9111ca5abaff6bd886e5a15e59ac953a820003e",
    ),
    "f2_sixhex_eta0": (
        "d9aa98d4af720d40a40001c0db9b44f1b7c14a490f7ab80371008a209c65986c",
        "d9aa98d4af720d40a40001c0db9b44f1b7c14a490f7ab80371008a209c65986c",
        "409201a66cf7a2278ec7bf3a2277d86f679de0e0a892ce23df553dd49ee5613d",
        "dc4ff73d2b2f2c1e8fb002894764d80f9fe204edff7bd0f8a132dc7946d32015",
    ),
    "f2_sixhex_eta15": (
        "f96ec6a924fad989683e8a813eb680b0130a38510c0148beaa9d666c2553e319",
        "f96ec6a924fad989683e8a813eb680b0130a38510c0148beaa9d666c2553e319",
        "409201a66cf7a2278ec7bf3a2277d86f679de0e0a892ce23df553dd49ee5613d",
        "c6bb62b5b05755dd68321a08bd54cd72d88a632b52f6c46ee0d9718ca568d6f3",
    ),
    "f2_sixhex_mixed": (
        "5f54ae060315a66ccdb0dd42881e327918fc61a0e65e88a7f7132da1657eb279",
        "5f54ae060315a66ccdb0dd42881e327918fc61a0e65e88a7f7132da1657eb279",
        "5eacadd8825a4dd1822795cb36932a503b2c444890fcda77639a2858ad7425c2",
        "fd46dc2dba5d1fe8b99d5852e01b4f2f18421791ae422bffd54122fedaf512fc",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_output_digests(name, tmp_path, capsys):
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    path = str(FIXTURES / f"{name}.json")
    s = load_surface(path)
    base, dump, surf = tmp_path / "base.json", tmp_path / "dump.json", tmp_path / "surf.json"
    save_factor(default_base_point(s), base)
    save_surface(s, surf)
    assert main(["curvature", path, str(base), "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["curvature", path, str(base)]) == 0
    printed = capsys.readouterr().out.encode()
    outputs = (dump.read_bytes(), printed, base.read_bytes(), surf.read_bytes())
    assert tuple(digest(b) for b in outputs) == GOLDEN_SHA256[name]


# The runs pinned below, by the options after the three input files; a
# flow writes its trace with --trace, a solve its log with --log.
RUN_OPTIONS = {
    "ricci": ("flow", "--method", "ricci"),
    "calabi": ("flow", "--method", "calabi"),
    "fractional_0.5": ("flow", "--method", "fractional", "--s", "0.5"),
    "fractional_2": ("flow", "--method", "fractional", "--s", "2"),
    "solve": ("solve",),
}

# sha256 of the trace (or log), the final factor and stdout of each run from
# the fixture's default base point toward the benchmark's fixed target
# K(a*), a* = base * 1.075.
RUN_SHA256 = {
    ("f1_pants_eta0", "ricci"): (
        "5484b77b1da18a53e523f5a1eb74398a6882ebc569e5ec5e7b369cc79a993997",
        "f46c7bf49452fd45aad3b5f4c04959113d1e9917833cc0eb9f072c43b46f3ca4",
        "e3ed3f8207a8f06b8e3735c9e8c9563ab04a55982e52f90f542361a403b5a5da",
    ),
    ("f1_pants_eta0", "calabi"): (
        "9add9b13baa77c2c8288a383279e075f2b41cf6b529ee8c5e5c1be0e5b8bee93",
        "8f4f5e1737147d5ccfb51af15d769e5db696fba518fe838fba25767e54adb859",
        "b8c94fbe28f8f623e4188e84df1fa85dfbf0378dc2f5b2bf4cf04330c8dfaff2",
    ),
    ("f1_pants_eta0", "fractional_0.5"): (
        "4cf94963180b7bf48fac61e6dcf3dc7805df8468f6b8bf9db0f698f16748f796",
        "9f78aa5b971b9bd767f5d6c1828417142a21b58c8ad83f8092d234e076b071d3",
        "5583990ea7572ef70964c4a24f72d2557372e89003355293d3f1712092880a31",
    ),
    ("f1_pants_eta0", "fractional_2"): (
        "c705ea5f33615039ec70fb17ab5ba1641aec04d0603061e19d837ffe012cf098",
        "d7c8ed64f8e8be7f27ddef03c590bde7471ad8f25328d910470cc4167fe9acf5",
        "79faf83d15ffdf2d56e1adf07a7c0546964a645d9ede4f1bbf17b0e400b25e51",
    ),
    ("f1_pants_eta0", "solve"): (
        "c038470a3d69d24bdefdd785d608755ad99009b72e551cb403dabc0954322096",
        "791a95daf4e8654cf1a8a1523a842f03d933a429c85a5abda54a8410f4e5afcd",
        "b6b74796894cd0b322fbe1cd30f7b3b52febd5c14b3903ac38cc9d86fb82f1d4",
    ),
    ("f1_pants_eta15", "ricci"): (
        "64141c6e58b3094b3aab2b6fabd00e2be8e28fefa537ae5fd13ab0912e7fe266",
        "e20bcb92f5f2757b5c8a3fd7124f9242c0758c083cc666aa1a0a99c255ab7d7c",
        "f09f4e785b013f02e37e217d08290c78c72cd797afcaad44e7e9c703138b1008",
    ),
    ("f1_pants_eta15", "calabi"): (
        "fb4374289d67798cefaad68a7c32d2d003e6f1532cadfaf56c7f1b5273ddc514",
        "517a0123d33576d8ac743370e54298402e640655a39a2ad000624d5d30d05dcc",
        "297d24ca24f21b165f99b19c3031cc67c8cfd924e7bda4fe3ae144d8e8326ec9",
    ),
    ("f1_pants_eta15", "fractional_0.5"): (
        "d1be40d9a4a6db5080d1b9bc6cb55bed7b3104858a46d8ef44c354013226b3ff",
        "7b570c8172f845ed066f5cf96e9afbe91facfcbe0888465c73dbe962f587f008",
        "f3392facb10ed9e6c47059eec1d1efdf4ac655e3410ec4096d064cdd5cca8b9f",
    ),
    ("f1_pants_eta15", "fractional_2"): (
        "f37c7c4d87342ddad47e2d8a84e5ea11652f6679a0b631a7aa62c1cf4694d550",
        "95ec9355bfc757d155a23f558ff5f627b103a0b4a60e108ff4784a0eee9b0cf6",
        "906cc10885e399c521ab43d17df4799a24b9032c5cc894ea8d2d31e903ba2f28",
    ),
    ("f1_pants_eta15", "solve"): (
        "3169b01d573bddad24976c9ac6a06a18559911b44620fc8978a19db39471aa89",
        "0807eafe4317d85a8a766a848fe78de9879e227a12b99d1db72f5615d0491cdf",
        "4fccfc6e319eb0b10d81a31bbb680e894b19ebccc3c98ce8a3a8ae657a9da999",
    ),
    ("f1_pants_mixed", "ricci"): (
        "6d4bf828b6ddf7e778d9e9d96fe9006854f2ffc682a0f2291bca4a75cd823b14",
        "1f70e60213efe329c1ece32fa6f2d30bcd15b2e98e87b953b518377ece8bd709",
        "55e3ddd96f5578089e2a55fcba2f434d80c5b39f14e022d0f6240174ca2b7c66",
    ),
    ("f1_pants_mixed", "calabi"): (
        "41d0e6653403dab7dbd7c46589cffd7ce683e97acc55487abd1813ae57906df7",
        "ae90371b415f3b23e122364fbc8c084c9622b65d5687ec82d51b67898b7e3ab1",
        "550e321607df6e0940a02f643f503fd3aa1e3e0ecd0fc2d5ee0f0312e868ee64",
    ),
    ("f1_pants_mixed", "fractional_0.5"): (
        "3ff7955915a64020fc9535f02824a326f2b01625a7ad9c5500f85c3c4057462f",
        "56d4a75b54bb756cc46075ce32472dd58a9be9d725e228516e8257f3b3e3cca0",
        "19f02660a40e376fe287823579938f19166e0ad359e38a0a6157b5da986c0146",
    ),
    ("f1_pants_mixed", "fractional_2"): (
        "7b6c171cb51b6252009901a53b49a39465232a2fec0ad08725cea54353350833",
        "c64291f4797840335b1e95360a3f18f7379dc2e4c5ea19ee965ffc163f5940b3",
        "195bdf0931d48c0b0501d64d3bf6a42d7421ebd4d7ab74f8fc525b01d1afa0c9",
    ),
    ("f1_pants_mixed", "solve"): (
        "471dc1cb51d14b9e771f490032c88621cc5eb62ee444b10f3fb9c833662b5b33",
        "4269850a60d53ec778fadc5d7494c30716a10a09e0ebbe87c4a07ed239326893",
        "1a211c189a74e6a89ea37b2cd6c586515e63a03649a49c64ccfd52fdb1c2ba1c",
    ),
    ("f2_sixhex_eta0", "ricci"): (
        "fa4e19a773e4fddad900000cc7ce65152d83b7d586c562c47846014d56d13c49",
        "950b26dc67205d09f460c46c9218b6900f3ac4d4ecab76a2b1a4fa19bfe5721e",
        "75320f2933ed7175ba2b511f0ab5983483cec5c27f4ba81e7717fc753ca71804",
    ),
    ("f2_sixhex_eta0", "calabi"): (
        "d5c03d42f36eeb547cf2efeafa01402fc2b49ea7e0cfc7751d9373b53b044def",
        "83c699814b0e748acf862acdb59c77dcda7c65205922882c82fa8f151083394f",
        "aa8de806ff4fc2b4ab10bf3d213b14783d429e8ab4c65e8b6c6c113dc46051c8",
    ),
    ("f2_sixhex_eta0", "fractional_0.5"): (
        "80cca6407f9dc0378e44c905cf3dbd0c5c158f497455ae5f5397b5b1fd323046",
        "e2bfd1e7fd7fa50b7fc2dfd3c253f34073f8632b5cd8bf13298b6d52cf866187",
        "13a78c44da2d9b1c95a27d4807276f56d21eab674f7f25ffe96d8c40da53a351",
    ),
    ("f2_sixhex_eta0", "fractional_2"): (
        "434e0477a3d00f8949ad143775353ac984de4b8b7a554a69b61319548fa4915f",
        "0fa2bfd597f6b6e205fc32b076ec8578850130724d9d0beae1726343f98e55d7",
        "9e663749b4195d03d407ef3ce459b0fcca17cae3c023a548a89f5f2edd185dd3",
    ),
    ("f2_sixhex_eta0", "solve"): (
        "3d7b84adb6966865f4c9d245abfc1db1e3bce1afd9aa108416ac4e441a4377c2",
        "da2fcbf274aefe927348eb4697ed82a5d6316f01fda3032e3d530f48374a376d",
        "f3c326f638e54fa899fb65db317d2224b54a2ffe8208bac96de17ea5e44a3e43",
    ),
    ("f2_sixhex_eta15", "ricci"): (
        "8fe4b920e5c95ddbcb7ec6159ec7f359f276eac6d3caba024167a2ec64372913",
        "0b30b03a9e339125abaa1fd760a4ff30ba0f73e589f2ab2b70ad885fa14d8867",
        "c9fdef46616c9aca01a96bce6887a326c0178416ffaee8c15ef962b88ad74b07",
    ),
    ("f2_sixhex_eta15", "calabi"): (
        "9e6fae3ee02c69fe8cd164560f9d75059ea0a1f2b0b0ad042617c9b6bb24fe8b",
        "c958728ca281a7c3a60f5c47bb99632ad5376ca7e6e7cae25a0d89ace432f5e5",
        "0bff7d8e23262de6c77774e291d1bbc30688ccb6c71d4b4256526471698fe695",
    ),
    ("f2_sixhex_eta15", "fractional_0.5"): (
        "a958f30c97893808756004697cb25048d1e9018babc306e90450c1315180c30c",
        "6be4d4cd9a012814bc243000d17a6aff952d96d602fe5e9fbe4e0415c794ba2e",
        "18555a0dd65b6765cf4b3057d637466629967f6b17ef57c8f871cdf8b553703f",
    ),
    ("f2_sixhex_eta15", "fractional_2"): (
        "b3920cbeceeea64e25828501ffeafc487bec3d54721ecd1dba446f5b4ba0ab51",
        "3a12af851672572b9384efb07ffb9783763fa3fb903defbabbf6f59af402025a",
        "4588d3b29f935ceb95ac485863eb312d1158f14b64206791c5c55dd7a7a741b0",
    ),
    ("f2_sixhex_eta15", "solve"): (
        "5698a6fdf87c6efbbe302def5df4469a7a73c52d4d22ffae8b10063bd42d0a07",
        "7d6d3f8d30122a0dbb36865a68ef6c03b2170cb959ac7fe390a1b3d2399f7a0e",
        "4fccfc6e319eb0b10d81a31bbb680e894b19ebccc3c98ce8a3a8ae657a9da999",
    ),
    ("f2_sixhex_mixed", "ricci"): (
        "d8d663e0a72308a6ae701dfd1a1af0df3caaca5ec946e1e76a92aaacad126722",
        "0c9a0c7cc05742458e22fc272fb2aa2977db9d27a68756b9890bcf5ca1e0de91",
        "859af8a04b6807aaf3f7c84274e6b93d8f79d5a338cf7bbfe4d243bca495bee7",
    ),
    ("f2_sixhex_mixed", "calabi"): (
        "b49d5f60df2ff8af7c250a8fecf202dbaae0ef4787bca50433f67084f8ba95f1",
        "714828fbe2ad4400a2f6601d428f239a88038bf31d0f19c52116a09b6581e4a2",
        "ee147c795af218d231343873cdeb7bb74b02a813460ef905cd1386c90a9c8d98",
    ),
    ("f2_sixhex_mixed", "fractional_0.5"): (
        "58cc4b841bf4a3bde2033070e8d3c6c0541e6949f7adeb578e5dd4b06f306813",
        "e111f69ec4f5b0aeef789eb196e868c0aef4e9d02887af98019e281473f60c86",
        "df813c9c3f179ce9ad6c998b26aa05878abfacf96e0a863477aa28e9afa69c60",
    ),
    ("f2_sixhex_mixed", "fractional_2"): (
        "43a08b97b1e663aa53bbd47d9cadbac9f0ec180fe33bbd5b3e35705fcb16a578",
        "fdfcbf12d021a71ff56543856e48923fabc04eaee4a1206030e6aeb8938d04df",
        "a43759b2d3b0a87f3e30764f58910e8cfb338391403d8d61266e835941047fea",
    ),
    ("f2_sixhex_mixed", "solve"): (
        "c3a6e6d61ce7ca0e3cc451f3bacc024b9bb8fc2ff3fe0e5c7909b7a6d0a0cdc7",
        "1875e0a700d814243d91019a2606de4d17c0e0834854824036f15d881a189988",
        "c7f1788aeea2a8b7c4793f77a18bf0950dc037648c7fa37a11ab5364f19f5618",
    ),
}


@pytest.mark.parametrize("name, run", sorted(RUN_SHA256))
def test_run_output_digests(name, run, tmp_path, capsys):
    path = str(FIXTURES / f"{name}.json")
    s = load_surface(path)
    base = default_base_point(s)
    K = curvature(s, ConformalFactor(base.alpha * 1.075)).K
    factor, target = tmp_path / "base.json", tmp_path / "target.json"
    save_factor(base, factor)
    target.write_text(json.dumps({"K": [float(k) for k in K]}))
    log, out = tmp_path / "log.csv", tmp_path / "out.json"
    command, *options = RUN_OPTIONS[run]
    log_option = "--log" if command == "solve" else "--trace"
    argv = [command, path, str(factor), str(target), *options, log_option, str(log), "--out", str(out)]
    assert main(argv) == 0
    outputs = (log.read_bytes(), out.read_bytes(), capsys.readouterr().out.encode())
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == RUN_SHA256[name, run]
