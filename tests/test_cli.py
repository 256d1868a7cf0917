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

    @pytest.mark.parametrize(
        "option", [["--dt0", "inf"], ["--method", "fractional", "--s", "nan"]], ids=["dt0-inf", "s-nan"]
    )
    def test_non_finite_step_settings_exit_2(self, pants_path, factor_file, target_file, option):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        assert main(["flow", pants_path, fpath, tpath, *option]) == 2

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
