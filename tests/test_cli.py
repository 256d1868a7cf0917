import dataclasses
import errno
import gc
import hashlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hexflow import (
    ConformalFactor,
    HexflowError,
    JacobianNotPD,
    NotAttained,
    curvature,
    default_base_point,
    load_surface,
    pair_of_pants,
    save_factor,
    save_surface,
)
import hexflow
from hexflow import ParseError, cli, jsonio
from hexflow.cli import main
from hexflow.conformal import curvature_dump
from hexflow.jsonio import REPEAT_MIN, dumps, load, reprs, write
from hexflow.solve import FlowConfig, NewtonConfig
from conftest import FIXTURES, fixture_path, reference_factor, stub_jacobians, torus

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

    @pytest.mark.parametrize("method", ["ricci", "calabi", "fractional"])
    def test_huge_dt0_keeps_time_finite(
        self, pants_path, factor_file, target_file, tmp_path, capsys, method
    ):
        # dt is capped at the largest float, and so is the sum of the steps
        fpath, tpath = self.setup_problem(factor_file, target_file)
        trace = tmp_path / "trace.csv"
        args = ["flow", pants_path, fpath, tpath, "--method", method, "--dt0", "1e308"]
        assert main([*args, "--trace", str(trace)]) == 0
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:] if line[0] != "#"]
        assert len(rows) > 2 and all(math.isfinite(float(row[1])) for row in rows)
        t = capsys.readouterr().out.split(" t=")[1].split()[0]
        assert math.isfinite(float(t))

    def test_huge_fractional_order_exits_2(self, pants_path, factor_file, target_file):
        fpath, tpath = self.setup_problem(factor_file, target_file)
        assert main(["flow", pants_path, fpath, tpath, "--method", "fractional", "--s", "1000"]) == 2

    def test_jacobian_not_pd_exit_5(self, pants_path, factor_file, target_file, tmp_path,
                                    monkeypatch, capsys):
        stub_jacobians(monkeypatch, itertools.repeat(np.diag([1.0, 1.0, -1.0])))
        fpath, tpath = self.setup_problem(factor_file, target_file)
        trace, out = tmp_path / "trace.csv", tmp_path / "final.json"
        args = ["--method", "calabi", "--trace", str(trace), "--out", str(out)]
        assert main(["flow", pants_path, fpath, tpath, *args]) == 5
        assert capsys.readouterr().out.startswith("status=JacobianNotPD steps=0 ")
        assert trace.read_text().splitlines()[-1] == "# status=JacobianNotPD"
        # the flow stops at its start, which it writes as its final factor
        assert json.loads(out.read_text()) == json.loads(Path(fpath).read_text())

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

    @pytest.mark.parametrize("log", [False, True], ids=["no-log", "log"])
    def test_integrates_only_for_the_log(self, pants_path, factor_file, target_file, tmp_path,
                                         monkeypatch, capsys, log):
        # the log's potential column is pending: only writing it integrates
        import hexflow.conformal

        calls = []
        line_integral = hexflow.conformal.line_integral

        def counting(*args, **kwargs):
            calls.append(1)
            return line_integral(*args, **kwargs)

        monkeypatch.setattr(hexflow.conformal, "line_integral", counting)
        s = load_surface(fixture_path("f1", "eta0"))
        tpath = target_file(curvature(s, ConformalFactor(np.array([0.5, 0.45, 0.4]))).K)
        fpath = factor_file([math.pi / 6] * 3)
        extra = ["--log", str(tmp_path / "log.csv")] if log else []
        assert main(["solve", pants_path, fpath, tpath, *extra]) == 0
        assert capsys.readouterr().out.startswith("status=Converged iters=")
        assert (len(calls) > 0) == log

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

    def test_jacobian_not_pd_exit_5_writes_log_and_last_iterate(
        self, pants_path, factor_file, target_file, tmp_path, monkeypatch, capsys
    ):
        # as an exit-6 solve does: the log up to the second indefinite
        # Jacobian, and the iterate reached by the one fallback step
        stub_jacobians(monkeypatch, itertools.repeat(np.diag([1.0, 1.0, -1.0])))
        log, out = tmp_path / "log.csv", tmp_path / "out.json"
        inputs = [pants_path, factor_file([0.5, 0.6, 0.7]), target_file([1.2, 1.3, 1.4])]
        assert main(["solve", *inputs, "--log", str(log), "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith(
            "jacobian not positive definite: curvature Jacobian not positive definite "
            "on consecutive iterations"
        )
        lines = log.read_text().splitlines()
        assert lines[-1] == "# status=JacobianNotPD"
        assert [line.split(",")[0] for line in lines[1:] if line[0] != "#"] == ["0", "1"]
        with pytest.raises(JacobianNotPD) as err:
            hexflow.solve_prescribed(load_surface(pants_path), ConformalFactor([0.5, 0.6, 0.7]),
                                     [1.2, 1.3, 1.4])
        assert err.value.log.status == "JacobianNotPD"
        assert json.loads(out.read_text()) == err.value.factor.to_dict() != {"alpha": [0.5, 0.6, 0.7]}

    def test_not_attained_exit_6(self, pants_path, factor_file, target_file, monkeypatch):
        import hexflow.cli as climod

        def raise_not_attained(*args, **kwargs):
            raise NotAttained("forced")

        monkeypatch.setattr(climod, "solve_prescribed", raise_not_attained)
        fpath = factor_file([math.pi / 6] * 3)
        tpath = target_file([1.0, 1.0, 1.0])
        assert main(["solve", pants_path, fpath, tpath]) == 6

    def test_not_attained_writes_log_and_last_iterate(self, pants_path, factor_file, target_file,
                                                       tmp_path, capsys):
        log, out = tmp_path / "log.csv", tmp_path / "out.json"
        inputs = [pants_path, factor_file([0.5, 0.6, 0.7]), target_file([1e6, 1.0, 1.0])]
        assert main(["solve", *inputs]) == 6
        err = capsys.readouterr().err
        assert main(["solve", *inputs, "--log", str(log), "--out", str(out)]) == 6
        assert capsys.readouterr() == ("", err)  # the outputs change no message
        rows = log.read_text().splitlines()
        assert rows[-1] == "# status=NotAttained"
        # the factor is the last accepted iterate, the log's last row
        alpha = json.loads(out.read_text())["alpha"]
        K = curvature(load_surface(pants_path), ConformalFactor(alpha)).K
        assert float(rows[-2].split(",")[1]) == float(np.max(np.abs(K - [1e6, 1.0, 1.0])))

    def test_not_attained_failed_write_leaves_nothing(self, pants_path, factor_file, target_file,
                                                      tmp_path, capsys, monkeypatch):
        def fail(factor, path):
            raise HexflowError(f"cannot write factor file {path}: disk full")

        monkeypatch.setattr(cli, "save_factor", fail)
        log, out = tmp_path / "log.csv", tmp_path / "out.json"
        inputs = [pants_path, factor_file([0.5, 0.6, 0.7]), target_file([1e6, 1.0, 1.0])]
        assert main(["solve", *inputs, "--log", str(log), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write factor file {out}: disk full\n"
        assert not log.exists() and not out.exists()


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


def computation_started(*args, **kwargs):
    raise AssertionError("the computation started")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize("command, option, kind", WRITE_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in WRITE_OPTIONS])
def test_unwritable_output_exits_2(pants_path, factor_file, target_file, tmp_path, capsys,
                                   monkeypatch, command, option, kind, where):
    alpha = [math.pi / 6] * 3
    K = curvature(load_surface(pants_path), ConformalFactor(alpha)).K
    inputs = {
        "curvature": [pants_path, factor_file(alpha)],
        "flow": [pants_path, factor_file(alpha), target_file(K.tolist())],
        "solve": [pants_path, factor_file(alpha), target_file(K.tolist())],
        "volume": ["--eta", "0", "0", "0", "--base", "0.5", "0.5", "0.5", "--grid-step", "0.5"],
    }[command]
    # the output paths are checked before the computation starts
    for name in ("run_flow", "solve_prescribed", "volume_grid", "curvature_dump"):
        monkeypatch.setattr(cli, name, computation_started)
    # flow and solve also get their other output, at a path that can be written
    other = {"flow": {"--trace": "--out", "--out": "--trace"},
             "solve": {"--log": "--out", "--out": "--log"}}.get(command, {}).get(option)
    other_args = [other, str(tmp_path / "writable")] if other else []
    before = sorted(tmp_path.rglob("*"))
    path = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
    assert main([command, *inputs, option, str(path), *other_args]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {kind} file {path}: ")
    assert sorted(tmp_path.rglob("*")) == before  # no output, not even the writable one


@pytest.mark.parametrize("command, first", [("flow", "--trace"), ("solve", "--log")])
def test_failed_write_removes_the_written_outputs(pants_path, factor_file, target_file, tmp_path,
                                                  capsys, monkeypatch, command, first):
    # the paths pass the check, then the second write fails: the first file goes too
    def fail(factor, path):
        raise HexflowError(f"cannot write factor file {path}: disk full")

    monkeypatch.setattr(cli, "save_factor", fail)
    alpha = [math.pi / 6] * 3
    K = curvature(load_surface(pants_path), ConformalFactor(alpha)).K
    inputs = [pants_path, factor_file(alpha), target_file(K.tolist())]
    written, out = tmp_path / "first.csv", tmp_path / "out.json"
    assert main([command, *inputs, first, str(written), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write factor file {out}: disk full\n"
    assert not written.exists() and not out.exists()


def test_unwritable_output_wins_over_a_failed_run(pants_path, factor_file, target_file, tmp_path,
                                                  capsys):
    # one step cannot converge (exit 4), but the missing directory is found first
    alpha = [math.pi / 6] * 3
    inputs = [pants_path, factor_file(alpha), target_file([2.0, 2.0, 2.0])]
    assert main(["flow", *inputs, "--max-steps", "1"]) == 4
    capsys.readouterr()
    path = tmp_path / "missing" / "out.json"
    assert main(["flow", *inputs, "--max-steps", "1", "--out", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write factor file {path}: "
                                       "No such file or directory\n")


def test_file_errors_name_the_path_once(pants_path, factor_file, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert main(["curvature", pants_path, factor_file([math.pi / 6] * 3), "--out", str(path)]) == 2
    assert main(["validate", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(f" {path}: ")[0] for line in lines] == [
        "error: cannot write curvature file", "error: cannot read surface file"
    ]
    assert all(line.count(str(path)) == 1 for line in lines)


@pytest.mark.parametrize("kind, content, message", [
    ("factor", {"alpha": [[0.5], [0.5], [0.5]]}, "factor file {}: conformal factor must be a 1-d vector"),
    ("factor", {"u": [1e308, 0.5, 0.5]},
     "factor file {}: conformal factor components must lie in (0, pi/2)"),
    ("target", {"K": [1.0, 1.0]}, "target file {} has 2 components, surface has 3"),
    ("target", {"K": [[1.0, 1.0, 1.0]]}, "target file {} has shape (1, 3), surface has 3"),
    # numpy would read these entries as numbers; a surface weight "0.5" is rejected too
    ("factor", {"alpha": ["0.5", 0.6, 0.7]}, "factor file {}: every entry of 'alpha' must be a number"),
    ("factor", {"u": ["0.3", 0.2, 0.1]}, "factor file {}: every entry of 'u' must be a number"),
    ("factor", {"alpha": [True, 0.6, 0.7]}, "factor file {}: every entry of 'alpha' must be a number"),
    ("factor", {"alpha": [False, 0.6, 0.7]}, "factor file {}: every entry of 'alpha' must be a number"),
    ("target", {"K": ["1.2", 1.3, 1.4]}, "target file {}: every entry of 'K' must be a number"),
    ("target", {"K": [True, 1.3, 1.4]}, "target file {}: every entry of 'K' must be a number"),
    # and null as NaN
    ("factor", {"alpha": [None, 0.6, 0.7]}, "factor file {}: every entry of 'alpha' must be a number"),
    ("factor", {"u": [0.3, None, 0.1]}, "factor file {}: every entry of 'u' must be a number"),
    ("target", {"K": [None, 1.3, 1.4]}, "target file {}: every entry of 'K' must be a number"),
], ids=["factor-shape", "factor-u-range", "target-length", "target-shape", "factor-string",
        "factor-u-string", "factor-true", "factor-false", "target-string", "target-true",
        "factor-null", "factor-u-null", "target-null"])
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

    def test_no_admissible_sample_exits_3(self, pants_path, capsys, monkeypatch):
        # the message gives no advice the command cannot follow
        monkeypatch.setattr(hexflow.conformal, "SAMPLE_MAX_TRIES", 0)
        assert main(["jacobian-check", pants_path]) == 3
        assert capsys.readouterr().err == (
            "inadmissible: the uniform draw found no admissible point in 0 tries\n")

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

    def test_no_admissible_grid_point(self, tmp_path):
        # every tick pair sums past acos(0.9): the base row alone
        out = tmp_path / "vol.csv"
        args = ["volume", "--eta", "-0.9", "-0.9", "-0.9", "--base", "0.2", "0.2", "0.2",
                "--grid-step", "0.3", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha_i,alpha_j,alpha_k,volume,hess_eig_min,hess_eig_max"
        assert len(lines) == 2 and lines[1].startswith("0.2,0.2,0.2,0.0,")


    def test_base_hessian_not_finite_exits_2(self, capsys):
        # the base's arcs are finite but its Jacobian is not: no CSV, exit 2
        args = ["volume", "--eta", "1", "1", "1e155", "--base", "0.3", "0.3", "0.3",
                "--grid-step", "0.5"]
        assert main(args) == 2
        assert capsys.readouterr() == ("", "error: face 0: angle Jacobian not finite\n")


# sha256 of the CSVs of the benchmark's three volume grids (base 0.3 0.3 0.3,
# grid step pi/20), as the row-by-row writer wrote them
VOLUME_SHA256 = {
    ("0", "0", "0"): "8a57cbf35adbe735b216b7438863cca5936eaaea898b2ae1076cd8103eebb362",
    ("1.5", "1.5", "1.5"): "5858c5dfaba1100323c4ceba28ae9a0a473d17d671e2160d9d83a7028ba0c668",
    ("-0.5", "1", "1"): "296e6c670dceee89f35a299b895709748b34e83fdebdbed3a11ed46c5201cf77",
}


@pytest.mark.parametrize("eta", sorted(VOLUME_SHA256), ids="_".join)
def test_volume_csv_digests(eta, tmp_path):
    out = tmp_path / "vol.csv"
    args = ["volume", "--eta", *eta, "--base", "0.3", "0.3", "0.3",
            "--grid-step", repr(math.pi / 20), "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VOLUME_SHA256[eta]


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


@pytest.mark.parametrize("command, config", [("flow", FlowConfig), ("solve", NewtonConfig)])
def test_parsed_defaults_are_the_configs(command, config):
    args = cli.build_parser().parse_args([command, "surface.json", "factor.json", "target.json"])
    for f in dataclasses.fields(config):
        assert getattr(args, f.name) == getattr(config(), f.name)


ENCODER_EDGE_CASES = [
    -0.0, 1e-320, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
    [], {}, [[]], [{}], {"a": [], "b": {}}, (1, 2.5),
    [0.1, -0.0, 1e-320], [math.nan, 1.0], [1.0, math.inf], [1e308, 1e308], [-math.inf, 2.0],
    [1, True, None, "x\u00e9\n", 2.5, [1.5], {"k": -0.0}],
    [True, False], [2**70, -3], ["a", "b"],
    {"3": 1.5, "-1": math.nan}, {"q": [0], "r": {"s": None, "t": False}},
]
# lists one below, at and one above the length from which repeated values
# are formatted once; ints beyond int64, bools, mixed and non-finite lists
# take the plain path
LONG_ITEMS = {
    "floats": [0.0, -0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5, 0.1, -0.0],
    "distinct-floats": None,
    "ints": [0, -1, 7, 2**63 - 1, -2**63, 7],
    "ints-beyond-int64": [1, 2**63, 1],
    "ints-below-int64": [-2**63 - 1, 0, 0],
    "bools": [True, False],
    "int-float": [1, 2.5, -0.0, 1],
    "non-finite": [1.0, math.nan, math.inf, 1.0, -math.inf],
}
ENCODER_EDGE_CASES += [
    pytest.param([i * 0.1 for i in range(n)] if items is None else
                 [items[i % len(items)] for i in range(n)], id=f"{name}-{n}")
    for n in (REPEAT_MIN - 1, REPEAT_MIN, REPEAT_MIN + 1)
    for name, items in LONG_ITEMS.items()
]


@pytest.mark.parametrize("value", ENCODER_EDGE_CASES, ids=repr)
def test_encoder_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=1)


def _arrays():
    """1-d float64 and int64 arrays: empty, one item, REPEAT_MIN - 1 to
    REPEAT_MIN + 1 items with and without repeats, a quarter of repeats
    and one fewer, and a strided view."""
    small = {
        "floats": [0.0, -0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5, 0.1, -0.0],
        "non-finite": [1.0, math.nan, math.inf, 1.0, -math.inf, 0.0, -0.0],
        "ints": [0, -1, 7, 2**63 - 1, -(2**63 - 1), -2**63, 7],
    }
    out = [np.array([], float), np.array([], np.int64), np.array([-0.0]), np.array([math.nan]),
           np.array([-2**63]), np.array([2**63 - 1])]
    out += [np.array(items, np.int64 if name == "ints" else float) for name, items in small.items()]
    for n in (REPEAT_MIN - 1, REPEAT_MIN, REPEAT_MIN + 1):
        out += [np.resize(np.array(items, np.int64 if name == "ints" else float), n)
                for name, items in small.items()]
        out += [0.1 * np.arange(n), np.arange(n) * 7919 - 2**62]
        for repeats in (n // 4 - 1, -(-n // 4)):
            out.append(np.concatenate((np.arange(n - repeats), np.arange(repeats))) * 0.5)
    out.append((0.1 * np.arange(4 * REPEAT_MIN))[::3])
    return out


@pytest.mark.parametrize("a", _arrays(), ids=lambda a: f"{a.dtype}-{a.size}")
def test_encoder_writes_arrays_as_their_lists(a):
    assert dumps(a) == json.dumps(a.tolist(), indent=1)
    nested = {"a": a, "b": [a, {"c": a}], "d": [1.5, a]}
    assert dumps(nested) == json.dumps(nested, indent=1, default=np.ndarray.tolist)


@pytest.mark.parametrize("a", [
    np.zeros((2, 2)), np.zeros((0, 3)), np.array(1.5), np.array([True, False]),
    np.array([1.5], np.float32), np.array([1], np.int32), np.array([1], np.uint64),
    np.array([1.5], ">f8"), np.array([1, 2.5], object),
], ids=lambda a: f"{a.dtype.str}-{a.shape}")
def test_encoder_rejects_other_arrays(a):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps(a)
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps({"k": [a]})


def test_reprs_tells_floats_apart_by_their_bits():
    assert reprs(np.array([0.0, -0.0, 0.0, 1.5, -0.0])) == ["0.0", "-0.0", "0.0", "1.5", "-0.0"]
    assert reprs(np.array([3, -2**63, 3])) == ["3", "-9223372036854775808", "3"]


def test_repeated_floats_of_a_list_or_dict_are_formatted_once(monkeypatch):
    # a list of floats, or the float values of a dict, takes the array rule
    sizes = []
    sort = jsonio.distinct

    def spy(keys):
        sizes.append(keys.size)
        return sort(keys)

    monkeypatch.setattr(jsonio, "distinct", spy)
    values = [0.25] * REPEAT_MIN
    for obj in (values, dict(zip(map(str, range(REPEAT_MIN)), values))):
        sizes.clear()
        assert dumps(obj) == json.dumps(obj, indent=1)
        assert sizes == [REPEAT_MIN]


_EDGE = [-2**63, 2**63 - 1]


@pytest.mark.parametrize("keys", [
    [], [7], [5] * 9, _EDGE, _EDGE[::-1] * 3 + [0, -1, 1],
    *(np.random.default_rng(seed).integers(-50, 50, size) for seed, size in ((0, 40), (1, 2000))),
    np.random.default_rng(2).integers(_EDGE[0], _EDGE[1], 500, endpoint=True),
], ids=["empty", "one", "all-equal", "int64-ends", "int64-ends-repeated", "random-40",
        "random-2000", "random-wide"])
def test_distinct_is_unique_with_inverse(keys):
    keys = np.asarray(keys, np.int64)
    values, inverse = jsonio.distinct(keys)
    expected_values, expected_inverse = np.unique(keys, return_inverse=True)
    for got, expected in ((values, expected_values), (inverse, expected_inverse)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_encoder_rejects_keys_that_are_not_strings():
    with pytest.raises(TypeError, match="keys must be str, not int"):
        dumps({"a": 1, 2: 3})


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("text", ["[1, 2]", "[1, 2"], ids=["valid", "malformed"])
def test_load_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    seen = []
    real_load = json.load
    monkeypatch.setattr(json, "load", lambda fh: seen.append(gc.isenabled()) or real_load(fh))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if text == "[1, 2]":
            assert load(path, "surface") == [1, 2]
        else:
            with pytest.raises(ParseError, match="cannot read surface file"):
                load(path, "surface")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize("command", ["curvature", "volume"])
def test_output_to_dev_null(pants_path, factor_file, command):
    # a character device is written but not truncated
    args = {"curvature": [pants_path, factor_file([math.pi / 6] * 3)],
            "volume": ["--eta", "0", "0", "0", "--base", "0.5", "0.5", "0.5",
                       "--grid-step", "0.5"]}[command]
    assert main([command, *args, "--out", os.devnull]) == 0


def test_shorter_rewrite_leaves_only_the_new_bytes(pants_path, factor_file, tmp_path):
    # the six-hexagon dump, then the shorter pants dump over it
    reused, fresh = tmp_path / "reused.json", tmp_path / "fresh.json"
    sixhex = [str(fixture_path("f2", "mixed")), factor_file([0.3, 0.35, 0.4], name="six.json")]
    pants = [pants_path, factor_file([math.pi / 6] * 3)]
    assert main(["curvature", *sixhex, "--out", str(reused)]) == 0
    longer = reused.stat().st_size
    assert main(["curvature", *pants, "--out", str(reused)]) == 0
    assert main(["curvature", *pants, "--out", str(fresh)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.stat().st_size < longer


def test_write_goes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old bytes, more of them than the new\n")
    link.symlink_to(target)
    write(link, "new\n", "curvature")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_rewrite_keeps_the_mode_bits(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    path.chmod(0o640)
    write(path, "new text\n", "curvature")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text() == "new text\n"


# writes 2048 bytes over a 4096-byte file under a 1024-byte file size limit:
# the first write stops at the limit and the next fails with EFBIG
FAILED_WRITE = """
import resource, signal, sys
from hexflow.errors import HexflowError
from hexflow.jsonio import write
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write(sys.argv[1], "n" * 2048, "curvature")
except HexflowError as exc:
    print(exc)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
def test_failed_write_leaves_no_old_bytes(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"o" * 4096)
    env = {**os.environ, "PYTHONPATH": str(Path(hexflow.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", FAILED_WRITE, str(path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"cannot write curvature file {path}: {os.strerror(errno.EFBIG)}\n"
    assert path.read_bytes() == b""


@pytest.mark.parametrize("fixture", ["f1", "f2"])
@pytest.mark.parametrize("profile", ["eta0", "eta15", "mixed"])
def test_encoder_matches_stdlib_on_dumps(fixture, profile):
    # a dump holds its numbers as arrays; the stdlib writes them as lists
    s = load_surface(fixture_path(fixture, profile))
    for factor in (default_base_point(s), reference_factor(s)):
        data = curvature_dump(s, factor)
        assert dumps(data) == json.dumps(data, indent=1, default=np.ndarray.tolist)
    assert dumps(s.to_dict()) == json.dumps(s.to_dict(), indent=1)


def test_encoder_matches_stdlib_on_a_large_surface():
    # K, the triplet columns and the margins all hold at least REPEAT_MIN
    # numbers
    s = torus(24)
    assert len(s.face_ids) == 1152
    # at the default base point the margins and K repeat
    for factor in (reference_factor(s), default_base_point(s)):
        data = curvature_dump(s, factor)
        assert min(len(data["K"]), len(data["jacobian"]["vals"]), len(data["margins"])) >= REPEAT_MIN
        assert dumps(data) == json.dumps(data, indent=1, default=np.ndarray.tolist)
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
        "fee27b1c45a386052efc5ec53748b6a56e68caaa9ea3b330ac0f3af37344705f",
        "dfd69f4453c6658583ffd77429779100e4faaaa5206cdaa7abf80b64d08d468b",
        "8cfeed326fee851f45cd838a3156aca3dbf10d186aec028ab8f33b38c6bae8ea",
    ),
    ("f1_pants_eta0", "calabi"): (
        "55557959ee3314efa343bacc2868c07bce85cc62688ac84094ea4989abd4ade5",
        "f442af6387431bf69e839264063fbfbb4f863faf4a087114658671d7683edda1",
        "c5b17550b43a9394655950735ea0a9b47ce9c797696c15641116f65e78d1f0c5",
    ),
    ("f1_pants_eta0", "fractional_0.5"): (
        "753e7c84a3e1d59291cdc1461d97e6f6070c12717e4c588d571ed0e5cbc9cf44",
        "f5ddf9303e544ac5586bbc7c5ec42a1ff5ece25bebe8b1a23ea21ed22fe9aac0",
        "2d498949fdbd9a937540cc0ebfd3a6ecee41c7932340da87691b6f1cc510e191",
    ),
    ("f1_pants_eta0", "fractional_2"): (
        "f6b99e6d7d2870eb319da2072a90552386444ee5ca8cf0da2105e6e7dae711d7",
        "35af391bd61673760697d833b60153f49fd75691f772863a9e50d451f40427f9",
        "3f1bd933b53df2c4dd707729ae995d78533cbb27182fafa65db39f0f54b4f109",
    ),
    ("f1_pants_eta0", "solve"): (
        "c038470a3d69d24bdefdd785d608755ad99009b72e551cb403dabc0954322096",
        "791a95daf4e8654cf1a8a1523a842f03d933a429c85a5abda54a8410f4e5afcd",
        "b6b74796894cd0b322fbe1cd30f7b3b52febd5c14b3903ac38cc9d86fb82f1d4",
    ),
    ("f1_pants_eta15", "ricci"): (
        "6c47ecb0e8caf8efacad71539ee74618d3e1a9bf0e112c2fe725ec8a18d3c65f",
        "cd4c0dcbb630d165c43d89003d1f9c7dbf19733c0d73a51331b6eed27c15bce4",
        "8aad01482733fdcc9d0274a1fa0aef726d71beb57d5aabdbb3b59dcd62df719e",
    ),
    ("f1_pants_eta15", "calabi"): (
        "80f0e0413984dba9db420e68bc53efc4d7148bc7b5a6ae14b0d5cf2cdcdaceb7",
        "166914ec506fa30eb995b6e1f360993a6eb0261db4d32669fcec6c50fa7de0ee",
        "dbd2cf1852845d2caa2b50b266343efca8b67af6243d22e5feb300c7bc3832ac",
    ),
    ("f1_pants_eta15", "fractional_0.5"): (
        "b227ad04980746b46382a9aac17eba82aaa7463ddefc6e95e60502b386478611",
        "42afad1ef0206bc961274e1e6836af9563f5ca2d4fc9fec93eed840b5977df71",
        "326c1ed2530cbcea48d837a11143d23bbd2f2823435dad2a2fa8cfde6d2ea393",
    ),
    ("f1_pants_eta15", "fractional_2"): (
        "79c2d2d4a3466a42596ff56d40efccd9c66250ecf3af309dda32216adb33a3a0",
        "8e59201d5c3b0e9afc4b9dc8120f258d4f20fe163a17477c578a9edb098c17f0",
        "95cc0c99454a2a81620e0c3f5572111e8b8acdef670a7ba43c7c543755be6572",
    ),
    ("f1_pants_eta15", "solve"): (
        "3169b01d573bddad24976c9ac6a06a18559911b44620fc8978a19db39471aa89",
        "0807eafe4317d85a8a766a848fe78de9879e227a12b99d1db72f5615d0491cdf",
        "4fccfc6e319eb0b10d81a31bbb680e894b19ebccc3c98ce8a3a8ae657a9da999",
    ),
    ("f1_pants_mixed", "ricci"): (
        "303a3d73033dd312c2c2f19682c0f72aa87badc4a29f6ca8dc64ede7bd475de2",
        "0aee4118a06700b320c91275b82b397d31594f0e8bdee3bf9143d1732c9d4fe9",
        "3e77032878e304aa54394b583285b262a012a9009c372c9647f278f28b6bef4c",
    ),
    ("f1_pants_mixed", "calabi"): (
        "fe8bd33b1e9874ac1364e881686a207b0e8df3025526c3008084452fa01f4875",
        "bfb17698105c0a7ca8179833f80a3edf968f6c1bb1a140fe5bf3403d5cd68db1",
        "cb7208caafb615eb7240e53a75a88834a949aa3365db62fc1f5741ae898a5a5b",
    ),
    ("f1_pants_mixed", "fractional_0.5"): (
        "7732f000ad23851c039eb3652a6d8b8f7accf0044343709e121e1532047cd453",
        "72369e59c566967237739b7507468c8661cb292bc238675c453d8870b8315039",
        "af1c31f6a9d7fd856f92e98eb064a03262797d30398d28444eaa6a42fbe46a2d",
    ),
    ("f1_pants_mixed", "fractional_2"): (
        "8d54c42c45c3610fe771bf4e3be4898439636bdb5b925b1b3dacd9855f1e2dcb",
        "097cd00053f9145e35cc55f6ff31022497f742142943a6f0df8733ac6de93895",
        "2a86434a1f058242f693f851e68788808ddfd17640676925602ec9f9eca1ca3e",
    ),
    ("f1_pants_mixed", "solve"): (
        "471dc1cb51d14b9e771f490032c88621cc5eb62ee444b10f3fb9c833662b5b33",
        "4269850a60d53ec778fadc5d7494c30716a10a09e0ebbe87c4a07ed239326893",
        "1a211c189a74e6a89ea37b2cd6c586515e63a03649a49c64ccfd52fdb1c2ba1c",
    ),
    ("f2_sixhex_eta0", "ricci"): (
        "a013bee5191bce95ec6613e001d6f2a278dea988735513245b1651e8b8b5b9c4",
        "76a4b3452bd3a27e54f00256d4e36d16aa39321d310b06010e4b01b934ee021b",
        "0d435645a71d8b20bf3fbb1801ec59189b83716487878dcaccc378c00ebebc70",
    ),
    ("f2_sixhex_eta0", "calabi"): (
        "a114878c6447c8bfb1b32c1837f4ec78bf71d6fa4a38b10ccd4f5db0d08181e7",
        "7f401ded3bde100eddc47954892b7069256322b4570abd6fe9dc509bbf70f668",
        "ceb2760504288177bc62ab9e167cd3953251c157ed1d2551dfe535f6f866f12f",
    ),
    ("f2_sixhex_eta0", "fractional_0.5"): (
        "900577e9467a61de6a598caaca27bfb87b33bb5fe37a5c48cb7de3bb91da6750",
        "13d5dbb09f88bcd236ec92d043fed375cd4aa5af8869901f8410358cb0a08fcc",
        "5c99a923196705b3c8b171f2a2f8b6a96157b0c3e6ee7a359564701092111554",
    ),
    ("f2_sixhex_eta0", "fractional_2"): (
        "bf0360002fad6bfccb2378ebb3f6f4a05485763af1d49af69a4d9b3884223c87",
        "123c492e750b0bdbab23c9ba7334d473f9a63fbea035c6f986cb0ded057cfb02",
        "890de53182ab7115c7ff616bb750b67a175cc1837d4a50d36e6d8f324969a48c",
    ),
    ("f2_sixhex_eta0", "solve"): (
        "3d7b84adb6966865f4c9d245abfc1db1e3bce1afd9aa108416ac4e441a4377c2",
        "da2fcbf274aefe927348eb4697ed82a5d6316f01fda3032e3d530f48374a376d",
        "f3c326f638e54fa899fb65db317d2224b54a2ffe8208bac96de17ea5e44a3e43",
    ),
    ("f2_sixhex_eta15", "ricci"): (
        "76b7712e2ec4418871f68666bb1412413895938685025b4e2204b95d6cb2638b",
        "666201e6f115c4c2396b31048430da6e3be59745df5f36d47f229de8262c6028",
        "170718f9c8fd1bec7550ed115d760ae00cc2724a54c78e583b7b6e6d1088e263",
    ),
    ("f2_sixhex_eta15", "calabi"): (
        "08db446a230e5a2c41464c0e3cd39122fc577f8dd9bfac3f2c606e3c6c7e122d",
        "40ae0fc3e8ee4f2940feed2420b0df102be8bf6f6fd9de09e679a0bcea3fa376",
        "fa260d1ac9aecf69b4cda4c929fe2df834db01a83e8ca8e7c03da807c3f46534",
    ),
    ("f2_sixhex_eta15", "fractional_0.5"): (
        "fe645e50f2e3dacf001298dc55de81926f845333a05fd591d945f835b0c6037a",
        "18f041c582438e1aa4cb2809380e56a9b4268ff5751226da68934f3fd380ad49",
        "bd529c9c654045a642bd7a846f158ed9103c7a01227ec0bd539a93b016ead7f6",
    ),
    ("f2_sixhex_eta15", "fractional_2"): (
        "84afddf921cea7c96377a01f2f1fa6e49b5816a3d3481fab3f5e389a83df64d8",
        "8d9173fa6e9f2329bc897dabefcf91132e7568a89d6a06ff5cf753551d246c10",
        "5b8fd781a613511fb078ebdbe1a70ffe6768bbeb3e872ad42558e6973c9b1bb9",
    ),
    ("f2_sixhex_eta15", "solve"): (
        "5698a6fdf87c6efbbe302def5df4469a7a73c52d4d22ffae8b10063bd42d0a07",
        "7d6d3f8d30122a0dbb36865a68ef6c03b2170cb959ac7fe390a1b3d2399f7a0e",
        "4fccfc6e319eb0b10d81a31bbb680e894b19ebccc3c98ce8a3a8ae657a9da999",
    ),
    ("f2_sixhex_mixed", "ricci"): (
        "923a3db4eef1937220477d7e3e3ff4cccc3025f904ce5b954149b805d97287c0",
        "6a3ff69162403f16ea72bf9c5de4f21ed7de7d54a76812ac7a40508eae2e9bf1",
        "cbe01567427aa0e7908171ca047b80b7c46ca3fc269f683372c088cabd5ea927",
    ),
    ("f2_sixhex_mixed", "calabi"): (
        "ae93f3bd2ad1a1ae1888f125c85c988c677aafdf59d32c368be19ca1f281a7ed",
        "0b29ad609da09522197f1788432fe0159e340bc350995d869b5c13210026a123",
        "339df0c17da39bd4a02afb41a0bca5702a7d644513df374a7b87ae1e6016862f",
    ),
    ("f2_sixhex_mixed", "fractional_0.5"): (
        "531e5aeba9b1f7ff4e0ff3c7509ffb90485b151d7fe71ba7622436ecf9473d19",
        "617c6e0408c209e4809001529025ef74ae5f1839fc2ec49e4090ae1a73bcbaba",
        "cc9153a032ca4c78bc549955d9a800e25e218612dd750c22a930e8d3e6c40fff",
    ),
    ("f2_sixhex_mixed", "fractional_2"): (
        "a7a79d8fe4a0e77cc3c3deeccd0fce894e5f34b6b14b195982d4b4867473ae50",
        "e1321ab9b54fe0764bb96aa9558a2c4986083af0c313b3013b98195421c421e8",
        "7198904973c4529ba608704a7540005cf83e3bf509aa71ef7c9e0f42dac03054",
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


# Runs that end without converging, on the zero-weight pants from
# alpha = (0.5, 0.6, 0.7): the command, the target and the options after
# the three input files.
TERMINAL_RUNS = {
    "flow_max_steps_0": ("flow", [1.2, 1.3, 1.4], ("--max-steps", "0")),
    "solve_max_iters_0": ("solve", [1.2, 1.3, 1.4], ("--max-iters", "0")),
    "flow_far_target": ("flow", [1e6, 1.0, 1.0], ()),
    "solve_far_target": ("solve", [1e6, 1.0, 1.0], ()),
    "solve_tiny_tol": ("solve", [1.2, 1.3, 1.4], ("--tol", "1e-300", "--max-iters", "20")),
    # targets so small that a trial's arcs overflow the kernel
    "solve_kernel_overflow": ("solve", [1e-250] * 3, ("--tol", "1e-300")),
    "flow_kernel_overflow": ("flow", [1e-250] * 3, ("--method", "ricci", "--tol", "1e-300")),
}

# The exit code and the sha256 of stdout, stderr and the trace (or log) of
# each run.  NotAttained exits 6 and prints nothing to stdout, but writes its
# log, which ends in "# status=NotAttained".
TERMINAL_SHA256 = {
    "flow_far_target": (
        4,
        "3ed1d7512e8d7d7ec00728edd95ae074c30afedb822a695dee7518c86812cf0c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eacdaf8dbbdc6cd7d4085690ddeefd53fdca331d7c4224043c1998075982ff82",
    ),
    "flow_kernel_overflow": (
        4,
        "54ed1b35839469b7fc240238191f21e2149415a532e6d92537b2a8a780032756",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "61613b5de03b7fdd89b25a3c98a8800fc83466f9ddf9ab9fa8adc62574dd9b99",
    ),
    "flow_max_steps_0": (
        4,
        "2564434465b8cfa99b737934ed29f393cd619620fd479ed0652b011ee90ea939",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "54f1808b99fafb746fbe8f7f8440de9f3919932a154be1ed0ad78ff3efcaf368",
    ),
    "solve_far_target": (
        6,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "102f251ac8a25c94bbb51ad88131ffb04d62d3f2fd7908257ea41de6dd5fb4b1",
        "57327b753f8c3013b37af6b051b8db645430427d1ac0eb303e7b9ffdd7d81d34",
    ),
    "solve_kernel_overflow": (
        6,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "170e7f5039eabb95d03b5994f1c5d68f4202557ab7dd322bdf6dcc7cf7f575bb",
        "abe57e75f10d640e30a20b93b9a75fb13fc28d785c04e5a6e3c076328c14c9b5",
    ),
    "solve_max_iters_0": (
        4,
        "2d976ffec6e01ae7c51984988fed76bb9592aebb375520473906d8c08515552b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d00bd90c6001bcb9f440553a8c4b3cb656e46485feda3bc1d433262989efa6f9",
    ),
    "solve_tiny_tol": (
        4,
        "4ef0d63329db851fd39eb787fd25cced9b431d66b3fff19e45dfb277f9f7f70c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "518e4812fc4e923f62c571a616b3810e542c5c5d9c47b32fe4d21c7a3dcfdfa3",
    ),
}


@pytest.mark.parametrize("run", sorted(TERMINAL_RUNS))
def test_terminal_run_digests(run, pants_path, factor_file, target_file, tmp_path, capsys):
    command, K, options = TERMINAL_RUNS[run]
    log = tmp_path / "log.csv"
    log_option = "--log" if command == "solve" else "--trace"
    argv = [command, pants_path, factor_file([0.5, 0.6, 0.7]), target_file(K), *options,
            log_option, str(log)]
    code = main(argv)
    out, err = capsys.readouterr()
    written = hashlib.sha256(log.read_bytes()).hexdigest() if log.exists() else None
    digests = (code, hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(err.encode()).hexdigest(), written)
    assert digests == TERMINAL_SHA256[run]


# Targets so far that |K - Kbar|^2 overflows: the Calabi energy, J r and the
# logged potential are infinite, and no numpy RuntimeWarning is printed.
FAR_COMMANDS = {
    "solve": (["solve"], "--log", 6, 6),
    "ricci": (["flow", "--method", "ricci"], "--trace", 4, 4),
    "calabi": (["flow", "--method", "calabi"], "--trace", 4, 4),
    # J^s (K - Kbar) is not finite at the float maximum: a malformed input
    "fractional": (["flow", "--method", "fractional", "--s", "0.5"], "--trace", 4, 2),
}


@pytest.mark.parametrize("command", sorted(FAR_COMMANDS))
@pytest.mark.parametrize("K", [1e200, sys.float_info.max], ids=["1e200", "float-max"])
@pytest.mark.parametrize("profile, start", [("eta0", [0.5, 0.6, 0.7]), ("eta15", [1.5] * 3)],
                         ids=["eta0", "eta15"])
def test_far_target_exits_without_warnings(profile, start, K, command, factor_file, target_file,
                                           tmp_path):
    argv, log_option, code_1e200, code_max = FAR_COMMANDS[command]
    argv = [*argv, str(fixture_path("f1", profile)), factor_file(start), target_file([K] * 3),
            "--out", str(tmp_path / "out.json"), log_option, str(tmp_path / "log.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == (code_1e200 if K == 1e200 else code_max)


# Weights so large that a product of two overflows: gamma is +inf, the right
# value, so validate passes, and every command keeps its exit code with no
# numpy RuntimeWarning.
HUGE_WEIGHT_CODES = {"validate": 0, "curvature": 2, "flow": 2, "solve": 2, "jacobian-check": 2}


@pytest.mark.parametrize("command", sorted(HUGE_WEIGHT_CODES))
@pytest.mark.parametrize("etas", [(1e200, 1e200, 1e200), (-0.5, 1e200, 1e200)], ids=repr)
def test_huge_weights_exit_without_warnings(command, etas, factor_file, target_file, tmp_path,
                                            capsys):
    surface = pair_of_pants(etas)
    path = str(tmp_path / "pants.json")
    save_surface(surface, path)
    files = [factor_file(default_base_point(surface).alpha), target_file([1.2, 1.3, 1.4])]
    argv = {"validate": [], "curvature": files[:1], "jacobian-check": []}.get(command, files)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, path, *argv])
    assert code == HUGE_WEIGHT_CODES[command]
    if code == 0:
        assert "structure_condition: holds" in capsys.readouterr().out
