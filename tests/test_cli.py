import importlib.util
import json
import os
import sys

import numpy as np
import pytest

import tibt
import tibt.linalg
import tibt.system
from tibt.cli import main


def write_config(tmp_path, name="config.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_matrix_market(tmp_path, a, b, c):
    """Save A, B and C as Matrix Market files; return the config's model."""
    paths = {}
    for name, matrix in (("a", a), ("b", b), ("c", c)):
        paths[f"{name}_path"] = str(tmp_path / f"{name}.mtx")
        tibt.save_matrix_market(paths[f"{name}_path"], matrix)
    return {"kind": "matrix_market", **paths}


def scaled_rod_model(tmp_path, which, factor):
    """``heat_rod(30)`` as Matrix Market files, with B or C scaled."""
    rod = tibt.heat_rod(30)
    b = rod.B * (factor if which == "B" else 1.0)
    c = rod.C * (factor if which == "C" else 1.0)
    return write_matrix_market(tmp_path, rod.A.to_dense(), b, c)


# one config per task, small enough for heat_rod(30)
EVERY_TASK = [
    {"task": "solve-lyap"},
    {"task": "atia-bt"},
    {"task": "dense-bt", "r": 4},
    {"task": "tcr", "r": 4},
    {"task": "tor", "r": 4},
    {"task": "tsia", "r": 4},
    {"task": "compare", "tols": [1e-3]},
]


class TestRunDenseBt:
    def test_modal_example_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out))
        assert main(["run", cfg]) == 0
        header, rows = read_csv(out / "hsv.csv")
        assert header == ["index", "value"]
        assert [int(r[0]) for r in rows] == [1, 2]
        assert abs(float(rows[0][1]) - 73.1370) <= 1e-4
        assert abs(float(rows[1][1]) - 7.2831) <= 1e-4
        run_echo = json.loads((out / "run.json").read_text())
        assert run_echo["seed"] == 0
        assert run_echo["exit_code"] == 0
        assert "wall_clock_sec" in run_echo
        errors = dict()
        _, err_rows = read_csv(out / "errors.csv")
        for name, value, _ in err_rows:
            errors[name] = float(value)
        # the twice-summed-tail bound puts this run at ~2.52e-2
        assert 1e-3 <= errors["hinf_rel_error"] <= 2.6e-2

    def test_scientific_notation_and_lf_endings(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out))
        main(["run", cfg])
        raw = (out / "hsv.csv").read_bytes()
        assert b"\r" not in raw
        assert b"e+01" in raw or b"e+1" in raw


class TestProducedOrder:
    @pytest.mark.parametrize("task", ["dense-bt", "tcr", "tor"])
    def test_clamped_order_written_and_warned(self, tmp_path, capsys, task):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task=task, r=50, output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, hsv_rows = read_csv(out / "hsv.csv")
        _, err_rows = read_csv(out / "errors.csv")
        assert {row[2] for row in err_rows} == {str(len(hsv_rows))}
        assert len(hsv_rows) < 50
        err = capsys.readouterr().err
        assert err.startswith(f"warning: {task} produced order {len(hsv_rows)}")

    def test_tsia_order_written_and_warned(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="tsia", r=9, output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, err_rows = read_csv(out / "errors.csv")
        assert {row[2] for row in err_rows} == {"4"}
        assert capsys.readouterr().err.startswith(
            "warning: tsia produced order 4, not the requested r = 9")

    def test_tsia_order_capped_at_sylvester_rank(self, tmp_path, capsys):
        # B excites two of the five modes: one coupling Sylvester solution
        # has rank 2, the other rank 4
        b = np.array([[1.0], [1.0], [0.0], [0.0], [0.0]])
        model = write_matrix_market(tmp_path, np.diag(-np.arange(1.0, 6.0)), b,
                                    np.ones((1, 5)))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model=model, task="tsia", r=4,
                           output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, err_rows = read_csv(out / "errors.csv")
        assert {row[2] for row in err_rows} == {"2"}
        assert max(float(row[1]) for row in err_rows) <= 1e-12
        assert capsys.readouterr().err.startswith(
            "warning: tsia produced order 2, not the requested r = 4")

    def test_unclamped_order_is_silent(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, err_rows = read_csv(out / "errors.csv")
        assert {row[2] for row in err_rows} == {"2"}
        assert capsys.readouterr().err == ""


class TestConfigValidation:
    def test_malformed_json_exits_one_without_artifacts(self, tmp_path):
        out = tmp_path / "out"
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["run", str(bad), "--output-dir", str(out)]) == 1
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out),
                           not_a_key=1)
        assert main(["run", cfg]) == 1
        assert not out.exists()

    def test_unknown_task_rejected(self, tmp_path):
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="reduce-it-all")
        assert main(["run", cfg]) == 1

    def test_missing_model_parameter_rejected(self, tmp_path):
        cfg = write_config(tmp_path, model={"kind": "heat_rod"},
                           task="dense-bt", r=2)
        assert main(["run", cfg]) == 1

    def test_missing_order_rejected(self, tmp_path):
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="tcr")
        assert main(["run", cfg]) == 1

    @pytest.mark.parametrize("body", [
        {"model": {"kind": "heat_rod", "n": 50}, "task": "solve-lyap",
         "alg": {"tol": 2}},
        {"model": {"kind": "heat_rod", "n": 50}, "task": "atia-bt",
         "alg": {"r0": 0}},
        {"model": {"kind": "heat_rod", "n": 2}, "task": "dense-bt", "r": 1},
        {"model": {"kind": "random_stable", "n": 0, "m": 1, "p": 1},
         "task": "dense-bt", "r": 1},
        {"model": {"kind": "illustrative4"}, "task": "tcr", "r": 0},
        {"model": {"kind": "illustrative4"}, "task": "tor", "r": "two"},
        # above the densification limit of a tridiagonal operator
        *({"model": {"kind": "heat_rod", "n": 30_000}, "task": task, "r": 2}
          for task in ("dense-bt", "tcr", "tor")),
    ])
    def test_bad_values_exit_one_with_message(self, tmp_path, capsys, body):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, output_dir=str(out), **body)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        {"task": "solve-lyap", "alg": {"r0": 2.5}},
        {"task": "solve-lyap", "alg": {"dr": 1.5}},
        {"task": "solve-lyap", "alg": {"k_max": 2.5}},
        {"task": "solve-lyap", "alg": {"seed": 1.5}},
        {"task": "atia-bt", "alg": {"seed": "x"}},
        {"task": "atia-bt", "alg": {"seed": -1}},
        {"task": "solve-lyap", "seed": "abc"},
        {"task": "solve-lyap", "seed": -1},
        {"task": "dense-bt", "r": 2.5},
        {"task": "dense-bt", "r": True},
        {"task": "tsia", "r": "3"},
        {"task": "dense-bt", "r": 2, "model": {"kind": "heat_rod", "n": 50.7}},
        {"task": "dense-bt", "r": 2, "model": {"kind": "heat_rod", "n": "50"}},
        {"task": "dense-bt", "r": 2,
         "model": {"kind": "random_stable", "n": 20, "m": 1, "p": 1, "seed": 0.5}},
    ])
    def test_non_integer_values_exit_one(self, tmp_path, capsys, body):
        out = tmp_path / "out"
        body = {"model": {"kind": "heat_rod", "n": 50}, **body}
        cfg = write_config(tmp_path, output_dir=str(out), **body)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="tsia", r=2, output_dir=str(out))
        assert main(["run", cfg, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        {"grid_points": 1},
        {"grid_points": "many"},
        {"grid_points": 2.5},
        {"grid_points": True},
        {"tols": ["x"]},
        {"tols": []},
        {"tols": 1e-3},
        {"tols": [1e-3, 0.0]},
        {"tols": [-1e-3]},
        {"tols": [float("inf")]},
        {"dense_cap": "big"},
        {"dense_cap": 0},
        {"tols": [1.0]},
        {"tols": [2.0]},
    ])
    def test_bad_run_settings_rejected_before_model_built(
            self, tmp_path, capsys, monkeypatch, extra):
        def no_model(*args):
            raise AssertionError("model built from a bad config")

        monkeypatch.setattr("tibt.cli.build_model", no_model)
        out = tmp_path / "out"
        body = {"tols": [1e-3], **extra}
        cfg = write_config(tmp_path, model={"kind": "heat_rod", "n": 50},
                           task="compare", output_dir=str(out), **body)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(next(iter(extra))) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["a", "c"])
    def test_missing_matrix_market_file_exits_one(self, tmp_path, capsys, missing):
        paths = {}
        for name, matrix in (("a", [[-1.0, 0.0], [0.0, -2.0]]), ("b", [[1.0], [1.0]]),
                             ("c", [[1.0, 1.0]])):
            paths[f"{name}_path"] = str(tmp_path / f"{name}.mtx")
            if name != missing:
                tibt.save_matrix_market(paths[f"{name}_path"], matrix)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "matrix_market", **paths},
                           task="dense-bt", r=1, output_dir=str(out))
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{missing}.mtx" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unreadable_matrix_market_path_exits_one(self, tmp_path, capsys):
        (tmp_path / "a.mtx").mkdir()
        out = tmp_path / "out"
        cfg = write_config(tmp_path, output_dir=str(out), task="dense-bt", r=1,
                           model={"kind": "matrix_market", "a_path": str(tmp_path / "a.mtx"),
                                  "b_path": "b.mtx", "c_path": "c.mtx"})
        assert main(["run", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        {"task": "dense-bt", "r": 4},
        {"task": "solve-lyap"},
        {"task": "atia-bt", "alg": {"tol": 1e-4}},
    ], ids=lambda body: body["task"])
    def test_non_finite_input_matrix_exits_one(self, tmp_path, capsys, body):
        rod = tibt.heat_rod(50)
        b = rod.B.copy()
        b[3] = np.nan
        out = tmp_path / "out"
        model = write_matrix_market(tmp_path, rod.A.to_dense(), b, rod.C)
        cfg = write_config(tmp_path, model=model, output_dir=str(out), **body)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model matrix_market: B and C entries must be finite")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("zero", ["B", "C"])
    @pytest.mark.parametrize("body", EVERY_TASK, ids=lambda body: body["task"])
    def test_zero_input_or_output_matrix_exits_one(self, tmp_path, capsys, body, zero):
        rod = tibt.heat_rod(30)
        b, c = (0.0 * rod.B, rod.C) if zero == "B" else (rod.B, 0.0 * rod.C)
        out = tmp_path / "out"
        model = write_matrix_market(tmp_path, rod.A.to_dense(), b, c)
        cfg = write_config(tmp_path, model=model, output_dir=str(out), **body)
        assert main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: model matrix_market: {zero} has no nonzero entry\n")
        assert not out.exists()

    @pytest.mark.parametrize("scaled", ["B", "C"])
    @pytest.mark.parametrize("body", EVERY_TASK, ids=lambda body: body["task"])
    def test_underflowing_input_or_output_matrix_exits_one(self, tmp_path, capsys,
                                                          body, scaled):
        # below sqrt(tiny) ~ 1.49e-154 the squares in B B^T or C^T C underflow
        out = tmp_path / "out"
        model = scaled_rod_model(tmp_path, scaled, 1e-160)
        cfg = write_config(tmp_path, model=model, output_dir=str(out), **body)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: model matrix_market: {scaled} ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scaled", ["B", "C"])
    @pytest.mark.parametrize("body", EVERY_TASK, ids=lambda body: body["task"])
    def test_small_input_or_output_matrix_runs(self, tmp_path, capsys, body, scaled):
        out = tmp_path / "out"
        model = scaled_rod_model(tmp_path, scaled, 1e-150)
        cfg = write_config(tmp_path, model=model, output_dir=str(out), **body)
        assert main(["run", cfg]) in (0, 2)
        assert "error:" not in capsys.readouterr().err
        assert (out / "run.json").exists()

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        rod = tibt.heat_rod(50)
        model = write_matrix_market(tmp_path, rod.A.to_dense(), rod.B, rod.C)
        with open(model["b_path"], "w", encoding="ascii") as fh:
            fh.write("%%MatrixMarket matrix array real general\n50 1\n1.0\n")
        cfg = write_config(tmp_path, model=model, task="dense-bt", r=4,
                           output_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: {model['b_path']}: line 2: expected 50 values, found 1\n")

    @pytest.mark.parametrize("key", ["a_path", "b_path", "c_path"])
    @pytest.mark.parametrize("value", [12345, None, ["a.mtx"]])
    def test_non_string_matrix_market_path_rejected(self, tmp_path, capsys, monkeypatch,
                                                    key, value):
        def no_model(*args):
            raise AssertionError("model built from a bad config")

        monkeypatch.setattr("tibt.cli.build_model", no_model)
        model = {"kind": "matrix_market", "a_path": "a.mtx", "b_path": "b.mtx",
                 "c_path": "c.mtx", key: value}
        cfg = write_config(tmp_path, model=model, task="dense-bt", r=1)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(key) in err and "string" in err

    @pytest.mark.parametrize("body, key", [
        ({"task": "atia-bt", "side": "bogus"}, "side"),
        ({"task": "atia-bt", "r": 4}, "r"),
        ({"task": "dense-bt", "r": 4, "alg": {"k_max": 1}}, "alg"),
        ({"task": "tcr", "r": 4, "tols": [1e-3]}, "tols"),
        ({"task": "tor", "r": 4, "side": "q"}, "side"),
        ({"task": "tsia", "r": 4, "alg": {"k_max": 1}}, "alg"),
        ({"task": "tsia", "r": 4, "grid_points": 60}, "grid_points"),
        ({"task": "tsia", "r": 4, "dense_cap": 10}, "dense_cap"),
        ({"task": "solve-lyap", "grid_points": 60}, "grid_points"),
        ({"task": "solve-lyap", "r": 4}, "r"),
        ({"task": "compare", "tols": [1e-3], "alg": {"tol": 0.5}}, "tol"),
        ({"task": "compare", "tols": [1e-3], "r": 4}, "r"),
        ({"task": "solve-lyap", "side": "bogus"}, "side"),
        ({"task": "atia-bt", "alg": {"stage_tol": 1e-6}}, "stage_tol"),
    ], ids=lambda param: param if isinstance(param, str) else param["task"])
    def test_unread_or_bad_key_rejected_before_model_built(
            self, tmp_path, capsys, monkeypatch, body, key):
        def no_model(*args):
            raise AssertionError("model built from a bad config")

        monkeypatch.setattr("tibt.cli.build_model", no_model)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "heat_rod", "n": 50},
                           output_dir=str(out), **body)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ")
        assert repr(key) in err
        assert not out.exists()

    def test_compare_command_requires_compare_task(self, tmp_path):
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2)
        assert main(["compare", cfg]) == 1


class TestDenseGramiansOnce:
    @pytest.mark.parametrize("body", [
        {"task": "dense-bt", "r": 4, "grid_points": 60},
        {"task": "tcr", "r": 4, "grid_points": 60},
        {"task": "tor", "r": 4, "grid_points": 60},
        {"task": "atia-bt", "alg": {"tol": 1e-4}, "grid_points": 60},
        {"task": "solve-lyap"},
        {"task": "compare", "tols": [1e-3, 1e-4], "grid_points": 60},
    ], ids=lambda body: body["task"])
    def test_two_full_size_lyapunov_solves(self, tmp_path, monkeypatch, body):
        n = 60
        sizes = []
        solve = tibt.linalg.solve_lyapunov_dense

        def counting(a, g):
            sizes.append(len(a))
            return solve(a, g)

        # every module that imported the solver calls it through its own name
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "tibt"
                    and getattr(module, "solve_lyapunov_dense", None) is solve):
                monkeypatch.setattr(module, "solve_lyapunov_dense", counting)
        cfg = write_config(tmp_path,
                           model={"kind": "random_stable", "n": n, "m": 2,
                                  "p": 2, "seed": 1},
                           output_dir=str(tmp_path / "out"), **body)
        assert main(["run", cfg]) == 0
        # solve-lyap solves only for the Gramian it reports
        assert sizes.count(n) == (1 if body["task"] == "solve-lyap" else 2)


class TestSolveLyap:
    def test_heat_rod_errors_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "heat_rod", "n": 300},
                           task="solve-lyap",
                           alg={"r0": 2, "dr": 2, "tol": 1e-6},
                           output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, rows = read_csv(out / "errors.csv")
        metrics = {name: float(value) for name, value, _ in rows}
        assert metrics["gramian_rel_error"] <= 1e-5
        assert (out / "history.csv").exists()
        header, hrows = read_csv(out / "history.csv")
        assert header[:3] == ["k", "i", "r"]
        assert len(hrows) >= 1

    def test_q_side(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "heat_rod", "n": 200},
                           task="solve-lyap", side="q",
                           alg={"tol": 1e-6}, output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, rows = read_csv(out / "errors.csv")
        metrics = {name: float(value) for name, value, _ in rows}
        assert metrics["gramian_rel_error"] <= 1e-5

    def test_unconverged_exits_two_with_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "heat_rod", "n": 200},
                           task="solve-lyap",
                           alg={"tol": 1e-12, "k_max": 3},
                           output_dir=str(out))
        assert main(["run", cfg]) == 2
        assert (out / "hsv.csv").exists()
        assert json.loads((out / "run.json").read_text())["exit_code"] == 2


class TestCompare:
    def test_two_tolerance_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path,
                           model={"kind": "random_stable", "n": 150, "m": 2,
                                  "p": 2, "seed": 66},
                           task="compare", tols=[1e-3, 1e-4],
                           grid_points=150, output_dir=str(out))
        assert main(["run", cfg]) == 0
        header, rows = read_csv(out / "comparison.csv")
        assert header == ["tol", "r_selected", "atia_hinf_ratio",
                          "bt_hinf_ratio", "converged"]
        assert len(rows) == 2
        for row in rows:
            assert row[4] == "true"
            assert float(row[2]) <= 2.0 * float(row[3])

    def test_single_tolerance_single_row(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path,
                           model={"kind": "random_stable", "n": 60, "m": 2,
                                  "p": 2, "seed": 1},
                           task="compare", tols=[1e-3],
                           grid_points=100, output_dir=str(out))
        assert main(["compare", cfg]) == 0
        _, rows = read_csv(out / "comparison.csv")
        assert len(rows) == 1

    def test_dense_infeasible_model_rejected(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "heat_rod", "n": 400},
                           task="compare", tols=[1e-3], dense_cap=100,
                           output_dir=str(out))
        assert main(["compare", cfg]) == 1
        assert not out.exists()

    def test_stagnation_row_carries_flag(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path,
                           model={"kind": "random_stable", "n": 80, "m": 2,
                                  "p": 2, "seed": 2},
                           task="compare", tols=[1e-12],
                           alg={"k_max": 3}, grid_points=100,
                           output_dir=str(out))
        assert main(["compare", cfg]) == 2
        _, rows = read_csv(out / "comparison.csv")
        assert rows[0][4] == "false"


class TestReproducibility:
    def test_identical_runs_byte_identical_csvs(self, tmp_path):
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            cfg = write_config(tmp_path, name=f"{name}.json",
                               model={"kind": "random_stable", "n": 60,
                                      "m": 2, "p": 2, "seed": 4},
                               task="atia-bt", alg={"tol": 1e-4},
                               grid_points=100, output_dir=str(out))
            assert main(["run", cfg, "--deterministic"]) == 0
            outs.append(out)
        for name in ("hsv.csv", "errors.csv", "history.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("flag", [True, False])
    def test_thread_pinning_recorded(self, tmp_path, flag):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out))
        assert main(["run", cfg] + (["--deterministic"] if flag else [])) == 0
        run_echo = json.loads((out / "run.json").read_text())
        assert run_echo["deterministic"] is flag
        pinnable = importlib.util.find_spec("threadpoolctl") is not None
        assert run_echo["threads_pinned"] is (flag and pinnable)

    def test_unpinnable_deterministic_run_warns(self, tmp_path, capsys, monkeypatch):
        # a None entry in sys.modules makes the import fail as if missing
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out))
        assert main(["run", cfg, "--deterministic"]) == 0
        assert capsys.readouterr().err == (
            "warning: --deterministic: threadpoolctl is not installed; "
            "BLAS threads not pinned\n")
        assert json.loads((out / "run.json").read_text())["threads_pinned"] is False
        assert main(["run", cfg]) == 0
        assert capsys.readouterr().err == ""

    def test_flush_subnormals_recorded(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out))
        assert main(["run", cfg]) == 0
        flush = json.loads((out / "run.json").read_text())["flush_subnormals"]
        assert flush is tibt.linalg.flushes_subnormals()
        assert flush is (sys.platform == "linux" and os.uname().machine == "x86_64"
                         and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"))

    def test_blas_setup_recorded(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="dense-bt", r=2, output_dir=str(out))
        assert main(["run", cfg]) == 0
        blas = json.loads((out / "run.json").read_text())["blas"]
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        assert blas["blas"] == deps["blas"]
        assert blas["lapack"] == deps["lapack"]
        if importlib.util.find_spec("threadpoolctl") is None:
            assert "threadpools" not in blas
        else:
            assert isinstance(blas["threadpools"], list)

    def test_seed_override_recorded_and_applied(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path,
                           model={"kind": "illustrative4"},
                           task="tsia", r=2, seed=0)
        assert main(["run", cfg, "--output-dir", str(out1), "--seed", "9"]) == 0
        assert json.loads((out1 / "run.json").read_text())["seed"] == 9
        assert main(["run", cfg, "--output-dir", str(out2)]) == 0
        assert json.loads((out2 / "run.json").read_text())["seed"] == 0


class TestTsiaTask:
    def test_optimality_residuals_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"kind": "illustrative4"},
                           task="tsia", r=2, seed=7, output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, rows = read_csv(out / "errors.csv")
        metrics = {name: float(value) for name, value, _ in rows}
        assert metrics["optimality_residual_cp"] <= 1e-6
        assert metrics["optimality_residual_qb"] <= 1e-6
        assert metrics["optimality_residual_qp"] <= 1e-6


class TestTcrTorTasks:
    @pytest.mark.parametrize("task", ["tcr", "tor"])
    def test_artifacts(self, tmp_path, task):
        out = tmp_path / f"out_{task}"
        cfg = write_config(tmp_path, name=f"{task}.json",
                           model={"kind": "illustrative4"}, task=task, r=3,
                           output_dir=str(out))
        assert main(["run", cfg]) == 0
        _, rows = read_csv(out / "hsv.csv")
        assert len(rows) == 3
        _, err_rows = read_csv(out / "errors.csv")
        metrics = {name: float(value) for name, value, _ in err_rows}
        assert metrics["gramian_rel_error"] <= 1e-8
