"""Command-line interface: formats, exit codes, byte stability."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import impact_game
from impact_game import TimeGrid, cli, finite_game, infinite_game, nash_equilibrium, simulation
from impact_game.cli import main

ALPHA_N1_UNIT = 0.561952002379033


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_lines(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestEquilibrium:
    def test_csv_shape(self, capsys):
        code, out, err = run(capsys, ["equilibrium", "--n", "2", "--N", "4"])
        assert code == 0
        header, rows = csv_lines(out)
        assert header == ["t", "v", "w", "xi_1", "xi_2"]
        assert len(rows) == 5
        assert "foc_residual" in err

    def test_equal_inventories_reproduce_v_column(self, capsys):
        code, out, _ = run(
            capsys, ["equilibrium", "--n", "2", "--N", "6", "--inventories", "1,1"]
        )
        assert code == 0
        _, rows = csv_lines(out)
        for row in rows:
            assert row[3] == row[1]  # xi_1 == v, exactly as printed
            assert row[4] == row[1]

    def test_zero_sum_inventories_reproduce_w_column(self, capsys):
        code, out, _ = run(
            capsys,
            ["equilibrium", "--n", "2", "--N", "6", "--theta", "0.4", "--inventories", "1,-1"],
        )
        assert code == 0
        _, rows = csv_lines(out)
        for row in rows:
            assert row[3] == row[2]  # xi_1 == w

    def test_single_step_grid(self, capsys):
        code, out, _ = run(capsys, ["equilibrium", "--N", "0"])
        assert code == 0
        _, rows = csv_lines(out)
        assert rows == [["0", "1", "1", "1", "1"]]

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "eq.csv"
        code, out, _ = run(capsys, ["equilibrium", "--N", "3", "--out", str(target)])
        assert code == 0
        assert out == ""
        lines = target.read_text().splitlines()
        assert lines[0] == "t,v,w,xi_1,xi_2"
        assert len(lines) == 5

    def test_stderr_reports_solver_and_conditions(self, capsys):
        _, _, err = run(capsys, ["equilibrium", "--n", "2", "--N", "20"])
        words = err.split()
        assert words[0::2] == ["foc_residual", "solver", "condition_v", "condition_w"]
        assert words[3] == "banded"
        assert float(words[5]) > 1.0 and float(words[7]) > 1.0
        _, _, err = run(capsys, ["equilibrium", "--N", "20", "--kernel", "power"])
        assert "solver lu " in err

    def test_oversized_grid_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(finite_game, "_MAX_DENSE_SIDE", 50)
        code, out, err = run(capsys, ["equilibrium", "--N", "60"])
        assert code == 2
        assert out == ""
        assert "side 61" in err

    def test_overflowing_kernel_matrix_exits_2(self, capsys):
        argv = ["equilibrium", "--n", "2", "--N", "10", "--gamma", "1e308", "--sigma", "10",
                "--theta", "0"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "overflow" in err

    def test_zero_steps_with_negative_horizon_exits_2(self, capsys):
        code, _, err = run(capsys, ["equilibrium", "--N", "0", "--horizon", "-3"])
        assert code == 2
        assert "horizon" in err

    def test_invalid_agent_count_exits_2(self, capsys):
        code, _, err = run(capsys, ["equilibrium", "--n", "0"])
        assert code == 2
        assert "error" in err

    def test_numerical_failure_exits_3(self, capsys):
        # a vanishing decay rate makes the single-agent kernel matrix singular
        code, _, err = run(capsys, ["equilibrium", "--n", "1", "--N", "30", "--rho", "1e-16"])
        assert code == 3
        assert "numerical error" in err

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["equilibrium", "--bogus", "1"])
        assert excinfo.value.code == 2


class TestThresholds:
    def test_v_grid_cardinality(self, capsys):
        code, out, _ = run(
            capsys,
            ["thresholds", "--which", "v", "--n", "2", "--N", "30,40", "--gamma", "0,1"],
        )
        assert code == 0
        header, rows = csv_lines(out)
        assert header == [
            "n", "N", "gamma", "which", "theta_star",
            "bracket_lo", "bracket_hi", "evaluations", "converged",
            "theta_star_coarse", "error",
        ]
        assert len(rows) == 4
        assert {row[3] for row in rows} == {"v"}
        assert {row[8] for row in rows} <= {"true", "false"}

    def test_w_rows_leave_n_empty(self, capsys):
        code, out, _ = run(capsys, ["thresholds", "--which", "w", "--N", "40", "--gamma", "0"])
        assert code == 0
        _, rows = csv_lines(out)
        assert len(rows) == 1
        assert rows[0][0] == ""
        assert float(rows[0][4]) == pytest.approx(0.25, abs=0.05)

    def test_range_specification(self, capsys):
        code, out, _ = run(
            capsys,
            ["thresholds", "--which", "v", "--n", "2:4", "--N", "30", "--gamma", "0"],
        )
        assert code == 0
        _, rows = csv_lines(out)
        assert [row[0] for row in rows] == ["2", "3", "4"]

    @pytest.mark.parametrize(
        "spec",
        [
            ["--which", "w", "--N", "inf"],
            ["--which", "w", "--N", "1e400"],
            ["--which", "v", "--n", "nan"],
            ["--which", "w", "--gamma", "0:inf"],
            ["--which", "w", "--gamma", "nan:1"],
            ["--which", "w", "--gamma", "0:1:inf"],
            ["--which", "w", "--gamma", "0:1:1e-15"],
            ["--which", "w", "--gamma", ",".join(["0"] * 10_001)],
        ],
        ids=["list-inf", "list-overflow", "list-nan", "range-inf-end", "range-nan-start",
             "range-inf-step", "range-oversized", "list-oversized"],
    )
    def test_non_finite_or_oversized_spec_exits_2(self, capsys, spec):
        code, _, err = run(capsys, ["thresholds", *spec])
        assert code == 2
        assert "error" in err

    def test_overflowing_point_fails_alone(self, capsys):
        argv = ["thresholds", "--which", "w", "--N", "10", "--gamma", "1e308,1", "--sigma", "10"]
        code, out, err = run(capsys, argv)
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        error = header.index("error")
        assert "overflow" in rows[0][error]
        assert rows[0][header.index("theta_star")] == "nan"
        assert rows[1][error] == ""
        assert float(rows[1][header.index("theta_star")]) >= 0.0
        assert "gamma=1e+308 failed" in err

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, ["thresholds", "--which", "v", "--n", "2.5", "--N", "30", "--gamma", "0"]
        )
        assert code == 2
        assert "error" in err


class TestInfinite:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, ["infinite", "--n", "1", "--gamma", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["theta_auto"] is True
        assert report["theta"] == 0.0
        assert abs(report["alpha"] - ALPHA_N1_UNIT) <= 1e-15
        assert report["beta"] > 0.0
        assert abs(report["residual_alpha"]) <= 1e-12
        assert abs(report["residual_beta"]) <= 1e-12
        assert report["truncation_len"] >= 2
        assert 0.0 < report["tail_mass"] <= report["eps"]

    def test_sequences_csv(self, capsys, tmp_path):
        target = tmp_path / "seq.csv"
        code, out, _ = run(
            capsys, ["infinite", "--n", "2", "--gamma", "1", "--out", str(target)]
        )
        assert code == 0
        report = json.loads(out)
        lines = target.read_text().splitlines()
        assert lines[0] == "i,v,w"
        assert len(lines) == report["truncation_len"] + 1

    def test_zero_sum_inventories_any_theta(self, capsys, tmp_path):
        target = tmp_path / "seq.csv"
        code, out, _ = run(
            capsys,
            [
                "infinite", "--n", "2", "--gamma", "1", "--theta", "0.7",
                "--inventories", "1,-1", "--out", str(target),
            ],
        )
        assert code == 0
        header, rows = csv_lines(target.read_text())
        assert header == ["i", "v", "w", "xi_1", "xi_2"]
        for row in rows:
            assert row[3] == row[2]  # xi_1 == w exactly

    def test_nonzero_mean_needs_critical_theta(self, capsys):
        code, _, err = run(
            capsys,
            ["infinite", "--n", "2", "--gamma", "1", "--theta", "0.7", "--inventories", "1,1"],
        )
        assert code == 2
        assert "error" in err

    def test_one_stationary_solve_per_run(self, capsys, monkeypatch):
        calls = []
        reference = infinite_game.solve_stationary

        def counting(*args, **kwargs):
            calls.append(args)
            return reference(*args, **kwargs)

        monkeypatch.setattr(infinite_game, "solve_stationary", counting)
        monkeypatch.setattr(cli, "solve_stationary", counting)
        for extra in ([], ["--theta", "0.7", "--inventories", "1,-1"]):
            calls.clear()
            assert run(capsys, ["infinite", "--n", "2", "--gamma", "1", *extra])[0] == 0
            assert len(calls) == 1, extra

    def test_long_truncation_exits_2(self, capsys):
        # rejected before two 27.6M-entry sequences are built
        code, out, err = run(capsys, ["infinite", "--n", "1", "--rho", "1e-6", "--gamma", "1"])
        assert code == 2
        assert out == ""
        assert "27631050 entries" in err

    @pytest.mark.parametrize("rho", ["1e-20", "1e-200"])
    def test_vanishing_decay_rate_exits_3(self, capsys, rho):
        # at 1e-200 the risk term's (1 - e^{-alpha})^2 underflows to 0
        code, out, err = run(capsys, ["infinite", "--n", "2", "--gamma", "1", "--rho", rho])
        assert code == 3
        assert out == ""
        assert "failed to bracket the alpha root" in err

    def test_risk_neutral_rejected(self, capsys):
        code, _, err = run(capsys, ["infinite", "--gamma", "0"])
        assert code == 2
        assert "gamma" in err

    def test_power_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infinite", "--gamma", "1", "--kernel", "power"])
        assert excinfo.value.code == 2


class TestMonteCarlo:
    ARGS = ["montecarlo", "--N", "5", "--count", "300", "--seed", "7"]

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 300
        assert report["seed"] == 7
        assert len(report["moments"]) == 2
        assert len(report["cara"]) == 2
        assert report["max_abs_z"] >= 0.0
        assert report["moments"][0]["agent"] == 0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(capsys, self.ARGS + ["--out", str(first)])[0] == 0
        assert run(capsys, self.ARGS + ["--out", str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_zero_inventories_give_exact_zero_scores(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--inventories", "0,0"])
        assert code == 0
        report = json.loads(out)
        assert report["max_abs_z"] == 0.0

    def test_inventory_count_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, self.ARGS + ["--inventories", "1,2,3"])
        assert code == 2
        assert "error" in err

    def test_oversized_sample_exits_2(self, capsys):
        # rejected before anything of that size is allocated
        code, out, err = run(capsys, self.ARGS + ["--count", "1000000000000"])
        assert code == 2
        assert out == ""
        assert "error" in err
        assert str(simulation._MAX_SAMPLE_COSTS) in err

    def test_one_call_draws_one_sample(self, capsys, monkeypatch):
        # every sample prices the zero path once through realized_costs
        calls = []
        reference = simulation.realized_costs

        def counting(*args):
            calls.append(args)
            return reference(*args)

        monkeypatch.setattr(simulation, "realized_costs", counting)
        assert run(capsys, self.ARGS)[0] == 0
        assert len(calls) == 1


    def test_two_calls_in_one_process_write_independent_outputs(self, capsys, tmp_path):
        # main() reuses one parser: flags of one call must not reach the next
        calls = [
            (self.ARGS + ["--inventories", "1,2", "--out", str(tmp_path / "a.json")], 7),
            (["montecarlo", "--N", "5", "--count", "300", "--seed", "8",
              "--out", str(tmp_path / "b.json")], 8),
        ]
        for argv, _ in calls:
            assert run(capsys, argv) == (0, "", "")
        for argv, seed in calls:
            report = json.loads(pathlib.Path(argv[-1]).read_text())
            params = cli._params_from_args(cli.build_parser().parse_args(argv))
            inventories = [1.0, 2.0] if seed == 7 else [1.0, 1.0]
            eq = nash_equilibrium(params, inventories)
            expected = simulation.validate_moments(params, eq.strategies, 300, seed)
            assert (report["seed"], report["inventories"]) == (seed, inventories)
            assert report["moments"] == [r.to_dict() for r in expected]


class TestLazyLapack:
    def test_import_and_infinite_leave_scipy_unloaded(self):
        script = (
            "import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import impact_game\n"
            "after_import = scipy_modules()\n"
            "from impact_game.cli import main\n"
            "code = main(['infinite', '--n', '2', '--gamma', '1'])\n"
            "print(json.dumps([code, after_import, scipy_modules()]), file=sys.stderr)\n"
        )
        src = str(pathlib.Path(impact_game.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert json.loads(proc.stderr.strip().splitlines()[-1]) == [0, [], []]


class TestStepLimit:
    """An oversized --N is refused before its grid is built."""

    @pytest.fixture
    def grids(self, monkeypatch):
        built = []
        equidistant = TimeGrid.equidistant.__func__

        def counting(cls, steps, horizon=1.0):
            built.append(steps)
            return equidistant(cls, steps, horizon)

        monkeypatch.setattr(TimeGrid, "equidistant", classmethod(counting))
        monkeypatch.setattr(finite_game, "_MAX_DENSE_SIDE", 51)
        return built

    @pytest.mark.parametrize(
        "argv",
        [["equilibrium"], ["montecarlo", "--count", "300"]],
        ids=["equilibrium", "montecarlo"],
    )
    def test_exits_2_before_the_grid(self, capsys, grids, argv):
        code, out, err = run(capsys, [*argv, "--N", "51"])
        assert (code, out, grids) == (2, "", [])
        assert "side 52, above the limit of 51" in err
        assert run(capsys, [*argv, "--N", "50"])[0] == 0
        assert grids == [50]

    def test_thresholds_point_fails_before_the_grid(self, capsys, grids):
        code, out, err = run(capsys, ["thresholds", "--which", "w", "--N", "51,20"])
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert "side 52" in rows[0][header.index("error")]
        assert rows[1][header.index("error")] == ""
        assert "N=51" in err and "side 52" in err
        assert grids == [20, 10, 5]

    @pytest.mark.parametrize("command", ["equilibrium", "montecarlo"])
    def test_steps_past_memory_exit_2(self, capsys, command):
        code, out, err = run(capsys, [command, "--N", "1000000000000"])
        assert (code, out) == (2, "")
        assert "side 1000000000001" in err


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["equilibrium", "thresholds", "infinite", "montecarlo"]
    )
    def test_help_shows_defaults(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "default" in out
