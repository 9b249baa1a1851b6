import json
import math
import os

import pytest

from fracavg.cli import load_config_file, main
from fracavg.errors import ConfigError

FAST = ["--horizon", "0.5", "--step", "0.01"]


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_worked_example_case_a(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run_cli("simulate", "--problem", "eq10", "--case", "a", "--seed", "7",
                       "--out", str(out), *FAST)
        assert code == 0
        captured = capsys.readouterr()
        assert "sup Er" in captured.out
        csv_path = out / "simulate" / "paths" / "path_000000.csv"
        assert csv_path.exists()
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        assert manifest["effective_config"]["beta"] == 0.6
        assert manifest["effective_config"]["master_seed"] == 7

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.conf"
        code = run_cli("simulate", "--config", str(missing))
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_zero_epsilon_rejected(self, tmp_path, capsys):
        code = run_cli("simulate", "--epsilon", "0", "--out", str(tmp_path), *FAST)
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("simulate", "--bogus")
        assert err.value.code == 2

    def test_solver_failure_exits_one(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--problem", "expr", "--beta", "0.75", "--epsilon", "1.0",
            "--x0", "1.0", "--drift", "1e308*(1+x*x)", "--diffusion", "0.0",
            "--avg-drift", "1e308*(1+x*x)", "--avg-diffusion", "0.0",
            "--out", str(tmp_path), *FAST,
        )
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_expr_domain_error_is_a_path_failure(self, tmp_path, capsys):
        # log of a negative state has no real value: the path fails (exit 1),
        # it is not a usage error (exit 2)
        code = run_cli(
            "simulate", "--problem", "expr", "--beta", "0.75", "--epsilon", "0.5",
            "--x0", "-1", "--drift", "log(x)", "--diffusion", "0.1",
            "--avg-drift", "log(x)", "--avg-diffusion", "0.1",
            "--out", str(tmp_path), *FAST,
        )
        assert code == 1
        assert "failed" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "simulate" / "manifest.json").read_text())
        assert manifest["failures"] == [{"path": 0, "step": 1, "time": 0.01, "system": "original"}]
        assert not (tmp_path / "simulate" / "report.json").exists()

    def test_compensated_expr_rejects_averaged_jump_drift(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--problem", "expr", "--beta", "0.75", "--epsilon", "0.5",
            "--x0", "1.0", "--drift", "0.1*x", "--diffusion", "0.1",
            "--jump", "z*x", "--jump-mode", "compensated_prm",
            "--gamma", "1.0", "--alpha", "0.5", "--cutoff", "0.5",
            "--avg-drift", "0.1*x", "--avg-diffusion", "0.1", "--avg-jump-drift", "0.2*x",
            "--out", str(tmp_path), *FAST,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "avg_jump_drift_expr cannot be used with jump_mode compensated_prm" in err
        assert "needs the averaged jump coefficient itself" in err
        assert not (tmp_path / "simulate").exists()

    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("simulate", "--case", "b", "--seed", "3", "--out", str(out_a), *FAST) == 0
        manifest = out_a / "simulate" / "manifest.json"
        assert run_cli("simulate", "--config", str(manifest), "--out", str(out_b)) == 0
        report_a = (out_a / "simulate" / "report.json").read_bytes()
        report_b = (out_b / "simulate" / "report.json").read_bytes()
        assert report_a == report_b

    def test_expr_problem_round_trip(self, tmp_path):
        out = tmp_path / "expr"
        code = run_cli(
            "simulate", "--problem", "expr", "--beta", "0.75", "--epsilon", "0.5",
            "--x0", "1.0", "--drift", "x*cos(t)**2", "--diffusion", "0.1",
            "--avg-drift", "0.5*x", "--avg-diffusion", "0.1",
            "--out", str(out), *FAST,
        )
        assert code == 0
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        assert manifest["effective_config"]["drift_expr"] == "x*cos(t)**2"

    def test_expr_problem_with_compensated_jumps(self, tmp_path):
        # no closed-form rate supplied: the solver integrates the compensator
        # with the measure's shell table at every step, with simulated events
        out = tmp_path / "expr_jump"
        code = run_cli(
            "simulate", "--problem", "expr", "--beta", "0.75", "--epsilon", "0.5",
            "--x0", "1.0", "--drift", "0.1*x", "--diffusion", "0.1",
            "--jump", "z*x", "--jump-mode", "compensated_prm",
            "--gamma", "1.0", "--alpha", "0.5", "--cutoff", "0.5", "--delta", "0.05",
            "--avg-drift", "0.1*x", "--avg-diffusion", "0.1",
            "--out", str(out), *FAST,
        )
        assert code == 0
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        assert manifest["effective_config"]["jump_mode"] == "compensated_prm"
        assert manifest["effective_config"]["delta"] == 0.05


class TestConfigFile:
    def test_flat_key_value_parsing(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# an experiment\n"
            "problem = eq10\n"
            "case = c\n"
            "epsilon = 1e-3\n"
            "n_paths = 2\n"
            "horizon = 0.5\n"
            "step = 0.01\n"
        )
        values = load_config_file(config)
        assert values == {
            "problem": "eq10",
            "case": "c",
            "epsilon": 1e-3,
            "n_paths": 2,
            "horizon": 0.5,
            "step": 0.01,
        }

    def test_unknown_key_names_line(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("problem = eq10\nwhatever = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(config)
        assert "run.conf:2" in str(err.value)
        assert "whatever" in str(err.value)

    def test_malformed_line(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("problem eq10\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(config)
        assert "run.conf:1" in str(err.value)

    def test_config_file_drives_simulation(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("case = b\nhorizon = 0.5\nstep = 0.01\nmaster_seed = 9\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 0
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        assert manifest["effective_config"]["alpha"] == 1.1
        assert manifest["effective_config"]["master_seed"] == 9

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("case = b\nhorizon = 0.5\nstep = 0.01\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config), "--case", "d",
                       "--out", str(out)) == 0
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        assert manifest["effective_config"]["beta"] == 0.85
        assert manifest["effective_config"]["alpha"] == 1.9


class TestAverage:
    def test_worked_example_prints_gamma1(self, tmp_path, capsys):
        out = tmp_path / "avg"
        code = run_cli(
            "average", "--case", "a", "--out", str(out),
            "--t1-grid", "10,50", "--probes", "0.1,1.0",
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "gamma1 = 1.972915781" in captured
        assert "(1 + gamma1) = 2.972915781" in captured
        report = json.loads((out / "average" / "hypothesis.json").read_text())
        assert report["envelope"]["decay_flags"]["alpha1"] == "decays"

    def test_already_averaged_problem_all_zero(self, tmp_path, capsys):
        out = tmp_path / "avg"
        code = run_cli(
            "average", "--problem", "mlbench", "--beta", "0.75", "--x0", "1.0",
            "--out", str(out), "--t1-grid", "5,25", "--probes", "1.0",
        )
        assert code == 0
        report = json.loads((out / "average" / "hypothesis.json").read_text())
        assert max(report["envelope"]["alpha1"]) == 0.0
        assert report["envelope"]["decay_flags"]["alpha1"] == "all_zero"

    def test_single_horizon_insufficient_data(self, tmp_path, capsys):
        out = tmp_path / "avg"
        code = run_cli(
            "average", "--case", "a", "--out", str(out),
            "--t1-grid", "10", "--probes", "1.0",
        )
        assert code == 0
        assert "insufficient_data" in capsys.readouterr().out


class TestBound:
    def test_zero_alphas_zero_bound(self, tmp_path, capsys):
        out = tmp_path / "bound"
        code = run_cli("bound", "--c1", "1.0", "--alphas", "0,0,0", "--out", str(out))
        assert code == 0
        captured = capsys.readouterr().out
        assert "bound = 0" in captured
        data = json.loads((out / "bound" / "bound.json").read_text())
        assert data["bounds"] == [0.0, 0.0, 0.0]

    def test_wrong_alpha_count(self, capsys):
        assert run_cli("bound", "--c1", "1.0", "--alphas", "0.1,0.2") == 2

    def test_bound_values_decrease(self, tmp_path, capsys):
        out = tmp_path / "bound"
        code = run_cli(
            "bound", "--c1", "1.0", "--alphas", "0.1,0.1,0.1", "--z-moment", "2.0",
            "--beta", "0.75", "--epsilons", "1e-2,1e-3,1e-4", "--out", str(out),
        )
        assert code == 0
        data = json.loads((out / "bound" / "bound.json").read_text())
        assert data["bounds"][0] > data["bounds"][1] > data["bounds"][2]


    def test_bound_beyond_float64_writes_strict_json(self, tmp_path, capsys):
        out = tmp_path / "bound"
        code = run_cli(
            "bound", "--c1", "50", "--alphas", "0.1,0.1,0.1", "--z-moment", "2",
            "--beta", "0.6", "--out", str(out),
        )
        assert code == 0
        assert "beyond float64" in capsys.readouterr().out

        def reject(name):
            raise AssertionError(f"bound.json holds {name}")

        data = json.loads((out / "bound" / "bound.json").read_text(), parse_constant=reject)
        assert data["bounds"][:2] == [None, None]
        assert data["bounds"][2] > 0.0
        assert all(math.isfinite(v) for v in data["log10_bounds"])

    def test_bound_whose_log_overflows_exits_1(self, tmp_path, capsys):
        code = run_cli(
            "bound", "--c1", "1e100", "--alphas", "0.1,0.1,0.1", "--beta", "0.6",
            "--out", str(tmp_path / "bound"),
        )
        assert code == 1
        assert "overflowed" in capsys.readouterr().err


class TestStudy:
    def test_two_epsilons_rejected(self, capsys):
        code = run_cli("study", "--epsilons", "1e-2,1e-4")
        assert code == 2
        assert "3" in capsys.readouterr().err

    def test_small_study_prints_slope(self, tmp_path, capsys):
        out = tmp_path / "study"
        code = run_cli(
            "study", "--case", "a", "--epsilons", "1e-2,1e-3,1e-4",
            "--paths", "8", "--out", str(out), *FAST,
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "fitted log-log slope" in captured
        report = json.loads((out / "study" / "report.json").read_text())
        assert report["fitted_rate"] is not None


class TestFig1:
    def test_single_case(self, tmp_path, capsys):
        out = tmp_path / "f"
        code = run_cli("fig1", "--case", "c", "--paths", "2", "--seed", "5",
                       "--out", str(out), *FAST)
        assert code == 0
        assert (out / "fig1_c" / "paths" / "path_000000.csv").exists()
        manifest = json.loads((out / "fig1_c" / "manifest.json").read_text())
        assert manifest["effective_config"]["beta"] == 0.85
        assert manifest["effective_config"]["gamma"] == 0.6


class TestWorkersEnv:
    def test_env_var_sets_default_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACAVG_WORKERS", "3")
        out = tmp_path / "runs"
        assert run_cli("simulate", "--case", "a", "--out", str(out), *FAST) == 0
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        # simulate is single-path and forces one worker, but the env default
        # must parse cleanly; study-style commands pick it up from the config
        assert manifest["effective_config"]["workers"] == 1

    def test_env_var_flows_into_study_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FRACAVG_WORKERS", "2")
        out = tmp_path / "study"
        code = run_cli(
            "study", "--case", "a", "--epsilons", "1e-2,1e-3,1e-4",
            "--paths", "4", "--out", str(out), *FAST,
        )
        assert code == 0
        manifest = json.loads((out / "study" / "manifest.json").read_text())
        assert manifest["effective_config"]["workers"] == 2
