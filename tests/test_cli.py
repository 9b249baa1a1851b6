import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys
import warnings

import pytest

from fracavg import averaging, cli, harness, levy
from fracavg.averaging import theorem_bound
from fracavg.cli import load_config_file, main
from fracavg.errors import ConfigError
from fracavg.harness import ExperimentConfig

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

    @pytest.mark.parametrize("flag, value", [("--horizon", "inf"), ("--horizon", "nan"), ("--step", "nan")])
    def test_non_finite_grid_is_a_config_error(self, flag, value, tmp_path, capsys):
        # refused by name before any solve: exit 2, not a traceback
        code = run_cli("simulate", flag, value, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "must be finite" in err
        assert not (tmp_path / "simulate").exists()

    @pytest.mark.parametrize(
        "measure",
        [
            ["--jump-mode", "compensated_prm", "--gamma", "1", "--cutoff", "inf", "--delta", "0.1"],
            ["--gamma", "nan"],
            ["--gamma", "inf"],
        ],
        ids=["cutoff_inf_compensated", "gamma_nan", "gamma_inf"],
    )
    def test_non_finite_jump_measure_exits_2_without_a_run_directory(self, measure, tmp_path, capsys):
        # an infinite cutoff made the shell cuts grow without end; a
        # non-finite gamma failed every path in the solve
        code = run_cli(
            "simulate", "--problem", "expr", "--drift=-x", "--diffusion", "1", "--avg-drift=-x",
            "--avg-diffusion", "1", "--jump", "z*x", "--alpha", "0.5", *measure, "--horizon", "1",
            "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid value: ") and "must be positive and finite" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "simulate").exists()

    def test_huge_finite_cutoff_solves_as_a_moderate_one(self, tmp_path, capsys):
        # the product of two shell cuts beyond ~1.3e154 overflows; the measure
        # above 1e100 holds too little mass to change a single bit
        sup_er = {}
        for cutoff in ("1e300", "1e100"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run_cli(
                    "simulate", "--problem", "expr", "--jump-mode", "compensated_prm", "--drift=-x",
                    "--diffusion", "1", "--avg-drift=-x", "--avg-diffusion", "1", "--jump", "z*x", "--gamma",
                    "1", "--alpha", "1.5", "--cutoff", cutoff, "--delta", "0.1", "--horizon", "1",
                    "--out", str(tmp_path / cutoff),
                )
            assert code == 0, capsys.readouterr().err
            sup_er[cutoff] = json.loads((tmp_path / cutoff / "simulate" / "report.json").read_text())["per_path_sup_er"]
        assert sup_er["1e300"] == sup_er["1e100"]

    def test_eq10_refuses_the_compensated_jump_mode(self, tmp_path, capsys):
        code = run_cli("simulate", "--case", "a", "--jump-mode", "compensated_prm", "--out", str(tmp_path), *FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: jump_mode compensated_prm is not available on eq10")
        assert "deterministic_nu_drift" in err and err.count("\n") == 1
        assert not (tmp_path / "simulate").exists()

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

    def test_printed_sup_er_is_the_finite_gap(self, tmp_path, capsys):
        # a gap of ~6.5e199, whose square overflows: the printed sup|X - Z| is the report's
        code = run_cli(
            "simulate", "--problem", "expr", "--beta", "0.75", "--epsilon", "1", "--x0", "0",
            "--drift", "1e200", "--diffusion", "0", "--avg-drift", "0", "--avg-diffusion", "0",
            "--horizon", "0.5", "--step", "0.1", "--out", str(tmp_path),
        )
        assert code == 0
        printed = float(re.search(r"sup Er = (\S+)$", capsys.readouterr().out, re.M)[1])
        report = json.loads((tmp_path / "simulate" / "report.json").read_text())
        assert math.isfinite(printed) and printed == float(f"{report['per_path_sup_er'][0]:.6g}")

    def test_overflow_fails_at_the_step_whose_state_passes_the_float_maximum(self, tmp_path, capsys):
        # mlbench is deterministic and linear, so its states from x0 = 1e307
        # are 1e307 times those from x0 = 1: the run fails at the first step
        # where that product passes the largest float, not before
        args = ("--problem", "mlbench", "--beta", "0.6", "--epsilon", "1", "--horizon", "10", "--step", "1e-2")
        assert run_cli("simulate", *args, "--x0", "1", "--out", str(tmp_path / "unit")) == 0
        capsys.readouterr()
        with open(tmp_path / "unit" / "simulate" / "paths" / "path_000000.csv", newline="") as fh:
            unit = [(float(row["t"]), float(row["X_1"])) for row in csv.DictReader(fh)]
        step = next(n for n, (_, x) in enumerate(unit) if 1e307 * x > sys.float_info.max)
        code = run_cli("simulate", *args, "--x0", "1e307", "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("run failed: ")
        manifest = json.loads((tmp_path / "simulate" / "manifest.json").read_text())
        assert manifest["failures"] == [{"path": 0, "step": step, "time": unit[step][0], "system": "original"}]

    def test_too_many_expected_events_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_draws(*key):
            raise AssertionError(f"noise stream {key} drawn")

        monkeypatch.setattr(levy, "noise_stream", no_draws)
        code = run_cli(
            "simulate", "--problem", "expr", "--drift=-x", "--diffusion", "0.5",
            "--jump", "z*x", "--jump-mode", "compensated_prm", "--gamma", "1", "--alpha", "1.7",
            "--cutoff", "1", "--delta", "1e-5", "--avg-drift=-x", "--avg-diffusion", "0.5",
            "--horizon", "1", "--step", "0.01", "--out", str(tmp_path),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: the jump measure expects 1.86e+08 events")
        assert not (tmp_path / "simulate").exists()

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

    def test_expression_that_cannot_be_evaluated_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--problem", "expr", "--drift", "1/0", "--diffusion", "1",
            "--avg-drift", "x", "--avg-diffusion", "1", "--horizon", "1", "--step", "0.1",
            "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'1/0'" in err
        assert not (tmp_path / "simulate").exists()

    def test_expression_nested_too_deeply_to_compile_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--problem", "expr", "--drift", "+".join(["x"] * 5000), "--diffusion", "1",
            "--avg-drift", "x", "--avg-diffusion", "1", "--horizon", "1", "--step", "0.1",
            "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: coefficient expression 'x+x+")
        assert "nested too deeply to compile" in err and "Traceback" not in err
        assert len(err.encode()) < 200  # the source quoted by its start and length
        assert not (tmp_path / "simulate").exists()

    def test_expr_problem_without_drift_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--problem", "expr", "--diffusion", "1", "--avg-drift", "x",
            "--avg-diffusion", "1", "--horizon", "1", "--step", "0.1", "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: expr problems need drift_expr and diffusion_expr\n"
        assert not (tmp_path / "simulate").exists()

    def test_flag_that_simulate_overrides_exits_2(self, tmp_path, capsys):
        out = tmp_path / "runs"
        for flag, value in (("--paths", "2"), ("--workers", "3")):
            assert run_cli("simulate", flag, value, "--out", str(out), *FAST) == 2
            assert f"{flag} {value}" in capsys.readouterr().err
        assert not out.exists()  # refused before any solve
        # values from a config file are replaced silently: a fig1-style file still runs
        config = tmp_path / "ensemble.cfg"
        config.write_text("n_paths = 200\nworkers = 2\n")
        assert run_cli("simulate", "--config", str(config), "--out", str(out), *FAST) == 0
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        assert manifest["effective_config"]["n_paths"] == 1
        assert manifest["effective_config"]["workers"] == 1

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

    def test_beta_flag_conflicting_with_case_preset_exits_2(self, tmp_path, capsys):
        # the default eq10 case a fixes beta = 0.6 and alpha = 0.3; the flags
        # must not be dropped silently
        code = run_cli("simulate", "--beta", "0.7", "--alpha", "1.5", "--horizon", "1",
                       "--step", "0.1", "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "beta = 0.7" in err and "beta = 0.6" in err and "case 'a'" in err
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

    def test_unknown_jump_mode_exits_2_without_a_run_directory(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("jump_mode = bogus\nhorizon = 0.5\nstep = 0.01\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "config error: jump_mode must be one of compensated_prm, deterministic_nu_drift; got 'bogus'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5", "null"])
    def test_a_json_config_that_is_no_object_of_keys_exits_2(self, value, tmp_path, capsys):
        config = tmp_path / "manifest.json"
        config.write_text(f'{{"effective_config": {value}}}\n')
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config), "--horizon", "1", "--step", "0.1", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"config error: {config}: effective_config must be an object of config keys; got {json.loads(value)!r}\n"
        )
        assert not out.exists()

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


    def test_config_file_conflicting_with_case_preset_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("case = d\ngamma = 0.6\nhorizon = 0.5\nstep = 0.01\n")
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "gamma = 0.6" in err and "gamma = 3.0" in err and "case 'd'" in err

    def test_case_none_takes_beta_alpha_gamma_from_the_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("case = none\nbeta = 0.7\nalpha = 1.5\nhorizon = 0.5\nstep = 0.01\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 0
        cfg = json.loads((out / "simulate" / "manifest.json").read_text())["effective_config"]
        assert (cfg["case"], cfg["beta"], cfg["alpha"], cfg["gamma"]) == (None, 0.7, 1.5, 3.0)

    def test_bound_alphas_comma_list(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("bound_c1 = 1.0\nbound_alphas = 0.05,0.0,0.05\n")
        assert load_config_file(config) == {"bound_c1": 1.0, "bound_alphas": (0.05, 0.0, 0.05)}
        config.write_text("bound_alphas = none\n")
        assert load_config_file(config) == {"bound_alphas": None}

    def test_bound_alphas_in_a_file_reach_the_report(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "bound_c1 = 1.0\nbound_alphas = 0.05,0.0,0.05\nhorizon = 0.5\nstep = 0.01\n"
        )
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "simulate" / "report.json").read_text())
        assert report["bound_value"] > 0.0

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("bound_c1 = 1.0\nbound_alphas = 0.05\n", "three bound_alphas"),
            ("bound_c1 = 1.0\nbound_alphas = 0.05,0.0,inf\n", "three bound_alphas"),
            ("bound_c1 = 1.0\nbound_alphas = 0.05,-0.1,0.05\n", "three bound_alphas"),
            ("bound_c1 = 1.0\nbound_alphas = 0.05,x,0.05\n", "comma-separated list"),
            ("bound_alphas = 0.05,0.0,0.05\n", "given together"),
        ],
    )
    def test_bad_bound_inputs_exit_2_before_solving(self, tmp_path, capsys, lines, message):
        config = tmp_path / "run.conf"
        config.write_text(lines + "horizon = 0.5\nstep = 0.01\n")
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "simulate").exists()

    EXPR_FILE = "problem = expr\ncase = none\ndiffusion_expr = 1\navg_drift_expr = 5\navg_diffusion_expr = 1\n"

    @pytest.mark.parametrize(
        "command, name, text, refusal",
        [
            ("simulate", "run.conf", EXPR_FILE + "drift_expr = 5\nhorizon = 1\nstep = 0.1\n", None),
            ("study", "run.conf", "epsilon = small\nn_paths = 2\n", "epsilon must be a number; got 'small'"),
            ("study", "run.conf", "n_paths = 2.5\n", "n_paths must be an integer; got 2.5"),
            ("simulate", "manifest.json", '{"effective_config": {"horizon": 1, "step": "0.1"}}',
             "step must be a number; got '0.1'"),
            ("simulate", "manifest.json", '{"effective_config": {"case": ["a"]}}',
             "case must be a string or none; got ['a']"),
            ("simulate", "run.conf", "master_seed = 1.5\nhorizon = 1\nstep = 0.1\n",
             "master_seed must be an integer; got 1.5"),
        ],
        ids=["expr_text", "epsilon_text", "n_paths_float", "manifest_step_text", "manifest_case_list",
             "master_seed_float"],
    )
    def test_values_of_the_wrong_type(self, command, name, text, refusal, tmp_path, capsys):
        # a string field keeps the text; a value of the wrong type is refused by its key
        # before anything runs: exit 2, one config error line, no run directory
        config = tmp_path / name
        config.write_text(text)
        out = tmp_path / "out"
        extra = ["--epsilons", "0.1,0.01,0.001", "--horizon", "1", "--step", "0.1"] if command == "study" else []
        code = run_cli(command, "--config", str(config), "--out", str(out), *extra)
        if refusal is None:
            assert code == 0
            manifest = json.loads((out / command / "manifest.json").read_text())
            assert manifest["effective_config"]["drift_expr"] == "5"
            return
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {refusal}"]
        assert not out.exists()

    def test_expression_with_a_comma_stays_a_string(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("problem = expr\ndrift_expr = max(x, 0)\njump_expr = min(z, x, 1)\n")
        values = load_config_file(config)
        assert values["drift_expr"] == "max(x, 0)"
        assert values["jump_expr"] == "min(z, x, 1)"


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

    def test_expr_problem_prints_no_eq10_folded_coefficient(self, tmp_path, capsys):
        # (1 + gamma1) is eq10's averaged drift coefficient, whose averaged
        # drift is x; this problem's averaged drift is -x
        out = tmp_path / "avg"
        code = run_cli(
            "average", "--problem", "expr", "--drift=-x*(1+cos(t))", "--diffusion", "0.5",
            "--avg-drift=-x", "--avg-diffusion", "0.5", "--jump", "z**2*x*sin(t)**2", "--gamma", "1",
            "--alpha", "0.8", "--cutoff", "0.5", "--epsilon", "0.01", "--t1-grid", "10,100",
            "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "gamma1 = 1.813647007\n" in captured
        assert "(1 + gamma1)" not in captured

    def test_closed_form_jump_drift_is_averaged_without_nu_integrals(self, tmp_path, capsys, monkeypatch):
        # eq10's jump drift has a closed form: its time average needs no
        # integral against the measure (the hypothesis probes still make theirs)
        calls, before_probes = [], []
        integral = levy.nu_integral
        counting = lambda *args, **kwargs: calls.append(1) or integral(*args, **kwargs)
        monkeypatch.setattr(levy, "nu_integral", counting)
        monkeypatch.setattr(averaging, "nu_integral", counting)
        probe = cli.probe_hypotheses
        monkeypatch.setattr(cli, "probe_hypotheses", lambda *a, **k: before_probes.append(len(calls)) or probe(*a, **k))
        out = tmp_path / "avg"
        code = run_cli("average", "--case", "a", "--out", str(out), "--t1-grid", "10,50", "--probes", "0.1,1.0")
        assert code == 0
        assert before_probes == [0] and calls
        captured = capsys.readouterr().out
        assert "averaged jump drift per unit state: 0.062389075\n" in captured
        assert "gamma1 = 1.972915781\n" in captured

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

    def test_a_drift_that_is_its_own_average_reads_all_zero(self, tmp_path, capsys):
        # the time quadrature of -x rounds to one ulp off -x at some probes
        # and horizons: that residual counts as zero, not as a trend
        out = tmp_path / "avg"
        code = run_cli(
            "average", "--problem", "expr", "--drift=-x", "--diffusion", "0.5", "--jump", "z**2*x*sin(t)**2",
            "--jump-mode", "deterministic_nu_drift", "--gamma", "1", "--alpha", "0.8", "--cutoff", "0.5",
            "--avg-drift=-x", "--avg-diffusion", "0.5", "--horizon", "1", "--step", "0.01",
            "--t1-grid", "10,100", "--probes", "0.1,10", "--out", str(out),
        )
        assert code == 0, capsys.readouterr().err
        envelope = json.loads((out / "average" / "hypothesis.json").read_text())["envelope"]
        assert envelope["alpha1"] == [0.0, 0.0]
        assert envelope["decay_flags"]["alpha1"] == "all_zero"

    def test_time_power_overflows_to_inf(self, tmp_path, capsys):
        # time_average hands t over as a Python float; t**200 must overflow
        # to inf, not raise OverflowError
        out = tmp_path / "avg"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = run_cli(
                "average", "--problem", "expr", "--drift", "x*t**200", "--diffusion", "1",
                "--avg-drift", "x", "--avg-diffusion", "1", "--horizon", "1", "--step", "0.1",
                "--out", str(out),
            )
        assert code == 0
        assert "time-averaged drift at x0=0.1: inf" in capsys.readouterr().out
        report = json.loads((out / "average" / "hypothesis.json").read_text())
        assert report["envelope"]["alpha1"] == [math.inf] * 3

    def test_compensated_problem_has_no_open_range_jump_drift(self, tmp_path, capsys):
        # z x on alpha 1.7 integrates over [delta, cutoff) only: its integral
        # over (0, cutoff) diverges, so average prints no jump drift or gamma1
        out = tmp_path / "avg"
        code = run_cli(
            "average", "--problem", "expr", "--drift=-x", "--diffusion", "0.5", "--jump", "z*x",
            "--jump-mode", "compensated_prm", "--gamma", "1", "--alpha", "1.7", "--cutoff", "0.5",
            "--delta", "0.01", "--avg-drift=-x", "--avg-diffusion", "0.5", "--horizon", "1",
            "--step", "0.01", "--t1-grid", "10", "--probes", "0.1,1", "--out", str(out),
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "gamma1" not in captured.out and "jump drift" not in captured.out
        report = json.loads((out / "average" / "hypothesis.json").read_text())
        assert report["spec_params"]["alpha"] == 1.7 and report["lipschitz_estimate"] > 0.0

    @pytest.mark.parametrize(
        "flag, value", [("--avg-horizon", "inf"), ("--avg-horizon", "nan"), ("--t1-grid", "inf")]
    )
    def test_non_finite_averaging_horizon_exits_2(self, flag, value, tmp_path, capsys):
        code = run_cli("average", "--case", "a", "--probes", "1.0", flag, value, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"invalid value: averaging horizon must be positive and finite; got {value}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "0.1,-inf"])
    def test_non_finite_probe_exits_2_before_any_integral(self, value, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "time_average", lambda *a, **k: calls.append(a))
        code = run_cli("average", "--case", "a", "--probes", value, "--out", str(tmp_path))
        assert code == 2 and calls == []
        err = capsys.readouterr().err
        assert err.startswith("invalid value: probe states must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "average"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_x0_exits_2(self, command, value, tmp_path, capsys):
        code = run_cli(command, "--x0", value, "--out", str(tmp_path), *FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: x0 must be finite; got {value}\n"
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize(
        "flag, value", [("--probes", ","), ("--t1-grid", ","), ("--t1-grid", "0"), ("--avg-horizon", "inf")]
    )
    def test_refused_input_prints_and_creates_nothing(self, flag, value, tmp_path, capsys):
        code = run_cli("average", "--case", "a", flag, value, "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("invalid value: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "average").exists()

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

    def test_unset_constants_take_the_defaults_of_theorem_bound(self, tmp_path, capsys):
        out = tmp_path / "bound"
        assert run_cli("bound", "--c1", "50", "--alphas", "0.1,0.1,0.1", "--out", str(out)) == 0
        data = json.loads((out / "bound" / "bound.json").read_text())
        expected = theorem_bound(50.0, (0.1, 0.1, 0.1), 2.0, beta=0.75, epsilon=[1e-2, 1e-3, 1e-4])
        assert data["bounds"] == expected.bounds

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--z-moment", "inf", "z_moment"), ("--z-moment", "nan", "z_moment"),
         ("--c1", "nan", "c1"), ("--alphas", "0,nan,0", "alpha_sups")],
    )
    def test_non_finite_input_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value, name):
        args = {"--c1": "50", "--alphas": "0,0,0", flag: value}
        out = tmp_path / "bound"
        assert run_cli("bound", *(a for kv in args.items() for a in kv), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid value: {name} must be finite")
        assert not (out / "bound" / "bound.json").exists()

    def test_empty_epsilon_list_exits_2_and_writes_nothing(self, tmp_path, capsys):
        code = run_cli("bound", "--c1", "50", "--alphas", "0.1,0.1,0.1", "--epsilons", ",", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == "invalid value: epsilon must hold at least one value\n"
        assert not (tmp_path / "bound").exists()

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

    def test_constants_overflowing_float64_exit_1(self, tmp_path, capsys):
        # c1**2 alone exceeds float64: a typed refusal, not a traceback
        code = run_cli("bound", "--c1", "1e200", "--alphas", "0.1,0.1,0.1",
                       "--out", str(tmp_path / "bound"))
        assert code == 1
        assert "overflow float64" in capsys.readouterr().err
        assert not (tmp_path / "bound").exists()

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

    def test_zero_epsilon_exits_2_without_a_run_directory(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run_cli("study", "--epsilons", "0.1,0.01,0", "--out", str(out), *FAST)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: epsilon must lie in (0, 1]; got 0.0 in the study grid"]
        assert not out.exists()

    def test_explicit_epsilon_exits_2_without_a_run_directory(self, tmp_path, capsys):
        # the study replaces epsilon by each value of its grid, as simulate replaces --paths
        out = tmp_path / "runs"
        code = run_cli("study", "--epsilon", "0.5", "--epsilons", "0.1,0.01,0.001", "--out", str(out), *FAST)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "--epsilon 0.5" in err[0]
        assert not out.exists()
        # an epsilon from a config file is replaced silently
        config = tmp_path / "run.conf"
        config.write_text("epsilon = 0.5\n")
        code = run_cli("study", "--config", str(config), "--epsilons", "0.1,0.01,0.001", "--paths", "2",
                       "--out", str(out), *FAST)
        assert code == 0
        manifest = json.loads((out / "study" / "manifest.json").read_text())
        assert manifest["effective_config"]["epsilon"] == 0.001

    def test_a_number_for_epsilon_in_the_config_file_is_replaced_by_the_grid(self, tmp_path):
        # even one outside (0, 1]: the study never runs at it
        config = tmp_path / "run.conf"
        config.write_text("epsilon = 5\n")
        out = tmp_path / "runs"
        code = run_cli("study", "--config", str(config), "--epsilons", "0.1,0.01,0.001", "--paths", "2",
                       "--out", str(out), *FAST)
        assert code == 0
        manifest = json.loads((out / "study" / "manifest.json").read_text())
        assert manifest["effective_config"]["epsilon"] == 0.001

    def test_overflowing_study_refuses_the_fit_without_nan(self, tmp_path, capsys):
        # every sup-square overflows to inf: the fit is refused, and report.json stays strict JSON
        out = tmp_path / "runs"
        code = run_cli(
            "study", "--problem", "expr", "--beta", "0.75", "--epsilons", "1,0.1,0.01", "--x0", "0",
            "--drift", "1e200", "--diffusion", "0", "--avg-drift", "0", "--avg-diffusion", "0",
            "--horizon", "0.5", "--step", "0.1", "--paths", "2", "--out", str(out),
        )
        assert code == 0
        assert "fit refused: non_finite_error" in capsys.readouterr().out.splitlines()
        text = (out / "study" / "report.json").read_text()
        assert "NaN" not in text
        report = json.loads(text)
        assert report["fitted_rate"] is None and report["degenerate_fit"] == "non_finite_error"
        assert report["ci_by_epsilon"] == [math.inf] * 3

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


    def test_config_file_reaches_fig1(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("step = 0.1\n")
        out = tmp_path / "f"
        code = run_cli("fig1", "--case", "a", "--paths", "2", "--horizon", "1",
                       "--config", str(config), "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "fig1_a" / "manifest.json").read_text())
        assert manifest["effective_config"]["step"] == 0.1

    def test_config_file_case_selects_that_case(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("case = b\nstep = 0.1\n")
        out = tmp_path / "f"
        code = run_cli("fig1", "--paths", "2", "--horizon", "1", "--config", str(config),
                       "--out", str(out))
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["fig1_b"]
        manifest = json.loads((out / "fig1_b" / "manifest.json").read_text())
        assert manifest["effective_config"]["case"] == "b"
        assert manifest["effective_config"]["alpha"] == 1.1

    def test_config_file_case_none_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("case = none\n")
        out = tmp_path / "f"
        assert run_cli("fig1", "--paths", "2", "--config", str(config), "--out", str(out)) == 2
        assert "case = none" in capsys.readouterr().err
        assert not out.exists()


# parser destinations of the run commands that are not ExperimentConfig fields
NON_CONFIG_DESTS = {"help", "config", "out", "epsilons", "avg_horizon", "t1_grid", "probes"}
# a value other than the field's default for every flag of a run command
FLAG_VALUES = {
    "problem": "mlbench", "case": "c", "beta": "0.7", "alpha": "1.5", "gamma": "2.5",
    "cutoff": "0.25", "delta": "0.01", "epsilon": "0.5", "x0": "0.3", "horizon": "2.0",
    "step": "0.05", "n_paths": "7", "master_seed": "9", "workers": "3",
    "drift_expr": "0.5*x", "diffusion_expr": "0.2", "jump_expr": "z*x",
    "avg_drift_expr": "0.5*x", "avg_diffusion_expr": "0.2", "avg_jump_drift_expr": "0.1*x",
    "jump_mode": "compensated_prm",
}
REQUIRED_FLAGS = {"study": ["--epsilons", "1e-2,1e-3,1e-4"]}


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[command]


class TestFlagsReachConfig:
    """Every experiment flag of a run command lands in its config field; no solve runs."""

    @pytest.mark.parametrize("command", ["simulate", "average", "study", "fig1"])
    def test_every_flag_is_a_config_field(self, command, tmp_path, monkeypatch):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        actions = [a for a in _subparser(command)._actions if a.dest not in NON_CONFIG_DESTS]
        assert {a.dest for a in actions} <= fields
        defaults = ExperimentConfig()
        for action in actions:
            text = FLAG_VALUES[action.dest]
            expected = action.type(text) if action.type else text
            assert expected != getattr(defaults, action.dest)
            argv = [command, *REQUIRED_FLAGS.get(command, []), action.option_strings[0], text]
            if action.dest in ("beta", "alpha", "gamma", "jump_mode"):
                # eq10 presets fix the first three, and eq10 refuses compensated_prm
                argv += ["--problem", "mlbench"]
            for cfg in _configs(argv, tmp_path, monkeypatch):
                assert getattr(cfg, action.dest) == expected, (command, action.dest)

    @pytest.mark.parametrize("command", ["simulate", "average", "study", "fig1"])
    def test_environment_sets_no_worker_count(self, command, tmp_path, monkeypatch):
        # the worker count comes from --workers or the config file only
        monkeypatch.setenv("FRACAVG_WORKERS", "3")
        for cfg in _configs([command, *REQUIRED_FLAGS.get(command, [])], tmp_path, monkeypatch):
            assert cfg.workers == 1, command


def _configs(argv, tmp_path, monkeypatch):
    """The resolved configs a run command builds, without solving."""
    if argv[0] != "fig1":
        return [cli._config_from_args(cli.build_parser().parse_args(argv))]
    seen = []
    monkeypatch.setattr(harness, "run_ensemble", lambda cfg, **kwargs: seen.append(cfg.resolved()))
    assert main([*argv, "--out", str(tmp_path)]) == 0
    return seen
