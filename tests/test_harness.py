import dataclasses
import json
import math
import os
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracavg import harness, solver
from fracavg.errors import ConfigError, ConvergenceError, RunFailedError
from fracavg.harness import (
    BLOCK_SIZE,
    ExperimentConfig,
    convergence_study,
    fit_rate,
    reproduce_fig1,
    run_ensemble,
)
from fracavg.levy import NoiseBlock, TimeGrid, sample_noise
from fracavg.problems import FIG1_CASES, build_eq10, build_problem, jump_drift_scale
from fracavg.solver import solve_coupled

TINY = ExperimentConfig(case="a", n_paths=4, horizon=1.0, step=0.02, master_seed=7, save_paths=0)

FRAGILE = ExperimentConfig(
    problem="expr",
    case=None,
    beta=0.75,
    epsilon=0.09,
    x0=0.0,
    horizon=1.0,
    step=0.02,
    n_paths=30,
    master_seed=11,
    save_paths=0,
    drift_expr="30*x**5",
    diffusion_expr="1.0",
    avg_drift_expr="30*x**5",
    avg_diffusion_expr="1.0",
)

# compensated jumps without a closed-form rate: the shell table settles a
# smooth jump coefficient; a kink inside a half-shell, such as abs(z-0.1)*x,
# sends every path at every step back to adaptive quadrature
COMPENSATED = ExperimentConfig(
    problem="expr", case=None, jump_mode="compensated_prm", jump_expr="z*x",
    gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75, x0=1.0, epsilon=0.5,
    drift_expr="-x", diffusion_expr="0.1", avg_drift_expr="-x", avg_diffusion_expr="0.1",
    horizon=0.2, step=0.02, n_paths=4, save_paths=0,
)


class TestConfig:
    def test_case_presets_applied(self):
        cfg = ExperimentConfig(case="d").resolved()
        assert (cfg.beta, cfg.alpha, cfg.gamma) == FIG1_CASES["d"]

    def test_unknown_case(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(case="z").resolved()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_paths=0),
            dict(epsilon=0.0),
            dict(epsilon=-1e-3),
            dict(epsilon=1.5),
            dict(step=0.3, horizon=1.0),
            dict(workers=0),
            dict(master_seed=-1),
            dict(lam=1.0),
            dict(big_l=0.0),
            dict(bound_c1=1.0),
            dict(bound_alphas=(0.1, 0.1, 0.1)),
            dict(bound_c1=1.0, bound_alphas=(0.1, 0.1)),
            dict(bound_c1=1.0, bound_alphas=(0.1, -0.1, 0.1)),
            dict(bound_c1=1.0, bound_alphas=(0.1, math.nan, 0.1)),
            dict(bound_c1=1.0, bound_alphas=(0.1, "0.1", 0.1)),
            dict(bound_c1=math.inf, bound_alphas=(0.1, 0.1, 0.1)),
            dict(bound_c1=-1.0, bound_alphas=(0.1, 0.1, 0.1)),
            dict(horizon=math.inf),
            dict(step=math.nan),
            dict(x0=math.nan),
            dict(x0=-math.inf),
            dict(big_l=math.inf),
            dict(big_l=math.nan),
            dict(save_paths=-1),
            dict(step=0.0),
            dict(horizon=-1.0),
            dict(jump_mode="bogus"),
            dict(problem="eq10", jump_mode="compensated_prm"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            dataclasses.replace(ExperimentConfig(), **kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_paths=2.0), "n_paths must be an integer; got 2.0"),
            (dict(n_paths=True), "n_paths must be an integer; got True"),
            (dict(epsilon=False), "epsilon must be a number; got False"),
            (dict(step="0.1"), "step must be a number; got '0.1'"),
            (dict(delta="0.1"), "delta must be a number or none; got '0.1'"),
            (dict(drift_expr=5), "drift_expr must be a string or none; got 5"),
            (dict(problem=None), "problem must be a string; got None"),
            (dict(bound_c1=1.0, bound_alphas=(0.1, True, 0.1)), "three bound_alphas"),
        ],
        ids=["n_paths_float", "n_paths_bool", "epsilon_bool", "step_text", "delta_text", "drift_expr_int",
             "problem_none", "bound_alpha_bool"],
    )
    def test_wrong_types_are_refused_by_key(self, kwargs, message):
        cfg = dataclasses.replace(ExperimentConfig(), **kwargs)
        for check in (cfg.validate, cfg.resolved):
            with pytest.raises(ConfigError, match=re.escape(message)):
                check()

    def test_an_int_is_a_valid_float(self):
        cfg = ExperimentConfig(horizon=1, step=0.5, x0=0, cutoff=1).resolved()
        assert (cfg.horizon, cfg.x0, cfg.delta) == (1, 0, 1 * harness.DEFAULT_DELTA_RATIO)

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(case="b", n_paths=17, bound_alphas=(0.1, 0.2, 0.3))
        again = ExperimentConfig.from_dict(cfg.as_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"problem": "eq10", "typo_key": 1})

    def test_default_delta_follows_the_ratio_in_levy(self, monkeypatch):
        monkeypatch.setattr(harness, "DEFAULT_DELTA_RATIO", 1e-2)
        assert ExperimentConfig(cutoff=0.5).resolved().delta == 0.5 * 1e-2


class TestProblemRegistry:
    def test_eq10_params_echo(self):
        problem = build_eq10(beta=0.85, alpha=1.9, gamma=3.0, cutoff=0.5, epsilon=1e-3)
        assert problem.beta.beta == 0.85
        assert problem.spec.alpha == 1.9
        assert problem.spec.gamma == 3.0
        gamma1 = problem.averaged.jump_drift(np.array([1.0]))[0] / np.sqrt(1e-3)
        assert gamma1 == pytest.approx(3.0 * 0.5**2.1 / 2.1 / np.sqrt(1e-3), rel=1e-12)

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            build_problem(ExperimentConfig(problem="nope"))

    def test_expr_problem_needs_all_expressions(self):
        with pytest.raises(ConfigError):
            build_problem(ExperimentConfig(problem="expr", case=None, drift_expr="x"))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"avg_drift_expr": "x", "avg_diffusion_expr": "1"},
                "expr problems need drift_expr and diffusion_expr",
            ),
            (
                {"drift_expr": "x", "diffusion_expr": "1", "avg_drift_expr": "x"},
                "expr problems need avg_drift_expr and avg_diffusion_expr",
            ),
            (
                {"drift_expr": "x", "diffusion_expr": "1", "avg_drift_expr": "x", "avg_diffusion_expr": "1",
                 "jump_expr": "z*x", "gamma": None},
                "a jump expression needs the measure parameters gamma, alpha, cutoff",
            ),
        ],
        ids=["drift", "avg_drift", "jump_measure"],
    )
    def test_expr_refusals_name_what_is_missing(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            build_problem(ExperimentConfig(problem="expr", case=None, **fields))

    def test_expr_rejects_unknown_names(self):
        cfg = ExperimentConfig(
            problem="expr",
            case=None,
            drift_expr="__import__('os').system('true')",
            diffusion_expr="1.0",
            avg_drift_expr="x",
            avg_diffusion_expr="1.0",
        )
        with pytest.raises(ConfigError):
            build_problem(cfg)


class TestRunEnsemble:
    def test_identical_systems_zero_error(self):
        cfg = ExperimentConfig(
            problem="mlbench",
            case=None,
            beta=0.75,
            epsilon=1.0,
            x0=1.0,
            horizon=1.0,
            step=0.05,
            n_paths=5,
            save_paths=0,
        )
        report = run_ensemble(cfg)
        assert report.mean_sup_sq == 0.0
        assert report.per_path_sup_sq == [0.0] * 5
        assert max(report.er_mean_curve) == 0.0

    def test_deterministic_reports(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_ensemble(TINY, out_dir=out_a)
        run_ensemble(TINY, out_dir=out_b)
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_single_path_reruns_identical(self):
        cfg = dataclasses.replace(TINY, n_paths=1)
        a = run_ensemble(cfg)
        b = run_ensemble(cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_worker_pool_matches_serial(self):
        serial = run_ensemble(dataclasses.replace(TINY, n_paths=6, workers=1))
        pooled = run_ensemble(dataclasses.replace(TINY, n_paths=6, workers=2))
        assert serial.per_path_sup_sq == pooled.per_path_sup_sq
        assert serial.mean_sup_sq == pooled.mean_sup_sq

    def test_worker_pool_matches_serial_across_blocks(self):
        assert 150 > 2 * BLOCK_SIZE
        serial = run_ensemble(dataclasses.replace(TINY, n_paths=150, workers=1))
        pooled = run_ensemble(dataclasses.replace(TINY, n_paths=150, workers=2))
        assert serial.per_path_sup_sq == pooled.per_path_sup_sq
        assert serial.er_mean_curve == pooled.er_mean_curve

    def test_partial_failures_excluded_and_counted(self, tmp_path):
        report = run_ensemble(FRAGILE, out_dir=tmp_path)
        assert report.n_failures == 2
        assert report.failed_paths == [13, 20]
        assert len(report.per_path_sup_sq) == 28
        assert np.isfinite(report.mean_sup_sq)
        failures = json.loads((tmp_path / "manifest.json").read_text())["failures"]
        assert [f["path"] for f in failures] == [13, 20]
        n_steps = round(FRAGILE.horizon / FRAGILE.step)
        for f in failures:
            assert set(f) == {"path", "step", "time", "system"}
            assert 1 <= f["step"] <= n_steps
            assert f["time"] == pytest.approx(f["step"] * FRAGILE.step, rel=1e-12)
            # identical systems: the original fails first and is the one reported
            assert f["system"] == "original"
        assert "failures" not in json.loads((tmp_path / "report.json").read_text())

    @pytest.mark.parametrize("jump, fallbacks", [("z*x", 0), ("abs(z-0.1)*x", 4 * 10)])
    def test_manifest_counts_quadrature_fallbacks(self, tmp_path, jump, fallbacks):
        run_ensemble(dataclasses.replace(COMPENSATED, jump_expr=jump), out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counts"] == {"quadrature_fallbacks": fallbacks}
        assert "counts" not in json.loads((tmp_path / "report.json").read_text())

    @pytest.mark.parametrize(
        "cfg",
        [FRAGILE, dataclasses.replace(TINY, n_paths=150, epsilon=0.5, master_seed=13)],
        ids=["failures", "three_blocks"],
    )
    def test_statistics_match_the_paths_of_each_block(self, cfg):
        # the report reads its statistics off each solved block at once;
        # read them again path by path through CoupledBlock.path.  At
        # epsilon = 0.5 the curves use all their bits, so the mean curve
        # depends on the order of summation; with glibc's pow, one of seed
        # 13's sup |X - Z| squares differently as float ** 2 and np.square
        report = run_ensemble(cfg)
        cfg = cfg.resolved()
        problem = build_problem(cfg)
        grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
        paths = []
        for first in range(0, cfg.n_paths, BLOCK_SIZE):
            indices = range(first, min(first + BLOCK_SIZE, cfg.n_paths))
            noise = NoiseBlock(tuple(
                sample_noise(problem.spec, grid, dim=1, seed=cfg.master_seed, stream_key=(i,),
                             include_jumps=problem.needs_jump_events)
                for i in indices
            ))
            solved = solve_coupled(
                problem.coeffs, problem.averaged, noise, problem.x0, cfg.epsilon, problem.beta
            )
            for p, failure in enumerate(solved.failures):
                if failure is None:
                    paths.append(solved.path(p))
                    assert np.array_equal(solved.er[:, p], paths[-1].er)
        assert len(paths) == cfg.n_paths - report.n_failures
        assert report.failed_paths == ([13, 20] if cfg.problem == "expr" else [])
        assert report.per_path_sup_sq == [c.sup_sq_error for c in paths]
        assert report.per_path_sup_er == [c.sup_error for c in paths]
        assert report.er_mean_curve == np.stack([c.er for c in paths]).mean(axis=0).tolist()
        z_sup_sq = [np.max(np.sum(c.averaged**2, axis=1)) for c in paths]
        assert report.z_moment_estimate == 1.0 + float(np.mean(z_sup_sq))

    def test_sup_z_sq_is_the_square_of_the_largest_norm(self):
        # one and two components: sup |Z| is reduced as the distance curve
        # is, then squared, so a state whose square overflows reads inf
        # without a warning, and for dim = 1 it is max(Z**2) bit for bit
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 1.0, 6)
        for dim in (1, 2):
            averaged = rng.normal(size=(6, 3, dim))
            averaged[4, 1] = 1e200
            averaged[2, 2] = [3e153, 4e153][:dim]
            solved = solver.CoupledBlock(
                times=times, original=averaged.copy(), averaged=averaged,
                failures=(None,) * 3, quadrature_fallbacks=0,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ensemble = harness.Ensemble.of_block(solved, [0, 1, 2], save_paths=0)
            largest = np.linalg.norm(averaged[:, 0], axis=1).max()
            assert ensemble.sup_z_sq[0] == pytest.approx(largest**2, rel=1e-15)
            assert ensemble.sup_z_sq[1] == math.inf
            assert ensemble.sup_z_sq[2] == pytest.approx((5e153 if dim == 2 else 3e153) ** 2, rel=1e-15)
            if dim == 1:
                assert ensemble.sup_z_sq[0] == float(np.max(averaged[:, 0] ** 2))

    def test_sup_square_is_the_correctly_rounded_product(self):
        # glibc 2.36's pow rounds this square one ulp above x * x
        sup = 0.42672114373024106
        ensemble = harness.Ensemble(
            failures=[], sup_er=[sup, 0.5], sup_z_sq=[1.0, 1.0],
            curves=[np.array([0.0, sup]), np.array([0.0, 0.5])], saved={}, quadrature_fallbacks=0,
        )
        report = harness._aggregate(dataclasses.replace(TINY, n_paths=2).resolved(), ensemble)
        assert report.per_path_sup_sq == [0.18209093450644503, 0.25]
        assert report.per_path_sup_sq[0] == float(np.square(sup))
        assert report.mean_sup_sq == float(np.mean([sup * sup, 0.25]))

    def test_failure_budget_enforced(self):
        hopeless = dataclasses.replace(
            FRAGILE,
            drift_expr="1e308*(1+x*x)",
            avg_drift_expr="1e308*(1+x*x)",
            n_paths=5,
        )
        with pytest.raises(RunFailedError):
            run_ensemble(hopeless)

    def test_output_layout(self, tmp_path):
        out = tmp_path / "run"
        cfg = dataclasses.replace(TINY, save_paths=2)
        run_ensemble(cfg, out_dir=out)
        assert (out / "manifest.json").exists()
        assert (out / "report.json").exists()
        assert (out / "paths" / "path_000000.csv").exists()
        assert (out / "paths" / "path_000001.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["effective_config"]["beta"] == 0.6
        assert manifest["effective_config"]["master_seed"] == 7
        header = (out / "paths" / "path_000000.csv").read_text().splitlines()[0]
        assert header == "t,X_1,Z_1,Er"

    def test_report_json_is_the_shallow_field_dict(self, tmp_path):
        report = run_ensemble(TINY, out_dir=tmp_path)
        data = report.to_json_dict()
        assert data["er_mean_curve"] is report.er_mean_curve  # not a deep copy
        deep = dataclasses.asdict(report)
        del deep["bound_log10"]
        expected = json.dumps(deep, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "report.json").read_text() == expected

    def test_ci_shrinks_like_inverse_sqrt_paths(self):
        base = dataclasses.replace(TINY, horizon=2.0)
        small = run_ensemble(dataclasses.replace(base, n_paths=100))
        large = run_ensemble(dataclasses.replace(base, n_paths=400))
        ratio = small.ci_half_width / large.ci_half_width
        assert 1.5 <= ratio <= 2.5

    def test_bound_value_attached_when_inputs_given(self):
        cfg = dataclasses.replace(TINY, bound_c1=1.0, bound_alphas=(0.05, 0.0, 0.05))
        report = run_ensemble(cfg)
        assert report.bound_value is not None
        assert report.bound_value > 0.0
        assert report.z_moment_estimate >= 1.0

    def test_bound_beyond_float64_keeps_its_log10(self, tmp_path):
        cfg = dataclasses.replace(TINY, bound_c1=50.0, bound_alphas=(0.1, 0.1, 0.1))
        report = run_ensemble(cfg, out_dir=tmp_path / "run")
        assert report.bound_value is None
        assert report.bound_log10 > 308.0

        def reject(name):
            raise AssertionError(f"report.json holds {name}")

        data = json.loads((tmp_path / "run" / "report.json").read_text(), parse_constant=reject)
        assert data["bound_value"] is None
        assert data["bound_log10"] == report.bound_log10

    def test_refused_bound_still_writes_the_manifest(self, tmp_path):
        cfg = dataclasses.replace(
            TINY, bound_c1=1e4, bound_alphas=(0.1, 0.1, 0.1), epsilon=0.9, lam=0.9, big_l=10.0
        )
        with pytest.raises(ConvergenceError):
            run_ensemble(cfg, out_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["effective_config"]["bound_c1"] == 1e4
        assert manifest["failures"] == []
        assert not (tmp_path / "run" / "report.json").exists()

    def test_bound_on_an_overflowing_z_moment_is_a_run_failure(self, tmp_path):
        # at seed 18 no path fails, but an averaged state passes ~1e154, so
        # sup |Z|^2 overflows and the z-moment is inf
        # (sup |Z|)^2 overflows as a Python float, and without a numpy warning
        cfg = dataclasses.replace(FRAGILE, master_seed=18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_ensemble(cfg)
            assert report.n_failures == 0 and math.isinf(report.z_moment_estimate)
            cfg = dataclasses.replace(cfg, bound_c1=1.0, bound_alphas=(0.1, 0.1, 0.1))
            with pytest.raises(RunFailedError, match="finite z-moment"):
                run_ensemble(cfg, out_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert manifest["effective_config"]["master_seed"] == 18
        assert not (tmp_path / "run" / "report.json").exists()

    def test_report_without_bound_has_no_log10_key(self, tmp_path):
        run_ensemble(TINY, out_dir=tmp_path / "run")
        data = json.loads((tmp_path / "run" / "report.json").read_text())
        assert data["bound_value"] is None
        assert "bound_log10" not in data


class TestFoldedAveragedForm:
    def test_drift_folded_form_reproduces_slot_form_dynamics(self):
        # the averaged system written with the jump drift folded into the
        # drift slot as (1 + gamma1) x must produce the same path as the
        # slot-form representation on identical noise
        from fracavg.levy import TimeGrid, sample_noise
        from fracavg.solver import AveragedCoefficientSet, _Constant, _Linear

        problem = build_eq10(beta=0.6, alpha=0.3, gamma=3.0, cutoff=0.5, epsilon=1e-3)
        gamma1 = jump_drift_scale(gamma=3.0, alpha=0.3, cutoff=0.5) / math.sqrt(1e-3)
        folded_set = AveragedCoefficientSet(drift=_Linear(1.0 + gamma1), diffusion=_Constant(1.0))
        grid = TimeGrid(step=0.01, n_steps=300)
        noise = sample_noise(problem.spec, grid, dim=1, seed=3, include_jumps=False)
        slot, folded = (
            solve_coupled(system, system, noise, problem.x0, 1e-3, problem.beta).averaged
            for system in (problem.averaged, folded_set)
        )
        np.testing.assert_allclose(slot, folded, atol=1e-14)


class TestConvergenceStudy:
    def test_needs_three_epsilons(self):
        with pytest.raises(ConfigError):
            convergence_study(TINY, [1e-2, 1e-4])

    def test_needs_two_decades(self):
        with pytest.raises(ConfigError):
            convergence_study(TINY, [1e-2, 5e-3, 1e-3])

    @pytest.mark.parametrize("bad", [0.0, -1e-3], ids=["zero", "negative"])
    def test_an_epsilon_outside_the_unit_interval_is_refused_first(self, bad, tmp_path, monkeypatch):
        # refused by its value before the grid's span is computed or any ensemble runs
        monkeypatch.setattr(harness, "_ensemble", lambda cfg: pytest.fail("an ensemble ran"))
        with pytest.raises(ConfigError, match=rf"^epsilon must lie in \(0, 1\]; got {bad} "):
            convergence_study(TINY, [0.1, 0.01, bad], out_dir=tmp_path / "study")
        assert not (tmp_path / "study").exists()

    def test_slope_on_small_grid(self):
        report = convergence_study(
            dataclasses.replace(TINY, n_paths=12), [1e-2, 1e-3, 1e-4]
        )
        assert report.epsilons == [1e-2, 1e-3, 1e-4]
        assert report.fitted_rate is not None
        assert report.fitted_rate > 0.5
        assert report.rate_stderr is not None
        assert len(report.mean_by_epsilon) == 3
        # common random numbers: headline fields come from the smallest epsilon
        assert report.epsilon == 1e-4

    def test_manifest_times_the_whole_study(self, tmp_path, monkeypatch):
        spent = []
        ensemble = harness._ensemble

        def timed(cfg):
            started = time.perf_counter()
            try:
                return ensemble(cfg)
            finally:
                spent.append(time.perf_counter() - started)

        monkeypatch.setattr(harness, "_ensemble", timed)
        convergence_study(dataclasses.replace(TINY, n_paths=6), [1e-2, 1e-3, 1e-4], out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(spent) == 3
        assert manifest["timing_seconds"] >= sum(spent)
        assert manifest["failures"] == []

    def test_study_that_fails_its_budget_writes_its_manifest(self, tmp_path):
        # every path fails at epsilon 0.9, the first ensemble solved: the manifest lists
        # them, each with its epsilon, under that ensemble's config, and no report is written
        with pytest.raises(RunFailedError, match="30 of 30 paths failed"):
            convergence_study(FRAGILE, [0.9, 0.3, 0.009], out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "convergence_study"
        assert manifest["effective_config"]["epsilon"] == 0.9
        assert [(f["path"], f["epsilon"]) for f in manifest["failures"]] == [(p, 0.9) for p in range(30)]
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_refused_study_manifest_covers_the_ensembles_solved_so_far(self, tmp_path, monkeypatch):
        aggregate = harness._aggregate

        def refuse_the_second(cfg, ensemble):
            if cfg.epsilon == 0.05:
                raise RunFailedError("refused")
            return aggregate(cfg, ensemble)

        monkeypatch.setattr(harness, "_aggregate", refuse_the_second)
        kinked = dataclasses.replace(COMPENSATED, jump_expr="abs(z-0.1)*x")
        with pytest.raises(RunFailedError, match="refused"):
            convergence_study(kinked, [0.5, 0.05, 0.005], out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["effective_config"]["epsilon"] == 0.05
        assert manifest["counts"] == {"quadrature_fallbacks": 2 * 4 * 10}
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_manifest_sums_quadrature_fallbacks_over_the_study(self, tmp_path):
        kinked = dataclasses.replace(COMPENSATED, jump_expr="abs(z-0.1)*x")
        convergence_study(kinked, [0.5, 0.05, 0.005], out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counts"] == {"quadrature_fallbacks": 3 * 4 * 10}

    def test_reversal_invariance(self):
        forward = convergence_study(dataclasses.replace(TINY, n_paths=6), [1e-2, 1e-3, 1e-4])
        backward = convergence_study(dataclasses.replace(TINY, n_paths=6), [1e-4, 1e-3, 1e-2])
        assert forward.to_json_dict() == backward.to_json_dict()

    def test_linear_problem_slope(self):
        # drift x cos^2(t) with unit additive diffusion and no jumps: the
        # drift residual is epsilon-scaled, so the log-log slope comes out
        # around 2 and comfortably clears the order-one floor
        cfg = ExperimentConfig(
            problem="expr",
            case=None,
            beta=0.75,
            x0=0.5,
            horizon=10.0,
            step=0.02,
            n_paths=30,
            master_seed=17,
            save_paths=0,
            drift_expr="x*cos(t)**2",
            diffusion_expr="1.0",
            avg_drift_expr="0.5*x",
            avg_diffusion_expr="1.0",
        )
        report = convergence_study(cfg, [1e-2, 1e-3, 1e-4])
        assert report.fitted_rate is not None
        assert report.fitted_rate >= 0.8
        assert report.mean_by_epsilon[0] > report.mean_by_epsilon[1] > report.mean_by_epsilon[2]

    def test_zero_error_degenerate_fit(self):
        cfg = ExperimentConfig(
            problem="mlbench",
            case=None,
            beta=0.75,
            x0=1.0,
            horizon=0.5,
            step=0.05,
            n_paths=3,
            save_paths=0,
        )
        report = convergence_study(cfg, [1e-2, 1e-3, 1e-4])
        assert report.fitted_rate is None
        assert report.degenerate_fit == "zero_error"

    def test_fit_rate_clean_slope(self):
        rate, stderr, reason = fit_rate([1e-2, 1e-3, 1e-4], [1e-3, 1e-4, 1e-5], [1e-5, 1e-6, 1e-7])
        assert reason is None
        assert rate == pytest.approx(1.0, rel=1e-9)
        assert stderr == pytest.approx(0.0, abs=1e-9)

    def test_fit_rate_refuses_overlapping_cis(self):
        rate, stderr, reason = fit_rate([1e-2, 1e-3, 1e-4], [1.0, 1.1, 0.9], [0.5, 0.5, 0.5])
        assert rate is None
        assert reason == "insufficient_resolution"

    def test_fit_rate_refuses_zero_error(self):
        rate, stderr, reason = fit_rate([1e-2, 1e-3, 1e-4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert rate is None
        assert reason == "zero_error"

    @pytest.mark.parametrize("means", [[math.inf] * 3, [1e-3, math.inf, 1e-5], [1e-3, math.nan, 1e-5]])
    def test_fit_rate_refuses_a_non_finite_mean(self, means):
        # an overflowing ensemble's mean is inf, its half-width inf: a fit would give nan
        rate, stderr, reason = fit_rate([1e-2, 1e-3, 1e-4], means, [math.inf] * 3)
        assert (rate, stderr, reason) == (None, None, "non_finite_error")


class TestReproduceFig1:
    def test_case_files_and_zero_initial_gap(self, tmp_path):
        out = tmp_path / "fig1_a"
        files = reproduce_fig1(
            "a", out, n_paths=2, horizon=0.5, step=0.01, master_seed=5, workers=1
        )
        assert os.path.exists(files["path_csv"])
        assert os.path.exists(files["manifest"])
        assert os.path.exists(files["report"])
        lines = Path(files["path_csv"]).read_text().splitlines()
        assert lines[0] == "t,X_1,Z_1,Er"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[-1]) == 0.0  # identical initial conditions
        report = json.loads(Path(files["report"]).read_text())
        assert report["epsilon"] == 1e-3

    def test_case_d_manifest_echo(self, tmp_path):
        out = tmp_path / "fig1_d"
        files = reproduce_fig1("d", out, n_paths=1, horizon=0.5, step=0.01)
        manifest = json.loads(Path(files["manifest"]).read_text())
        cfg = manifest["effective_config"]
        assert cfg["beta"] == 0.85
        assert cfg["alpha"] == 1.9
        assert cfg["gamma"] == 3.0
        assert cfg["epsilon"] == 1e-3
        assert cfg["cutoff"] == 0.5
        assert cfg["x0"] == 0.1
        assert cfg["delta"] == 0.5e-3  # inner cutoff materialized, never implicit

    def test_unknown_case(self, tmp_path):
        with pytest.raises(ConfigError):
            reproduce_fig1("q", tmp_path)
