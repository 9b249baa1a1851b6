"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``).  The
worked-example thresholds come from tests/oracles/eq10_fixtures.json, frozen
by the independent brute-force script in the same directory.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fracavg.averaging import averaged_jump_drift, theorem_bound
from fracavg.cli import main as cli_main
from fracavg.harness import ExperimentConfig, convergence_study, run_ensemble
from fracavg.kernels import build_kernel_weights, mittag_leffler
from fracavg.levy import JumpMeasureSpec, NoiseRealization, TimeGrid, nu_integral, sample_noise
from fracavg.solver import (
    AveragedCoefficientSet,
    CoefficientSet,
    solve_coupled,
)

FIXTURES = json.loads((Path(__file__).parent / "oracles" / "eq10_fixtures.json").read_text())

WORKERS = min(4, os.cpu_count() or 1)


def _criterion(ok: bool, label: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _deterministic_noise(n_steps: int, step: float) -> NoiseRealization:
    grid = TimeGrid(step=step, n_steps=n_steps)
    return NoiseRealization(
        grid=grid,
        increments=np.zeros((n_steps, 1)),
        jump_times=np.empty(0),
        jump_marks=np.empty(0),
        spec=None,
    )


def test_criterion_1_kernel_telescoping():
    rng = np.random.default_rng(424242)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        beta = rng.uniform(0.51, 0.99)
        step = 10.0 ** rng.uniform(-4, 0.3)
        n = int(rng.integers(1, 5000))
        kw = build_kernel_weights(beta, step, n)
        target = (n * step) ** beta / beta
        worst = max(worst, abs(float(kw.sum()) - target) / target)
    elapsed = time.perf_counter() - started
    _criterion(
        worst <= 1e-12 and elapsed < 1.0,
        f"criterion 1: kernel telescoping, 50 random triples, worst rel dev "
        f"{worst:.2e} (<= 1e-12), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_mittag_leffler_benchmark():
    started = time.perf_counter()
    exact = mittag_leffler(0.75, 1.0)  # X0 * E_beta(t^beta) at t = 1, X0 = 1
    coeffs = CoefficientSet(drift=lambda t, x: x, diffusion=lambda t, x: np.zeros((len(x), 1, 1)))

    path = solve_coupled(
        coeffs, coeffs, _deterministic_noise(1000, 1e-3), x0=1.0, epsilon=1.0, beta=0.75
    ).original
    rel_err = abs(path[-1, 0] - exact) / exact

    errors = []
    steps = [1e-2, 5e-3, 2.5e-3]
    for h in steps:
        p = solve_coupled(
            coeffs, coeffs, _deterministic_noise(round(1.0 / h), h), x0=1.0, epsilon=1.0, beta=0.75
        ).original
        errors.append(abs(p[-1, 0] - exact))
    order = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - started
    _criterion(
        rel_err < 0.01 and order >= 0.9 and elapsed < 30.0,
        f"criterion 2: Mittag-Leffler benchmark, rel err {rel_err:.3e} (< 1e-2), "
        f"order {order:.3f} (>= 0.9), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_classical_limit():
    h = 1e-3
    n = 1000
    coeffs = CoefficientSet(drift=lambda t, x: x, diffusion=lambda t, x: np.zeros((len(x), 1, 1)))
    path = solve_coupled(
        coeffs, coeffs, _deterministic_noise(n, h), x0=1.0, epsilon=1.0, beta=0.999
    ).original
    euler = np.empty(n + 1)
    euler[0] = 1.0
    for k in range(n):
        euler[k + 1] = euler[k] * (1.0 + h)
    gap = float(np.max(np.abs(path[:, 0] - euler)))
    _criterion(
        gap < 1e-2,
        f"criterion 3: order-0.999 solve vs classical Euler, sup gap {gap:.3e} (< 1e-2)",
    )


def test_criterion_4_measure_integral_and_averaged_drift():
    spec = JumpMeasureSpec(gamma=3.0, alpha=0.3, cutoff=0.5)
    closed = 2.0 * 3.0 * 0.5**3.7 / 3.7
    value = nu_integral(spec, lambda x: 2.0 * x**4, use_delta=False)
    rel_integral = abs(value - closed) / closed

    jump = lambda t, x, z: (2.0 * z**4 * math.sin(t) ** 2 * x.T).T
    rate = averaged_jump_drift(spec, jump, np.array([1.0]), 10.0 * math.pi)
    eps = 1e-3
    gamma1_numeric = float(rate[0]) / math.sqrt(eps)
    gamma1_formula = 3.0 * 0.5**3.7 / (math.sqrt(eps) * 3.7)
    rel_gamma1 = abs((1.0 + gamma1_numeric) - (1.0 + gamma1_formula)) / (1.0 + gamma1_formula)
    _criterion(
        rel_integral <= 1e-9 and rel_gamma1 <= 1e-6,
        f"criterion 4: measure integral rel err {rel_integral:.2e} (<= 1e-9) vs "
        f"{closed:.6f}; averaged drift coefficient rel err {rel_gamma1:.2e} (<= 1e-6) "
        f"vs 1+gamma1 = {1 + gamma1_formula:.6f}",
    )


def test_criterion_5_coupling_null():
    coeffs = CoefficientSet(
        drift=lambda t, x: np.sin(x) + 0.2 * x,
        diffusion=lambda t, x: (0.4 + 0.1 * x**2)[:, :, None],
    )
    averaged = AveragedCoefficientSet(
        drift=lambda x: np.sin(x) + 0.2 * x, diffusion=lambda x: (0.4 + 0.1 * x**2)[:, :, None]
    )
    grid = TimeGrid(step=0.02, n_steps=50)
    worst = 0.0
    for seed in range(100):
        noise = sample_noise(None, grid, dim=1, seed=seed)
        res = solve_coupled(coeffs, averaged, noise, x0=0.3, epsilon=0.8, beta=0.7)
        worst = max(worst, res.sup_sq_error)
    _criterion(
        worst == 0.0,
        f"criterion 5: identical coefficients on shared noise, 100 seeds, "
        f"max sup-square error {worst!r} (== 0.0 exactly)",
    )


def test_criterion_6_averaging_trend():
    started = time.perf_counter()
    base = ExperimentConfig(
        case="a",
        horizon=10.0,
        step=1e-2,
        n_paths=200,
        master_seed=42,
        workers=WORKERS,
        save_paths=0,
    )
    report = convergence_study(base, [1e-2, 1e-3, 1e-4])
    elapsed = time.perf_counter() - started
    means = report.mean_by_epsilon  # ordered by descending epsilon
    decreasing = means[0] > means[1] > means[2]
    slope_ok = report.fitted_rate is not None and report.fitted_rate >= 0.8
    _criterion(
        decreasing and slope_ok and elapsed < 600.0,
        f"criterion 6: mean sup-square errors {[f'{m:.3e}' for m in means]} strictly "
        f"decreasing in epsilon, slope {report.fitted_rate:.3f} (>= 0.8), "
        f"runtime {elapsed:.0f}s (< 600s)",
    )


def test_criterion_7_bound_calculator():
    zero = theorem_bound(2.0, (0.0, 0.0, 0.0), 2.0, beta=0.8, epsilon=[1e-2, 1e-3])
    zero_ok = zero.bounds == [0.0, 0.0]

    oracle = 0.020883514430112031  # 40-digit partial-sum oracle, frozen pre-build
    fixed = theorem_bound(1.0, (0.1, 0.1, 0.1), 2.0, beta=0.75, epsilon=1e-3, lam=0.5, big_l=1.0)
    rel = abs(fixed.bounds[0] - oracle) / oracle

    graded = theorem_bound(1.0, (0.1, 0.1, 0.1), 2.0, beta=0.75, epsilon=[1e-2, 1e-3, 1e-4])
    monotone = graded.bounds[0] > graded.bounds[1] > graded.bounds[2]
    _criterion(
        zero_ok and rel <= 1e-10 and monotone,
        f"criterion 7: zero-envelope bound 0 exactly, fixed tuple rel err {rel:.2e} "
        f"(<= 1e-10), bounds monotone across the epsilon grid",
    )


def test_criterion_8_worked_example_cases(tmp_path):
    results = {}
    for case in ("a", "b", "c", "d"):
        code = cli_main(
            ["fig1", "--case", case, "--out", str(tmp_path), "--workers", str(WORKERS)]
        )
        assert code == 0
        report = json.loads((tmp_path / f"fig1_{case}" / "report.json").read_text())
        manifest = json.loads((tmp_path / f"fig1_{case}" / "manifest.json").read_text())
        assert (tmp_path / f"fig1_{case}" / "paths" / "path_000000.csv").exists()
        assert manifest["effective_config"]["epsilon"] == 1e-3
        assert manifest["effective_config"]["cutoff"] == 0.5
        assert manifest["effective_config"]["x0"] == 0.1
        results[case] = (report["mean_sup_er"], report["mean_sup_sq"])
    ok = all(
        results[c][0] < FIXTURES["cases"][c]["threshold_sup_er"]
        and results[c][1] < FIXTURES["cases"][c]["threshold_sup_sq"]
        for c in results
    )
    summary = ", ".join(
        f"{c}: {results[c][0]:.3e} < {FIXTURES['cases'][c]['threshold_sup_er']:.3e}"
        for c in sorted(results)
    )
    _criterion(
        ok,
        f"criterion 8: all four cases run end to end from the CLI; ensemble mean "
        f"sup Er and sup-square error below frozen thresholds ({summary})",
    )


def test_criterion_9_determinism(tmp_path):
    cfg = ExperimentConfig(case="a", n_paths=20, horizon=2.0, step=0.02, master_seed=11)
    run_ensemble(cfg, out_dir=tmp_path / "first")
    run_ensemble(cfg, out_dir=tmp_path / "second")
    harness_same = (tmp_path / "first" / "report.json").read_bytes() == (
        tmp_path / "second" / "report.json"
    ).read_bytes()

    out_a = tmp_path / "cli_a"
    out_b = tmp_path / "cli_b"
    assert cli_main(["simulate", "--case", "c", "--seed", "8", "--out", str(out_a),
                     "--horizon", "1.0", "--step", "0.01"]) == 0
    manifest = out_a / "simulate" / "manifest.json"
    assert cli_main(["simulate", "--config", str(manifest), "--out", str(out_b)]) == 0
    cli_same = (out_a / "simulate" / "report.json").read_bytes() == (
        out_b / "simulate" / "report.json"
    ).read_bytes()
    _criterion(
        harness_same and cli_same,
        "criterion 9: reruns from the same config and from a manifest echo produce "
        "byte-identical report.json",
    )
