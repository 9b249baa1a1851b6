"""The benchmark's workloads: the timed top-level call and its correctness check.

Each workload is one fracavg experiment run the way a user runs it, with
``workers=1``.  The check runs after the timed call and compares the output
with something the timed code did not compute: the frozen brute-force
thresholds, an ``mpmath`` Mittag-Leffler series, or a closed-form compensator.
The caller must put the checkout's ``src`` directory on ``sys.path`` first.
The timed calls look fracavg's functions up through their modules, so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fracavg import cli, harness
from fracavg.harness import ExperimentConfig
from fracavg.levy import TimeGrid, sample_noise
from fracavg.problems import build_problem
from fracavg.solver import solve_coupled

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "oracles" / "eq10_fixtures.json"

# X(T) of mlbench against x0 * E_beta(eps * T^beta).  The scheme's error at
# h = 1e-3 is 0.87%; 1% is the tolerance the acceptance suite pins there.
ML_RTOL = 1e-2
# Path 0 of jumps_quad solved with the closed-form compensator against the
# quadrature fallback: nu_integral runs at rtol 1e-10, so the sup distance to
# the averaged path may differ in its trailing digits only.
JUMP_RTOL = 1e-7


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why each was chosen.

    ``config(seed)`` is the resolved experiment; ``run(cfg, out_dir)`` is the
    timed top-level call, output writing included, and returns the directory
    holding ``report.json``; ``check(cfg, report_dir, report)`` returns a list
    of failed correctness checks.
    """

    config: Callable[[int], ExperimentConfig]
    run: Callable[[ExperimentConfig, Path], Path]
    check: Callable[[ExperimentConfig, Path, dict], list]


# ---------------------------------------------------------------- fig1_a


# Each call is kept near 2 s, so that a run times a dozen of them, each between
# two reference timings; the host-speed scaling tracks the host's drift only
# at that grain.  The per-path work is that of the full-size experiments.
FIG1_PATHS = 50


def _fig1_config(seed: int) -> ExperimentConfig:
    # the experiment `fracavg fig1 --case a --paths 50` builds (reproduce_fig1 defaults)
    return ExperimentConfig(
        problem="eq10", case="a", epsilon=1e-3, cutoff=0.5, x0=0.1,
        horizon=10.0, step=1e-2, n_paths=FIG1_PATHS, save_paths=1,
        master_seed=seed, workers=1,
    ).resolved()


def _fig1_run(cfg: ExperimentConfig, out_dir: Path) -> Path:
    code = cli.main(
        ["fig1", "--case", "a", "--seed", str(cfg.master_seed), "--workers", "1",
         "--paths", str(cfg.n_paths), "--out", str(out_dir)]
    )
    if code != 0:
        raise RuntimeError(f"fracavg fig1 exited with code {code}")
    return out_dir / "fig1_a"


def _fig1_check(cfg: ExperimentConfig, report_dir: Path, report: dict) -> list:
    case = json.loads(FIXTURES.read_text())["cases"]["a"]
    failures = []
    for key, limit in (("mean_sup_sq", "threshold_sup_sq"), ("mean_sup_er", "threshold_sup_er")):
        if not report[key] < case[limit]:
            failures.append(f"{key} = {report[key]!r} is not below {limit} = {case[limit]!r}")
    if not (report_dir / "paths" / "path_000000.csv").is_file():
        failures.append("path_000000.csv was not written")
    return failures


# ---------------------------------------------------------------- mlbench_long


def _ml_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        problem="mlbench", case=None, beta=0.6, x0=1.0, epsilon=1.0,
        horizon=10.0, step=1e-3, n_paths=2, save_paths=2,
        master_seed=seed, workers=1,
    ).resolved()


def _ensemble_run(cfg: ExperimentConfig, out_dir: Path) -> Path:
    harness.run_ensemble(cfg, out_dir=str(out_dir))
    return out_dir


def mittag_leffler_reference(beta: float, z: float) -> float:
    """E_beta(z) as an ``mpmath`` series at 40 digits, independent of fracavg."""
    import mpmath

    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        return float(mpmath.nsum(lambda k: mpmath.mpf(z) ** k / mpmath.gamma(b * k + 1), [0, mpmath.inf]))


def _ml_check(cfg: ExperimentConfig, report_dir: Path, report: dict) -> list:
    exact = cfg.x0 * mittag_leffler_reference(cfg.beta, cfg.epsilon * cfg.horizon**cfg.beta)
    failures = []
    if report["mean_sup_sq"] != 0.0:
        failures.append(f"identical systems give mean_sup_sq = {report['mean_sup_sq']!r}, not 0.0")
    for index in range(cfg.save_paths):
        path = report_dir / "paths" / f"path_{index:06d}.csv"
        if not path.is_file():
            failures.append(f"{path.name} was not written")
            continue
        with open(path, newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        x_end = float(last["X_1"])
        rel = abs(x_end - exact) / exact
        if not (float(last["t"]) == cfg.horizon and rel <= ML_RTOL):
            failures.append(
                f"{path.name}: X({last['t']}) = {x_end!r} vs E_beta reference {exact!r} "
                f"(relative error {rel:.3g}, tolerance {ML_RTOL:g})"
            )
    return failures


# ---------------------------------------------------------------- jumps_quad


def _jumps_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        problem="expr", case=None, jump_mode="compensated_prm",
        jump_expr="z*x*sin(t)**2", gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75,
        drift_expr="-x*(1+cos(t))", diffusion_expr="0.5",
        avg_drift_expr="-x", avg_diffusion_expr="0.5",
        horizon=10.0, step=1e-2, n_paths=2, save_paths=0,
        master_seed=seed, workers=1,
    ).resolved()


def _jumps_check(cfg: ExperimentConfig, report_dir: Path, report: dict) -> list:
    """Re-solve path 0 on the same noise with the closed-form compensator.

    integral over [delta, c) of z x sin^2 t * gamma z^(-1-alpha) dz
      = gamma sin^2 t x (c^(1-alpha) - delta^(1-alpha)) / (1 - alpha)
    """
    if 0 in report["failed_paths"]:
        return ["path 0 failed, nothing to compare"]
    problem = build_problem(cfg)
    rate = cfg.gamma * (cfg.cutoff ** (1 - cfg.alpha) - cfg.delta ** (1 - cfg.alpha)) / (1 - cfg.alpha)
    closed = dataclasses.replace(
        problem.coeffs, jump_drift=lambda t, x: np.array([rate * math.sin(t) ** 2 * x[0]])
    )
    noise = sample_noise(
        problem.spec, TimeGrid.from_horizon(cfg.horizon, cfg.step), dim=1,
        seed=cfg.master_seed, stream_key=(0,), include_jumps=True,
    )
    coupled = solve_coupled(closed, problem.averaged, noise, problem.x0, cfg.epsilon, problem.beta)
    got = report["per_path_sup_er"][0]
    rel = abs(coupled.sup_error - got) / coupled.sup_error
    if rel > JUMP_RTOL:
        return [
            f"path 0 sup|X - Z| = {got!r} with quadrature vs {coupled.sup_error!r} with the "
            f"closed-form compensator (relative difference {rel:.3g}, tolerance {JUMP_RTOL:g})"
        ]
    return []


WORKLOADS = {
    "fig1_a": Workload(config=_fig1_config, run=_fig1_run, check=_fig1_check),
    "mlbench_long": Workload(config=_ml_config, run=_ensemble_run, check=_ml_check),
    "jumps_quad": Workload(config=_jumps_config, run=_ensemble_run, check=_jumps_check),
}
