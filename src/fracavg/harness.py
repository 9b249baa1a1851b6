"""Monte Carlo ensembles, small-parameter studies, and result persistence.

A full experiment is a pure function of its ExperimentConfig (master seed
included): per-path noise streams are derived from (master_seed, path_index),
paths are solved in blocks of BLOCK_SIZE consecutive indices whatever the
number of workers, aggregation runs in path-index order, and report.json is
written with sorted keys, so a rerun reproduces it byte for byte.  The
statistics are read off each solved block into one Ensemble record; only the
paths with index < save_paths that did not fail become CoupledPaths.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import theorem_bound, write_json
from .errors import ConfigError, FracavgError, RunFailedError
from .levy import DEFAULT_DELTA_RATIO, NoiseBlock, TimeGrid, sample_noise
from .problems import FIG1_CASES, build_problem
from .solver import JumpMode, norms, solve_coupled

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
FAILURE_BUDGET = 0.10
# Paths per batched solve.  The memory sums of a block are one matrix product,
# and BLAS may round a column differently for different block widths, so the
# blocks must not depend on the number of workers.
BLOCK_SIZE = 64


# The types of the config fields by annotation (Optional[...] stripped), and
# how a refusal names them.  A bool is an int to isinstance, and is refused.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "tuple": (tuple, list)}
_TYPE_NAMES = {"str": "a string", "int": "an integer", "float": "a number", "tuple": "a list"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, in plain picklable values.

    On eq10, ``case`` selects a worked-example preset (overwriting
    beta/alpha/gamma); set it to None to supply those directly.
    Expression-problem fields stay None for built-in problems.  ``bound_c1``
    and ``bound_alphas`` (a1, a2, a3) are given together, or not at all.
    Each field holds a value of its annotated type (a float field also takes
    an int, and no number field a bool); ``validate`` refuses any other by
    its key, whether the config came from a file, a manifest or a caller.
    """

    problem: str = "eq10"
    case: Optional[str] = "a"
    beta: float = 0.6
    alpha: float = 0.3
    gamma: float = 3.0
    cutoff: float = 0.5
    delta: Optional[float] = None
    epsilon: float = 1e-3
    x0: float = 0.1
    horizon: float = 10.0
    step: float = 1e-2
    n_paths: int = 200
    master_seed: int = 42
    lam: float = 0.5
    big_l: float = 1.0
    workers: int = 1
    save_paths: int = 1
    jump_mode: str = "deterministic_nu_drift"
    drift_expr: Optional[str] = None
    diffusion_expr: Optional[str] = None
    jump_expr: Optional[str] = None
    avg_drift_expr: Optional[str] = None
    avg_diffusion_expr: Optional[str] = None
    avg_jump_drift_expr: Optional[str] = None
    bound_c1: Optional[float] = None
    bound_alphas: Optional[tuple] = None

    def resolved(self) -> "ExperimentConfig":
        """Apply case presets and validate; returns a ready-to-run config."""
        self._check_types()  # before the presets read any value
        cfg = self
        if cfg.problem == "eq10" and cfg.case is not None:
            if cfg.case not in FIG1_CASES:
                raise ConfigError(
                    f"unknown case {cfg.case!r}; choose from {sorted(FIG1_CASES)}"
                )
            beta, alpha, gamma = FIG1_CASES[cfg.case]
            cfg = dataclasses.replace(cfg, beta=beta, alpha=alpha, gamma=gamma)
        uses_measure = cfg.problem == "eq10" or (
            cfg.problem == "expr" and cfg.jump_expr is not None
        )
        if uses_measure and cfg.delta is None:
            # the inner cutoff is always explicit in persisted configs so a
            # study can refine it deliberately
            cfg = dataclasses.replace(cfg, delta=cfg.cutoff * DEFAULT_DELTA_RATIO)
        cfg.validate()
        return cfg

    def _check_types(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            optional = f.type.startswith("Optional[")
            if value is None and optional:
                continue
            kind = f.type.removeprefix("Optional[").removesuffix("]")
            if not isinstance(value, _FIELD_TYPES[kind]) or isinstance(value, bool):
                none = " or none" if optional else ""
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[kind]}{none}; got {value!r}")

    def validate(self) -> None:
        self._check_types()
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1; got {self.n_paths}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1]; got {self.epsilon}")
        if not math.isfinite(self.x0):
            raise ConfigError(f"x0 must be finite; got {self.x0!r}")
        if self.step <= 0.0 or self.horizon <= 0.0:
            raise ConfigError("step and horizon must be positive")
        try:
            TimeGrid.from_horizon(self.horizon, self.step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1; got {self.workers}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative; got {self.master_seed}")
        if self.save_paths < 0:
            raise ConfigError(f"save_paths must be >= 0; got {self.save_paths}")
        if not 0.0 < self.lam < 1.0:
            raise ConfigError(f"lam must lie in (0, 1); got {self.lam}")
        if not (math.isfinite(self.big_l) and self.big_l > 0.0):
            raise ConfigError(f"big_l must be positive and finite; got {self.big_l}")
        if (
            self.problem == "expr"
            and self.jump_mode == JumpMode.COMPENSATED.value
            and self.avg_jump_drift_expr is not None
        ):
            raise ConfigError(
                "avg_jump_drift_expr cannot be used with jump_mode compensated_prm: "
                "compensated mode needs the averaged jump coefficient itself, and an "
                "expr problem can only state its integral against the measure "
                "(use jump_mode deterministic_nu_drift, or drop avg_jump_drift_expr)"
            )
        if (self.bound_c1 is None) != (self.bound_alphas is None):
            raise ConfigError("bound_c1 and bound_alphas must be given together")
        if self.bound_alphas is not None and not (
            len(self.bound_alphas) == 3
            and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v >= 0.0
                for v in (self.bound_c1, *self.bound_alphas)
            )
        ):
            raise ConfigError(
                "bound_c1 and the three bound_alphas a1,a2,a3 must be finite nonnegative "
                f"numbers; got bound_c1 = {self.bound_c1!r}, "
                f"bound_alphas = {list(self.bound_alphas)!r}"
            )

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["bound_alphas"] is not None:
            out["bound_alphas"] = list(out["bound_alphas"])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        values = dict(data)
        alphas = values.get("bound_alphas")
        if isinstance(alphas, (list, tuple)):
            values["bound_alphas"] = tuple(alphas)
        elif alphas is not None:
            values["bound_alphas"] = (alphas,)  # validate() asks for three
        return cls(**values)


@dataclass
class ErrorReport:
    """Ensemble statistics of the distance between coupled paths.

    ``per_path_sup_sq`` holds sup_t |X - Z|^2 per path; the confidence half
    width is the normal 95% half width of the ensemble mean.  Study fields
    (fitted rate, per-epsilon summaries) stay None for single ensembles.
    ``bound_value`` is the closeness bound when its inputs are given, None
    where it does not fit in a float64; ``bound_log10`` then still holds its
    decimal log.  report.json carries ``bound_log10`` only when it is set.
    """

    epsilon: float
    horizon: float
    step: float
    n_paths: int
    n_failures: int
    failed_paths: list[int]
    per_path_sup_sq: list[float]
    mean_sup_sq: float
    ci_half_width: float
    per_path_sup_er: list[float]
    mean_sup_er: float
    er_mean_curve: list[float]
    z_moment_estimate: float
    bound_value: Optional[float] = None
    bound_log10: Optional[float] = None
    fitted_rate: Optional[float] = None
    rate_stderr: Optional[float] = None
    degenerate_fit: Optional[str] = None
    epsilons: Optional[list[float]] = None
    mean_by_epsilon: Optional[list[float]] = None
    ci_by_epsilon: Optional[list[float]] = None

    def to_json_dict(self) -> dict:
        # shallow: dataclasses.asdict would deep-copy every per-path list
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if data["bound_log10"] is None:
            del data["bound_log10"]
        return data

    def save(self, path) -> None:
        write_json(self.to_json_dict(), path)


@dataclass
class Ensemble:
    """One ensemble's solves, reduced to what its report and output files need.

    ``failures`` holds the manifest entry (path, step, time, system) of each
    failed path.  ``sup_er`` (sup |X - Z|), ``sup_z_sq`` (sup |Z|^2) and
    ``curves`` (|X - Z| on the grid, views into their blocks' curves) belong
    to the paths that did not fail, all in path-index order.  ``saved`` maps
    the index of each path below ``save_paths`` that did not fail to its
    CoupledPaths; no other path is copied out of its block.
    """

    failures: list[dict]
    sup_er: list[float]
    sup_z_sq: list[float]
    curves: list[np.ndarray]
    saved: dict
    quadrature_fallbacks: int

    @classmethod
    def of_block(cls, solved, indices: list[int], save_paths: int) -> "Ensemble":
        """The statistics of one solved CoupledBlock whose paths have these indices."""
        ok = [p for p, failure in enumerate(solved.failures) if failure is None]
        return cls(
            failures=[
                {"path": indices[p], "step": f.step, "time": f.time, "system": f.system}
                for p, f in enumerate(solved.failures) if f is not None
            ],
            sup_er=solved.er.max(axis=0)[ok].tolist(),
            # path by path, which keeps the run's peak memory down; sup |Z| is
            # squared as a Python float, which overflows to inf without a warning
            sup_z_sq=[v * v for v in (float(norms(solved.averaged[:, p]).max()) for p in ok)],
            curves=[solved.er[:, p] for p in ok],
            saved={indices[p]: solved.path(p) for p in ok if indices[p] < save_paths},
            quadrature_fallbacks=solved.quadrature_fallbacks,
        )

    @classmethod
    def joined(cls, parts: list["Ensemble"]) -> "Ensemble":
        """The ensembles of consecutive blocks, in block order, as one."""
        return cls(
            failures=[failure for part in parts for failure in part.failures],
            sup_er=[v for part in parts for v in part.sup_er],
            sup_z_sq=[v for part in parts for v in part.sup_z_sq],
            curves=[curve for part in parts for curve in part.curves],
            saved={index: path for part in parts for index, path in part.saved.items()},
            quadrature_fallbacks=sum(part.quadrature_fallbacks for part in parts),
        )


def _run_blocks(cfg: ExperimentConfig, blocks: list[list[int]]) -> list[Ensemble]:
    """Solve blocks of path indices; returns one Ensemble per block."""
    problem = build_problem(cfg)
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    parts = []
    for indices in blocks:
        noise = NoiseBlock(tuple(
            sample_noise(
                problem.spec,
                grid,
                dim=problem.coeffs.brownian_dim,
                seed=cfg.master_seed,
                stream_key=(index,),
                include_jumps=problem.needs_jump_events,
            )
            for index in indices
        ))
        solved = solve_coupled(
            problem.coeffs, problem.averaged, noise, problem.x0, cfg.epsilon, problem.beta
        )
        parts.append(Ensemble.of_block(solved, indices, cfg.save_paths))
    return parts


def _aggregate(cfg: ExperimentConfig, ensemble: Ensemble) -> ErrorReport:
    failed = [failure["path"] for failure in ensemble.failures]
    if len(failed) > FAILURE_BUDGET * cfg.n_paths:
        raise RunFailedError(
            f"{len(failed)} of {cfg.n_paths} paths failed "
            f"(budget {FAILURE_BUDGET:.0%}); first failures: {failed[:5]}"
        )
    sup_sq = [v * v for v in ensemble.sup_er]

    n = len(sup_sq)
    mean_sq = float(np.mean(sup_sq))
    ci = float(_Z95 * np.std(sup_sq, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    z_moment = 1.0 + float(np.mean(ensemble.sup_z_sq))

    bound_value = bound_log10 = None
    if cfg.bound_c1 is not None and cfg.bound_alphas is not None:
        if not math.isfinite(z_moment):
            raise RunFailedError(
                f"the bound needs a finite z-moment, but 1 + mean sup|Z|^2 is {z_moment!r}: "
                f"an averaged path that did not fail passed ~1e154"
            )
        bound = theorem_bound(
            cfg.bound_c1,
            cfg.bound_alphas,
            z_moment,
            beta=cfg.beta,
            epsilon=cfg.epsilon,
            lam=cfg.lam,
            big_l=cfg.big_l,
        )
        bound_value, bound_log10 = bound.bounds[0], bound.log10_bounds[0]

    return ErrorReport(
        epsilon=cfg.epsilon,
        horizon=cfg.horizon,
        step=cfg.step,
        n_paths=cfg.n_paths,
        n_failures=len(failed),
        failed_paths=failed,
        per_path_sup_sq=sup_sq,
        mean_sup_sq=mean_sq,
        ci_half_width=ci,
        per_path_sup_er=ensemble.sup_er,
        mean_sup_er=float(np.mean(ensemble.sup_er)),
        # contiguous rows, one per path: the mean sums them in path order
        er_mean_curve=np.stack(ensemble.curves).mean(axis=0).tolist(),
        z_moment_estimate=z_moment,
        bound_value=bound_value,
        bound_log10=bound_log10,
    )


def _ensemble(cfg: ExperimentConfig) -> Ensemble:
    """Solve one resolved ensemble, block by block, on ``cfg.workers`` processes."""
    blocks = [
        list(range(first, min(first + BLOCK_SIZE, cfg.n_paths)))
        for first in range(0, cfg.n_paths, BLOCK_SIZE)
    ]
    if cfg.workers == 1:
        return Ensemble.joined(_run_blocks(cfg, blocks))
    from concurrent.futures import ProcessPoolExecutor  # only multi-worker runs pay for it

    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(_run_blocks, cfg, [block]) for block in blocks]
        return Ensemble.joined([part for future in futures for part in future.result()])


def _write_outputs(
    cfg: ExperimentConfig,
    report: Optional[ErrorReport],
    ensemble: Ensemble,
    out_dir,
    command: str,
    elapsed: float,
):
    """Write manifest.json, and report.json and the saved paths unless the run failed (report None)."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "effective_config": cfg.as_dict(),
        "master_seed": cfg.master_seed,
        "versions": {
            "package": _package_version(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "timing_seconds": elapsed,
        "failures": ensemble.failures,
        "counts": {"quadrature_fallbacks": ensemble.quadrature_fallbacks},
    }
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    if report is None:
        return
    report.save(os.path.join(out_dir, "report.json"))
    if cfg.save_paths > 0:
        paths_dir = os.path.join(out_dir, "paths")
        os.makedirs(paths_dir, exist_ok=True)
        for index in sorted(ensemble.saved):
            ensemble.saved[index].to_csv(os.path.join(paths_dir, f"path_{index:06d}.csv"))


def _package_version() -> str:
    from . import __version__

    return __version__


def run_ensemble(config: ExperimentConfig, out_dir=None, command: str = "run_ensemble") -> ErrorReport:
    """Run the coupled solve over an ensemble of noise streams.

    Per-path failures (state blow-ups) are excluded and counted; more than
    10% of them fails the run with RunFailedError.  With ``out_dir`` set,
    writes manifest.json (with the step, time and system of each failed path
    and the run's counts), report.json, and each path with index below
    ``save_paths`` that did not fail as CSV; a run that fails its budget or
    whose bound is refused writes its manifest only.
    """
    cfg = config.resolved()
    started = time.perf_counter()
    ensemble = _ensemble(cfg)
    try:
        report = _aggregate(cfg, ensemble)
    except FracavgError:
        if out_dir is not None:
            _write_outputs(cfg, None, ensemble, out_dir, command, time.perf_counter() - started)
        raise
    if out_dir is not None:
        _write_outputs(cfg, report, ensemble, out_dir, command, time.perf_counter() - started)
    return report


def fit_rate(epsilons, means, cis):
    """Least-squares slope of log(mean) against log(epsilon), or a refusal.

    Returns (rate, stderr, degenerate_reason).  The fit is refused when any
    mean is exactly zero ("zero_error") or when every pair of mean +- ci
    intervals overlaps ("insufficient_resolution").
    """
    if any(m <= 0.0 for m in means):
        return None, None, "zero_error"
    overlap_all = all(
        (means[i] - cis[i] <= means[j] + cis[j])
        and (means[j] - cis[j] <= means[i] + cis[i])
        for i in range(len(epsilons))
        for j in range(i + 1, len(epsilons))
    )
    if overlap_all:
        return None, None, "insufficient_resolution"
    x = np.log(np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return float(coef[0]), float(math.sqrt(cov[0, 0])), None


def convergence_study(
    base_config: ExperimentConfig,
    epsilons,
    out_dir=None,
) -> ErrorReport:
    """Ensembles across a grid of small parameters with common random numbers.

    Requires at least three epsilon values in (0, 1] spanning at least two
    decades; a value outside (0, 1] is refused by name before anything else.
    The headline per-path fields come from the smallest epsilon; the study
    grid, per-epsilon means and confidence half-widths, and the fitted
    log-log slope ride along.  The fit is refused (fitted_rate None with a
    reason) when every pair of per-epsilon confidence intervals overlaps or
    any mean is exactly zero.  The manifest times the whole study and lists
    the failed paths of every ensemble, each with its epsilon.  A study whose
    ensemble fails its budget (or has its bound refused) writes the manifest
    of the ensembles solved so far, with that ensemble's config, and no
    report, then raises.
    """
    started = time.perf_counter()
    for e in epsilons:
        if not 0.0 < float(e) <= 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1]; got {float(e)} in the study grid")
    eps = sorted({float(e) for e in epsilons}, reverse=True)
    if len(eps) < 3:
        raise ConfigError(f"a study needs >= 3 distinct epsilon values; got {len(eps)}")
    if max(eps) / min(eps) < 100.0 * (1.0 - 1e-12):
        raise ConfigError(
            f"epsilon grid must span >= 2 decades; got [{min(eps):g}, {max(eps):g}]"
        )

    configs = {e: dataclasses.replace(base_config, epsilon=e).resolved() for e in eps}
    ensembles, reports = {}, {}

    def record(last: float) -> Ensemble:
        """The ensembles solved so far as one: the saved paths of the one at
        epsilon ``last``, and the failures of all, each tagged with its epsilon."""
        return dataclasses.replace(
            ensembles[last],
            failures=[dict(failure, epsilon=k) for k, part in ensembles.items() for failure in part.failures],
            quadrature_fallbacks=sum(part.quadrature_fallbacks for part in ensembles.values()),
        )

    for e in eps:
        ensembles[e] = _ensemble(configs[e])
        try:
            reports[e] = _aggregate(configs[e], ensembles[e])
        except FracavgError:
            if out_dir is not None:
                elapsed = time.perf_counter() - started
                _write_outputs(configs[e], None, record(e), out_dir, "convergence_study", elapsed)
            raise

    means = [reports[e].mean_sup_sq for e in eps]
    cis = [reports[e].ci_half_width for e in eps]
    fitted, stderr, degenerate = fit_rate(eps, means, cis)

    headline = reports[eps[-1]]
    report = dataclasses.replace(
        headline,
        fitted_rate=fitted,
        rate_stderr=stderr,
        degenerate_fit=degenerate,
        epsilons=eps,
        mean_by_epsilon=means,
        ci_by_epsilon=cis,
    )
    if out_dir is not None:
        elapsed = time.perf_counter() - started
        _write_outputs(configs[eps[-1]], report, record(eps[-1]), out_dir, "convergence_study", elapsed)
    return report


def reproduce_fig1(case: str, out_dir, /, **values) -> dict:
    """Run one worked-example case end to end and persist plot-ready data.

    ``values`` are config fields; problem and case (even one in ``values``)
    are forced, and at least one path is saved.  Emits the standard output
    layout (manifest.json, report.json, and the seeded path
    paths/path_000000.csv with columns t, X_1, Z_1, Er); returns the file
    paths.
    """
    cfg = ExperimentConfig.from_dict({**values, "problem": "eq10", "case": case}).resolved()
    cfg = dataclasses.replace(cfg, save_paths=max(1, cfg.save_paths))
    run_ensemble(cfg, out_dir=out_dir, command=f"fig1:{case}")
    return {
        "manifest": os.path.join(out_dir, "manifest.json"),
        "report": os.path.join(out_dir, "report.json"),
        "path_csv": os.path.join(out_dir, "paths", "path_000000.csv"),
    }
