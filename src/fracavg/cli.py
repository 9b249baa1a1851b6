"""Command-line surface: simulate, average, bound, study, fig1.

Exit codes are a stable contract for scripting: 0 success, 1 runtime
failure (a solve or ensemble died), 2 usage or configuration error.  Every
successful invocation writes a manifest echoing its effective config; a
manifest can be fed back through --config to rerun the experiment.

The run commands (simulate, average, study, fig1) name each experiment flag's
destination after its ExperimentConfig field, and merge config file values,
then explicit flags, then the command's forced values into one config.  An
explicit flag that a forced value would replace, such as ``simulate --paths
2``, or that the command replaces itself, as ``study`` replaces ``--epsilon``
by each value of its grid, is a configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .averaging import averaged_jump_drift, probe_hypotheses, theorem_bound, time_average
from .errors import ConfigError, FracavgError
from .harness import ExperimentConfig, convergence_study, reproduce_fig1, run_ensemble
from .problems import FIG1_CASES, build_problem
from .solver import JumpMode

WORKERS_ENV = "FRACAVG_WORKERS"
DEFAULT_OUT = "fracavg_out"


def _parse_scalar(text: str):
    lowered = text.strip()
    if lowered.lower() in ("none", "null"):
        return None
    if lowered.lower() in ("true", "false"):
        return lowered.lower() == "true"
    try:
        return int(lowered)
    except ValueError:
        pass
    try:
        return float(lowered)
    except ValueError:
        pass
    return lowered


def load_config_file(path: str) -> dict:
    """Read a flat key=value config file (or a manifest.json) into a dict.

    In a flat file, ``none`` (or ``null``) is None for any key.  A string
    field keeps its value's text, so ``drift_expr = 5`` is the expression
    "5"; a tuple field reads a comma list of numbers; any other value is
    read as a bool, int, float or else text, and ExperimentConfig.validate
    refuses one of the wrong type by its key.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        return data.get("effective_config", data)
    field_types = {f.name: str(f.type) for f in dataclasses.fields(ExperimentConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in field_types:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _parse_scalar(value)
        if out[key] is not None and "str" in field_types[key]:
            out[key] = value.strip()
        elif out[key] is not None and "tuple" in field_types[key]:
            out[key] = tuple(_float_list(value))  # a comma list: bound_alphas = 0.05,0.0,0.05
    return out


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}")


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env is None:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer; got {env!r}")


def _flag(command: str, dest: str) -> str:
    """The option string of a command's flag with this argparse destination."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.option_strings[0] for a in commands.choices[command]._actions if a.dest == dest)


def _given_values(args, **forced) -> dict:
    """Config file values, then explicit flags, then forced values, as config fields.

    An explicit flag whose value a forced value would replace is a
    ConfigError naming the flag; config file values are replaced silently,
    so a manifest of any run command replays under another.  On eq10 a given
    beta, alpha or gamma must equal the preset of the case in effect; a
    manifest echo holds the preset values and passes.
    """
    values = load_config_file(args.config) if args.config else {}
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is None:
            continue
        if field.name in forced and value != forced[field.name]:
            raise ConfigError(
                f"{args.command} runs with {field.name} = {forced[field.name]!r}, so "
                f"{_flag(args.command, field.name)} {value!r} cannot apply"
            )
        values[field.name] = value
    values.update(forced)
    # the variable is a default of the commands that run a pool; simulate forces
    # one worker and average runs no ensemble, so neither reads it
    if "workers" not in values and args.command in ("study", "fig1"):
        values["workers"] = _default_workers()
    case = values.get("case", ExperimentConfig.case)
    eq10 = values.get("problem", ExperimentConfig.problem) == "eq10"
    if eq10 and isinstance(case, str) and case in FIG1_CASES:
        for key, preset in zip(("beta", "alpha", "gamma"), FIG1_CASES[case]):
            if key in values and values[key] != preset:
                raise ConfigError(
                    f"{key} = {values[key]!r} conflicts with case {case!r}, whose preset is "
                    f"{key} = {preset!r}; set case = none in a config file to give beta, "
                    "alpha and gamma directly"
                )
    return values


def _config_from_args(args, **forced) -> ExperimentConfig:
    """Merge defaults < config file < explicit flags < forced values into a validated config."""
    return ExperimentConfig.from_dict(_given_values(args, **forced)).resolved()


def _out_dir(args, command: str) -> str:
    base = getattr(args, "out", None) or DEFAULT_OUT
    return os.path.join(base, command)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file or a manifest.json")
    parser.add_argument(
        "--seed", dest="master_seed", type=int, help="master seed for noise streams"
    )
    parser.add_argument("--out", help=f"output directory root (default {DEFAULT_OUT})")
    parser.add_argument("--workers", type=int, help=f"worker processes (default ${WORKERS_ENV} or 1)")
    parser.add_argument("--step", type=float, help="grid step")
    parser.add_argument("--horizon", type=float, help="time horizon")
    parser.add_argument("--paths", dest="n_paths", type=int, help="ensemble size")


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", choices=["eq10", "mlbench", "expr"], help="built-in problem")
    parser.add_argument("--case", choices=sorted(FIG1_CASES), help="worked-example parameter preset")
    parser.add_argument("--beta", type=float, help="kernel order in (0.5, 1)")
    parser.add_argument("--alpha", type=float, help="jump stability index in (0, 2)")
    parser.add_argument("--gamma", type=float, help="jump intensity scale")
    parser.add_argument("--cutoff", type=float, help="outer jump truncation")
    parser.add_argument("--delta", type=float, help="inner jump simulation cutoff")
    parser.add_argument("--epsilon", type=float, help="small parameter in (0, 1]")
    parser.add_argument("--x0", type=float, help="initial state")
    parser.add_argument(
        "--drift", dest="drift_expr", help="scalar drift expression in t, x (expr problem)"
    )
    parser.add_argument(
        "--diffusion", dest="diffusion_expr", help="scalar diffusion expression in t, x"
    )
    parser.add_argument("--jump", dest="jump_expr", help="scalar jump expression in t, x, z")
    parser.add_argument("--avg-drift", dest="avg_drift_expr", help="averaged drift expression in x")
    parser.add_argument(
        "--avg-diffusion", dest="avg_diffusion_expr", help="averaged diffusion expression in x"
    )
    parser.add_argument(
        "--avg-jump-drift", dest="avg_jump_drift_expr", help="averaged jump-drift expression in x"
    )
    parser.add_argument(
        "--jump-mode",
        dest="jump_mode",
        choices=["compensated_prm", "deterministic_nu_drift"],
        help="how the jump coefficient enters",
    )


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args, n_paths=1, save_paths=1, workers=1)
    out = _out_dir(args, "simulate")
    report = run_ensemble(cfg, out_dir=out, command="simulate")
    print(f"simulated 1 coupled path: sup Er = {report.mean_sup_er:.6g}")
    print(f"wrote {out}/manifest.json, report.json, paths/path_000000.csv")
    return 0


def cmd_average(args) -> int:
    cfg = _config_from_args(args, n_paths=1)
    t1_grid = _float_list(args.t1_grid) if args.t1_grid else [10.0, 100.0, 1000.0]
    probes = _float_list(args.probes) if args.probes else [0.01, 0.1, 1.0, 10.0]
    if not all(map(math.isfinite, probes)):
        raise ValueError(f"probe states must be finite; got {', '.join(map(repr, probes))}")
    problem = build_problem(cfg)
    out = _out_dir(args, "average")
    os.makedirs(out, exist_ok=True)

    avg_horizon = args.avg_horizon if args.avg_horizon is not None else 100.0 * math.pi
    coeffs = problem.coeffs
    state = problem.x0[None]  # a batch of one state, as coefficient sets expect
    drift_avg = time_average(coeffs.drift, state, avg_horizon)
    print(f"time-averaged drift at x0={cfg.x0:g}: {float(drift_avg[0, 0]):.10g}")
    # a jump drift over (0, cutoff) exists in NU_DRIFT mode only: a compensated
    # jump integrates over [delta, cutoff), and its open-range integral may diverge
    if coeffs.jump is not None and coeffs.jump_mode == JumpMode.NU_DRIFT:
        unit = np.array([[1.0]])
        if coeffs.jump_drift is not None:
            # the closed-form integral of the jump coefficient over (0, cutoff)
            jd = time_average(coeffs.jump_drift, unit, avg_horizon).reshape(-1)
        else:
            jd = averaged_jump_drift(problem.spec, coeffs.jump, unit, avg_horizon)
        gamma1 = float(jd[0]) / math.sqrt(cfg.epsilon)
        print(f"averaged jump drift per unit state: {float(jd[0]):.10g}")
        print(f"gamma1 = {gamma1:.10g}")
        print(f"averaged drift coefficient (1 + gamma1) = {1.0 + gamma1:.10g}")

    report = probe_hypotheses(
        problem.coeffs,
        problem.averaged,
        spec=problem.spec,
        t1_grid=t1_grid,
        probe_states=[np.array([v]) for v in probes],
        times=np.linspace(0.0, min(cfg.horizon, 10.0), 21),
    )
    path = os.path.join(out, "hypothesis.json")
    report.save(path)
    flags = report.envelope.decay_flags
    print(f"lipschitz estimate C1 = {report.lipschitz_estimate:.6g}")
    print(f"growth estimate C2 = {report.growth_estimate:.6g}")
    print(f"residual decay flags: {flags}")
    print(f"wrote {path}")
    return 0


def cmd_bound(args) -> int:
    alphas = _float_list(args.alphas)
    if len(alphas) != 3:
        raise ConfigError(f"--alphas needs exactly three values; got {len(alphas)}")
    epsilons = _float_list(args.epsilons) if args.epsilons else [1e-2, 1e-3, 1e-4]
    # theorem_bound's own defaults hold for a constant that is not given
    given = {key: getattr(args, key) for key in ("lam", "big_l") if getattr(args, key) is not None}
    report = theorem_bound(
        c1=args.c1,
        alpha_sups=alphas,
        z_moment=args.z_moment,
        beta=args.beta,
        epsilon=epsilons,
        **given,
    )
    for eps, value, log10 in zip(report.epsilons, report.bounds, report.log10_bounds):
        if value is None:
            print(f"epsilon = {eps:g}: bound = 10^{log10:.10g} (beyond float64)")
        else:
            print(f"epsilon = {eps:g}: bound = {value:.10g}")
    out = _out_dir(args, "bound")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "bound.json")
    report.save(path)
    print(f"wrote {path}")
    return 0


def cmd_study(args) -> int:
    # the study replaces epsilon by each value of its grid, so a given one cannot apply
    if args.epsilon is not None:
        raise ConfigError(
            f"study runs each epsilon of --epsilons, so --epsilon {args.epsilon!r} cannot apply"
        )
    epsilons = _float_list(args.epsilons)
    cfg = _config_from_args(args)
    out = _out_dir(args, "study")
    report = convergence_study(cfg, epsilons, out_dir=out)
    for eps, mean, ci in zip(report.epsilons, report.mean_by_epsilon, report.ci_by_epsilon):
        print(f"epsilon = {eps:g}: mean sup-square error = {mean:.6g} +- {ci:.3g}")
    if report.fitted_rate is not None:
        print(f"fitted log-log slope = {report.fitted_rate:.4f} +- {report.rate_stderr:.4f}")
    else:
        print(f"fit refused: {report.degenerate_fit}")
    print(f"wrote {out}/report.json")
    return 0


def cmd_fig1(args) -> int:
    # --case, else the config file's case, selects one case; without either all four run
    chosen = _given_values(args)
    cases = [chosen["case"]] if "case" in chosen else sorted(FIG1_CASES)
    if cases == [None]:
        raise ConfigError("fig1 runs the worked-example presets; case = none selects none of them")
    given = {case: _given_values(args, problem="eq10", case=case) for case in cases}
    base = args.out or DEFAULT_OUT
    for case in cases:
        files = reproduce_fig1(case, os.path.join(base, f"fig1_{case}"), **given[case])
        print(f"case {case}: wrote {files['path_csv']} and {files['report']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracavg",
        description=(
            "Simulate memory-kernel stochastic systems with small-jump noise, "
            "construct their time-averaged counterparts, and measure how closely "
            "the averaged paths track the originals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="solve one coupled path and write CSV + manifest")
    _add_common(p_sim)
    _add_problem_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_avg = sub.add_parser("average", help="construct averaged coefficients and probe hypotheses")
    _add_common(p_avg)
    _add_problem_flags(p_avg)
    p_avg.add_argument("--avg-horizon", dest="avg_horizon", type=float, help="averaging horizon")
    p_avg.add_argument("--t1-grid", dest="t1_grid", help="comma list of residual horizons")
    p_avg.add_argument("--probes", help="comma list of probe states")
    p_avg.set_defaults(func=cmd_average)

    p_bound = sub.add_parser("bound", help="evaluate the closeness bound over an epsilon grid")
    p_bound.add_argument("--c1", type=float, required=True, help="Lipschitz constant estimate")
    p_bound.add_argument("--alphas", required=True, help="three residual suprema a1,a2,a3")
    p_bound.add_argument("--z-moment", dest="z_moment", type=float, default=2.0,
                         help="estimate of 1 + E sup|Z|^2")
    p_bound.add_argument("--beta", type=float, default=0.75, help="kernel order (default %(default)s)")
    p_bound.add_argument("--epsilons", help="comma list of epsilon values")
    p_bound.add_argument("--lambda", dest="lam", type=float, help="exponent split in (0,1)")
    p_bound.add_argument("--L", dest="big_l", type=float, help="horizon scale constant")
    p_bound.add_argument("--out", help=f"output directory root (default {DEFAULT_OUT})")
    p_bound.set_defaults(func=cmd_bound)

    p_study = sub.add_parser("study", help="convergence study across an epsilon grid")
    _add_common(p_study)
    _add_problem_flags(p_study)
    p_study.add_argument("--epsilons", required=True, help="comma list of >= 3 epsilon values")
    p_study.set_defaults(func=cmd_study)

    p_fig1 = sub.add_parser("fig1", help="reproduce the worked-example comparison cases")
    _add_common(p_fig1)
    p_fig1.add_argument("--case", choices=sorted(FIG1_CASES), help="single case (default: all)")
    p_fig1.set_defaults(func=cmd_fig1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 2
    except FracavgError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
