"""Outside-in span tracing of fracavg's layers.

The tracer replaces the public entry point of each layer, as the calling
module sees it, with a wrapper that records a span: id, parent, run id,
layer, name, start and end.  Spans stay in memory until ``write``.  Nothing
in the program changes; ``uninstall`` puts the original functions back.

``kernels`` and ``averaging`` are not wrapped: the solver inlines its own
kernel weights and ``theorem_bound`` runs only when bound constants are set,
so no workload reaches them on a timed path.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import fracavg.cli
import fracavg.harness
import fracavg.levy
import fracavg.solver
from fracavg.solver import JumpMode

OUTPUT = "output"  # the name of harness spans that write files


def history_cost(coeffs, n_steps: int) -> tuple[int, int]:
    """Flops and bytes of one system's memory sums over a whole solve.

    ``_solve_mild`` forms, at step n, one length-n weighted sum per history
    array: drift and stochastic always, plus the nu-drift array in
    deterministic jump mode.  Each sum does 2*n*dim flops and reads n weights
    and n*dim values of 8 bytes.  These are computed, not counted.
    """
    has_jump = coeffs.jump is not None or coeffs.jump_drift is not None
    sums = 3 if has_jump and coeffs.jump_mode == JumpMode.NU_DRIFT else 2
    step_total = n_steps * (n_steps + 1) // 2  # sum of n over the steps
    return sums * 2 * coeffs.dim * step_total, sums * 8 * (1 + coeffs.dim) * step_total


def _solve_attrs(args, kwargs, result) -> dict:
    coeffs, avg_coeffs, noise = args[:3]
    n_steps = noise.grid.n_steps
    flops_o, bytes_o = history_cost(coeffs, n_steps)
    flops_a, bytes_a = history_cost(avg_coeffs, n_steps)
    return {"steps": 2 * n_steps, "flops": flops_o + flops_a, "bytes": bytes_o + bytes_a}


def _noise_attrs(args, kwargs, result) -> dict:
    nbytes = result.increments.nbytes + result.jump_times.nbytes + result.jump_marks.nbytes
    return {"events": result.n_events, "bytes": nbytes}


# (module or class as the caller looks it up, attribute, layer, attrs hook)
ENTRY_POINTS = (
    (fracavg.cli, "main", "cli", None),
    (fracavg.cli, "reproduce_fig1", "harness", None),
    (fracavg.harness, "run_ensemble", "harness", None),
    (fracavg.harness.ErrorReport, "save", "harness", None),
    (fracavg.solver.CoupledPaths, "to_csv", "harness", None),
    (fracavg.harness, "build_problem", "problems", None),
    (fracavg.harness, "sample_noise", "levy", _noise_attrs),
    (fracavg.levy, "nu_integral", "levy", None),
    (fracavg.harness, "solve_coupled", "solver", _solve_attrs),
)
OUTPUT_ENTRY_POINTS = {"save", "to_csv"}


class Tracer:
    """Records nested spans around the wrapped entry points of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for owner, attr, layer, attrs in ENTRY_POINTS:
            name = OUTPUT if attr in OUTPUT_ENTRY_POINTS else attr
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, name, attrs))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: str, name: str, attrs):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans), "parent": open_[-1] if open_ else None,
                "run": self.run_id, "layer": layer, "name": name,
            }
            spans.append(span)
            open_.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                open_.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - covered[span["id"]] for span in spans]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans: list[dict], output_bytes: int) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    own = self_times(spans)

    def pick(layer, name=None):
        return [(s, t) for s, t in zip(spans, own)
                if s["layer"] == layer and (name is None or s["name"] == name)]

    solves = pick("solver")
    noises = pick("levy", "sample_noise")
    builds = pick("problems")
    solver_self = sum(t for _, t in solves)
    path_ms = [1e3 * (s["end"] - s["start"]) for s, _ in solves]
    flops = sum(s["flops"] for s, _ in solves)
    return {
        "solver.solve_coupled_calls": len(solves),
        "solver.solve_coupled_s": sum(s["end"] - s["start"] for s, _ in solves),
        "solver.self_s": solver_self,
        "solver.path_ms_p50": statistics.median(path_ms),
        "solver.path_ms_p90": _p90(path_ms),
        "solver.step_us": 1e6 * solver_self / sum(s["steps"] for s, _ in solves),
        "solver.history_flops": flops,
        "solver.history_bytes": sum(s["bytes"] for s, _ in solves),
        "solver.history_gflops_per_s": flops / solver_self / 1e9,
        "harness.output_s": sum(t for s, t in pick("harness", OUTPUT)),
        "harness.output_bytes": output_bytes,
        "harness.self_s": sum(t for s, t in pick("harness") if s["name"] != OUTPUT),
        "levy.nu_integral_calls": len(pick("levy", "nu_integral")),
        "levy.self_s": sum(t for _, t in pick("levy")),
        "levy.sample_noise_calls": len(noises),
        "levy.sample_noise_s": sum(t for _, t in noises),
        "levy.jump_events": sum(s["events"] for s, _ in noises),
        "levy.noise_bytes": sum(s["bytes"] for s, _ in noises),
        "problems.build_calls": len(builds),
        "problems.build_s": sum(t for _, t in builds),
    }


def accounted_s(spans: list[dict]) -> float:
    """Sum of every layer's self time; equals the root spans' total duration."""
    return sum(self_times(spans))
