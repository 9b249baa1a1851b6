"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/tests -q

The slow tests run real repetitions (about a minute on 2 CPUs): the exact counts
must repeat across fresh processes and match the figures the benchmark was
defined with, and the seed must reach every report that depends on noise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
from fracavg.problems import build_eq10, build_mlbench  # noqa: E402
from tracing import history_cost, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] in run.EXACT_UNITS]
SEED, OTHER_SEED = 1, 1009

# counts at the commit that defined the benchmark (mlbench and eq10 draw no
# jump events, so those counts hold at every seed)
EXPECTED_COUNTS = {
    "fig1_a": {"solver.solve_coupled_calls": 51, "levy.nu_integral_calls": 0,
               "problems.build_calls": 2, "levy.jump_events": 0,
               "solver.history_flops": 51 * 2 * 3 * 2 * 1000 * 1001 // 2},
    "mlbench_long": {"solver.solve_coupled_calls": 4, "levy.nu_integral_calls": 0,
                     "problems.build_calls": 2, "levy.jump_events": 0,
                     "solver.history_flops": 4 * 2 * 2 * 2 * 10000 * 10001 // 2},
    "jumps_quad": {"solver.solve_coupled_calls": 2, "levy.nu_integral_calls": 2000,
                   "problems.build_calls": 1,
                   "solver.history_flops": 2 * 2 * 2 * 2 * 1000 * 1001 // 2},
}
# mlbench is deterministic (zero diffusion, no jumps): no seed can reach its report
SEED_REACHES_REPORT = {"fig1_a": True, "mlbench_long": False, "jumps_quad": True}


@pytest.fixture(scope="module")
def rep(tmp_path_factory):
    cache = {}

    def get(workload, seed, mode, index=0):
        key = (workload, seed, mode, index)
        if key not in cache:
            out = tmp_path_factory.mktemp("rep") / "out"
            cache[key] = run.run_rep(workload, seed, mode, out)
        return cache[key]

    return get


def _span(id_, parent, layer, name, start, end, **attrs):
    return dict(id=id_, parent=parent, run="t", layer=layer, name=name, start=start, end=end, **attrs)


def test_self_times_subtract_direct_children_only():
    spans = [
        _span(0, None, "harness", "run_ensemble", 0.0, 10.0),
        _span(1, 0, "solver", "solve_coupled", 1.0, 7.0, steps=10, flops=4, bytes=8),
        _span(2, 1, "levy", "nu_integral", 2.0, 5.0),
        _span(3, 0, "harness", "output", 8.0, 9.5),
        _span(4, 0, "levy", "sample_noise", 0.5, 1.0, events=3, bytes=16),
    ]
    assert self_times(spans) == [10.0 - 6.0 - 1.5 - 0.5, 3.0, 3.0, 1.5, 0.5]
    metrics = layer_metrics(spans, output_bytes=5)
    assert metrics["solver.self_s"] == 3.0
    assert metrics["levy.self_s"] == 3.5
    assert metrics["harness.self_s"] == 2.0
    assert metrics["harness.output_s"] == 1.5
    assert metrics["solver.step_us"] == pytest.approx(3.0e5)
    assert sum(self_times(spans)) == 10.0


def test_history_cost_counts_the_memory_sums():
    eq10 = build_eq10(beta=0.6, alpha=0.3, gamma=3.0, cutoff=0.5, epsilon=1e-3)
    assert history_cost(eq10.coeffs, 4) == (3 * 2 * 10, 3 * 8 * 2 * 10)
    assert history_cost(build_mlbench(beta=0.6).coeffs, 4) == (2 * 2 * 10, 2 * 8 * 2 * 10)


def _fake_rep(mode, sha="a", **layers):
    return {"mode": mode, "wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 80.0, "n_paths": 2,
            "ref_before_s": run.REF_NOMINAL_S, "ref_after_s": run.REF_NOMINAL_S,
            "n_failures": 0, "report_sha256": sha, "failures": [], "accounted_s": 1.0,
            "layers": {**{m["name"]: 1 for m in SPEC["per_layer"][:-1]}, **layers}}


def test_summarise_reports_every_metric_of_the_spec():
    reps = [_fake_rep("plain"), _fake_rep("traced")]
    metrics, problems = run.summarise(SPEC, [_fake_rep("setup")], reps, trace=False)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]] and not problems
    assert metrics["wall_s"]["value"] == 1.0 and metrics["setup_s"]["value"] == 0.5
    metrics, problems = run.summarise(SPEC, [], reps, trace=True)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]] and not problems


def test_times_are_scaled_by_the_reference_loop():
    slow_host = _fake_rep("plain")
    slow_host.update(ref_before_s=2 * run.REF_NOMINAL_S, ref_after_s=2 * run.REF_NOMINAL_S)
    metrics, _ = run.summarise(SPEC, [], [slow_host], trace=False)
    assert metrics["wall_s"]["value"] == 0.5 and metrics["setup_s"]["value"] == 0.25


def test_summarise_flags_counts_hashes_and_accounting_that_disagree():
    reps = [_fake_rep("plain"), _fake_rep("traced", **{"levy.jump_events": 7}),
            _fake_rep("plain", sha="b"), _fake_rep("traced")]
    reps[3]["accounted_s"] = 0.9
    _, problems = run.summarise(SPEC, [], reps, trace=True)
    assert any("levy.jump_events differs" in p for p in problems)
    assert any("report.json differs" in p for p in problems)
    assert any("self times sum to" in p for p in problems)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fig1_a", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat_across_processes(rep, workload):
    first, second = rep(workload, SEED, "traced", 0), rep(workload, SEED, "traced", 1)
    assert first["failures"] == [] and second["failures"] == []
    assert first["report_sha256"] == second["report_sha256"]
    for name in EXACT:
        assert first["layers"][name] == second["layers"][name], name
    for name, value in EXPECTED_COUNTS[workload].items():
        assert first["layers"][name] == value, name
    for r in (first, second):
        assert abs(r["accounted_s"] - r["wall_s"]) <= run.ACCOUNTING_TOLERANCE * r["wall_s"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_reaches_the_report(rep, workload):
    here, there = rep(workload, SEED, "traced", 0), rep(workload, OTHER_SEED, "plain")
    assert there["failures"] == [] and there["n_failures"] == 0
    assert (here["report_sha256"] != there["report_sha256"]) == SEED_REACHES_REPORT[workload]
