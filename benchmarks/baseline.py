"""Record the benchmark's baseline: ten seeds per workload and one traced run.

    python3 benchmarks/baseline.py [--seeds 1,2,...] [--out benchmarks/baseline.json]

Runs run.py once per (workload, seed) with tracing off and once per workload
with tracing on at the default seed, all at BENCHMARK.json's run_seconds.
For each end-to-end metric it prints the median and the spread, the distance
between the first and third quartiles as a share of the median, next to the
metric's bound.  It writes those figures, the machine's facts (read only),
the seeds and the layer-to-metric predictions to one JSON file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009  # never used while the benchmark or a change is tuned

# Which end-to-end metric each per-layer metric should move, and where.
PREDICTIONS = [
    {"layer_metrics": ["solver.solve_coupled_calls", "solver.solve_coupled_s", "solver.self_s",
                       "solver.path_ms_p50", "solver.path_ms_p90", "solver.step_us"],
     "moves": ["wall_s"], "workload": "fig1_a",
     "note": "solve is about 99% of wall, dominated by per-step Python overhead"},
    {"layer_metrics": ["solver.history_flops", "solver.history_bytes", "solver.history_gflops_per_s"],
     "moves": ["wall_s", "peak_rss_mb"], "workload": "mlbench_long",
     "note": "the O(N^2) sum at N = 10^4 dominates; small on fig1_a (N = 10^3); flops and bytes are computed"},
    {"layer_metrics": ["harness.output_s", "harness.output_bytes", "harness.self_s"],
     "moves": ["wall_s"], "workload": "mlbench_long",
     "note": "2 of its 4 coupled solves re-solve the saved paths and it writes about 1 MB; 1 re-solve of 51 on fig1_a"},
    {"layer_metrics": ["levy.nu_integral_calls", "levy.self_s"],
     "moves": ["wall_s"], "workload": "jumps_quad",
     "note": "2000 quadrature calls, about 92% of wall; 0 calls on fig1_a and mlbench_long"},
    {"layer_metrics": ["levy.sample_noise_calls", "levy.sample_noise_s", "levy.jump_events", "levy.noise_bytes"],
     "moves": ["wall_s", "peak_rss_mb"], "workload": "jumps_quad",
     "note": "about 11k jump events; under 1% on fig1_a, guards batched noise"},
    {"layer_metrics": ["problems.build_calls", "problems.build_s"],
     "moves": ["setup_s", "wall_s"], "workload": "all",
     "note": "2, 2 and 1 builds per call"},
    {"layer_metrics": ["trace.overhead_s"], "moves": [], "workload": "all",
     "note": "mean scaled wall of traced calls minus that of untraced calls in the same run"},
]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        if level:
            caches[int(level)] = _read(str(index / "size")).strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_size": caches[max(caches)] if caches else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr}")
    sha = next(w.split("=", 1)[1] for w in proc.stdout.split() if w.startswith("report_sha256="))
    return {"seed": seed, "report_sha256": sha, "attempted": result["attempted"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    record = {
        "machine": machine_facts(),
        "run_seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    try:
        record["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        record["commit"] = None
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, seed, seconds, 0) for seed in seeds]
        summary = {m["name"]: spread([r[m["name"]] for r in runs]) for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            s = summary[m["name"]]
            print(f"{name:14s} {m['name']:12s} median {s['median']:.4f} {m['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound {m['bound']})", flush=True)
        traced = bench(name, DEFAULT_SEED, seconds, 1)
        untraced = {r["report_sha256"] for r in runs if r["seed"] == DEFAULT_SEED}
        if untraced and untraced != {traced["report_sha256"]}:
            raise RuntimeError(f"{name}: report.json at seed {DEFAULT_SEED} differs between runs")
        record["workloads"][name] = {"why": w["why"], "runs": runs, "summary": summary, "traced": traced}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
