"""The repository benchmark: one workload, repeated in fresh processes.

    python3 benchmarks/run.py --workload fig1_a --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition is a new interpreter
(rep.py) that imports fracavg from ``src/``, resolves the workload's config
and makes the workload's top-level call once with ``workers=1``.  A run
repeats the call while the next repetition is expected to end within
``--seconds``, then fills the time left with processes that only set up
(at least MIN_SETUP_SAMPLES set-ups in all).

With ``--trace 0`` it reports the end-to-end metrics.  On a shared host (the
2-CPU VM the benchmark was defined on) the speed drifts by up to 1.6x over
tens of seconds, so each repetition also times a fixed reference loop (rep.py's
``reference_s``) that uses no fracavg code, and every time is scaled to
seconds at the host speed where that loop takes REF_NOMINAL_S.  ``wall_s`` is
the mean scaled call time over the run (the run's total over its call
count); ``setup_s`` and ``peak_rss_mb`` are medians.  Raw seconds are printed
per repetition.  With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Metric names and units come from BENCHMARK.json.  Every
repetition's output is checked (see workloads.py), report.json must hash the
same in every repetition, and in traced runs the exact counts must repeat
and the layers' self times must account for the traced wall time.  The last
line of standard output is one JSON object: correct, attempted and failed
(paths, from report.json) and metrics.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_SETUP_SAMPLES = 7
# the reference loop's time on the machine the benchmark was defined on (it
# ranged from 0.14 to 0.36 s there as the host's speed drifted)
REF_NOMINAL_S = 0.2
# a repetition still running this long after the run started is killed, so
# that the run ends within three minutes whatever the program does
HARD_STOP_S = 170
# units of per-layer metrics that are counted or computed, never timed: they
# must read the same in every traced repetition at one seed
EXACT_UNITS = {"count", "B", "computed_flop", "computed_B"}
# the layers' self times sum to the root spans; the timer around the root
# call may add no more than this share of the traced wall time
ACCOUNTING_TOLERANCE = 0.01


class RepFailed(RuntimeError):
    pass


def scaled(seconds: float, reference: float) -> float:
    """Seconds at the host speed where the reference loop takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / reference


def wall_scaled(rep: dict) -> float:
    return scaled(rep["wall_s"], (rep["ref_before_s"] + rep["ref_after_s"]) / 2)


def run_rep(workload: str, seed: int, mode: str, out_dir: Path, timeout: float = HARD_STOP_S) -> dict:
    """One repetition in a fresh interpreter; returns rep.py's JSON result."""
    out_dir.mkdir(parents=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), mode, str(out_dir), repr(spawned)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    elapsed = time.monotonic() - spawned
    if proc.returncode != 0:
        raise RepFailed(f"{mode} repetition of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep.update(mode=mode, elapsed_s=elapsed)
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Repetitions, then set-up probes, while the next is expected to end by ``seconds``."""
    started = time.monotonic()
    deadline, hard_stop = started + seconds, started + HARD_STOP_S

    def run(mode, name):
        return run_rep(workload, seed, mode, work_dir / name, timeout=hard_stop - time.monotonic())

    def fits(expected_s):
        return time.monotonic() + expected_s <= deadline

    modes = ("plain", "traced") if trace else ("plain",)
    reps = []
    while len(reps) < len(modes) or fits(reps[-1]["elapsed_s"]):
        reps.append(run(modes[len(reps) % len(modes)], f"rep{len(reps)}"))
        shutil.rmtree(work_dir / f"rep{len(reps) - 1}" / "run")
    probes = []
    while len(reps) + len(probes) < MIN_SETUP_SAMPLES or fits(
        probes[-1]["elapsed_s"] if probes else reps[-1]["setup_s"]
    ):
        probes.append(run("setup", f"setup{len(probes)}"))
    return probes, reps


def summarise(spec: dict, probes: list, reps: list, trace: bool):
    """Metrics named in BENCHMARK.json, and the list of failed checks."""
    problems = [f for rep in reps for f in rep["failures"]]
    if len({rep["report_sha256"] for rep in reps}) != 1:
        problems.append("report.json differs between repetitions at one seed")
    plain = [rep for rep in reps if rep["mode"] == "plain"]
    traced = [rep for rep in reps if rep["mode"] == "traced"]
    if not trace:
        values = {
            "wall_s": statistics.fmean(wall_scaled(rep) for rep in plain),
            "setup_s": statistics.median(
                scaled(rep["setup_s"], rep["ref_before_s"]) for rep in probes + reps
            ),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
        wanted = spec["end_to_end"]
    else:
        for rep in traced:
            gap = abs(rep["accounted_s"] - rep["wall_s"])
            if gap > ACCOUNTING_TOLERANCE * rep["wall_s"]:
                problems.append(
                    f"layer self times sum to {rep['accounted_s']:.4f} s, traced wall is {rep['wall_s']:.4f} s"
                )
        # counts must repeat (checked below), so the first traced repetition's values stand
        exact = {m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS}
        values = {
            name: value if name in exact else statistics.median(rep["layers"][name] for rep in traced)
            for name, value in traced[0]["layers"].items()
        }
        values["trace.overhead_s"] = (
            statistics.fmean(wall_scaled(rep) for rep in traced)
            - statistics.fmean(wall_scaled(rep) for rep in plain)
        )
        wanted = spec["per_layer"]
        for name in sorted(exact):
            if len({rep["layers"][name] for rep in traced}) != 1:
                problems.append(f"{name} differs between traced repetitions")
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracavg" / "__init__.py").is_file():
        print(f"no fracavg sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        probes, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics, problems = summarise(spec, probes, reps, bool(args.trace))

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} setup_probes={len(probes)} "
        f"repetitions={len(reps)} report_sha256={reps[0]['report_sha256']}"
    )
    print("raw setup_s (reference s) of each process: " + " ".join(
        f"{r['setup_s']:.3f}({r['ref_before_s']:.3f})" for r in probes + reps
    ))
    print("raw wall_s (cpu_s, reference s) of each repetition: " + " ".join(
        f"{r['mode']}:{r['wall_s']:.3f}({r['cpu_s']:.3f}, {r['ref_after_s']:.3f})" for r in reps
    ))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": sum(rep["n_paths"] for rep in reps),
        "failed": sum(rep["n_failures"] for rep in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
