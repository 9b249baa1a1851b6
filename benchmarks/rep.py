"""One repetition of a workload in a fresh interpreter; run.py starts it.

    python3 benchmarks/rep.py WORKLOAD SEED MODE OUT_DIR SPAWN_TIME

MODE is ``setup`` (import and resolve the config, then stop), ``plain`` (the
timed call, untraced) or ``traced`` (the same call under the span tracer,
whose spans go to OUT_DIR/spans.jsonl).  SPAWN_TIME is the caller's
``time.monotonic()`` just before starting this process, so ``setup_s``
covers interpreter start-up too.  ``reference_s`` runs right after set-up and
again right after the call, to measure the host's speed at those moments.
Prints one JSON object as its last line.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import fracavg  # noqa: E402
from tracing import Tracer, accounted_s, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _output_bytes(path: Path) -> int:
    """Bytes the run wrote, less manifest.json, whose timing field varies."""
    return sum(
        p.stat().st_size for p in path.rglob("*") if p.is_file() and p.name != "manifest.json"
    )


def reference_s(steps: int = 3000, rounds: int = 8) -> float:
    """Seconds a fixed, solver-shaped loop takes now: the host's current speed.

    Per step it makes a small array from a Python float expression and takes a
    reversed dot product over the growing history, as ``_solve_mild`` does,
    but it uses no fracavg code, so changes to the program cannot move it.
    """
    weights = np.arange(1, steps + 1, dtype=float) ** -0.4
    history = np.zeros((steps, 1))
    started = time.perf_counter()
    for _ in range(rounds):
        x = np.array([0.1])
        for n in range(1, steps + 1):
            history[n - 1] = np.array([2.0 * float(x[0]) * math.cos(n * 1e-2) ** 2])
            x = 0.1 + 1e-4 * (weights[:n][::-1] @ history[:n])
    return time.perf_counter() - started


def main(argv) -> dict:
    name, seed, mode, out_dir, spawned = argv
    if not Path(fracavg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fracavg was imported from {fracavg.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[name]
    cfg = workload.config(int(seed))
    result = {"setup_s": time.monotonic() - float(spawned), "ref_before_s": reference_s()}
    if mode == "setup":
        return result

    out = Path(out_dir)
    tracer = None
    if mode == "traced":
        tracer = Tracer(run_id=f"{name}:{seed}:{out.name}")
        tracer.install()
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        report_dir = workload.run(cfg, out / "run")
    finally:
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu_started
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after_s = reference_s()

    report_bytes = (report_dir / "report.json").read_bytes()
    report = json.loads(report_bytes)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        ref_after_s=ref_after_s,
        peak_rss_mb=peak_rss_mb,
        n_paths=report["n_paths"],
        n_failures=report["n_failures"],
        report_sha256=hashlib.sha256(report_bytes).hexdigest(),
        failures=workload.check(cfg, report_dir, report),
    )
    if tracer is not None:
        tracer.write(out / "spans.jsonl")
        result["layers"] = layer_metrics(tracer.spans, _output_bytes(out / "run"))
        result["accounted_s"] = accounted_s(tracer.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), sort_keys=True))
