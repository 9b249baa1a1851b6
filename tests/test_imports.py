"""Start-up imports: fracavg never imports scipy or ``numpy.fft``, and the
process pool loads only where it is used.

numpy is the only runtime dependency: every integral is numpy quadrature, so
fracavg runs with scipy blocked (``sys.modules["scipy"] = None`` makes any
import of it fail).  ``import fracavg`` must not load ``concurrent.futures``,
while ``numpy.random``, which numpy loads lazily, is loaded up front so that
its load never lands inside a timed solve.  The solver's far field is a sum
of exponentials, so no run, command or integral loads ``numpy.fft``.  The
checks run in a fresh interpreter, whose imports this one's do not hide,
and report back as JSON.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

from fracavg import averaging, levy
from fracavg.harness import ExperimentConfig, run_ensemble

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = ("concurrent.futures",)
NEVER = ("numpy.fft",)
WATCHED = ("numpy.random", "concurrent.futures", *NEVER)

EQ10 = ExperimentConfig(case="a", n_paths=4, horizon=1.0, step=0.02, master_seed=7, save_paths=0)
MLBENCH = ExperimentConfig(
    problem="mlbench", case=None, beta=0.6, x0=1.0, epsilon=1.0,
    horizon=1.0, step=0.01, n_paths=1, save_paths=0,
)
# smooth in z, so the shell table serves every step with 0 fallbacks
EXPR_JUMP = ExperimentConfig(
    problem="expr", case=None, jump_mode="compensated_prm", jump_expr="z*x",
    gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75, x0=1.0, epsilon=0.5,
    drift_expr="-x", diffusion_expr="0.1", avg_drift_expr="-x", avg_diffusion_expr="0.1",
    horizon=0.2, step=0.02, n_paths=4, save_paths=0,
)
POOLED = dataclasses.replace(EQ10, n_paths=6, workers=2)

SPEC = levy.JumpMeasureSpec(gamma=3.0, alpha=0.3, cutoff=0.5, delta=0.01)

# the command-line runs whose integrals were scipy's: the hypothesis probes and
# time averages, a compensated kink that the shell table cannot settle, and a
# nu-drift jump without a closed form, integrated over (0, cutoff) at every step
JUMP = [
    "--problem", "expr", "--beta", "0.75", "--epsilon", "1e-3", "--x0", "0.1", "--drift=-x",
    "--diffusion", "0.5", "--gamma", "1", "--alpha", "0.8", "--cutoff", "0.5",
    "--avg-drift=-x", "--avg-diffusion", "0.5", "--horizon", "0.2", "--step", "0.01",
]
COMMANDS = {
    "average": ["average", "--case", "a", "--t1-grid", "10", "--avg-horizon", "10", "--probes", "0.1,1"],
    "kink": ["simulate", *JUMP, "--jump", "abs(z-0.1)*x", "--jump-mode", "compensated_prm"],
    "nu_drift": ["simulate", *JUMP, "--jump", "z**2*x*sin(t)**2", "--jump-mode", "deterministic_nu_drift"],
}

CHILD = r"""
import json
import math
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
sys.path.insert(0, sys.argv[1])
import fracavg
import fracavg.cli
from fracavg import averaging, levy
from fracavg.harness import ExperimentConfig, run_ensemble

watched = tuple(sys.argv[2].split(","))
job = json.load(sys.stdin)


def loaded():
    return {name for name in sys.modules if name.startswith(watched)}


out = {"file": fracavg.__file__, "after_import": sorted(loaded()), "runs": {}}
for name, cfg in job["serial"].items():
    before = loaded()
    run_ensemble(ExperimentConfig.from_dict(cfg), out_dir=job["out"] + "/" + name)
    with open(job["out"] + "/" + name + "/manifest.json") as fh:
        counts = json.load(fh)["counts"]
    out["runs"][name] = {"new": sorted(loaded() - before), "counts": counts}

out["commands"] = {}
for name, argv in job["commands"].items():
    code = fracavg.cli.main(argv + ["--out", job["out"] + "/" + name])
    out["commands"][name] = code

spec = levy.JumpMeasureSpec(**job["spec"])
out["nu_open"] = levy.nu_integral(spec, lambda x: x, use_delta=False)
out["time_average"] = averaging.time_average(lambda t, x: 2.0 * x * math.cos(t) ** 2, 0.5, 10.0)
out["pooled"] = run_ensemble(ExperimentConfig.from_dict(job["pooled"])).per_path_sup_sq
out["at_exit"] = sorted(loaded())
print(json.dumps(out))
"""


def test_fresh_interpreter_runs_without_scipy_and_imports_the_pool_only_where_used(tmp_path):
    job = {
        "serial": {"eq10": EQ10.as_dict(), "mlbench": MLBENCH.as_dict(), "expr_jump": EXPR_JUMP.as_dict()},
        "commands": COMMANDS,
        "pooled": POOLED.as_dict(),
        "spec": dataclasses.asdict(SPEC),
        "out": str(tmp_path),
    }
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), ",".join(WATCHED)],
        input=json.dumps(job), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    assert Path(child["file"]).resolve().is_relative_to(SRC)

    after_import = child["after_import"]
    assert not [name for name in after_import if name.startswith(LAZY)]
    assert "numpy.random" in after_import
    assert not [name for name in child["at_exit"] if name.startswith(NEVER)]

    for name, run in child["runs"].items():
        assert run["new"] == [], name
    assert child["runs"]["expr_jump"]["counts"] == {"quadrature_fallbacks": 0}
    assert child["commands"] == {name: 0 for name in COMMANDS}
    manifest = json.loads((tmp_path / "kink" / "simulate" / "manifest.json").read_text())
    assert manifest["counts"] == {"quadrature_fallbacks": 20}  # every step of the one path
    assert (tmp_path / "average" / "average" / "hypothesis.json").is_file()

    # the integrals agree with this interpreter's
    assert child["nu_open"] == levy.nu_integral(SPEC, lambda x: x, use_delta=False)
    assert child["time_average"] == averaging.time_average(lambda t, x: 2.0 * x * math.cos(t) ** 2, 0.5, 10.0)
    assert child["pooled"] == run_ensemble(dataclasses.replace(POOLED, workers=1)).per_path_sup_sq
