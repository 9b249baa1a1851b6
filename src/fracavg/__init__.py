"""Simulation of memory-kernel stochastic systems with small-jump noise.

The package solves Caputo-type fractional stochastic equations driven by
Brownian motion and compensated small jumps, builds their time-averaged
counterparts, and measures how closely the averaged paths track the original
ones as the small parameter shrinks.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    FracavgError,
    PathBlowupError,
    RunFailedError,
)
from .kernels import (
    FractionalOrder,
    KernelWeights,
    as_order,
    build_kernel_weights,
    gamma_fn,
    mittag_leffler,
)
from .levy import (
    JumpMeasureSpec,
    NoiseBlock,
    NoiseRealization,
    TimeGrid,
    noise_stream,
    nu_integral,
    sample_noise,
)
from .solver import (
    AveragedCoefficientSet,
    CoefficientSet,
    CoupledBlock,
    CoupledPaths,
    GridPath,
    JumpMode,
    solve_averaged,
    solve_coupled,
    solve_original,
)
from .averaging import (
    BoundReport,
    HypothesisReport,
    averaged_jump_drift,
    h3_residuals,
    probe_hypotheses,
    theorem_bound,
    time_average,
)
from .harness import (
    ErrorReport,
    ExperimentConfig,
    convergence_study,
    reproduce_fig1,
    run_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedCoefficientSet",
    "BoundReport",
    "CoefficientSet",
    "ConfigError",
    "ConvergenceError",
    "CoupledBlock",
    "CoupledPaths",
    "DivergenceError",
    "ErrorReport",
    "ExperimentConfig",
    "FracavgError",
    "FractionalOrder",
    "GridPath",
    "HypothesisReport",
    "JumpMeasureSpec",
    "JumpMode",
    "KernelWeights",
    "NoiseBlock",
    "NoiseRealization",
    "PathBlowupError",
    "RunFailedError",
    "TimeGrid",
    "as_order",
    "averaged_jump_drift",
    "build_kernel_weights",
    "convergence_study",
    "gamma_fn",
    "h3_residuals",
    "mittag_leffler",
    "noise_stream",
    "nu_integral",
    "probe_hypotheses",
    "reproduce_fig1",
    "run_ensemble",
    "sample_noise",
    "solve_averaged",
    "solve_coupled",
    "solve_original",
    "theorem_bound",
    "time_average",
]
