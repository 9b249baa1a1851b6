"""Path discretization of the small-parameter system and its time-averaged twin.

The state at grid time t_n is the mild-solution sum

    X_n = X_0 + (eps / Gamma(beta)) * sum_{j<n} w_{n,j} f(t_j, X_j)
        + (sqrt(eps) / Gamma(beta)) * sum_{j<n} (t_n - t_j)^(beta-1) [G(t_j, X_j) dB_j + jump_j]
        + (sqrt(eps) / Gamma(beta)) * sum_{j<n} w_{n,j} * nu_drift_j        (deterministic jump mode)

with w_{n,j} the exact kernel cell integrals (``kernels.build_kernel_weights``).
Deterministic terms use exact product integration; stochastic increments use
the kernel evaluated at the step's left endpoint, which stays finite for
j < n and matches the left-limit state convention: every coefficient at step
j sees X_j, never X_{j+1}.

One time loop steps a whole block of P paths (a ``NoiseBlock``) of one or
more systems: the coupled solve steps the original and the averaged system
together on their shared noise.  Each system's state has shape (P, dim), and
coefficients follow one broadcasting contract:
``drift(t, X) -> (P, dim)``, ``diffusion(t, X) -> (P, dim, brownian_dim)``,
``jump(t, X, z) -> (P, dim)`` and ``jump_drift(t, X) -> (P, dim)``, where
the event times and marks handed to ``jump`` are scalars or (P,) arrays.  The
averaged system's coefficients take the same arguments without t.  A solve
returns read-only arrays: (N + 1, P, dim) states per system in a
``CoupledBlock``, one path's (N + 1, dim) states in a ``CoupledPaths``.

The three memory sums share one history array (the scaled terms of each
step in a drift-kernel and a left-end-kernel slot), and every weight depends
on the lag n - j only.  Each step writes its terms already scaled: f times
eps / Gamma(beta) in slot 0; G dB and each compensated jump term times
sqrt(eps) / Gamma(beta) in slot 1.  For a constant diffusion (``_Constant``,
additive noise) G dB does not depend on the state, so it is filled into
slot 1 of a block's rows right before the block is solved, by one product
per system, and the diffusion is never called.  Every other coefficient is
called at every step the loop takes.

The sum over that history is blocked by BASE-step blocks.  Near field: step
n sums the rows of its own block, j >= n0 = n - n % BASE, as one
weights-by-history product, and the rows of the previous block, at lags
1 .. 2 BASE - 1, are added to the block's states at its start by one
(BASE x 2 BASE) product per system.  Far field: the kernel t^(beta - 1) is
completely monotone, so on [BASE h, N h] it is a sum of K decaying
exponentials to within ~1.5e-14 relative (``_exponential_modes``; Lubich &
Schaedle, SIAM J. Sci. Comput. 24, 2002; Jiang, Zhang, Zhang & Zhang,
Commun. Comput. Phys. 21, 2017), and each mode integrates a cell exactly.
The rows older than the previous block are K running sums per column (the
modes): at each block start the block before the previous one enters them
(modes = decay * modes + U @ rows), and the block's far-field sums are one
(BASE x K) by (K x columns) product.  So the history array holds only the
current and the previous block, and a block of P paths costs
O(N * (BASE + K) * P) in O(N) Python steps; for N < BASE it is the direct
sum.

When every system is affine (a ``_Linear`` drift a(t) X, a ``_Constant``
diffusion, and as its jump part none, a NU_DRIFT ``_Linear`` jump drift
b(t) X, or a ``_Linear`` jump phi(t, z) X without a closed-form rate), slot
0 of step j is f_j X_j with f_j = c_drift a(t_j) + c_stoch b(t_j), where b
of a NU_DRIFT jump is its rate over (0, cutoff), one ``nu_integral`` for
all steps.  Slot 1 is eta_j + e_j X_j, eta the filled noise terms.  A
compensated jump has e_j = c_stoch (sum of phi over the step's events of
the path, in the event table's order, less h rho(t_j)), with the rate rho
read off the shell table for all steps at once (the steps the table cannot
settle are refined by one ``nu_integral``, and each counts one fallback
per path); otherwise e = 0.  These tables are built once per solve, and the
states of a near-field block [n0, n0 + BASE) are a unit lower triangular
linear system (I - W diag(f) - V diag(e_q)) X_q = R_q + V eta_q, where W
and V hold the block's lag weights of the two slots and R the X_0 plus the
previous block's and far-field sums.  How a system is solved is ruled once
per solve, for each system on its own, so a system is solved as its solo
solve solves it.  A steady system, with no compensated jump and one factor
f for all steps (such as every affine averaged system without one), has the
same matrix I - f W in every block: its own ``np.linalg.inv`` forms the
inverse once per solve, and each block is one matmul by its leading corner.
Every other system, and a steady one whose inverse raises LinAlgError or is
not finite, is LU-solved in each block: one ``np.linalg.solve`` of the
equation above, stacked over q, with e one zero row for a system without
a compensated jump, and Q = P rows for a compensated one whose e differ by
path because the noise has events (Q = 1 otherwise).  Either way a block
is a few numpy calls per system, not BASE Python steps.
A block whose solve raises LinAlgError or is not all finite is stepped
instead, from the same sums, with the drift and jumps called as
any callable is, so failures and masking are those of the step loop.

Only the order of summation and the far field's fit change: states stay
within 1e-12 * (1 + |X|) of one product over the whole history per step,
whether a block is stepped or solved, and scaling the terms before summing
keeps that tolerance against three separate sums.  A path whose state
turns non-finite is masked (restarted from X_0 without memory:
its history rows up to that step and its modes are zeroed, the noise terms
filled for the later steps of its block stay, and the sums already added to
the later states of its block are reset to X_0, so it cannot disturb the
others) and its first failure step is recorded, per system.

Systems stepped together share the weights, the modes' rates, the event
table, one near-field product and one finiteness test per step (or per
block solve).  The history is laid out system outermost, (systems,
2 BASE, 2, P * dim) with block n0 in rows n0 % (2 BASE) onwards, the
modes (systems, K, P * dim), and the states (N + 1, systems, P, dim).
Every product, of the near field, the previous block, the modes' update
and their read, and every block solve is a stack of per-system products
or solves, each of the shape a solve of that system alone makes.  So each
system's states are bitwise those of its solo solve, and two systems with
equal coefficients stay exactly equal (acceptance criterion 5).  Putting
both systems' columns into one 2-D product would break that: BLAS may
round a column differently by its position in the matrix.
One exception: an affine block in which only another system fails is
stepped for every system, so there a system that stays finite is within
1e-12 * (1 + |X|) of its solo solve, not bitwise.

Floating-point sums may round differently for different block widths, so
the ensemble harness cuts paths into blocks of a fixed size that does not
depend on the number of workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from . import levy
from .errors import PathBlowupError
from .kernels import as_order, build_kernel_weights, gamma_fn
from .levy import NoiseBlock

EPSILON_MAX = 1.0
# Near-field block of the history sum (see above).
BASE = 64
# The far field's exponential modes (``_exponential_modes``): trapezoid nodes
# MODE_STEP apart in the log of the rate, from FAST_RATE / (BASE h) down to the
# last whose rate times the horizon is at least SLOW_RATE, which with every
# slower node is lumped into one mode.
MODE_STEP = 0.3
FAST_RATE = 45.0
SLOW_RATE = 1e-6
# Grid steps per pass over all steps of the distance curve; bounds its temporaries.
STEP_CHUNK = 256
# The relative tolerance of a compensator rate over [delta, cutoff): the shell
# table's rate is kept when it passes the integrator's test at this tolerance,
# and ``nu_integral`` refines any other to it.
RATE_RTOL = 1e-12


class JumpMode(str, enum.Enum):
    """How the jump coefficient enters the dynamics.

    COMPENSATED: H integrates against the compensated jump measure; simulated
    events contribute a raw sum and the intensity contributes a subtracted
    compensator over [delta, cutoff).

    NU_DRIFT: H integrates against the intensity measure itself over
    (0, cutoff), a deterministic extra drift (the form the worked example
    uses verbatim); no randomness, no compensation.
    """

    COMPENSATED = "compensated_prm"
    NU_DRIFT = "deterministic_nu_drift"


# the dtype of float64 results, compared by identity: cheaper than ==, and a
# float64 dtype that is not this object only takes the converting path
_F64 = np.dtype(np.float64)


def _as_float(value, shape):
    """A coefficient result as a float64 array of ``shape``: itself when it is one."""
    if type(value) is not np.ndarray or value.dtype is not _F64:
        value = np.asarray(value, dtype=float)
    return value if value.shape == shape else value.reshape(shape)


class _Batched:
    """Batch evaluator built from a numpy function of whole columns.

    ``fn`` (a compiled ``expr``) takes the arguments as columns: the state's
    (P,) column, and times or marks as float64 scalars or (P,) arrays.  It
    runs once per batch, and its result is broadcast to (P,) + ``shape``.
    A result that is already a new float64 column of the arguments' length
    (the usual one) is only reshaped; any other, such as a scalar, a boolean
    column or an argument returned as it is, is copied into a new float64
    array, so the result never shares memory with an argument.  Quadrature
    calls it the same way, once per level on a column of nodes.
    """

    def __init__(self, fn, shape=(1,)):
        self.fn = fn
        self.shape = shape

    def __call__(self, *values):
        # a Python float becomes a float64, whose arithmetic overflows to inf instead of raising
        columns = [
            (v[:, 0] if v.ndim == 2 else v) if isinstance(v, np.ndarray) else np.float64(v)
            for v in values
        ]
        out = self.fn(*columns)
        if type(out) is np.ndarray and out.base is None and out.dtype is _F64 and out.ndim == 1:
            for c in columns:
                if c is out or c.ndim and c.shape != out.shape:
                    break
            else:  # owns its memory and has the arguments' broadcast shape
                return out.reshape((-1,) + self.shape)
        full = np.empty(np.broadcast(*columns).shape)
        full[...] = out
        return full.reshape((-1,) + self.shape)


class _Constant:
    """Coefficient of one value whatever its arguments, in the batch contract.

    Returns (P,) + ``shape`` filled with ``value``, where the batch size P is
    the longest length of an array argument (the (P, 1) state, or (P,) times
    or marks), and 1 when all arguments are scalars.  Each batch size gets one
    read-only array, built on first use.  A diffusion of this type is additive
    noise: the solver fills the noise terms of every step before its time loop.
    """

    def __init__(self, value, shape=(1, 1)):
        self.value = value
        self.shape = shape
        self._arrays = {}

    def __call__(self, *values):
        size = 1
        for v in values:
            if getattr(v, "ndim", 0) and len(v) > size:
                size = len(v)
        out = self._arrays.get(size)
        if out is None:
            out = self._arrays[size] = np.full((size,) + self.shape, self.value)
            out.setflags(write=False)
        return out


class _Linear:
    """State-linear coefficient factor(...) X in the batch contract, of X's shape.

    ``factor`` is a float or a numpy function of the coefficient's arguments
    other than X, each a scalar or a column: times, and for a jump (t, X, z)
    also marks.  ``at`` is it as such a function.  Built by hand (eq10,
    mlbench) it is a drift or ``jump_drift`` and a call is factor(t) X.
    Built by ``compile_expr`` from a state-linear expression, ``call`` is the
    compiled expression, which a call evaluates, so results are the source's
    bit for bit, and ``at`` is the expression at x = 1.  Only the solver's
    tables of affine factors read ``at``, once per solve on the column of
    step times (see the module docstring).  The step loop calls a
    ``_Linear`` as it calls any coefficient.
    """

    def __init__(self, factor, call=None):
        self.at = factor if callable(factor) else lambda *t: factor
        self.call = call

    def __call__(self, *args):
        if self.call is not None:
            return self.call(*args)
        return np.multiply(self.at(*args[:-1]), args[-1])


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluators (drift f, diffusion G, jump H) defining one problem instance.

    Batch contract, for states X of shape (P, dim): drift(t, X) -> (P, dim);
    diffusion(t, X) -> (P, dim, brownian_dim); jump(t, X, mark) -> (P, dim),
    or None when the problem has no jump part.  For jump events t and mark
    are (P,) arrays, one entry per row of X.

    A ``_Constant`` diffusion (eq10, mlbench, an ``expr`` diffusion naming
    none of its arguments) is additive noise: the solver computes G dB for
    every step before its time loop and never calls it.  A set with a
    ``_Linear`` drift factor(t) X, a ``_Constant`` diffusion and, as its only
    jump part if any, a NU_DRIFT ``_Linear`` jump_drift or a ``_Linear`` jump
    with no jump_drift is affine (eq10, mlbench, and an ``expr`` problem
    whose drift and jump are state-linear expressions and whose diffusion
    is a constant, such as the benchmark's compensated jumps_quad): when
    every system of a solve is, the solver solves each near-field block at
    once from tables of the factors, each factor (a float or a numpy
    function of time columns) read by one call per solve.  Any other
    callable is called at every step, even if it returns the same value
    each time.

    jump_drift, when provided, is the closed-form integral of H against the
    jump measure as a function of (t, X): over (0, cutoff) in NU_DRIFT mode,
    over [delta, cutoff) in COMPENSATED mode (where it serves as the
    compensator rate).  Without it, COMPENSATED mode evaluates H once per
    step at the nodes of the measure's fixed shell table for all paths
    together (``levy.shell_table``, the first level of ``levy.nu_integral``;
    the table and its nodes tiled over the paths are built once per solve),
    and only the paths whose table estimate is not settled are refined, by
    one ``nu_integral`` of them all; NU_DRIFT mode makes one ``nu_integral``
    over (0, cutoff) of all paths at every step.  An affine solve integrates
    a ``_Linear`` jump phi(t, z) X for all paths at once, phi alone: at the
    table's nodes for all steps at once, refining the steps the table cannot
    settle by one ``nu_integral``, or in NU_DRIFT mode by one ``nu_integral``
    of all steps.  Every integral calls H through the batch contract, once
    per quadrature level, with marks a column of nodes.
    """

    drift: Callable[..., np.ndarray]
    diffusion: Callable[..., np.ndarray]
    jump: Optional[Callable[..., np.ndarray]] = None
    jump_mode: JumpMode = JumpMode.COMPENSATED
    dim: int = 1
    brownian_dim: int = 1
    jump_drift: Optional[Callable[..., np.ndarray]] = None

    time_dependent: ClassVar[bool] = True


@dataclass(frozen=True)
class AveragedCoefficientSet(CoefficientSet):
    """Time-independent coefficients of the averaged system.

    Same fields and batch contract as CoefficientSet with the time argument
    removed: drift(X), diffusion(X), jump(X, mark), jump_drift(X).
    """

    time_dependent: ClassVar[bool] = False


# Rows per array-to-float-list conversion and per write of a CSV file: no
# string longer than this many rows is built.
CSV_CHUNK_ROWS = 256


def _write_csv(path, header: list[str], columns) -> None:
    """Write the columns as rows of float reprs, byte for byte as ``csv.writer`` would."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = np.column_stack([c[start : start + CSV_CHUNK_ROWS] for c in columns])
            cells = [map(repr, col) for col in chunk.T.tolist()]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


@dataclass(frozen=True)
class CoupledPaths:
    """One path's grid times, original and averaged states, and distance curve."""

    times: np.ndarray     # (n_steps + 1,)
    original: np.ndarray  # (n_steps + 1, dim)
    averaged: np.ndarray  # (n_steps + 1, dim)
    er: np.ndarray        # pointwise |X_n - Z_n|

    def __post_init__(self):
        for arr in (self.times, self.original, self.averaged, self.er):
            arr.setflags(write=False)

    @property
    def sup_sq_error(self) -> float:
        """max_n |X_n - Z_n|^2 over the grid."""
        sup = self.er.max()
        return float(sup * sup)

    @property
    def sup_error(self) -> float:
        return float(self.er.max())

    def to_csv(self, path) -> None:
        """Write columns t, X_1.., Z_1.., Er."""
        dim = self.original.shape[1]
        header = ["t", *(f"{v}_{i + 1}" for v in "XZ" for i in range(dim)), "Er"]
        _write_csv(path, header, (self.times, self.original, self.averaged, self.er))


def norms(states):
    """Euclidean norms over the last axis, abs(x) bit for bit for dim = 1; no
    component is squared unscaled, so a finite norm above ~1.3e154 stays finite."""
    size = np.abs(states)
    return size[..., 0] if size.shape[-1] == 1 else np.hypot.reduce(size, axis=-1)


@dataclass(frozen=True)
class CoupledBlock:
    """Coupled solves of every path of a NoiseBlock.

    ``failures[p]`` is None for a path that stayed finite, else the
    PathBlowupError of the original system if it failed at all, else that of
    the averaged system.  ``quadrature_fallbacks`` counts the compensator
    rates, one per path and step, that the shell table could not settle and
    ``nu_integral`` refined.  ``er`` is the distance curve
    |X_n - Z_n| of every path, computed once; column p is ``path(p).er``.
    """

    times: np.ndarray     # (n_steps + 1,)
    original: np.ndarray  # (n_steps + 1, P, dim)
    averaged: np.ndarray  # (n_steps + 1, P, dim)
    failures: tuple[Optional[PathBlowupError], ...]
    quadrature_fallbacks: int
    er: np.ndarray = field(init=False)  # (n_steps + 1, P)

    def __post_init__(self):
        er = np.empty(self.original.shape[:2])
        for s0 in range(0, len(er), STEP_CHUNK):
            rows = slice(s0, s0 + STEP_CHUNK)
            er[rows] = norms(self.original[rows] - self.averaged[rows])
        object.__setattr__(self, "er", er)
        for arr in (self.times, self.original, self.averaged, self.er):
            arr.setflags(write=False)

    def path(self, p: int) -> CoupledPaths:
        """Path p as CoupledPaths; raises its PathBlowupError if it failed."""
        if self.failures[p] is not None:
            raise self.failures[p]
        return CoupledPaths(
            times=self.times,
            original=self.original[:, p].copy(),
            averaged=self.averaged[:, p].copy(),
            er=self.er[:, p].copy(),
        )


def _event_table(noise: NoiseBlock):
    """Jump events of every path as (path, time, mark, step) arrays grouped by grid step.

    An event's step is min(floor(t / h), N - 1).  Returns the arrays ordered
    by step, then path, then time, and the start/end index of each step's
    events as lists of Python ints, which the time loop indexes and compares
    faster than array entries.
    """
    n = noise.grid.n_steps
    paths = np.concatenate(
        [np.full(r.n_events, p, dtype=np.int64) for p, r in enumerate(noise.realizations)]
    )
    times = np.concatenate([r.jump_times for r in noise.realizations])
    marks = np.concatenate([r.jump_marks for r in noise.realizations])
    steps = np.minimum(np.floor(times / noise.grid.step).astype(np.int64), n - 1)
    order = np.lexsort((paths, steps))  # stable: time order survives within a path
    steps = steps[order]
    grid_steps = np.arange(n)
    return (
        paths[order],
        times[order],
        marks[order],
        steps,
        np.searchsorted(steps, grid_steps, side="left").tolist(),
        np.searchsorted(steps, grid_steps, side="right").tolist(),
    )


def _rows_integrand(jump, targs, X):
    """The jump coefficient of the state rows X as one integrand of marks:
    every row at a 1-D array of k nodes in one call, (k, rows * dim) values out;
    the hypothesis probes integrate their batch of one through it."""
    def integrand(z):
        values = jump(*targs, np.repeat(X, z.size, axis=0), np.tile(z, len(X)))
        return _as_float(values, (len(X), z.size, X.shape[1])).transpose(1, 0, 2).reshape(z.size, -1)

    return integrand


def _jump_rates(jump: _Linear, targs, spec, use_delta: bool):
    """Rates rho(t) of a ``_Linear`` jump phi(t, z) X: phi's integral over
    [delta, cutoff) (``use_delta``) or (0, cutoff), at each time of the
    column in ``targs``, or once when ``targs`` is () (a time-independent set).

    Over [delta, cutoff) the shell table gives every rate, BASE times per
    call of ``jump.at``, and the rates it has not settled are refined by one
    ``nu_integral`` of them all; over (0, cutoff) every rate is, by one
    ``nu_integral`` of all times.  Returns the rates and how many of those
    over [delta, cutoff) were refined.
    """
    count = len(targs[0]) if targs else 1
    rate = np.empty(count)
    redo = np.arange(count)
    if use_delta:
        table = levy.shell_table(spec)
        unsettled = np.empty(count, dtype=bool)
        for s0 in range(0, count, BASE):
            part = slice(s0, s0 + BASE)
            values = jump.at(*(t[part, None] for t in targs), table.nodes)
            values = np.broadcast_to(values, (rate[part].size, table.nodes.size))
            rate[part] = values @ table.weights
            unsettled[part] = table.unsettled(values, rate[part], RATE_RTOL)
        redo = np.flatnonzero(unsettled)
    if redo.size:
        times = tuple(t[redo, None] for t in targs)
        phi = lambda z: np.broadcast_to(jump.at(*times, z), (redo.size, z.size)).T
        rate[redo] = levy.nu_integral(spec, phi, use_delta, RATE_RTOL if use_delta else levy.RTOL)
    return rate, redo.size if use_delta else 0


def _quadrature_rate(jump, targs, X, spec, shells):
    """Integral of the jump coefficient against the measure for every row of X.

    ``shells`` is the measure's shell table and its nodes tiled once per row
    of X, built once per solve, for the range [delta, cutoff), or None for
    the open range (0, cutoff).  Over [delta, cutoff) all rows are evaluated
    at the table's nodes in one call of ``jump``, and the rows the table has
    not settled (``ShellTable.unsettled``) are refined by one ``nu_integral``
    of them all; a non-finite row stays non-finite.  The open range is one
    ``nu_integral`` of all rows.  A ``nu_integral`` calls ``jump`` once per
    level of each shell, on its rows repeated at that level's nodes.
    Returns the (P, dim) rates and the number of rows refined.
    """
    if shells is None:
        return levy.nu_integral(spec, _rows_integrand(jump, targs, X), use_delta=False).reshape(X.shape), 0
    table, nodes = shells
    p_count, k = X.shape[0], table.nodes.size
    values = _as_float(jump(*targs, np.repeat(X, k, axis=0), nodes), (p_count, k, -1))
    rate = table.weights @ values
    redo = np.flatnonzero(table.unsettled(values.transpose(0, 2, 1), rate, RATE_RTOL).any(axis=1))
    if redo.size:
        refined = levy.nu_integral(spec, _rows_integrand(jump, targs, X[redo]), rtol=RATE_RTOL)
        rate[redo] = refined.reshape(redo.size, -1)
    return rate, redo.size


def _exponential_modes(beta: float, h: float, n_steps: int):
    """Rates and weights of K exponentials that sum to t^(beta - 1) on [BASE h, n_steps h].

    The trapezoid rule with step MODE_STEP in x = log s on
    t^(beta - 1) = Gamma(1 - beta)^-1 int exp((1 - beta) x - e^x t) dx, from
    e^x = FAST_RATE / (BASE h) down, gives modes c_k exp(-s_k t).  The last
    node whose rate times the horizon n_steps h is at least SLOW_RATE and
    every node below it are one mode of the same total weight and mean rate
    (two moments of their geometric tail, in closed form).  Returns the (K,)
    rates and the (2, K) weights of the two slots: each mode integrates a
    cell exactly, so slot 0 (the cell integrals) weighs c expm1(s h) / s and
    slot 1 (the left-end kernel) c.
    """
    count = math.floor(math.log(FAST_RATE * n_steps / (BASE * SLOW_RATE)) / MODE_STEP)  # above the tail
    x = math.log(FAST_RATE / (BASE * h)) - MODE_STEP * np.arange(count + 1)
    scale = MODE_STEP / gamma_fn(1.0 - beta)
    rate = np.exp(x)
    weight = scale * np.exp((1.0 - beta) * x)
    # the slow tail x[-1] - i MODE_STEP, i >= 0, as one mode
    weight[-1] /= -math.expm1((beta - 1.0) * MODE_STEP)
    rate[-1] *= math.expm1((beta - 1.0) * MODE_STEP) / math.expm1((beta - 2.0) * MODE_STEP)
    return rate, np.stack((weight * np.expm1(rate * h) / rate, weight))


def _affine_tables(systems, noise: NoiseBlock, c_drift: float, c_stoch: float, events, lags):
    """Factor tables, block rules and fallback counts of an affine solve, built before its loop.

    factors[s, j] is c_drift a(t_j) + c_stoch b(t_j), b a NU_DRIFT jump drift
    or a NU_DRIFT ``_Linear`` jump's rate, and 0 for state n_steps, which has
    no history row; each factor is read by one call on the column of step
    times.  A compensated ``_Linear`` jump phi(t, z) X has jump factors e_j:
    c_stoch times phi summed over the step's events (``events`` is the event
    table, or None) in the table's order, less h rho(t_j); one row per path
    when there are events, else one.  A system without a compensated jump
    has one zero row.  A rate the shell table cannot settle counts one
    fallback per path of each step it serves, as the step loop counts.

    Each system's rule is an (inverse, e) pair (see ``_solve_affine_block``).
    A steady system, with no compensated jump and one factor f for all
    steps, has the same block matrix I - f W in every block (``lags`` is
    (W, V, I)), and its inverse is formed here, by its own
    ``np.linalg.inv``.  Every other system, and a steady one whose inverse
    raises LinAlgError or is not finite, has inverse None: it is LU-solved
    in every block.
    """
    grid = noise.grid
    n_steps, p_count = grid.n_steps, noise.size
    w, _, identity = lags
    factors = np.zeros((len(systems), n_steps + 1))
    rules, fallbacks = [], []
    for s, coeffs in enumerate(systems):
        targs = (grid.times[:n_steps],) if coeffs.time_dependent else ()
        factors[s, :n_steps] += c_drift * coeffs.drift.at(*targs)
        redone, steady = 0, True  # steady until a compensated jump or a varying factor shows
        e = np.zeros((1, n_steps + 1))
        if coeffs.jump_drift is not None:
            factors[s, :n_steps] += c_stoch * coeffs.jump_drift.at(*targs)
        elif coeffs.jump is not None and coeffs.jump_mode == JumpMode.NU_DRIFT:
            factors[s, :n_steps] += c_stoch * _jump_rates(coeffs.jump, targs, noise.spec, False)[0]
        elif coeffs.jump is not None:
            rate, redone = _jump_rates(coeffs.jump, targs, noise.spec, True)
            steady, e = False, np.zeros((1 if events is None else p_count, n_steps + 1))
            if events is not None:
                ev_path, ev_time, ev_mark, ev_step = events[:4]
                phi = coeffs.jump.at(*((ev_time,) if coeffs.time_dependent else ()), ev_mark)
                np.add.at(e, (ev_path, ev_step), np.broadcast_to(phi, ev_path.shape))
            e[:, :n_steps] -= grid.step * rate
            e *= c_stoch
        fallbacks.append(redone * p_count * (1 if targs else n_steps))
        inverse = None
        if steady and (factors[s, :n_steps] == factors[s, 0]).all():
            try:
                inverse = np.linalg.inv(identity - w * factors[s, 0])
            except np.linalg.LinAlgError:  # singular: LU-solved, as a varying factor is
                pass
        finite = inverse is not None and np.isfinite(inverse).all()
        rules.append((inverse if finite else None, e))
    return factors, rules, fallbacks


def _solve_affine_block(f, rules, n0: int, state_rows, rows, lags) -> bool:
    """Solve the states [n0, n0 + m) of one near-field block of affine systems at once.

    ``f`` is the block's (systems, m) slice of the solve's factor table: slot
    0 of row j is f_j X_j, and the factor of state n_steps is 0.  ``rows``
    is the block's own (systems, r, 2, columns) history rows, r = m but for
    the block of state n_steps, which has no row; their slot 1 holds the
    noise terms eta filled before the solve.  ``lags`` is (W, V, I): the
    strictly lower lag-Toeplitz matrices of the drift and left-end kernels,
    and the identity; R is the states' X_0 plus the previous block's and
    far-field sums, already added.
    ``rules`` holds one (inverse, e) pair per system, and the systems are
    solved one after another.  A steady system's ``inverse`` is (I - f W)^-1,
    and X is its leading m x m corner times R + V eta: the corner of a lower
    triangular matrix's inverse is the inverse of its corner, so a short
    last block needs no other.  Any other system has inverse None and its
    (Q, n_steps + 1) table e of jump factors (Q = P when they vary by path,
    else 1; one zero row without a compensated jump): slot 1 of row j is
    eta_j + e_j X_j, and X_q solves (I - W diag(f) - V diag(e_q)) X_q = R_q
    + V eta_q, one ``np.linalg.solve`` stacked over q.  Writes the states
    and both slots and returns True; returns False and writes nothing when a
    solve raises LinAlgError or a term is not finite.
    """
    m = f.shape[1]
    stop = n0 + m
    r = rows.shape[1]  # history rows of the block: state n_steps has none
    w, v, identity = lags
    rhs = v[:m, :r] @ rows[:, :, 1]
    rhs += state_rows[n0:stop].transpose(1, 0, 2)
    x = rhs  # each system's solution replaces its right-hand sides
    noise = rows[:, :, 1].copy()
    try:
        for s, (inverse, e) in enumerate(rules):
            if inverse is not None:
                x[s] = inverse[:m, :m] @ rhs[s]
                continue
            e = e[:, n0:stop]
            q = len(e)
            # (Q, m, columns per Q): path q's columns, or all columns when Q = 1
            b = rhs[s].reshape(m, q, -1).transpose(1, 0, 2)
            xq = np.linalg.solve(identity[:m, :m] - w[:m, :m] * f[s] - v[:m, :m] * e[:, None, :], b)
            x[s] = xq.transpose(1, 0, 2).reshape(m, -1)
            noise[s] += (e[:, :r, None] * xq[:, :r]).transpose(1, 0, 2).reshape(noise.shape[1:])
    except np.linalg.LinAlgError:
        return False
    drift = f[:, :r, None] * x[:, :r]
    total = x.sum() + drift.sum() + noise.sum()
    if not math.isfinite(total):  # also when a finite sum overflows: then the steps decide
        return False
    state_rows[n0:stop] = x.transpose(1, 0, 2)
    rows[:, :, 0] = drift
    rows[:, :, 1] = noise
    return True


def _solve_block(systems, noise: NoiseBlock, x0, epsilon: float, beta):
    """States (n_steps + 1, S, P, dim) of S systems for every path of the block.

    ``systems`` is a tuple of S coefficient sets, stepped together on the
    block's shared noise.  Also returns each (system, path)'s first grid step
    with a non-finite state, an (S, P) array with 0 where the path stayed
    finite, and per system the number of compensator rates that fell back
    from the shell table to ``nu_integral``.

    The systems share the grid, the weights, the modes' rates and the event
    table; each step makes one near-field product and one finiteness test
    for all of them, and each affine block one matmul or LU solve per
    system.  The history is (S, 2 BASE, 2, P * dim) and the modes (S, K,
    P * dim), system outermost, so every product is a stack of S products
    (or one solve per system) of the shape a solo solve makes: each
    system's sums are those of a solve of that system alone, bit for bit.

    The time loop runs a near-field block at a time.  At its start the
    block before the previous one enters the modes (from n0 = 2 BASE on),
    whose rows the block's own then replace; the previous block's and the
    far-field sums are added to the block's states; and a constant
    diffusion's noise terms are filled into the block's rows.  When every
    system is affine the block is one matmul or LU solve per system
    (``_solve_affine_block``), by its slice of the tables and the rule of
    each system that ``_affine_tables`` builds before the loop;
    otherwise, or when a solve fails, it is stepped: state n, its
    finiteness test, then history row n, with every coefficient that is not
    a filled ``_Constant`` diffusion called.

    A drift, diffusion or ``jump_drift`` result that is a float64 array of the
    target shape is used as it is; any other is converted and reshaped
    (``_as_float``).
    """
    order = as_order(beta)
    b = order.beta
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= EPSILON_MAX:
        raise ValueError(f"epsilon must lie in [0, {EPSILON_MAX}]; got {epsilon!r}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    for coeffs in systems:
        if x0.shape != (coeffs.dim,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({coeffs.dim},)")
        if noise.dim != coeffs.brownian_dim:
            raise ValueError(
                f"noise carries {noise.dim} Brownian components, "
                f"coefficients expect {coeffs.brownian_dim}"
            )
        has_jump = coeffs.jump is not None or coeffs.jump_drift is not None
        if has_jump and coeffs.jump_drift is None and noise.spec is None:
            raise ValueError(
                "jump coefficient given without a jump measure: the noise carries "
                "no JumpMeasureSpec and no closed-form jump_drift was provided"
            )
        if has_jump and coeffs.jump_mode == JumpMode.COMPENSATED and coeffs.jump is None:
            raise ValueError("compensated jump mode requires the jump coefficient itself")

    grid = noise.grid
    h = grid.step
    n_steps = grid.n_steps
    times = grid.times
    dim = x0.shape[0]
    s_count = len(systems)
    p_count = noise.size
    shape = (p_count, dim)
    g_shape = shape + (noise.dim,)
    c_drift = epsilon / gamma_fn(b)
    c_stoch = math.sqrt(epsilon) / gamma_fn(b)

    # lags 2 BASE .. 1 of both slots, interleaved: near[-2 * i:] weighs lags
    # i .. 1, and row i of prev_w the previous block's rows at lags BASE + i .. i + 1
    near = np.empty((2 * BASE, 2))
    near[:, 0] = build_kernel_weights(order, h, 2 * BASE)
    near[:, 1] = (h * np.arange(2 * BASE, 0, -1)) ** (b - 1.0)
    prev_w = near.reshape(-1)[2 * (BASE - np.arange(BASE))[:, None] + np.arange(2 * BASE)]
    near = near.reshape(-1)
    # the far field: at block n0 the modes decay by BASE steps (decay), block
    # n0 - 2 BASE enters them with row l at lag BASE - l from n0 - BASE
    # (enter), and row i of block n0 reads them at lag BASE + i (read)
    rate, mode_w = _exponential_modes(b, h, n_steps)
    decay = np.exp(-BASE * h * rate)[:, None]
    enter = np.exp(-h * np.outer(rate, np.arange(BASE, 0, -1)))[:, :, None] * mode_w.T[:, None]
    enter = enter.reshape(len(rate), 2 * BASE)
    read = np.exp(-h * np.outer(np.arange(BASE, 2 * BASE), rate))
    # block n0's rows are rows n0 % (2 BASE) .. + BASE; the previous block's the others
    history = np.zeros((s_count, 2 * BASE, 2, p_count * dim))
    history_rows = history.reshape(s_count, 4 * BASE, -1)
    by_path = history.reshape(s_count, 2 * BASE, 2, p_count, dim)
    modes = np.zeros((s_count, len(rate), p_count * dim))
    modes_by_path = modes.reshape(s_count, len(rate), p_count, dim)
    states = np.empty((n_steps + 1, s_count) + shape)
    states[:] = x0  # each block adds its far-field and previous-block sums
    state_rows = states.reshape(n_steps + 1, s_count, -1)
    state_flat = states.reshape(n_steps + 1, -1)
    increments = noise.increments[:, :, :, None]

    plans, fills = [], []
    any_compensated = table_rates = False
    affine = True  # so far, every system has a _Linear drift, a _Constant diffusion and no other part
    for s, coeffs in enumerate(systems):
        has_jump = coeffs.jump is not None or coeffs.jump_drift is not None
        nu_drift = has_jump and coeffs.jump_mode == JumpMode.NU_DRIFT
        compensated = has_jump and not nu_drift
        any_compensated |= compensated
        table_rates |= compensated and coeffs.jump_drift is None
        constant_g = isinstance(coeffs.diffusion, _Constant)
        if constant_g:  # G transposed, (brownian_dim, dim)
            g = np.full(coeffs.diffusion.shape, coeffs.diffusion.value, dtype=float)
            fills.append((s, g.reshape(dim, -1).T))
        folded = nu_drift and isinstance(coeffs.jump_drift, _Linear)
        linear_jump = isinstance(coeffs.jump, _Linear) and coeffs.jump_drift is None
        affine &= isinstance(coeffs.drift, _Linear) and constant_g and (folded or linear_jump or not has_jump)
        plans.append((s, coeffs, states[:, s], by_path[s], has_jump, nu_drift, constant_g))

    events = any_compensated and any(r.n_events for r in noise.realizations)
    event_table = _event_table(noise) if events else None
    if events:
        ev_path, ev_time, ev_mark, _, starts, ends = event_table
    shells = None
    if table_rates:  # the table and its nodes tiled once per path, built once per solve
        table = levy.shell_table(noise.spec)
        shells = (table, np.tile(table.nodes, p_count))
    failed = np.zeros((s_count, p_count), dtype=np.int64)
    fallbacks = [0] * s_count
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if affine:
            # W and V of one near-field block: lag i - l of each slot at (i, l)
            size = min(BASE, n_steps + 1)
            lagged = np.zeros((2, size))  # column L holds lag L; lag 0 weighs nothing
            lagged[:, 1:] = near.reshape(-1, 2)[::-1][: size - 1].T
            lag = np.arange(size)
            lags = (*lagged.take(np.maximum(lag[:, None] - lag, 0), axis=1), np.eye(size))
            factors, rules, fallbacks = _affine_tables(systems, noise, c_drift, c_stoch, event_table, lags)

        event_table = _ = None  # the events' steps serve the tables only: not held through the loop
        for n0 in range(0, n_steps + 1, BASE):
            stop = min(n0 + BASE, n_steps + 1)
            m = stop - n0
            cur = n0 % (2 * BASE)
            prev = BASE - cur
            if n0:
                sums = prev_w[:m] @ history_rows[:, 2 * prev : 2 * prev + 2 * BASE]
                if n0 >= 2 * BASE:  # the block's rows still hold block n0 - 2 BASE: it enters the modes
                    modes *= decay
                    modes += enter @ history_rows[:, 2 * cur : 2 * cur + 2 * BASE]
                    sums += read[:m] @ modes
                state_rows[n0:stop] += sums.transpose(1, 0, 2)
            r = min(m, n_steps - n0)  # history rows of the block: state n_steps has none
            for s, g_t in fills:
                part = by_path[s, cur : cur + r, 1]
                np.matmul(noise.increments[n0 : n0 + r], g_t, out=part)
                part *= c_stoch
            rows = history[:, cur : cur + r]
            if affine and _solve_affine_block(factors[:, n0:stop], rules, n0, state_rows, rows, lags):
                continue
            # step by step: state n, its finiteness, then history row n
            for n in range(n0, stop):
                i = n - n0
                if i:
                    state_rows[n] += near[-2 * i :] @ history_rows[:, 2 * cur : 2 * (cur + i)]
                x_n = state_flat[n]
                if n and not math.isfinite(x_n.dot(x_n)):  # a finite sum of squares proves every state finite
                    for s in range(s_count):
                        bad = ~np.isfinite(states[n, s]).all(axis=1)
                        failed[s, bad & (failed[s] == 0)] = n
                        states[n:stop, s, bad] = x0  # drops the sums already added to the block
                        by_path[s, prev : prev + BASE, :, bad] = 0.0
                        by_path[s, cur : cur + i, :, bad] = 0.0
                        modes_by_path[s, :, bad] = 0.0
                if n == n_steps:
                    break
                for s, coeffs, sys_states, sys_slots, has_jump, nu_drift, constant_g in plans:
                    targs = (times[n],) if coeffs.time_dependent else ()
                    x_j = sys_states[n]
                    slots = sys_slots[cur + i]
                    np.multiply(_as_float(coeffs.drift(*targs, x_j), shape), c_drift, out=slots[0])
                    if not constant_g:
                        g = _as_float(coeffs.diffusion(*targs, x_j), g_shape)
                        np.multiply((g @ increments[n])[:, :, 0], c_stoch, out=slots[1])

                    if has_jump:
                        if coeffs.jump_drift is not None:
                            rate = _as_float(coeffs.jump_drift(*targs, x_j), shape)
                        else:
                            rate, redone = _quadrature_rate(
                                coeffs.jump, targs, x_j, noise.spec, None if nu_drift else shells
                            )
                            if not affine:  # an affine solve counts them once, in its tables
                                fallbacks[s] += redone
                        if nu_drift:
                            slots[0] += c_stoch * rate
                        else:
                            raw = np.zeros(shape)
                            if events and starts[n] < ends[n]:
                                sel = slice(starts[n], ends[n])
                                ev_targs = (ev_time[sel],) if coeffs.time_dependent else ()
                                hits = np.asarray(
                                    coeffs.jump(*ev_targs, x_j[ev_path[sel]], ev_mark[sel]), dtype=float
                                ).reshape(-1, dim)
                                np.add.at(raw, ev_path[sel], hits)  # in event order, per path
                            slots[1] += c_stoch * (raw - h * rate)
    return states, failed, fallbacks


def solve_coupled(
    coeffs: CoefficientSet,
    avg_coeffs: AveragedCoefficientSet,
    noise,
    x0,
    epsilon: float,
    beta,
):
    """Solve both systems on shared noise and record their pointwise distance.

    With a NoiseBlock (as the harness passes), returns a CoupledBlock in
    which each failed path carries its error.  With one NoiseRealization (the
    README's quick start, and a check that re-solves one path), returns its
    CoupledPaths and raises the PathBlowupError of the original system if it
    fails, else that of the averaged one.  To solve one system, pass it as
    both: each system's states are bitwise those of a solve of it alone.
    """
    block = noise if isinstance(noise, NoiseBlock) else NoiseBlock((noise,))
    states, failed, fallbacks = _solve_block((coeffs, avg_coeffs), block, x0, epsilon, beta)
    times = block.grid.times
    failures = []
    for fo, fa in zip(*failed.tolist()):
        step, system = (fo, "original") if fo else (fa, "averaged")
        failures.append(PathBlowupError(step=step, time=times[step], system=system) if step else None)
    solved = CoupledBlock(
        times=times,
        original=states[:, 0],
        averaged=states[:, 1],
        failures=tuple(failures),
        quadrature_fallbacks=sum(fallbacks),
    )
    return solved if block is noise else solved.path(0)
