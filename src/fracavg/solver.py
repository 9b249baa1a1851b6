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
averaged system's coefficients take the same arguments without t.

The three memory sums share one history array (the scaled terms of each
step in a drift-kernel and a left-end-kernel slot), and every weight depends
on the lag n - j only.  Each step writes its terms already scaled: f times
eps / Gamma(beta) in slot 0; G dB and each compensated jump term times
sqrt(eps) / Gamma(beta) in slot 1.  For a constant diffusion (``_Constant``,
additive noise) G dB does not depend on the state, so it is filled into
slot 1 of every step before the time loop, a bounded chunk of steps at a
time, and the diffusion is never called.  Every other coefficient is
called at every step the loop takes.

The sum over that history is blocked (Hairer, Lubich & Schlichte, SIAM J.
Sci. Stat. Comput. 6, 1985).  Near field: step n sums the rows of its own
BASE-step block, j >= n - n % BASE, as one weights-by-history product.  Far
field: when n completes a block, the rows [n - s, n), s = n & -n, are
convolved with the lag weights by one FFT of length 2s per square and
added to the states of steps [n, n + s), which start at X_0.  A block of P
paths costs O(N * BASE * P) for the near field plus O(N log^2 N * P) for
the far field, in O(N) Python steps; for N < BASE it is the direct sum.

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
and V hold the block's lag weights of the two slots and R the X_0 plus
far-field sums.  How a system is solved is ruled once per solve, for each
system on its own, so a system is solved as its solo solve solves it.  A
steady system, with no compensated jump and one factor f for all steps
(such as every affine averaged system without one), has the same matrix
I - f W in every block: its own ``np.linalg.inv`` forms the inverse once
per solve, and each block is one matmul by its leading corner.  Every
other system, and a steady one whose inverse raises LinAlgError or is not
finite, is LU-solved in each block: one ``np.linalg.solve`` of the
equation above, stacked over q, with e one zero row for a system without
a compensated jump, and Q = P rows for a compensated one whose e differ by
path because the noise has events (Q = 1 otherwise).  Either way a block
is a few numpy calls per system, not BASE Python steps.
A block whose solve raises LinAlgError or is not all finite is stepped
instead, from the same far-field sums, with the drift and jumps called as
any callable is, so failures and masking are those of the step loop.

Only the order of summation changes: states stay within 1e-12 * (1 + |X|)
of one product over the whole history per step, whether a block is stepped
or solved, and scaling the terms before summing keeps that tolerance
against three separate sums.  A path
whose state turns non-finite is masked (restarted from X_0 without memory:
its history up to that step is zeroed, the noise terms filled for later
steps stay, and the far-field sums already added to its later states are
reset to X_0, so it cannot disturb the others) and its first failure step
is recorded, per system.

Systems stepped together share the weights, the event table, the far-field
kernels and transforms, one near-field product and one finiteness test per
step (or per block solve).  The history is laid out system
outermost, (systems, N, 2, P * dim), and the states (N + 1, systems, P,
dim): the near field is then a stack of per-system products or solves, each
of the shape a solve of that system alone makes.
A far-field transform may take the columns of several systems, but each
column is a lane of its own: numpy's FFT transforms every lane separately,
and the kernel product and the sum of the two slots are elementwise.  So
each system's states are bitwise those of its solo solve, and two systems
with equal coefficients stay exactly equal (acceptance criterion 5).
Putting both systems' columns into one 2-D near-field product would break
that: BLAS may round a column differently by its position in the matrix.
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
from .levy import NoiseBlock, NoiseRealization

EPSILON_MAX = 1.0
# Near-field block of the history sum (see above).  A far-field transform of
# a square of s rows takes at most FFT_CELLS // s columns (whole systems when
# one system's columns fit, else columns of one system), at least one: this
# bounds its temporaries.
BASE = 64
FFT_CELLS = 2048
# Grid steps per pass over all steps outside the time loop (the noise terms of
# a constant diffusion, the distance curve); bounds the temporaries.
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


class _RowLoop:
    """Batch evaluator built from a float callable of a scalar state.

    Arguments are the batch contract's: the (P, 1) state, and times or marks
    as scalars or (P,) arrays.  The callable runs once per row on plain
    floats.  An OverflowError in a row makes that row inf, which the solver
    reports as a non-finite state at the same step.
    """

    def __init__(self, fn, shape=(1,)):
        self.fn = fn
        self.shape = shape

    def __call__(self, *args):
        rows = np.broadcast_arrays(*(a[:, 0] if np.ndim(a) == 2 else a for a in args))
        out = np.empty(rows[0].shape[0])
        for p, values in enumerate(zip(*(r.tolist() for r in rows))):
            try:
                out[p] = self.fn(*values)
            except OverflowError:
                out[p] = math.inf
        return out.reshape((-1,) + self.shape)


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
    per quadrature level, with marks a column of nodes: a float callable
    (``scalar``) runs once per node there, a compiled ``expr`` once per call.
    """

    drift: Callable[..., np.ndarray]
    diffusion: Callable[..., np.ndarray]
    jump: Optional[Callable[..., np.ndarray]] = None
    jump_mode: JumpMode = JumpMode.COMPENSATED
    dim: int = 1
    brownian_dim: int = 1
    jump_drift: Optional[Callable[..., np.ndarray]] = None

    time_dependent: ClassVar[bool] = True

    @classmethod
    def scalar(
        cls,
        drift,
        diffusion,
        jump=None,
        jump_mode: JumpMode = JumpMode.COMPENSATED,
        jump_drift=None,
    ):
        """Build a 1-dimensional set from plain float-valued callables.

        They take the same arguments as the batch contract, with the state a
        float: (t, x) and (t, x, z), or (x) and (x, z) for averaged sets.
        """
        return cls(
            drift=_RowLoop(drift),
            diffusion=_RowLoop(diffusion, shape=(1, 1)),
            jump=_RowLoop(jump) if jump is not None else None,
            jump_mode=jump_mode,
            jump_drift=_RowLoop(jump_drift) if jump_drift is not None else None,
        )


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
class GridPath:
    """Times and states of one cadlag solution approximation."""

    times: np.ndarray   # (n_steps + 1,)
    states: np.ndarray  # (n_steps + 1, dim)

    def __post_init__(self):
        self.times.setflags(write=False)
        self.states.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def to_csv(self, path) -> None:
        """Write columns t, X_1..X_dim."""
        _write_csv(path, ["t"] + [f"X_{i + 1}" for i in range(self.dim)], (self.times, self.states))


@dataclass(frozen=True)
class CoupledPaths:
    """Original and averaged paths on shared noise plus their distance curve."""

    original: GridPath
    averaged: GridPath
    er: np.ndarray  # pointwise |X_n - Z_n|

    def __post_init__(self):
        self.er.setflags(write=False)

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
        dim = self.original.dim
        header = ["t", *(f"{v}_{i + 1}" for v in "XZ" for i in range(dim)), "Er"]
        columns = (self.original.times, self.original.states, self.averaged.states, self.er)
        _write_csv(path, header, columns)


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
        original = GridPath(times=self.times, states=self.original[:, p].copy())
        averaged = GridPath(times=self.times, states=self.averaged[:, p].copy())
        return CoupledPaths(original=original, averaged=averaged, er=self.er[:, p].copy())


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
    every row at a 1-D array of k nodes in one call, (k, rows * dim) values out."""
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


def _fill_noise(slot, diffusion: _Constant, increments, scale: float) -> None:
    """Write (G dB_j) * scale into slot[j] for every step j, STEP_CHUNK steps at a time.

    ``slot`` is (n_steps, P, dim), ``increments`` (n_steps, P, brownian_dim),
    and G the constant diffusion's (dim, brownian_dim) matrix.
    """
    g_t = np.full(diffusion.shape, diffusion.value, dtype=float).reshape(slot.shape[2], -1).T
    for s0 in range(0, slot.shape[0], STEP_CHUNK):
        part = slot[s0 : s0 + STEP_CHUNK]
        np.matmul(increments[s0 : s0 + STEP_CHUNK], g_t, out=part)
        part *= scale


def _add_far_field(state_rows, history, weights, m: int, size: int, kernels: dict) -> None:
    """Add the memory sums over history rows [m - size, m) to state rows [m, m + size).

    ``history`` is (systems, n_steps, 2, columns) and ``state_rows``
    (n_steps + 1, systems, columns).  The square is one FFT convolution of
    length 2 * size per group of at most FFT_CELLS // size columns: as many
    whole systems as fit, or, when one system's columns do not fit, part of
    one system's columns.  Each column is one lane of the transform, so its
    sums do not depend on the group it is in.  Only the group is copied,
    never the whole square.  Target n and source j meet at lag n - j in
    1 .. 2 * size - 1 whatever m is, so ``kernels`` caches one transform of
    lags 0 .. 2 * size - 1 per square size, until the last square of that
    size (squares of one size start 2 * size rows apart).  The last square's
    targets are clipped at n_steps, not its transform length.
    """
    n_steps = history.shape[1]
    end = min(m + size, n_steps + 1)
    kernel = kernels.get(size)
    if kernel is None:
        segment = np.zeros((2, 2 * size))  # lag 0 and lags past n_steps weigh nothing
        hi = min(2 * size, n_steps + 1)
        # row i of the weights holds lag n_steps - i of both slots
        segment[:, 1:hi] = weights.reshape(n_steps, 2)[n_steps + 1 - hi :][::-1].T
        kernel = kernels[size] = np.fft.rfft(segment)[:, None, None, :]
        del segment  # not held through the transforms: lowers the peak memory
    width = max(1, FFT_CELLS // size)
    s_count, columns = history.shape[0], history.shape[3]
    per = max(1, width // columns)  # whole systems per transform, or one system in parts
    for s0 in range(0, s_count, per):
        for c0 in range(0, columns, width):
            systems, cols = slice(s0, s0 + per), slice(c0, c0 + width)
            # (slot, system, column, row) with rows contiguous: faster transforms
            rows = history[systems, m - size : m, :, cols]
            lanes = np.ascontiguousarray(rows.transpose(2, 0, 3, 1))
            spectra = np.fft.rfft(lanes, n=2 * size)
            spectra *= kernel
            spectra[0] += spectra[1]
            sums = np.fft.irfft(spectra[0], n=2 * size)
            targets = state_rows[m:end, systems, cols]
            targets += sums[:, :, size : size + end - m].transpose(2, 0, 1)
    if m + 2 * size > n_steps:  # no later square of this size: free its kernel
        del kernels[size]


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


def _solve_affine_block(f, rules, n0: int, state_rows, history, lags) -> bool:
    """Solve the states [n0, n0 + m) of one near-field block of affine systems at once.

    ``f`` is the block's (systems, m) slice of the solve's factor table: slot
    0 of row j is f_j X_j, and the factor of state n_steps is 0.  ``lags``
    is (W, V, I): the strictly lower lag-Toeplitz matrices of the drift and
    left-end kernels, and the identity; R is the rows' X_0 plus far-field
    sums, and slot 1 holds the noise terms eta filled before the time loop.
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
    r = min(m, history.shape[1] - n0)  # history rows of the block: state n_steps has none
    w, v, identity = lags
    rhs = v[:m, :r] @ history[:, n0 : n0 + r, 1]
    rhs += state_rows[n0:stop].transpose(1, 0, 2)
    x = rhs  # each system's solution replaces its right-hand sides
    noise = history[:, n0 : n0 + r, 1].copy()
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
    rows = f[:, :r, None] * x[:, :r]
    total = x.sum() + rows.sum() + noise.sum()
    if not math.isfinite(total):  # also when a finite sum overflows: then the steps decide
        return False
    state_rows[n0:stop] = x.transpose(1, 0, 2)
    history[:, n0 : n0 + r, 0] = rows
    history[:, n0 : n0 + r, 1] = noise
    return True


def _solve_block(systems, noise: NoiseBlock, x0, epsilon: float, beta):
    """States (n_steps + 1, S, P, dim) of S systems for every path of the block.

    ``systems`` is a tuple of S coefficient sets, stepped together on the
    block's shared noise.  Also returns each (system, path)'s first grid step
    with a non-finite state, an (S, P) array with 0 where the path stayed
    finite, and per system the number of compensator rates that fell back
    from the shell table to ``nu_integral``.

    The systems share the grid, the weights, the event table and the far-field
    kernels and transforms; each step makes one near-field product and one
    finiteness test for all of them, and each affine block one matmul or
    LU solve per system.  The history is (S, n_steps, 2, P * dim), system
    outermost, so the near field is a stack of S products (or one solve
    per system) of the shape a solo solve makes, and each column is a
    far-field lane of its own: each system's sums are those of a solve of
    that system alone, bit for bit.

    The time loop runs a near-field block at a time: the far-field square
    ending at the block's first step, then the block.  When every system is
    affine the block is one matmul or LU solve per system
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

    # slot 0 of lag j holds c_drift * f (+ c_stoch * rate), slot 1 c_stoch times
    # the noise terms; weights[2 * (n_steps - n):] weigh lags 0..n-1 from t_n
    weights = np.empty(2 * n_steps)
    weights[0::2] = build_kernel_weights(order, h, n_steps).weights
    stoch_w = weights[1::2]  # left-endpoint kernel, built in place to keep peak memory down
    np.power(np.multiply(h, np.arange(n_steps, 0, -1, dtype=float), out=stoch_w), b - 1.0, out=stoch_w)
    history = np.zeros((s_count, n_steps, 2, p_count * dim))
    history_rows = history.reshape(s_count, 2 * n_steps, -1)
    by_path = history.reshape(s_count, n_steps, 2, p_count, dim)
    states = np.empty((n_steps + 1, s_count) + shape)
    states[:] = x0  # the far field adds into rows ahead of the current step
    state_rows = states.reshape(n_steps + 1, s_count, -1)
    state_flat = states.reshape(n_steps + 1, -1)
    increments = noise.increments[:, :, :, None]

    plans = []
    any_compensated = table_rates = False
    affine = True  # so far, every system has a _Linear drift, a _Constant diffusion and no other part
    for s, coeffs in enumerate(systems):
        has_jump = coeffs.jump is not None or coeffs.jump_drift is not None
        nu_drift = has_jump and coeffs.jump_mode == JumpMode.NU_DRIFT
        compensated = has_jump and not nu_drift
        any_compensated |= compensated
        table_rates |= compensated and coeffs.jump_drift is None
        constant_g = isinstance(coeffs.diffusion, _Constant)
        if constant_g:
            _fill_noise(by_path[s, :, 1], coeffs.diffusion, noise.increments, c_stoch)
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
    kernels = {}
    failed = np.zeros((s_count, p_count), dtype=np.int64)
    fallbacks = [0] * s_count
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if affine:
            # W and V of one near-field block: lag i - l of each slot at (i, l)
            size = min(BASE, n_steps + 1)
            lagged = np.zeros((2, size))  # column L holds lag L; lag 0 weighs nothing
            lagged[:, 1:] = weights.reshape(n_steps, 2)[::-1][: size - 1].T
            lag = np.arange(size)
            lags = (*lagged.take(np.maximum(lag[:, None] - lag, 0), axis=1), np.eye(size))
            factors, rules, fallbacks = _affine_tables(systems, noise, c_drift, c_stoch, event_table, lags)

        event_table = _ = None  # the events' steps serve the tables only: not held through the loop
        for n0 in range(0, n_steps + 1, BASE):
            if n0:
                _add_far_field(state_rows, history, weights, n0, n0 & -n0, kernels)
            stop = min(n0 + BASE, n_steps + 1)
            if affine and _solve_affine_block(factors[:, n0:stop], rules, n0, state_rows, history, lags):
                continue
            # step by step: state n, its finiteness, then history row n
            for n in range(n0, stop):
                if n > n0:
                    rows = state_rows[n]
                    rows += weights[2 * (n_steps - n + n0) :] @ history_rows[:, 2 * n0 : 2 * n]
                x_n = state_flat[n]
                if n and not math.isfinite(x_n.dot(x_n)):  # a finite sum of squares proves every state finite
                    for s in range(s_count):
                        bad = ~np.isfinite(states[n, s]).all(axis=1)
                        failed[s, bad & (failed[s] == 0)] = n
                        states[n:, s, bad] = x0  # drops the far-field sums already added ahead
                        by_path[s, :n, :, bad] = 0.0
                if n == n_steps:
                    break
                for s, coeffs, sys_states, sys_slots, has_jump, nu_drift, constant_g in plans:
                    targs = (times[n],) if coeffs.time_dependent else ()
                    x_j = sys_states[n]
                    slots = sys_slots[n]
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


def _solve_one(coeffs, noise, x0, epsilon, beta, system: str) -> GridPath:
    states, failed, _ = _solve_block((coeffs,), NoiseBlock((noise,)), x0, epsilon, beta)
    times = noise.grid.times
    step = failed[0, 0]
    if step:
        raise PathBlowupError(step=step, time=times[step], system=system)
    return GridPath(times=times, states=states[:, 0, 0])


def solve_original(
    coeffs: CoefficientSet,
    noise: NoiseRealization,
    x0,
    epsilon: float,
    beta,
) -> GridPath:
    """Solve the time-dependent system on the noise realization's grid."""
    return _solve_one(coeffs, noise, x0, epsilon, beta, system="original")


def solve_averaged(
    coeffs: AveragedCoefficientSet,
    noise: NoiseRealization,
    x0,
    epsilon: float,
    beta,
) -> GridPath:
    """Solve the averaged system on the *same* noise as the original one."""
    return _solve_one(coeffs, noise, x0, epsilon, beta, system="averaged")


def solve_coupled(
    coeffs: CoefficientSet,
    avg_coeffs: AveragedCoefficientSet,
    noise,
    x0,
    epsilon: float,
    beta,
):
    """Solve both systems on shared noise and record their pointwise distance.

    With a NoiseRealization, returns its CoupledPaths and raises
    PathBlowupError if either system fails.  With a NoiseBlock, returns a
    CoupledBlock in which each failed path carries its error instead.
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
