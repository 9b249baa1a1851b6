"""Reproducible noise realizations and integrals against a power-law jump measure.

A realization bundles Brownian increments on a uniform grid with the jump
events of a truncated one-sided power-law (alpha-stable type) measure

    nu(dx) = gamma * x^(-1-alpha) dx  on (0, cutoff).

The measure has infinite mass at the origin, so only jumps with marks in
[delta, cutoff) are simulated; the remainder enters through the compensator.
Streams are derived from (seed, stream_key) with a counter-based generator so
ensembles are order-independent and parallel-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
# numpy loads numpy.random lazily: importing it here keeps that load out of
# the first sample_noise call
import numpy.random  # noqa: F401

from .errors import ConfigError, ConvergenceError, DivergenceError

DEFAULT_DELTA_RATIO = 1e-3  # delta = cutoff * ratio when not given explicitly
# Expected jump events per path above which ``sample_noise`` refuses to sample.
# An event takes 16 B (its time and mark) in the noise, and up to 64 B more
# while the solver sorts a block's events by step (``solver._event_table``):
# at this cap a block of 64 paths peaks near 1 GB of event data.
MAX_EVENTS_PER_PATH = 200_000

_SHELL_RATIO = 4.0
_MAX_SHELLS = 300


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Truncated one-sided power-law jump measure.

    Parameters
    ----------
    gamma : float
        Intensity scale, > 0 and finite.
    alpha : float
        Stability index in (0, 2).
    cutoff : float
        Outer truncation, > 0 and finite; marks live strictly below it.
    delta : float
        Inner simulation cutoff in (0, cutoff).  Jumps below delta are not
        simulated.  Defaults to ``cutoff * 1e-3``.

    The measure is one-sided (marks are positive): the worked example's
    averaged drift only comes out right for the one-sided integral, so a
    symmetric variant is deliberately not offered.  A parameter out of its
    range, nan or inf included, is a ValueError at construction.
    """

    gamma: float
    alpha: float
    cutoff: float
    delta: float = None  # type: ignore[assignment]

    def __post_init__(self):
        gamma = float(self.gamma)
        alpha = float(self.alpha)
        cutoff = float(self.cutoff)
        delta = self.delta
        if delta is None:
            delta = cutoff * DEFAULT_DELTA_RATIO
        delta = float(delta)
        if not (math.isfinite(gamma) and gamma > 0.0):
            raise ValueError(f"gamma must be positive and finite; got {gamma!r}")
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2); got {alpha!r}")
        if not (math.isfinite(cutoff) and cutoff > 0.0):
            raise ValueError(f"cutoff must be positive and finite; got {cutoff!r}")
        if not 0.0 < delta < cutoff:
            raise ValueError(
                f"delta must lie in (0, cutoff)=(0, {cutoff!r}); got {delta!r}"
            )
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "delta", delta)

    @property
    def simulated_intensity(self) -> float:
        """Total mass on [delta, cutoff): (gamma/alpha) * (delta^-alpha - cutoff^-alpha)."""
        return (self.gamma / self.alpha) * (
            self.delta**-self.alpha - self.cutoff**-self.alpha
        )

    def density(self, x):
        """Jump measure density gamma * x^(-1-alpha)."""
        return self.gamma * np.asarray(x, dtype=float) ** (-1.0 - self.alpha)

    def sample_marks(self, u):
        """Map uniform [0,1) variates to marks via the inverse truncated CDF."""
        u = np.asarray(u, dtype=float)
        a = self.alpha
        lo_pow = self.delta**-a
        hi_pow = self.cutoff**-a
        return (lo_pow - u * (lo_pow - hi_pow)) ** (-1.0 / a)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_0 = 0, t_k = k * step, k = 0..n_steps."""

    step: float
    n_steps: int

    def __post_init__(self):
        step = float(self.step)
        n_steps = int(self.n_steps)
        if step <= 0.0:
            raise ValueError(f"grid step must be positive; got {step!r}")
        if n_steps < 1:
            raise ValueError(f"grid needs at least one step; got {n_steps!r}")
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "n_steps", n_steps)

    @property
    def horizon(self) -> float:
        return self.step * self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1, dtype=float) * self.step

    @classmethod
    def from_horizon(cls, horizon: float, step: float) -> "TimeGrid":
        """Grid covering [0, horizon]; the step must divide the horizon."""
        ratio = horizon / step
        if not (math.isfinite(horizon) and math.isfinite(step) and math.isfinite(ratio)):
            raise ValueError(
                f"horizon {horizon!r} and step {step!r} must be finite, as must their ratio"
            )
        n = round(ratio)
        if n < 1 or abs(n * step - horizon) > 1e-9 * max(1.0, abs(horizon)):
            raise ValueError(
                f"step {step!r} does not divide horizon {horizon!r} within rounding"
            )
        return cls(step=step, n_steps=n)


def noise_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for (seed, key), independent across keys."""
    root = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(root))


@dataclass(frozen=True)
class NoiseRealization:
    """Grid-aligned Brownian increments plus simulated jump events.

    Shared between the original and averaged solves so the two paths are
    driven by identical noise.  Immutable after construction.  It holds the
    draws, not their seed and stream key: ``sample_noise`` with the same
    arguments reproduces it bit for bit.
    """

    grid: TimeGrid
    increments: np.ndarray  # (n_steps, dim), N(0, step) per entry
    jump_times: np.ndarray  # (n_events,), in [0, horizon)
    jump_marks: np.ndarray  # (n_events,), in [delta, cutoff)
    spec: JumpMeasureSpec | None

    def __post_init__(self):
        for arr in (self.increments, self.jump_times, self.jump_marks):
            arr.setflags(write=False)
        if self.increments.ndim != 2:
            raise ValueError("increments must have shape (n_steps, dim)")
        if self.increments.shape[0] != self.grid.n_steps:
            raise ValueError(
                f"increments rows ({self.increments.shape[0]}) do not match "
                f"grid steps ({self.grid.n_steps})"
            )
        if self.jump_times.shape != self.jump_marks.shape:
            raise ValueError("jump times and marks must be parallel arrays")

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    @property
    def n_events(self) -> int:
        return self.jump_times.shape[0]


@dataclass(frozen=True)
class NoiseBlock:
    """Noise realizations of P paths on one grid, stacked for a batched solve.

    ``increments[:, p]`` are realization p's Brownian increments, and the
    block's realizations hold them as views of that array, so the block keeps
    one copy; jump events stay with their realizations.  All realizations
    share the grid, the Brownian dimension and the jump measure.
    """

    realizations: tuple[NoiseRealization, ...]
    increments: np.ndarray = field(init=False, repr=False)  # (n_steps, P, dim)

    def __post_init__(self):
        if not self.realizations:
            raise ValueError("a noise block needs at least one realization")
        first = self.realizations[0]
        for other in self.realizations[1:]:
            if (other.grid, other.dim, other.spec) != (first.grid, first.dim, first.spec):
                raise ValueError(
                    "realizations of one block must share grid, dimension and jump measure"
                )
        increments = np.stack([r.increments for r in self.realizations], axis=1)
        increments.setflags(write=False)
        object.__setattr__(self, "increments", increments)
        object.__setattr__(self, "realizations", tuple(
            replace(r, increments=increments[:, p]) for p, r in enumerate(self.realizations)
        ))

    @property
    def grid(self) -> TimeGrid:
        return self.realizations[0].grid

    @property
    def spec(self) -> JumpMeasureSpec | None:
        return self.realizations[0].spec

    @property
    def dim(self) -> int:
        return self.increments.shape[2]

    @property
    def size(self) -> int:
        return len(self.realizations)


def sample_noise(
    spec: JumpMeasureSpec | None,
    grid: TimeGrid,
    dim: int,
    seed: int,
    stream_key: tuple[int, ...] = (),
    include_jumps: bool = True,
) -> NoiseRealization:
    """Draw one noise realization; a pure function of all its arguments.

    Brownian increments are independent N(0, step) per component.  The jump
    count over [0, horizon) is Poisson with mean ``simulated_intensity *
    horizon`` and marks follow the truncated power law via its analytic
    inverse CDF (no rejection step).  Brownian and jump draws come from
    separate sub-streams, so ``include_jumps=False`` (useful when the jump
    part of a problem is a deterministic drift) leaves the Brownian part
    unchanged.  A measure whose expected count exceeds MAX_EVENTS_PER_PATH is
    a ConfigError, raised before anything is drawn.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1; got {dim!r}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer; got {seed!r}")
    jumps = include_jumps and spec is not None
    if jumps:
        mean_count = spec.simulated_intensity * grid.horizon
        if not mean_count <= MAX_EVENTS_PER_PATH:
            raise ConfigError(
                f"the jump measure expects {mean_count:.3g} events per path over the horizon "
                f"{grid.horizon:g}, above the limit of {MAX_EVENTS_PER_PATH}: raise delta "
                f"(now {spec.delta:g}) or shorten the horizon"
            )
    key = tuple(int(k) for k in stream_key)
    brownian_rng = noise_stream(seed, *key, 0)
    increments = brownian_rng.normal(0.0, math.sqrt(grid.step), size=(grid.n_steps, dim))

    if jumps:
        jump_rng = noise_stream(seed, *key, 1)
        count = int(jump_rng.poisson(mean_count))
        times = np.sort(jump_rng.uniform(0.0, grid.horizon, size=count))
        marks = spec.sample_marks(jump_rng.random(size=count))
    else:
        times = np.empty(0, dtype=float)
        marks = np.empty(0, dtype=float)

    return NoiseRealization(
        grid=grid,
        increments=increments,
        jump_times=times,
        jump_marks=marks,
        spec=spec,
    )


def _half_shell_cuts(hi: float, lo: float) -> np.ndarray:
    """hi, hi/4, ... down to lo, each shell split at its geometric midpoint:
    the cuts of the first-level panels of [lo, hi], from the top."""
    edges = [hi]
    while edges[-1] / _SHELL_RATIO > lo:
        edges.append(edges[-1] / _SHELL_RATIO)
    edges.append(lo)
    # the product of two cuts beyond ~1.3e154 overflows: its root is taken apart there
    mids = [math.sqrt(a * b) if a * b < math.inf else math.sqrt(a) * math.sqrt(b)
            for a, b in zip(edges, edges[1:])]
    return np.array([x for a, mid in zip(edges, mids) for x in (a, mid)] + [lo])


# Gauss-Kronrod 10/21 rule on [-1, 1] (QUADPACK qk21; Piessens, de
# Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer 1983): the Kronrod
# nodes +-_GK21_NODES, with the 10-point Gauss nodes at the odd indices.
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_GK21_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208677499870, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GK10_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173952009447316,
])
# the 21 nodes in ascending order, their Kronrod weights, and those less the
# nested Gauss weights, which sit at the odd positions
_UNIT = np.concatenate([-_GK21_NODES[:-1], _GK21_NODES[::-1]])
_KRONROD = np.concatenate([_GK21_KRONROD_WEIGHTS[:-1], _GK21_KRONROD_WEIGHTS[::-1]])
_SPREAD = _KRONROD.copy()
_SPREAD[1::2] -= np.concatenate([_GK10_GAUSS_WEIGHTS, _GK10_GAUSS_WEIGHTS[::-1]])

RTOL = 1e-10  # nu_integral's default relative tolerance
# An error estimate below this share of the integral of |f| is rounding, not
# truncation (QUADPACK's 50 machine epsilons).
_ROUNDOFF = 50.0 * np.finfo(float).eps
_BISECTIONS_PER_PANEL = 200  # per first-level panel, on average, before ConvergenceError


def _panels(a, b, density):
    """Nodes, 21-point weights and spread weights of the panels between a_i
    and b_i (in either order), one row each.

    ``weights @ values`` of a row is the panel's 21-point estimate of the
    integral of f(x) density(x) dx, and ``spread @ values`` its difference
    from the nested 10-point Gauss estimate, for values of f at its nodes.
    """
    half = 0.5 * np.abs(b - a)[:, None]
    nodes = 0.5 * (a + b)[:, None] + half * _UNIT
    scale = half if density is None else half * density(nodes)
    return nodes, _KRONROD * scale, _SPREAD * scale


def _tolerance(total, mag, rtol, atol=0.0):
    """What the error estimate of an integral may reach: rtol of it, atol or
    the rounding floor of ``mag``, its integral of |f|, whichever is largest.
    A non-finite integral gets a tolerance no estimate exceeds."""
    return np.maximum(np.maximum(atol, rtol * np.abs(total)), _ROUNDOFF * mag)


def gauss_kronrod(integrand, cuts, density=None, rtol=RTOL, atol=0.0):
    """Adaptive Gauss-Kronrod 10/21 integral of integrand(x) density(x) dx.

    The range runs from the lowest to the highest of ``cuts``, and the first
    level is one panel between each two consecutive cuts.  The integrand
    takes a 1-D array of nodes and returns (k,) or (k, d) values, and the
    result is a float or a (d,) array.  A panel's error estimate is the
    difference between its 21-point and nested 10-point estimates, and each
    component is settled when its panels' estimates sum to at most its
    ``_tolerance``.  Until every component is, each panel whose estimate
    exceeds an even share of that tolerance is bisected, and only the new
    panels are evaluated: one call of the integrand per level.  A non-finite
    component counts as settled, so it is returned as it is while the others
    are refined; more than _BISECTIONS_PER_PANEL bisections per first-level
    panel raise ConvergenceError.
    """
    cuts = np.asarray(cuts, dtype=float)
    a, b = cuts[:-1], cuts[1:]  # the panels to evaluate
    live = None  # a, b, estimate, error estimate and integral of |f| of every panel
    budget = _BISECTIONS_PER_PANEL * len(a)
    while True:
        nodes, weights, spread = _panels(a, b, density)
        values = np.asarray(integrand(nodes.ravel()), dtype=float)
        shape = values.shape[1:]
        values = np.broadcast_to(values, (nodes.size,) + shape).reshape(nodes.shape + (-1,))
        est, diff, mag = (
            np.einsum("mk,mkd->md", w, v)
            for w, v in ((weights, values), (spread, values), (weights, np.abs(values)))
        )
        new = (a, b, est, np.abs(diff), mag)
        live = new if live is None else tuple(map(np.concatenate, zip(live, new)))
        a, b, est, err, mag = live
        total = est.sum(axis=0)
        tol = _tolerance(total, mag.sum(axis=0), rtol, atol)
        if not (err.sum(axis=0) > tol).any():
            return float(total[0]) if shape == () else total.reshape(shape)
        split = (err > tol / len(est)).any(axis=1)
        budget -= np.count_nonzero(split)
        if budget < 0:
            raise ConvergenceError(
                f"adaptive quadrature did not settle within {_BISECTIONS_PER_PANEL} bisections "
                f"per panel of its first level ({len(cuts) - 1} panels)"
            )
        live = tuple(x[~split] for x in live)
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])


@dataclass(frozen=True)
class ShellTable:
    """The first level of ``nu_integral`` over [delta, cutoff) as one fixed rule.

    Its panels are the geometric shells of ``nu_integral`` split at their
    geometric midpoints, each with the Gauss-Kronrod 10/21 rule and the
    measure density folded into the weights, flattened: ``weights @ values``
    is the 21-point estimate of the integral and ``spread @ values`` its
    difference from the nested 10-point Gauss estimate, for values of the
    integrand at ``nodes``.  ``unsettled`` is the test of ``gauss_kronrod``
    at this level, so a rate it passes is the integral's, and any other is
    ``nu_integral``'s to refine.
    """

    nodes: np.ndarray    # (K,)
    weights: np.ndarray  # (K,)
    spread: np.ndarray   # (K,)

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.spread):
            arr.setflags(write=False)

    def unsettled(self, values, rate, rtol: float = RTOL) -> np.ndarray:
        """Where rates ``rate`` (...,) from ``values`` (..., K) at the nodes are not settled."""
        panels = values.reshape(values.shape[:-1] + (-1, _UNIT.size))
        err = np.abs(np.einsum("...mk,mk->...m", panels, self.spread.reshape(-1, _UNIT.size))).sum(axis=-1)
        unsettled = err > rtol * np.abs(rate)
        if unsettled.any():  # the rest of the tolerance only settles more: test it where needed
            unsettled = err > _tolerance(rate, np.abs(values) @ self.weights, rtol)
        return unsettled


@functools.lru_cache(maxsize=32)
def shell_table(spec: JumpMeasureSpec) -> ShellTable:
    """The ShellTable of a measure, built once per spec."""
    cuts = _half_shell_cuts(spec.cutoff, spec.delta)
    nodes, weights, spread = _panels(cuts[:-1], cuts[1:], spec.density)
    return ShellTable(nodes=nodes.ravel(), weights=weights.ravel(), spread=spread.ravel())


def nu_integral(
    spec: JumpMeasureSpec,
    integrand,
    use_delta: bool = True,
    rtol: float = RTOL,
):
    """Integral of ``integrand(x)`` against the jump measure density.

    The integrand follows ``gauss_kronrod``'s contract: a 1-D array of marks
    in, (k,) or (k, d) values out, and the result is a float or a (d,)
    array.  The range is [delta, cutoff) when ``use_delta`` is on, one
    adaptive integral to ``rtol`` whose first level is the ``shell_table``,
    and (0, cutoff) otherwise.  There integration proceeds over geometric
    shells shrinking toward the origin, each an adaptive integral to 1% of
    ``rtol``; the shell sums are extrapolated once their decay is geometric
    in every component, and a failure to decay raises DivergenceError (the
    measure has infinite mass at 0, so the integrand must vanish there).  A
    component whose sum turns non-finite keeps that sum, and the others are
    integrated on to the same tolerance.
    """
    if use_delta:
        return gauss_kronrod(integrand, _half_shell_cuts(spec.cutoff, spec.delta), spec.density, rtol)

    def result(value):
        return float(value) if value.ndim == 0 else value

    hi = spec.cutoff
    total = 0.0
    prev_piece = None
    prev_extrapolated = None
    stall = 0
    agree = 0
    for _ in range(_MAX_SHELLS):
        next_hi = hi / _SHELL_RATIO
        cuts = _half_shell_cuts(hi, next_hi)
        piece = np.asarray(gauss_kronrod(integrand, cuts, spec.density, 1e-2 * rtol))
        total = total + piece
        done = ~np.isfinite(total)  # a non-finite sum is final; the others go on
        scale = np.maximum(np.abs(total), 1e-300)
        if (done | (np.abs(piece) <= 1e-3 * rtol * scale)).all():
            return result(total)
        if prev_piece is not None:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # a component whose last piece was 0 decays at once if this one is 0 too
                ratio = np.where(prev_piece != 0.0, np.abs(piece) / np.abs(prev_piece),
                                 np.where(piece == 0.0, 0.0, np.inf))
                if (~done & (ratio >= 0.999) & (np.abs(piece) > rtol * scale)).any():
                    stall += 1
                    if stall >= 3:
                        raise DivergenceError(
                            "integral against the jump measure does not converge at 0 "
                            f"(shell contributions stopped decaying near x={next_hi:g})"
                        )
                else:
                    stall = 0
                if (done | (ratio < 0.999)).all():
                    # geometric tail extrapolation; exact for pure powers, so two
                    # consecutive agreements mean the local exponent has settled
                    extrapolated = np.where(done, total, total + piece * ratio / (1.0 - ratio))
                    if prev_extrapolated is not None and (done | (
                        np.abs(extrapolated - prev_extrapolated)
                        <= 0.5 * rtol * np.maximum(np.abs(extrapolated), 1e-300)
                    )).all():
                        agree += 1
                        if agree >= 2:
                            return result(extrapolated)
                    else:
                        agree = 0
                    prev_extrapolated = extrapolated
        prev_piece = piece
        hi = next_hi
    raise ConvergenceError(
        f"shell refinement exhausted ({_MAX_SHELLS} shells) without convergence"
    )
