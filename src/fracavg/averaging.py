"""Time-averaged coefficients, hypothesis probing, and the error-bound calculator.

Residual envelopes follow the time-averaged (Khasminskii) form: the norm is
taken of the *time average* of the coefficient mismatch, not of its pointwise
value.  The pointwise drift residual is also recorded so a report can show
that it does not decay for oscillating coefficients even when the averaged
form does.

Coefficient sets follow the solver's batch contract, so every probe state x
is handed to them as a batch of one, shape (1, dim).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .kernels import as_order, gamma_fn, log_mittag_leffler
from .levy import JumpMeasureSpec, gauss_kronrod, nu_integral
from .solver import AveragedCoefficientSet, CoefficientSet, _rows_integrand

_CHUNK = 2.0 * math.pi  # oscillatory coefficients get one first-level panel per period

# A slot's residual at a probe no larger than this many float64 epsilons
# times the norm of the slot's averaged coefficient there (a few ulps) is
# the time quadrature's rounding, not a trend: it counts as zero.
_RESIDUAL_ULPS = 4

# The Mittag-Leffler series of the bound is summed to this relative accuracy.
_SERIES_TOL = 1e-14

# A bound is evaluated through its natural log, a float64 that fixes the bound
# only to about |log| * 2^-53 relative.  Past this log that is coarser than
# 1e-10, the accuracy the calculator is held to, and the bound is refused.
_MAX_LOG_BOUND = 1e-10 / 2.0**-53


def write_json(data: dict, path) -> None:
    """Write one JSON output file: indented, keys sorted, newline-terminated.

    The text is built first and written in one call (``json.dump`` would
    make one write per token).
    """
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def averaging_horizon(horizon) -> float:
    """The horizon as a float; ValueError unless it is positive and finite."""
    horizon = float(horizon)
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"averaging horizon must be positive and finite; got {horizon!r}")
    return horizon


def time_average(
    coefficient,
    state,
    horizon: float,
    quadrature_tol: float = 1e-12,
):
    """Average of ``coefficient(t, state)`` over t in [0, horizon].

    The coefficient is called on float times, and every component of its
    result is integrated at once by ``levy.gauss_kronrod``, whose first level
    is one panel per 2 pi of the horizon, to ``quadrature_tol`` of the average
    or absolutely, whichever is larger.  The output has the shape of the
    coefficient's result, such as (1, dim) for a drift at a state given as
    a batch of one.  Whether the average has settled is not tested here;
    ``h3_residuals`` reads the residuals over a grid of horizons.
    """
    horizon = averaging_horizon(horizon)
    state = np.asarray(state, dtype=float)

    def values(times):
        return np.array([np.asarray(coefficient(t, state), dtype=float) for t in times.tolist()])

    cuts = np.linspace(0.0, horizon, max(1, math.ceil(horizon / _CHUNK)) + 1)
    return gauss_kronrod(values, cuts, rtol=quadrature_tol, atol=quadrature_tol * horizon) / horizon


def averaged_jump_drift(spec: JumpMeasureSpec, jump, state, horizon: float) -> np.ndarray:
    """Time average of the jump coefficient's integral against the measure.

    This is the deterministic drift the jump term contributes when it
    integrates against the intensity measure itself; the mark integral runs
    over the full (0, cutoff) range, at each time one ``nu_integral`` of all
    components, and the time average is ``time_average``'s at its default
    tolerance.  The state is a batch of one, (1, dim), as at every probe,
    and the jump follows the batch contract; the result has shape (dim,).
    """
    state = np.asarray(state, dtype=float).reshape(1, -1)

    def rate(t: float, _x) -> np.ndarray:
        return nu_integral(spec, _rows_integrand(jump, (t,), state), use_delta=False)

    return time_average(rate, state, horizon)


def _residual(size: float, scale: float) -> float:
    """A slot's residual norm ``size``, or 0.0 when it is within
    _RESIDUAL_ULPS ulps of ``scale``, the norm of the slot's averaged
    coefficient; an infinite scale floors nothing."""
    return 0.0 if size <= _RESIDUAL_ULPS * np.finfo(float).eps * scale < math.inf else size


def _slot_residual(coefficient, target, t1, x, order=None) -> float:
    """The residual of one slot at probe state x: the norm of the average of
    ``coefficient(t, x)`` over t in [0, t1] less ``target``, the averaged
    coefficient's value at x, floored by ``_residual``.  With ``order`` None
    both are compared as flat vectors; otherwise as matrices, in that norm."""
    shape = (-1,) if order is None else np.shape(target)
    target = np.asarray(target, dtype=float).reshape(shape)
    average = np.asarray(time_average(coefficient, x, t1), dtype=float).reshape(shape)
    return _residual(float(np.linalg.norm(average - target, order)), float(np.linalg.norm(target, order)))


def _gram(g, dim: int) -> np.ndarray:
    """G G' of a diffusion value G, read as a (dim, m) matrix."""
    g = np.asarray(g, dtype=float).reshape(dim, -1)
    return g @ g.T


def _as_batches(states) -> list[np.ndarray]:
    """Probe states as batches of one, shape (1, dim)."""
    return [np.asarray(x, dtype=float).reshape(1, -1) for x in states]


@dataclass(frozen=True)
class ResidualEnvelope:
    """Sampled residual envelopes over a grid of averaging horizons."""

    t1_grid: list[float]
    alpha1: list[float]
    alpha2: list[float]
    alpha3: list[float]
    alpha1_pointwise: list[float]
    decay_flags: dict[str, str]


def _decay_flag(values: list[float]) -> str:
    if len(values) < 2:
        return "insufficient_data"
    if max(values) == 0.0:
        return "all_zero"
    return "decays" if values[-1] < 0.5 * values[0] else "no_decay"


def h3_residuals(
    coeffs: CoefficientSet,
    averaged: AveragedCoefficientSet,
    t1_grid,
    probe_states,
    spec: JumpMeasureSpec | None = None,
) -> ResidualEnvelope:
    """Residual envelopes of the three coefficient slots over averaging horizons.

    For each horizon T1 the envelopes are suprema over the probe states of

        alpha1: |avg_t f - f_bar| / (1 + |x|)
        alpha2: ||avg_t G G' - G_bar G_bar'|| / (1 + |x|^2)
        alpha3: jump-slot residual / (1 + |x|^2)

    where the jump slot compares either the measure-drift rates (when a
    closed-form rate is available on both sides) or the L2(measure) norm of
    the time-averaged jump-coefficient mismatch.  The drift, G G' (in the
    spectral norm) and a closed-form rate follow one rule, ``_slot_residual``:
    time-average the slot at the probe, compare with the averaged slot's
    value there, and count a residual within a few ulps of that value as
    zero, so a drift that is its own average reads ``all_zero`` whatever the
    rounding of the time quadrature.  Suprema over a finite probe set are
    lower bounds of the true constants; the probe set is echoed in the
    enclosing report.
    """
    if not (len(probe_states) and len(t1_grid)):
        raise ValueError("probe_states and t1_grid must be nonempty")
    probes = _as_batches(probe_states)
    t1_grid = [float(t) for t in t1_grid]

    alpha1, alpha2, alpha3, alpha1_pw = [], [], [], []
    for t1 in t1_grid:
        a1 = a2 = a3 = pw = 0.0
        for x in probes:
            nx = float(np.linalg.norm(x.ravel()))
            a1 = max(a1, _slot_residual(coeffs.drift, averaged.drift(x), t1, x) / (1.0 + nx))
            pointwise = np.linalg.norm(
                np.asarray(coeffs.drift(t1, x), dtype=float).reshape(-1)
                - np.asarray(averaged.drift(x), dtype=float).reshape(-1)
            )
            pw = max(pw, float(pointwise) / (1.0 + nx))

            a2 = max(a2, _slot_residual(
                lambda t, y: _gram(coeffs.diffusion(t, y), coeffs.dim),
                _gram(averaged.diffusion(x), averaged.dim),
                t1, x, order=2,
            ) / (1.0 + nx**2))
            a3 = max(a3, _jump_slot_residual(coeffs, averaged, spec, t1, x) / (1.0 + nx**2))
        alpha1.append(a1)
        alpha2.append(a2)
        alpha3.append(a3)
        alpha1_pw.append(pw)

    return ResidualEnvelope(
        t1_grid=t1_grid,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha3=alpha3,
        alpha1_pointwise=alpha1_pw,
        decay_flags={
            "alpha1": _decay_flag(alpha1),
            "alpha2": _decay_flag(alpha2),
            "alpha3": _decay_flag(alpha3),
        },
    )


def _jump_slot_residual(coeffs, averaged, spec, t1, x) -> float:
    if coeffs.jump is None and coeffs.jump_drift is None:
        return 0.0
    if coeffs.jump_drift is not None and averaged.jump_drift is not None:
        return _slot_residual(coeffs.jump_drift, averaged.jump_drift(x), t1, x)
    if spec is None:
        raise ValueError(
            "jump-slot residual needs a JumpMeasureSpec when no closed-form "
            "rates are available"
        )
    # L2(measure) norm of the time-averaged jump-coefficient mismatch, at
    # every node of a level at once: one time average of all their components
    def avg_mismatch(z: np.ndarray) -> np.ndarray:
        def diff(t, y):
            orig = _rows_integrand(coeffs.jump, (t,), y)(z)
            if averaged.jump is not None:
                orig = orig - _rows_integrand(averaged.jump, (), y)(z)
            return orig

        return time_average(diff, x, t1, quadrature_tol=1e-10)

    return _square_integral(spec, avg_mismatch)


def _square_integral(spec, fn) -> float:
    """Integral of the squared norm of fn(z) against the jump measure over
    (0, cutoff); fn takes a 1-D array of marks and returns (k, dim) values."""
    return nu_integral(spec, lambda z: np.sum(fn(z) ** 2, axis=1), use_delta=False, rtol=1e-8)


def default_probe_states(dim: int) -> list[np.ndarray]:
    """Signed log-spaced magnitudes along each coordinate direction."""
    probes = []
    for i in range(dim):
        for mag in (1e-2, 1e-1, 1.0, 1e1, 1e2):
            for sign in (1.0, -1.0):
                x = np.zeros(dim)
                x[i] = sign * mag
                probes.append(x)
    return probes


@dataclass(frozen=True)
class HypothesisReport:
    """Numerical evidence for the Lipschitz, growth, and averaging hypotheses.

    All estimates are suprema over finite probe sets, hence lower bounds of
    the true constants; the probe sets are echoed so a report is reproducible.
    """

    lipschitz_estimate: float
    growth_estimate: float
    envelope: ResidualEnvelope
    probe_states: list[list[float]]
    times: list[float]
    spec_params: dict | None = None

    def save(self, path) -> None:
        write_json(asdict(self), path)


def probe_hypotheses(
    coeffs: CoefficientSet,
    averaged: AveragedCoefficientSet,
    spec: JumpMeasureSpec | None = None,
    t1_grid=(10.0, 100.0, 1000.0),
    probe_states=None,
    times=None,
) -> HypothesisReport:
    """Estimate the Lipschitz/growth constants and the residual envelopes.

    The Lipschitz probe takes, over all probe pairs and times, the largest of
    the squared drift increment |f(x1) - f(x2)|^2, the squared diffusion
    increment ||G(x1) - G(x2)||^2 (spectral norm), and the squared-mismatch
    measure integral of the jump coefficient, each divided by the squared
    state distance; the growth probe is the analogous supremum of |f(x)|^2,
    ||G(x)||^2 and the jump's squared measure integral against 1 + |x|^2.
    Without ``probe_states`` the probes are ``default_probe_states``, and
    without ``times`` 41 times evenly spaced on [0, 10].
    """
    if probe_states is None:
        probe_states = default_probe_states(coeffs.dim)
    probes = _as_batches(probe_states)
    if times is None:
        times = np.linspace(0.0, 10.0, 41)
    times = [float(t) for t in times]

    jumps = coeffs.jump is not None and spec is not None
    c1 = 0.0
    c2 = 0.0
    for t in times:
        # drift and diffusion at each probe state, once per time
        probed = [
            (
                x,
                np.asarray(coeffs.drift(t, x), dtype=float).reshape(-1),
                np.asarray(coeffs.diffusion(t, x), dtype=float).reshape(coeffs.dim, -1),
            )
            for x in probes
        ]
        for i, (x1, f1, g1) in enumerate(probed):
            growth_terms = [float(np.sum(f1**2)), float(np.linalg.norm(g1, 2)) ** 2]
            if jumps:
                growth_terms.append(_square_integral(spec, _rows_integrand(coeffs.jump, (t,), x1)))
            c2 = max(c2, max(growth_terms) / (1.0 + float(np.sum(x1**2))))

            for x2, f2, g2 in probed[i + 1 :]:
                dist_sq = float(np.sum((x1 - x2) ** 2))
                if dist_sq == 0.0:
                    continue
                lip_terms = [float(np.sum((f1 - f2) ** 2)), float(np.linalg.norm(g1 - g2, 2)) ** 2]
                if jumps:
                    lip_terms.append(_square_integral(
                        spec,
                        lambda z: _rows_integrand(coeffs.jump, (t,), x1)(z)
                        - _rows_integrand(coeffs.jump, (t,), x2)(z),
                    ))
                c1 = max(c1, max(lip_terms) / dist_sq)

    envelope = h3_residuals(coeffs, averaged, t1_grid, probes, spec=spec)
    return HypothesisReport(
        lipschitz_estimate=c1,
        growth_estimate=c2,
        envelope=envelope,
        probe_states=[x.ravel().tolist() for x in probes],
        times=times,
        spec_params=asdict(spec) if spec is not None else None,
    )


@dataclass(frozen=True)
class BoundReport:
    """Evaluated mean-square closeness bound over a grid of small parameters.

    The six K constants feed a Mittag-Leffler style series whose prefactor
    carries the residual envelopes; the reported bound at each epsilon is
    the series value times epsilon^(1 - lambda).  ``log10_bounds`` holds the
    decimal log of each bound (None where the bound is 0), and ``bounds`` is
    None where the bound does not fit in a float64.  ``series_terms`` counts
    the series terms summed per epsilon: 0 for a zero bound, 1 where the
    large-argument asymptote of the series was used.
    """

    k11: float
    k12: float
    k21: float
    k22: float
    k31: float
    k32: float
    lam: float
    big_l: float
    z_moment: float
    beta: float
    epsilons: list[float]
    bounds: list[Optional[float]]
    log10_bounds: list[Optional[float]]
    series_terms: list[int]
    inputs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "k_constants": {
                "k11": self.k11,
                "k12": self.k12,
                "k21": self.k21,
                "k22": self.k22,
                "k31": self.k31,
                "k32": self.k32,
            },
            "lambda": self.lam,
            "L": self.big_l,
            "z_moment": self.z_moment,
            "beta": self.beta,
            "epsilons": self.epsilons,
            "bounds": self.bounds,
            "log10_bounds": self.log10_bounds,
            "series_terms": self.series_terms,
            "inputs": self.inputs,
        }

    def save(self, path) -> None:
        write_json(self.to_json_dict(), path)


def theorem_bound(
    c1: float,
    alpha_sups,
    z_moment: float,
    beta,
    epsilon,
    lam: float = 0.5,
    big_l: float = 1.0,
) -> BoundReport:
    """Evaluate the closeness bound C * epsilon^(1 - lambda) per epsilon.

    ``alpha_sups`` are the suprema of the three residual envelopes over the
    working horizon; ``z_moment`` estimates 1 + E sup |Z|^2 (>= 1).  The
    drift envelope enters squared, the other two linearly, matching the
    constants of the underlying estimate exactly.  The series is evaluated in
    the log domain, so a bound beyond float64 still has its ``log10_bounds``
    entry; ConvergenceError is raised only when even that log is too large to
    fix the bound to 1e-10 relative, or a constant overflows float64.  The
    series is summed to _SERIES_TOL (1e-14) relative.
    """
    order = as_order(beta)
    b = order.beta
    c1 = float(c1)
    a1, a2, a3 = (float(a) for a in alpha_sups)
    z_moment = float(z_moment)
    lam = float(lam)
    big_l = float(big_l)
    epsilons = [float(e) for e in (np.atleast_1d(epsilon).tolist())]
    if not epsilons:
        raise ValueError("epsilon must hold at least one value")
    # nan passes every comparison below, and inf makes the bound nan or inf
    for name, values in (
        ("c1", [c1]), ("alpha_sups", [a1, a2, a3]), ("z_moment", [z_moment]),
        ("lambda", [lam]), ("L", [big_l]), ("epsilon", epsilons),
    ):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name} must be finite; got {', '.join(map(repr, values))}")
    if min(a1, a2, a3) < 0.0 or c1 < 0.0:
        raise ValueError("constants and residual suprema must be nonnegative")
    if z_moment < 1.0:
        raise ValueError(f"z_moment estimates 1 + E sup|Z|^2 and must be >= 1; got {z_moment!r}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1); got {lam!r}")
    if big_l <= 0.0:
        raise ValueError(f"L must be positive; got {big_l!r}")
    if any(e <= 0.0 for e in epsilons):
        raise ValueError("every epsilon must be positive")

    try:
        gb = gamma_fn(b)
        k11 = k21 = k31 = 6.0 * c1**2 / gb**2
        k12 = 12.0 / (b**2 * gb**2) * a1**2 * z_moment
        k22 = 6.0 / ((2.0 * b - 1.0) * gb**2) * a2 * z_moment
        k32 = 6.0 / ((2.0 * b - 1.0) * gb**2) * a3 * z_moment

        bounds = []
        log10_bounds = []
        terms = []
        for eps in epsilons:
            prefactor = (
                k12 * big_l ** (2.0 * b) * eps ** (1.0 + lam - 2.0 * b * lam)
                + (k22 + k32) * big_l ** (2.0 * b - 1.0) * eps ** (2.0 * lam * (1.0 - b))
            )
            if prefactor == 0.0:
                bounds.append(0.0)
                log10_bounds.append(None)
                terms.append(0)
                continue
            base = (
                k11 * big_l ** (1.0 + b) * eps ** (2.0 - lam - b * lam)
                + (k21 + k31) * big_l**b * eps ** (1.0 - b * lam)
            ) * gb
            log_series, n_terms = log_mittag_leffler(b, base, tol=_SERIES_TOL)
            log_bound = math.log(prefactor) + log_series + (1.0 - lam) * math.log(eps)
            if abs(log_bound) > _MAX_LOG_BOUND:
                raise ConvergenceError(
                    f"bound at epsilon={eps:g} is 10^{log_bound / math.log(10.0):.6g}, too large "
                    f"to evaluate to 1e-10 relative (Mittag-Leffler argument {base:g}, beta={b:g})"
                )
            try:
                bounds.append(math.exp(log_bound))
            except OverflowError:
                bounds.append(None)
            log10_bounds.append(log_bound / math.log(10.0))
            terms.append(n_terms)
    except OverflowError:
        raise ConvergenceError(
            f"the bound's constants overflow float64 (c1={c1:g}, alpha_sups=({a1:g}, {a2:g}, "
            f"{a3:g}), z_moment={z_moment:g}, L={big_l:g}, beta={b:g})"
        ) from None

    return BoundReport(
        k11=k11, k12=k12, k21=k21, k22=k22, k31=k31, k32=k32,
        lam=lam, big_l=big_l, z_moment=z_moment, beta=b,
        epsilons=epsilons, bounds=bounds, log10_bounds=log10_bounds, series_terms=terms,
        inputs={"c1": c1, "alpha_sups": [a1, a2, a3]},
    )
