"""The direct-sum oracle of the solver's scheme: every step sums the whole
history as three separate, unscaled weights-by-history products (drift,
noise and nu-drift), each scaled after its sum.

It shares neither the solver's one-array history nor its pre-scaling nor its
blocked near and far fields, so the fast paths (the blocked history sum and
its exponential modes, the two-block history, the affine block solve) are
each checked against an independent transcription of the step.  It does share with the package
``build_kernel_weights`` (the drift weights), ``_event_table`` (the jump
events by step), ``_quadrature_rate`` (a jump rate with no closed form) and
``shell_table`` (its first-level panels), so failure steps and quadrature
fallback counts can be compared exactly.
"""

import math

import numpy as np

from fracavg.kernels import as_order, build_kernel_weights, gamma_fn
from fracavg.levy import shell_table
from fracavg.solver import JumpMode, _event_table, _quadrature_rate, _solve_block


def direct_solve_block(coeffs, noise, x0, epsilon, beta):
    """States, failure steps and quadrature fallbacks of ``_solve_block`` for
    one system, each step a direct sum over the whole history."""
    b = as_order(beta).beta
    dim = coeffs.dim
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    has_jump = coeffs.jump is not None or coeffs.jump_drift is not None
    mode = coeffs.jump_mode
    grid = noise.grid
    h, n_steps, times = grid.step, grid.n_steps, grid.times
    timed = coeffs.time_dependent
    p_count = noise.size
    shape = (p_count, dim)
    c_drift = epsilon / gamma_fn(b)
    c_stoch = math.sqrt(epsilon) / gamma_fn(b)

    drift_w = build_kernel_weights(as_order(beta), h, n_steps)
    stoch_w = (h * np.arange(n_steps, 0, -1, dtype=float)) ** (b - 1.0)

    events = has_jump and mode == JumpMode.COMPENSATED and any(r.n_events for r in noise.realizations)
    if events:
        ev_path, ev_time, ev_mark, _, starts, ends = _event_table(noise)

    drift_vals = np.zeros((n_steps,) + shape)
    stoch_vals = np.zeros((n_steps,) + shape)
    nu_vals = np.zeros((n_steps,) + shape) if (has_jump and mode == JumpMode.NU_DRIFT) else None
    histories = [a for a in (drift_vals, stoch_vals, nu_vals) if a is not None]

    states = np.empty((n_steps + 1,) + shape)
    states[0] = x0
    failed = np.zeros(p_count, dtype=np.int64)
    fallbacks = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(1, n_steps + 1):
            j = n - 1
            targs = (times[j],) if timed else ()
            x_j = states[j]
            drift_vals[j] = np.asarray(coeffs.drift(*targs, x_j), dtype=float).reshape(shape)
            g = np.asarray(coeffs.diffusion(*targs, x_j), dtype=float).reshape(
                shape + (coeffs.brownian_dim,)
            )
            stoch_vals[j] = (g @ noise.increments[j][:, :, None])[:, :, 0]
            if has_jump:
                if coeffs.jump_drift is not None:
                    rate = np.asarray(coeffs.jump_drift(*targs, x_j), dtype=float).reshape(shape)
                else:
                    table = shell_table(noise.spec)
                    rate, redone = _quadrature_rate(
                        coeffs.jump, targs, x_j, noise.spec,
                        (table, np.tile(table.nodes, p_count)) if mode == JumpMode.COMPENSATED else None,
                    )
                    fallbacks += redone
                if mode == JumpMode.NU_DRIFT:
                    nu_vals[j] = rate
                else:
                    raw = np.zeros(shape)
                    if events and starts[j] < ends[j]:
                        sel = slice(starts[j], ends[j])
                        ev_targs = (ev_time[sel],) if timed else ()
                        hits = np.asarray(
                            coeffs.jump(*ev_targs, x_j[ev_path[sel]], ev_mark[sel]), dtype=float
                        ).reshape(-1, dim)
                        np.add.at(raw, ev_path[sel], hits)
                    stoch_vals[j] += raw - h * rate
            x_n = (
                x0
                + c_drift * (drift_w[n_steps - n :] @ drift_vals[:n].reshape(n, -1)).reshape(shape)
                + c_stoch * (stoch_w[n_steps - n :] @ stoch_vals[:n].reshape(n, -1)).reshape(shape)
            )
            if nu_vals is not None:
                x_n = x_n + c_stoch * (drift_w[n_steps - n :] @ nu_vals[:n].reshape(n, -1)).reshape(shape)
            bad = ~np.all(np.isfinite(x_n), axis=1)
            if bad.any():
                failed[bad & (failed == 0)] = n
                x_n[bad] = x0
                for history in histories:
                    history[:n, bad] = 0.0
            states[n] = x_n
    return states, failed, fallbacks


def assert_matches_direct(coeffs, noise, x0, epsilon, beta):
    """The solver's states within 1e-12 * (1 + |X|) of the oracle's, failure
    steps and fallback counts equal; returns the failure steps."""
    states, failed, fallbacks = _solve_block((coeffs,), noise, x0, epsilon, beta)
    states, failed, fallbacks = states[:, 0], failed[0], fallbacks[0]
    ref_states, ref_failed, ref_fallbacks = direct_solve_block(coeffs, noise, x0, epsilon, beta)
    np.testing.assert_array_equal(failed, ref_failed)
    assert fallbacks == ref_fallbacks
    assert states.shape == ref_states.shape
    assert np.all(np.isfinite(ref_states))
    assert np.all(np.abs(states - ref_states) <= 1e-12 * (1.0 + np.abs(ref_states)))
    return failed
