"""The solver's one history array (one weighted sum per step) against three
separate memory sums, and the chunked CSV writer against ``csv.writer``."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from fracavg import solver
from fracavg.harness import ExperimentConfig
from fracavg.kernels import as_order, build_kernel_weights, gamma_fn
from fracavg.levy import JumpMeasureSpec, NoiseBlock, TimeGrid, nu_integral, sample_noise, shell_table
from fracavg.problems import build_problem
from fracavg.solver import (
    CoefficientSet,
    CoupledPaths,
    GridPath,
    JumpMode,
    _event_table,
    _quadrature_rate,
    _solve_block,
)


def three_product_solve_block(coeffs, noise, x0, epsilon, beta):
    """The solver's step as three weights-by-history products (drift, noise,
    nu-drift), each scaled after its sum: the reference for the one product."""
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

    drift_w = build_kernel_weights(as_order(beta), h, n_steps).weights
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


def assert_matches_reference(coeffs, noise, x0, epsilon, beta):
    states, failed, fallbacks = _solve_block((coeffs,), noise, x0, epsilon, beta)
    states, failed, fallbacks = states[:, 0], failed[0], fallbacks[0]
    ref_states, ref_failed, ref_fallbacks = three_product_solve_block(coeffs, noise, x0, epsilon, beta)
    np.testing.assert_array_equal(failed, ref_failed)
    assert fallbacks == ref_fallbacks
    assert np.all(np.isfinite(ref_states))
    assert np.all(np.abs(states - ref_states) <= 1e-12 * (1.0 + np.abs(ref_states)))
    return failed


def problem_block(cfg, paths, seed=5):
    cfg = cfg.resolved()
    problem = build_problem(cfg)
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    noise = NoiseBlock(tuple(
        sample_noise(problem.spec, grid, dim=problem.coeffs.brownian_dim, seed=seed,
                     stream_key=(i,), include_jumps=problem.needs_jump_events)
        for i in range(paths)
    ))
    return cfg, problem, noise


class TestOneHistoryProduct:
    """States within 1e-12 * (1 + |X|) of the three-product sum, failures and
    fallback counts equal."""

    @pytest.mark.parametrize(
        "config, paths",
        [
            (ExperimentConfig(problem="mlbench", beta=0.6, x0=1.0, epsilon=1.0, horizon=10.0,
                              step=1e-2), 2),
            *((ExperimentConfig(case=case, horizon=5.0, step=1e-2), 5) for case in "abcd"),
            (ExperimentConfig(
                problem="expr", case=None, jump_mode="compensated_prm",
                jump_expr="z*x*sin(t)**2", gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75,
                drift_expr="-x*(1+cos(t))", diffusion_expr="0.5",
                avg_drift_expr="-x", avg_diffusion_expr="0.5", horizon=2.0, step=0.02,
            ), 7),
        ],
        ids=["mlbench", "eq10_a", "eq10_b", "eq10_c", "eq10_d", "expr_compensated"],
    )
    def test_problem(self, config, paths):
        cfg, problem, noise = problem_block(config, paths)
        if problem.needs_jump_events:
            assert any(r.n_events for r in noise.realizations)
        for coeffs in (problem.coeffs, problem.averaged):
            failed = assert_matches_reference(coeffs, noise, problem.x0, cfg.epsilon, problem.beta)
            assert not failed.any()

    def test_nu_drift_through_quadrature(self):
        # no closed-form jump_drift: every step integrates each row adaptively on (0, cutoff)
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        coeffs = CoefficientSet(
            drift=lambda t, x: -x,
            diffusion=lambda t, x: np.full(x.shape + (1,), 0.3),
            jump=lambda t, x, z: np.reshape(z, (-1, 1)) ** 2 * x * np.sin(t) ** 2,
            jump_mode=JumpMode.NU_DRIFT,
        )
        grid = TimeGrid(step=0.05, n_steps=20)
        noise = NoiseBlock(tuple(
            sample_noise(spec, grid, dim=1, seed=3, stream_key=(i,), include_jumps=False)
            for i in range(2)
        ))
        assert_matches_reference(coeffs, noise, np.array([0.4]), 0.3, 0.7)

    def test_two_dimensional_system_with_compensated_jumps(self):
        spec = JumpMeasureSpec(gamma=2.0, alpha=0.8, cutoff=0.5)
        mean_mark = nu_integral(spec, lambda z: z)  # over [delta, cutoff)
        rotation = np.array([[-0.5, 1.0], [-1.0, -0.5]])
        coeffs = CoefficientSet(
            drift=lambda t, x: x @ rotation.T,
            diffusion=lambda t, x: 0.2 * np.eye(2) + 0.1 * x[:, :, None] * np.cos(t),
            jump=lambda t, x, z: np.asarray(z)[:, None] * x,
            jump_drift=lambda t, x: mean_mark * x,
            dim=2,
            brownian_dim=2,
        )
        grid = TimeGrid(step=0.02, n_steps=100)
        noise = NoiseBlock(tuple(sample_noise(spec, grid, dim=2, seed=4, stream_key=(i,)) for i in range(3)))
        assert any(r.n_events for r in noise.realizations)
        assert_matches_reference(coeffs, noise, np.array([0.5, -0.2]), 0.2, 0.8)

    def test_block_with_one_blown_up_column(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: -x**3, diffusion=lambda t, x: 1.0)
        grid = TimeGrid(step=0.05, n_steps=40)
        noises = [sample_noise(None, grid, dim=1, seed=2, stream_key=(i,)) for i in range(4)]
        kick = noises[2].increments.copy()
        kick[5, 0] = 1e200  # the drift overflows in plain floats one step later
        noises[2] = dataclasses.replace(noises[2], increments=kick)
        failed = assert_matches_reference(coeffs, NoiseBlock(tuple(noises)), 0.1, 0.5, 0.7)
        assert failed[2] > 0 and not failed[[0, 1, 3]].any()


def csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


SPECIAL = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-300, 1.5e300, 0.1, 1 / 3])


def grid_path(n_rows, dim, seed):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n_rows, dim)) * 10.0 ** rng.integers(-8, 8, (n_rows, dim))
    states.flat[: SPECIAL.size] = SPECIAL[: states.size]
    return GridPath(times=np.arange(n_rows) * 0.01, states=states)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_rows", [1, solver.CSV_CHUNK_ROWS, 2 * solver.CSV_CHUNK_ROWS + 37])
class TestCsvBytes:
    """Saved CSVs are byte for byte what csv.writer writes for the same values."""

    def test_grid_path(self, tmp_path, dim, n_rows):
        path = grid_path(n_rows, dim, seed=n_rows)
        path.to_csv(tmp_path / "new.csv")
        expected = csv_writer_bytes(
            tmp_path / "ref.csv",
            ["t"] + [f"X_{i + 1}" for i in range(dim)],
            [[t, *x] for t, x in zip(path.times, path.states)],
        )
        assert (tmp_path / "new.csv").read_bytes() == expected

    def test_coupled_paths(self, tmp_path, dim, n_rows):
        original = grid_path(n_rows, dim, seed=n_rows)
        averaged = grid_path(n_rows, dim, seed=n_rows + 1)
        with np.errstate(invalid="ignore"):  # inf - inf
            er = np.linalg.norm(original.states - averaged.states, axis=1)
        coupled = CoupledPaths(original=original, averaged=averaged, er=er)
        coupled.to_csv(tmp_path / "new.csv")
        expected = csv_writer_bytes(
            tmp_path / "ref.csv",
            ["t"] + [f"X_{i + 1}" for i in range(dim)] + [f"Z_{i + 1}" for i in range(dim)] + ["Er"],
            [[t, *x, *z, e] for t, x, z, e in zip(original.times, original.states, averaged.states, er)],
        )
        assert (tmp_path / "new.csv").read_bytes() == expected
