"""The blocked history sum of the solver (direct near field, exponential-mode
far field) against the direct-sum oracle of ``oracles/direct_solve.py``, and
the modes against the kernel they replace."""

import dataclasses
import math

import numpy as np
import pytest

from fracavg import solver
from fracavg.averaging import time_average
from fracavg.harness import ExperimentConfig
from fracavg.kernels import build_kernel_weights
from fracavg.levy import JumpMeasureSpec, NoiseBlock, TimeGrid, nu_integral, sample_noise
from fracavg.problems import build_problem, compile_expr, jump_drift_scale
from fracavg.solver import (
    AveragedCoefficientSet,
    CoefficientSet,
    JumpMode,
    _Constant,
    _Linear,
    _event_table,
    _solve_block,
)
from oracles.direct_solve import assert_matches_direct


def noise_block(spec, grid, paths, dim=1, seed=5, include_jumps=True):
    return NoiseBlock(tuple(
        sample_noise(spec, grid, dim=dim, seed=seed, stream_key=(i,), include_jumps=include_jumps)
        for i in range(paths)
    ))


def plain(coefficient):
    """The same coefficient as a plain callable, which the solver calls every step."""
    return lambda *args: coefficient(*args)


# a mean-reverting scalar system with state-dependent noise and a time-dependent drift
OU = CoefficientSet(
    drift=lambda t, x: -x * (1.0 + np.cos(t)),
    diffusion=lambda t, x: (0.5 + 0.1 * np.sin(x))[:, :, None],
)


# built-in problems (each has a constant diffusion) and their block sizes
PROBLEMS = [
    (ExperimentConfig(problem="mlbench", beta=0.6, x0=1.0, epsilon=1.0, horizon=10.0, step=5e-3), 2),
    *((ExperimentConfig(case=case, horizon=10.0, step=1e-2), 5) for case in "abcd"),
    (ExperimentConfig(
        problem="expr", case=None, jump_mode="compensated_prm",
        jump_expr="z*x*sin(t)**2", gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75,
        drift_expr="-x*(1+cos(t))", diffusion_expr="0.5",
        avg_drift_expr="-x", avg_diffusion_expr="0.5", horizon=3.0, step=0.01,
    ), 3),
]
PROBLEM_IDS = ["mlbench", "eq10_a", "eq10_b", "eq10_c", "eq10_d", "expr_compensated"]


class TestBlockedHistory:
    """States within 1e-12 * (1 + |X|) of the direct sum, failures and fallback
    counts equal."""

    @pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 1000, 2049, 5000, 16400])
    def test_step_counts(self, n_steps):
        # the base block is crossed, the modes take their first block at step
        # 2 BASE, and at N = 16400 they carry 255 blocks
        grid = TimeGrid(step=2e-3, n_steps=n_steps)
        assert_matches_direct(OU, noise_block(None, grid, 3), np.array([0.7]), 0.5, 0.6)

    @pytest.mark.parametrize(
        "paths, n_steps", [(1, 1100), (64, 1100), (64, 4100)], ids=["1", "64", "64-4100"]
    )
    def test_block_widths(self, paths, n_steps):
        # every product is stacked per system over all P columns: 1 and 64
        # columns, and at N = 4100 modes that carry 63 blocks
        grid = TimeGrid(step=1e-2, n_steps=n_steps)
        assert_matches_direct(OU, noise_block(None, grid, paths), np.array([0.3]), 0.1, 0.75)

    def test_two_dimensional_system(self):
        rotation = np.array([[-0.5, 1.0], [-1.0, -0.5]])
        coeffs = CoefficientSet(
            drift=lambda t, x: x @ rotation.T,
            diffusion=lambda t, x: 0.2 * np.eye(2) + 0.1 * x[:, :, None] * np.cos(t),
            dim=2,
            brownian_dim=2,
        )
        grid = TimeGrid(step=1e-2, n_steps=1300)
        assert_matches_direct(coeffs, noise_block(None, grid, 3, dim=2), np.array([0.5, -0.2]), 0.2, 0.8)

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
        assert_matches_direct(coeffs, noise, np.array([0.5, -0.2]), 0.2, 0.8)

    @pytest.mark.parametrize("config, paths", PROBLEMS, ids=PROBLEM_IDS)
    def test_problem(self, config, paths):
        cfg = config.resolved()
        problem = build_problem(cfg)
        grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
        noise = noise_block(problem.spec, grid, paths, include_jumps=problem.needs_jump_events)
        if problem.needs_jump_events:
            assert any(r.n_events for r in noise.realizations)
        for coeffs in (problem.coeffs, problem.averaged):
            failed = assert_matches_direct(coeffs, noise, problem.x0, cfg.epsilon, problem.beta)
            assert not failed.any()

    @pytest.mark.parametrize("config, paths", PROBLEMS, ids=PROBLEM_IDS)
    def test_constant_diffusion_matches_a_plain_callable(self, config, paths):
        # noise terms filled before each block against the per-step product;
        # a plain drift keeps both in the step loop, where the two are bitwise equal
        cfg = config.resolved()
        problem = build_problem(cfg)
        grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
        noise = noise_block(problem.spec, grid, paths, include_jumps=problem.needs_jump_events)
        for coeffs in (problem.coeffs, problem.averaged):
            assert isinstance(coeffs.diffusion, _Constant)
            stepped = dataclasses.replace(coeffs, drift=plain(coeffs.drift))
            ref_coeffs = dataclasses.replace(stepped, diffusion=plain(coeffs.diffusion))
            states, failed, _ = _solve_block((coeffs,), noise, problem.x0, cfg.epsilon, problem.beta)
            filled, filled_failed, _ = _solve_block((stepped,), noise, problem.x0, cfg.epsilon, problem.beta)
            ref, ref_failed, _ = _solve_block((ref_coeffs,), noise, problem.x0, cfg.epsilon, problem.beta)
            assert not failed.any() and not filled_failed.any() and not ref_failed.any()
            assert np.all(np.abs(states - ref) <= 1e-12 * (1.0 + np.abs(ref)))
            np.testing.assert_array_equal(filled, ref)  # same products in the same order

    def test_nu_drift_through_quadrature(self):
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        coeffs = CoefficientSet(
            drift=lambda t, x: -x,
            diffusion=lambda t, x: np.full(x.shape + (1,), 0.3),
            jump=lambda t, x, z: np.reshape(z, (-1, 1)) ** 2 * x * np.sin(t) ** 2,
            jump_mode=JumpMode.NU_DRIFT,
        )
        grid = TimeGrid(step=0.05, n_steps=130)
        noise = noise_block(spec, grid, 2, seed=3, include_jumps=False)
        assert_matches_direct(coeffs, noise, np.array([0.4]), 0.3, 0.7)

    @pytest.mark.parametrize(
        "fail_step",
        [2 * solver.BASE, 2 * solver.BASE - 28, 5 * solver.BASE + 17],
        ids=["square_boundary", "mid_block", "after_modes"],
    )
    def test_one_path_blows_up(self, fail_step):
        called = CoefficientSet(
            drift=lambda t, x: -x**3, diffusion=lambda t, x: np.ones((len(x), 1, 1))
        )
        grid = TimeGrid(step=0.02, n_steps=700)
        noises = list(noise_block(None, grid, 4, seed=2).realizations)
        kick = noises[2].increments.copy()
        kick[fail_step - 2, 0] = 1e200  # the drift overflows to inf one step later
        noises[2] = dataclasses.replace(noises[2], increments=kick)
        # the same unit diffusion as a constant, whose noise terms are filled
        # before the time loop: the restarted path keeps its later noise
        for coeffs in (called, dataclasses.replace(called, diffusion=_Constant(1.0))):
            failed = assert_matches_direct(coeffs, NoiseBlock(tuple(noises)), 0.1, 0.5, 0.7)
            assert failed.tolist() == [0, 0, fail_step, 0]


class TestExponentialModes:
    """The far field's sum of exponentials fits the kernel t^(beta - 1) on
    the lags it serves, with at most 100 modes."""

    @pytest.mark.parametrize("beta", [0.51, 0.6, 0.75, 0.85, 0.99])
    @pytest.mark.parametrize(
        "h, n_steps", [(0.1, 100), (0.01, 1000), (1e-3, 10**4), (0.01, 4 * 10**5)], ids=["100", "1e3", "1e4", "4e5"]
    )
    def test_fit(self, beta, h, n_steps):
        rate, weights = solver._exponential_modes(beta, h, n_steps)
        assert len(rate) <= 100
        t = np.geomspace(solver.BASE * h, n_steps * h, 2000)
        fit = np.exp(-np.outer(t, rate)) @ weights[1]
        assert np.max(np.abs(fit / t ** (beta - 1.0) - 1.0)) <= 1e-13
        # the slot-0 weights the modes imply at lags BASE + 1 .. N, in chunks
        # of lags, against the cell integrals of build_kernel_weights
        cells = build_kernel_weights(beta, h, n_steps)[::-1]  # lags 1 .. N
        for l0 in range(solver.BASE + 1, n_steps + 1, 10**4):
            lags = np.arange(l0, min(l0 + 10**4, n_steps + 1))
            implied = np.exp(-h * np.outer(lags, rate)) @ weights[0]
            assert np.all(np.abs(implied - cells[lags - 1]) <= 1e-13 * cells[lags - 1])


class TestLinearDrift:
    """Only the affine block solve reads a ``_Linear`` (a drift, a folded
    NU_DRIFT jump drift, a linear jump): every block of the built-in problems
    is solved, within 1e-12 * (1 + |X|) of the same coefficients called
    every step, with equal failure steps.  Beside any other part (a state
    diffusion, a jump that is not linear) the step loop calls a ``_Linear``
    as any callable, so states equal the plain ones bit for bit."""

    @staticmethod
    def assert_matches_plain(coeffs, noise, x0, epsilon, beta, exact=False):
        fields = {"drift": plain(coeffs.drift)}
        if isinstance(coeffs.jump_drift, _Linear):
            fields["jump_drift"] = plain(coeffs.jump_drift)
        states, failed, _ = _solve_block((coeffs,), noise, x0, epsilon, beta)
        ref, ref_failed, _ = _solve_block(
            (dataclasses.replace(coeffs, **fields),), noise, x0, epsilon, beta
        )
        np.testing.assert_array_equal(failed, ref_failed)
        assert np.all(np.isfinite(ref))
        if exact:
            np.testing.assert_array_equal(states, ref)
        else:
            assert np.all(np.abs(states - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize(
        "config, blocks", zip([c for c, _ in PROBLEMS[:5]], [32, 16, 16, 16, 16]), ids=PROBLEM_IDS[:5]
    )
    def test_builtin_problems_match_plain_callables(self, config, blocks, block_solves):
        cfg = config.resolved()
        problem = build_problem(cfg)
        grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
        noise = noise_block(problem.spec, grid, 5, include_jumps=problem.needs_jump_events)
        systems = [problem.coeffs, problem.averaged]
        if cfg.problem == "eq10":  # eq10's averaged system with its jump drift folded in: (1 + gamma1) x
            gamma1 = jump_drift_scale(cfg.gamma, cfg.alpha, cfg.cutoff) / math.sqrt(cfg.epsilon)
            systems.append(
                AveragedCoefficientSet(drift=_Linear(1.0 + gamma1), diffusion=_Constant(1.0))
            )
        for coeffs in systems:
            assert isinstance(coeffs.drift, _Linear)
            block_solves.clear()
            self.assert_matches_plain(coeffs, noise, problem.x0, cfg.epsilon, problem.beta)
            assert block_solves == [True] * blocks  # every block of the affine solve, none of the plain one

    @pytest.mark.parametrize(
        "jump", ["state_diffusion", "compensated_expr", "nu_drift_callable", "compensated_nonlinear"]
    )
    def test_other_parts_still_run_every_step(self, jump, block_solves):
        # beside a state-dependent diffusion, compensated jump terms that are
        # not linear or a jump drift that is not linear, the solve is stepped
        # and the _Linear drift is called at every step as the plain callable
        # is; a linear compensated expression joins the affine block solve
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        fields = dict(drift=_Linear(lambda t: -(1.0 + np.cos(t))), diffusion=_Constant(0.5))
        if jump == "state_diffusion":
            fields["diffusion"] = OU.diffusion
        elif jump == "compensated_expr":
            fields.update(jump=compile_expr("z*x*sin(t)**2", ("t", "x", "z")))
        elif jump == "compensated_nonlinear":
            fields.update(jump=compile_expr("z*sin(x)*sin(t)**2", ("t", "x", "z")))
        else:
            fields.update(
                jump=lambda t, x, z: z**2 * x, jump_mode=JumpMode.NU_DRIFT,
                jump_drift=lambda t, x: 0.3 * np.sin(x) * math.cos(t),
            )
        coeffs = CoefficientSet(**fields)
        grid = TimeGrid(step=0.01, n_steps=300)
        noise = noise_block(spec, grid, 3, include_jumps=coeffs.jump_mode == JumpMode.COMPENSATED)
        if jump.startswith("compensated"):
            assert any(r.n_events for r in noise.realizations)
        block = jump == "compensated_expr"
        self.assert_matches_plain(coeffs, noise, np.array([0.4]), 0.3, 0.7, exact=not block)
        assert block_solves == [True] * 5 * block  # every block of the affine solve, none of the plain one
        assert_matches_direct(coeffs, noise, np.array([0.4]), 0.3, 0.7)

    def test_a_failure_step_is_the_plain_one(self):
        coeffs = CoefficientSet(drift=_Linear(lambda t: 1.0), diffusion=_Constant(1.0))
        grid = TimeGrid(step=0.02, n_steps=300)
        noises = list(noise_block(None, grid, 3, seed=2).realizations)
        kick = noises[1].increments.copy()
        kick[100, 0] = 1e308  # the state after it overflows
        noises[1] = dataclasses.replace(noises[1], increments=kick)
        noise = NoiseBlock(tuple(noises))
        states, failed, _ = _solve_block((coeffs,), noise, np.array([0.1]), 1.0, 0.7)
        ref, ref_failed, _ = _solve_block(
            (dataclasses.replace(coeffs, drift=plain(coeffs.drift)),), noise, np.array([0.1]), 1.0, 0.7
        )
        assert failed.tolist() == ref_failed.tolist() == [[0, 101, 0]]
        assert np.all(np.abs(states - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_equal_linear_systems_give_exactly_zero(self):
        # acceptance criterion 5: the time-dependent set with constant-valued
        # factors and the averaged set with the same constants
        grid = TimeGrid(step=0.01, n_steps=700)
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        original = CoefficientSet(
            drift=_Linear(lambda t: 1.3), diffusion=_Constant(1.0),
            jump=lambda t, x, z: z**4 * x, jump_mode=JumpMode.NU_DRIFT,
            jump_drift=_Linear(lambda t: 0.4),
        )
        averaged = solver.AveragedCoefficientSet(
            drift=_Linear(1.3), diffusion=_Constant(1.0),
            jump=lambda x, z: z**4 * x, jump_mode=JumpMode.NU_DRIFT, jump_drift=_Linear(0.4),
        )
        noise = noise_block(spec, grid, 5, include_jumps=False)
        solved = solver.solve_coupled(original, averaged, noise, np.array([0.1]), 0.05, 0.6)
        assert all(f is None for f in solved.failures)
        assert np.all(solved.er == 0.0)

    def test_called_directly_keeps_the_batch_contract(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(5, 2))
        timed = _Linear(lambda t: 2.0 * np.cos(t) ** 2)
        out = timed(0.3, batch)
        assert out.shape == (5, 2) and out.dtype == np.float64 and out is not batch
        np.testing.assert_array_equal(out, 2.0 * batch * np.cos(0.3) ** 2)
        assert _Linear(1.5)(batch).tolist() == (1.5 * batch).tolist()
        one = np.array([[0.1]])
        assert timed(np.float64(0.3), one).shape == (1, 1)
        # as `fracavg average` averages eq10's drift at x0 = 0.1: 2 cos^2 averages to 1
        problem = build_problem(ExperimentConfig(case="a").resolved())
        drift_avg = time_average(problem.coeffs.drift, problem.x0[None], 100.0 * math.pi)
        assert drift_avg.shape == (1, 1)
        assert abs(drift_avg[0, 0] - 0.1) <= 1e-12


@pytest.fixture
def block_solves(monkeypatch):
    """Outcomes of the solver's affine block solves, in call order: one per
    (block, system) that a system's rule block-solves, block by block and in
    system order within a block, True where the block was solved and False
    where the step loop stepped it instead.  A system ruled stepped in every
    block (not affine, or steady with a singular or non-finite inverse)
    records nothing."""
    outcomes = []
    solve = solver._solve_affine_block

    def spy(*args):
        outcomes.append(solve(*args))
        return outcomes[-1]

    monkeypatch.setattr(solver, "_solve_affine_block", spy)
    return outcomes


@pytest.fixture
def linalg_calls(monkeypatch):
    """(name, matrix shape) of each ``np.linalg.solve`` (an LU) and ``np.linalg.inv`` call, in call order."""
    calls = []
    for name in ("solve", "inv"):
        def spy(a, *rest, name=name, call=getattr(np.linalg, name)):
            calls.append((name, a.shape))
            return call(a, *rest)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


# eq10's original form: a time-dependent _Linear drift, a folded NU_DRIFT
# _Linear jump drift and a unit additive noise
AFFINE = CoefficientSet(
    drift=_Linear(lambda t: 2.0 * np.cos(t) ** 2),
    diffusion=_Constant(1.0),
    jump=lambda t, x, z: z**4 * x,
    jump_mode=JumpMode.NU_DRIFT,
    jump_drift=_Linear(lambda t: 0.4 * np.sin(t) ** 2),
)


def kicked(noise, path, step, size=1e308):
    """The block with one Brownian increment of a path set to ``size``."""
    noises = list(noise.realizations)
    kick = noises[path].increments.copy()
    kick[step, 0] = size
    noises[path] = dataclasses.replace(noises[path], increments=kick)
    return NoiseBlock(tuple(noises))


class TestAffineBlock:
    """An affine system solves one near-field block per call: states within
    1e-12 * (1 + |X|) of the direct sum; a block that fails is stepped for
    that system alone, so failures are those of the step loop."""

    @pytest.mark.parametrize(
        "n_steps",
        [40, 2 * solver.BASE, 2 * solver.BASE + 1, 3 * solver.BASE - 1, 3 * solver.BASE, 3 * solver.BASE + 1],
        ids=["short", "k_base", "k_base_plus_1", "modes_minus_1", "modes_k_base", "modes_plus_1"],
    )
    def test_block_boundaries(self, n_steps, block_solves, linalg_calls):
        # N < BASE is one block holding state N; at N = k BASE the last block
        # holds state N alone, and at k BASE + 1 state N and one history row;
        # around 3 BASE the first mode update meets a short last block.
        # The factor is constant, so this runs the steady path: one inverse
        # per steady system (here one), no LU, and every block is a leading
        # corner of that inverse, whose size is N + 1 when N < BASE
        grid = TimeGrid(step=0.03, n_steps=n_steps)
        coeffs = CoefficientSet(drift=_Linear(-0.8), diffusion=_Constant(0.6))
        assert_matches_direct(coeffs, noise_block(None, grid, 3), np.array([0.5]), 0.4, 0.7)
        assert block_solves == [True] * (n_steps // solver.BASE + 1)
        assert linalg_calls == [("inv", (min(solver.BASE, n_steps + 1),) * 2)]

    def test_time_dependent_factor(self, block_solves):
        grid = TimeGrid(step=0.01, n_steps=1000)
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        assert_matches_direct(AFFINE, noise_block(spec, grid, 4, include_jumps=False), 0.1, 0.05, 0.6)
        assert block_solves == [True] * 16

    def test_a_time_dependent_factor_is_read_once_on_the_step_times(self, block_solves):
        # a hand-built factor is a numpy function of time: the tables call it
        # once, on the column of step times, not once per step
        shapes = []

        def factor(t):
            shapes.append(np.shape(t))
            return 2.0 * np.cos(t) ** 2

        coeffs = CoefficientSet(drift=_Linear(factor), diffusion=_Constant(1.0))
        noise = noise_block(None, TimeGrid(step=0.01, n_steps=300), 2)
        lags = (np.zeros((solver.BASE,) * 2), None, np.eye(solver.BASE))  # W = 0: the inverse is I
        factors, _, _ = solver._affine_tables((coeffs,), noise, 0.25, 0.5, None, lags)
        assert shapes == [(300,)]
        np.testing.assert_array_equal(factors[0], np.append(0.25 * factor(noise.grid.times[:300]), 0.0))
        shapes.clear()
        _solve_block((coeffs,), noise, np.array([0.1]), 0.05, 0.6)
        assert shapes == [(300,)] and block_solves == [True] * 5

    def test_two_dimensional_system(self, block_solves):
        coeffs = CoefficientSet(
            drift=_Linear(-0.7),
            diffusion=_Constant(np.array([[0.3, 0.1], [-0.2, 0.4]]), shape=(2, 2)),
            dim=2,
            brownian_dim=2,
        )
        grid = TimeGrid(step=1e-2, n_steps=700)
        noise = noise_block(None, grid, 3, dim=2)
        assert_matches_direct(coeffs, noise, np.array([0.5, -0.2]), 0.2, 0.8)
        assert block_solves == [True] * 11

    def test_one_path_is_its_column_of_a_full_block(self, block_solves):
        grid = TimeGrid(step=0.01, n_steps=300)
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        noise = noise_block(spec, grid, 64, include_jumps=False)
        full, _, _ = _solve_block((AFFINE,), noise, 0.1, 0.3, 0.6)
        one = NoiseBlock((noise.realizations[17],))
        alone = assert_matches_direct(AFFINE, one, 0.1, 0.3, 0.6)
        assert not alone.any() and block_solves == [True] * 10  # the full block's solve and the path's
        states, _, _ = _solve_block((AFFINE,), one, 0.1, 0.3, 0.6)
        column = full[:, :, 17:18]
        assert np.all(np.abs(states - column) <= 1e-12 * (1.0 + np.abs(column)))

    @pytest.mark.parametrize(
        "fail_step, n_steps",
        [(2 * solver.BASE, 300), (2 * solver.BASE - 28, 300), (5 * solver.BASE + 17, 400)],
        ids=["block_boundary", "mid_block", "after_modes"],
    )
    def test_a_failure_is_that_of_the_step_loop(self, fail_step, n_steps, block_solves):
        grid = TimeGrid(step=0.02, n_steps=n_steps)
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        clean = noise_block(spec, grid, 3, seed=2, include_jumps=False)
        noise = kicked(clean, 1, fail_step - 1)  # the state after the kick overflows
        averaged = solver.AveragedCoefficientSet(
            drift=_Linear(1.0), diffusion=_Constant(1.0),
            jump=lambda x, z: z**4 * x, jump_mode=JumpMode.NU_DRIFT, jump_drift=_Linear(0.2),
        )
        args = (noise, np.array([0.1]), 1.0, 0.7)
        solved = solver.solve_coupled(AFFINE, averaged, *args)
        # the kick is in the shared noise, so both systems' block overflows and is stepped
        assert block_solves.count(False) == 2 and block_solves.count(True) == 2 * (n_steps // solver.BASE)
        stepped = solver.solve_coupled(
            dataclasses.replace(AFFINE, drift=plain(AFFINE.drift)),
            dataclasses.replace(averaged, drift=plain(averaged.drift)),
            *args,
        )
        failures = [(e.step, e.time, e.system) if e else None for e in solved.failures]
        assert failures == [(e.step, e.time, e.system) if e else None for e in stepped.failures]
        assert failures[1] == (fail_step, grid.times[fail_step], "original")
        ref = solver.solve_coupled(AFFINE, averaged, clean, *args[1:])
        for name in ("original", "averaged"):
            got, want = getattr(solved, name)[:, [0, 2]], getattr(ref, name)[:, [0, 2]]
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("size", [1e300, math.inf], ids=["singular", "non_finite"])
    def test_a_factor_that_blows_up_is_a_recorded_failure(self, size, block_solves, monkeypatch):
        # from t = 2 the factor is 1e300, whose elimination overflows to a zero
        # pivot (LinAlgError), or inf, which gives a nan solution
        raised = []
        solve = np.linalg.solve

        def spy(*args):
            try:
                return solve(*args)
            except np.linalg.LinAlgError:
                raised.append(True)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        coeffs = CoefficientSet(drift=_Linear(lambda t: np.where(t >= 2.0, size, 1.0)), diffusion=_Constant(1.0))
        noise = noise_block(None, TimeGrid(step=0.02, n_steps=300), 3, seed=2)
        states, failed, _ = _solve_block((coeffs,), noise, np.array([0.1]), 1.0, 0.7)
        ref, ref_failed, _ = _solve_block(
            (dataclasses.replace(coeffs, drift=plain(coeffs.drift)),), noise, np.array([0.1]), 1.0, 0.7
        )
        assert failed.all() and failed.tolist() == ref_failed.tolist()
        assert block_solves[:2] == [True, False] and bool(raised) == (size < math.inf)
        assert np.all(np.abs(states - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_a_system_that_stays_finite_beside_a_failing_one(self, block_solves):
        # from t = 2 (block 1) each LU of the failing system raises, and only
        # its blocks are stepped: the finite one is solved in every block and
        # equals its solo solve bit for bit, with no failure of its own
        failing = CoefficientSet(drift=_Linear(lambda t: np.where(t >= 2.0, 1e300, 1.0)), diffusion=_Constant(1.0))
        finite = solver.AveragedCoefficientSet(drift=_Linear(1.0), diffusion=_Constant(1.0))
        noise = noise_block(None, TimeGrid(step=0.02, n_steps=300), 3, seed=2)
        solved = solver.solve_coupled(failing, finite, noise, np.array([0.1]), 1.0, 0.7)
        assert all(e is not None and e.system == "original" for e in solved.failures)
        assert block_solves == [True, True] + [False, True] * 4  # per block: the failing system, the finite one
        alone, failed, _ = _solve_block((finite,), noise, np.array([0.1]), 1.0, 0.7)
        assert not failed.any()
        assert np.array_equal(solved.averaged, alone[:, 0])

    def test_a_steady_system_makes_one_inverse_and_no_lu(self, block_solves, linalg_calls):
        # mlbench: both systems have one constant factor, so one inverse
        # per steady system (two) and no LU
        cfg = ExperimentConfig(problem="mlbench", beta=0.6, x0=1.0, epsilon=1.0, horizon=2.0, step=2e-3).resolved()
        problem = build_problem(cfg)
        noise = noise_block(problem.spec, TimeGrid.from_horizon(cfg.horizon, cfg.step), 2)
        solver.solve_coupled(problem.coeffs, problem.averaged, noise, problem.x0, cfg.epsilon, problem.beta)
        assert linalg_calls == [("inv", (solver.BASE, solver.BASE))] * 2
        assert block_solves == [True] * 2 * 16

    def test_only_a_time_dependent_factor_is_lu_solved(self, block_solves, linalg_calls):
        # fig1_a: eq10 case a's original drift 2 cos^2(t) x varies, its
        # averaged twin's factor does not: one inverse per steady system (the
        # averaged one) and one LU per block for the other, its one zero row of
        # jump factors making Q = 1; N = 1000, so the last block holds 41 states
        cfg = ExperimentConfig(
            problem="eq10", case="a", epsilon=1e-3, cutoff=0.5, x0=0.1, horizon=10.0, step=1e-2
        ).resolved()
        problem = build_problem(cfg)
        grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
        noise = noise_block(problem.spec, grid, 3, include_jumps=problem.needs_jump_events)
        solver.solve_coupled(problem.coeffs, problem.averaged, noise, problem.x0, cfg.epsilon, problem.beta)
        lu = [("solve", (1, solver.BASE, solver.BASE))] * 15 + [("solve", (1, 41, 41))]
        assert linalg_calls == [("inv", (solver.BASE, solver.BASE))] + lu
        assert block_solves == [True] * 2 * 16

    @pytest.mark.parametrize(
        "size, fail_step, solved",
        [
            # a finite inverse: the failing system's states overflow in block 2, which is stepped
            (1e3, 166, [True, True] * 2 + [False, True] + [True, True] * 2),
            # the inverse raises LinAlgError or is not finite: the failing system is stepped
            # in every block and records nothing, the finite one is solved in each
            (1e300, 2, [True] * 5),
            (math.inf, 1, [True] * 5),
        ],
        ids=["overflowing_states", "singular", "non_finite"],
    )
    def test_a_steady_factor_that_blows_up_is_stepped(self, size, fail_step, solved, block_solves):
        # failure steps and systems are those of the step loop, and only the
        # failing system's blocks are stepped: the finite system is solved in
        # every block and equals its solo solve bit for bit
        failing = CoefficientSet(drift=_Linear(size), diffusion=_Constant(1.0))
        finite = solver.AveragedCoefficientSet(drift=_Linear(1.0), diffusion=_Constant(1.0))
        noise = noise_block(None, TimeGrid(step=0.02, n_steps=300), 3, seed=2)
        args = (noise, np.array([0.1]), 1.0, 0.7)
        solved_block = solver.solve_coupled(failing, finite, *args)
        assert block_solves == solved
        stepped = solver.solve_coupled(
            dataclasses.replace(failing, drift=plain(failing.drift)),
            dataclasses.replace(finite, drift=plain(finite.drift)),
            *args,
        )
        failures = [(e.step, e.time, e.system) if e else None for e in solved_block.failures]
        assert failures == [(e.step, e.time, e.system) if e else None for e in stepped.failures]
        assert failures == [(fail_step, noise.grid.times[fail_step], "original")] * 3
        alone, failed, _ = _solve_block((finite,), noise, np.array([0.1]), 1.0, 0.7)
        assert not failed.any()
        assert np.array_equal(solved_block.averaged, alone[:, 0])

    def test_equal_systems_give_exactly_zero(self, block_solves):
        # acceptance criterion 5 through the block solve
        same = dataclasses.replace(AFFINE, diffusion=_Constant(1.0))
        grid = TimeGrid(step=0.01, n_steps=700)
        noise = noise_block(None, grid, 5)
        solved = solver.solve_coupled(AFFINE, same, noise, np.array([0.1]), 0.05, 0.6)
        assert all(f is None for f in solved.failures) and block_solves == [True] * 2 * 11
        assert np.all(solved.er == 0.0)


def compensated(source, mode=JumpMode.COMPENSATED):
    """jumps_quad's original system with the jump ``source`` in the given mode."""
    return CoefficientSet(
        drift=compile_expr("-x*(1+cos(t))", ("t", "x")),
        diffusion=_Constant(0.5),
        jump=compile_expr(source, ("t", "x", "z")),
        jump_mode=mode,
    )


def twin(coeffs, source):
    """The same system with its jump ``source`` written ``... + 0*x*x``, which is not linear."""
    return dataclasses.replace(coeffs, jump=compile_expr(source + " + 0*x*x", ("t", "x", "z")))


class TestCompensatedBlock:
    """A state-linear compensated jump phi(t, z) X joins the affine block
    solve: states within 1e-12 * (1 + |X|) of its stepped twin, written
    ``... + 0*x*x``, with equal failure steps and fallback counts."""

    SPEC = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)

    @staticmethod
    def assert_matches_twin(source, noise, x0=np.array([0.4]), epsilon=0.3, beta=0.7):
        coeffs = compensated(source)
        states, failed, fallbacks = _solve_block((coeffs,), noise, x0, epsilon, beta)
        ref, ref_failed, ref_fallbacks = _solve_block((twin(coeffs, source),), noise, x0, epsilon, beta)
        np.testing.assert_array_equal(failed, ref_failed)
        assert fallbacks == ref_fallbacks
        assert np.all(np.abs(states - ref) <= 1e-12 * (1.0 + np.abs(ref)))
        return states, failed, fallbacks

    def test_the_twin_is_the_stepped_solve(self, block_solves):
        coeffs = compensated("z*x*sin(t)**2")
        assert isinstance(coeffs.jump, _Linear)
        assert not isinstance(twin(coeffs, "z*x*sin(t)**2").jump, _Linear)
        noise = noise_block(self.SPEC, TimeGrid(step=0.01, n_steps=300), 3)
        args = (noise, np.array([0.4]), 0.3, 0.7)
        stepped, _, _ = _solve_block((twin(coeffs, "z*x*sin(t)**2"),), *args)
        # the expression evaluated by the step loop, as every expression was before
        plain_expr, _, _ = _solve_block((dataclasses.replace(coeffs, jump=coeffs.jump.call),), *args)
        np.testing.assert_array_equal(stepped, plain_expr)
        assert block_solves == []

    @pytest.mark.parametrize("paths", [1, 3, 64])
    def test_block_solve_matches_the_twin(self, paths, block_solves):
        noise = noise_block(self.SPEC, TimeGrid(step=0.01, n_steps=300), paths)
        assert all(r.n_events for r in noise.realizations)
        _, failed, fallbacks = self.assert_matches_twin("z*x*sin(t)**2", noise)
        assert not failed.any() and fallbacks == [0]
        assert block_solves == [True] * 5  # the twin is stepped, with no block solve
        assert_matches_direct(compensated("z*x*sin(t)**2"), noise, np.array([0.4]), 0.3, 0.7)

    @pytest.mark.parametrize("events", [True, False], ids=["events", "no_events"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_last_block_of_state_n_alone(self, k, events, block_solves):
        # at N = k BASE the last block holds state N and no history rows
        grid = TimeGrid(step=0.01, n_steps=k * solver.BASE)
        noise = noise_block(self.SPEC, grid, 3, include_jumps=events)
        _, failed, _ = self.assert_matches_twin("z*x*sin(t)**2", noise)
        assert not failed.any()
        assert block_solves == [True] * (k + 1)

    def test_event_steps_are_those_of_the_grid(self):
        # min(floor(t / h), N - 1) in the table's order (step, path, time),
        # with an event at a grid time and events in the last step
        grid = TimeGrid(step=0.25, n_steps=8)
        times = ([0.5, 0.6, 1.75, 1.9], [0.1, 0.5, 1.99])
        noise = NoiseBlock(tuple(
            dataclasses.replace(
                r, jump_times=np.array(t), jump_marks=np.full(len(t), 0.2)
            ) for r, t in zip(noise_block(self.SPEC, grid, 2, include_jumps=False).realizations, times)
        ))
        paths, ev_times, _, steps, starts, ends = _event_table(noise)
        assert paths.tolist() == [1, 0, 0, 1, 0, 0, 1]
        assert ev_times.tolist() == [0.1, 0.5, 0.6, 0.5, 1.75, 1.9, 1.99]
        assert steps.tolist() == np.minimum(np.floor(ev_times / grid.step), grid.n_steps - 1).tolist()
        assert steps.tolist() == [0, 2, 2, 2, 7, 7, 7]
        assert starts == [0, 1, 1, 4, 4, 4, 4, 4] and ends == [1, 1, 4, 4, 4, 4, 4, 7]

    def test_without_events_one_matrix_serves_every_path(self, block_solves, monkeypatch):
        # no inverse for a compensated system: one LU per block, of one (Q = 1)
        # matrix for all paths
        shapes = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(a.shape) or solve(a, b))
        noise = noise_block(self.SPEC, TimeGrid(step=0.01, n_steps=300), 3, include_jumps=False)
        self.assert_matches_twin("z*x*sin(t)**2", noise)
        assert block_solves == [True] * 5 and shapes[0] == (1, 64, 64)

    def test_an_unsettled_rate_counts_one_fallback_per_path(self, block_solves, monkeypatch):
        # |z - 0.1| has a kink inside the shell table: every step's rate is
        # refined, all steps by one nu_integral, and counted once per path, as
        # stepping does
        calls = []
        integral = solver.levy.nu_integral
        monkeypatch.setattr(solver.levy, "nu_integral", lambda *a, **k: calls.append(1) or integral(*a, **k))
        noise = noise_block(self.SPEC, TimeGrid(step=0.02, n_steps=50), 3)
        _, _, fallbacks = self.assert_matches_twin("abs(z-0.1)*x", noise)
        assert fallbacks == [3 * 50]
        assert len(calls) == 1 + 50  # one for all steps here, one per step (all paths) for the twin
        assert block_solves == [True]

    def test_a_mixed_pair_is_each_solo_solve(self, block_solves):
        # a stepped original (its jump is not linear) beside a block-solved
        # averaged system, both with unsettled rates: each system's states,
        # failures and fallback counts are those of its solo solve
        original = twin(compensated("abs(z-0.1)*x"), "abs(z-0.1)*x")
        averaged = solver.AveragedCoefficientSet(
            drift=compile_expr("-x", ("x",)), diffusion=_Constant(0.5), jump=compile_expr("abs(z-0.1)*x", ("x", "z")),
        )
        noise = noise_block(self.SPEC, TimeGrid(step=0.02, n_steps=300), 3)
        args = (noise, np.array([0.4]), 0.3, 0.7)
        states, failed, fallbacks = _solve_block((original, averaged), *args)
        assert block_solves == [True] * 5  # the averaged system's blocks; the original records nothing
        for s, system in enumerate((original, averaged)):
            alone, alone_failed, alone_fallbacks = _solve_block((system,), *args)
            assert np.array_equal(states[:, s], alone[:, 0])
            np.testing.assert_array_equal(failed[s], alone_failed[0])
            assert fallbacks[s] == alone_fallbacks[0] == 3 * 300

    def test_a_time_independent_jump(self, block_solves):
        averaged = solver.AveragedCoefficientSet(
            drift=compile_expr("-x", ("x",)), diffusion=_Constant(0.5),
            jump=compile_expr("z*x", ("x", "z")), jump_mode=JumpMode.COMPENSATED,
        )
        stepped = dataclasses.replace(averaged, jump=compile_expr("z*x + 0*x*x", ("x", "z")))
        noise = noise_block(self.SPEC, TimeGrid(step=0.01, n_steps=200), 3)
        args = (noise, np.array([0.4]), 0.3, 0.7)
        states, failed, fallbacks = _solve_block((averaged,), *args)
        ref, ref_failed, ref_fallbacks = _solve_block((stepped,), *args)
        assert block_solves == [True] * 4
        np.testing.assert_array_equal(failed, ref_failed)
        assert fallbacks == ref_fallbacks == [0]
        assert np.all(np.abs(states - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize(
        "fail_step", [2 * solver.BASE, 2 * solver.BASE - 28], ids=["block_boundary", "mid_block"]
    )
    def test_a_blow_up_is_the_failure_of_the_twin(self, fail_step, block_solves):
        clean = noise_block(self.SPEC, TimeGrid(step=0.02, n_steps=300), 3, seed=2)
        noise = kicked(clean, 1, fail_step - 1)  # with a unit diffusion the state after the kick overflows
        args = (np.array([0.1]), 1.0, 0.7)
        coeffs = dataclasses.replace(compensated("z*x*sin(t)**2"), diffusion=_Constant(1.0))
        averaged = solver.AveragedCoefficientSet(drift=compile_expr("-x", ("x",)), diffusion=_Constant(1.0))
        solved = solver.solve_coupled(coeffs, averaged, noise, *args)
        # the kick is in the shared noise, so both systems' block overflows and is stepped
        assert block_solves.count(False) == 2 and block_solves.count(True) == 2 * 4
        stepped = solver.solve_coupled(twin(coeffs, "z*x*sin(t)**2"), averaged, noise, *args)
        failures = [(e.step, e.time, e.system) if e else None for e in solved.failures]
        assert failures == [(e.step, e.time, e.system) if e else None for e in stepped.failures]
        assert failures[1] == (fail_step, noise.grid.times[fail_step], "original")
        ref = solver.solve_coupled(coeffs, averaged, clean, *args)
        for name in ("original", "averaged"):
            got, want = getattr(solved, name)[:, [0, 2]], getattr(ref, name)[:, [0, 2]]
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def test_equal_systems_give_exactly_zero(self, block_solves):
        noise = noise_block(self.SPEC, TimeGrid(step=0.01, n_steps=700), 5)
        solved = solver.solve_coupled(
            compensated("z*x*sin(t)**2"), compensated("z*x*sin(t)**2"), noise, np.array([0.1]), 0.05, 0.6
        )
        assert all(f is None for f in solved.failures) and block_solves == [True] * 2 * 11
        assert np.all(solved.er == 0.0)

    def test_a_nu_drift_rate_is_one_integral_per_solve(self, block_solves, monkeypatch):
        # a NU_DRIFT linear expression with no closed form: its (0, cutoff)
        # rates are one integral for all steps and paths; stepped, one per step
        calls = []
        integral = solver.levy.nu_integral
        monkeypatch.setattr(solver.levy, "nu_integral", lambda *a, **k: calls.append(1) or integral(*a, **k))
        coeffs = compensated("z**2*x*sin(t)**2", mode=JumpMode.NU_DRIFT)
        stepped = twin(coeffs, "z**2*x*sin(t)**2")
        noise = noise_block(self.SPEC, TimeGrid(step=0.01, n_steps=20), 3, include_jumps=False)
        args = (noise, np.array([0.4]), 0.3, 0.7)
        states, failed, _ = _solve_block((coeffs,), *args)
        assert len(calls) == 1 and block_solves == [True]
        ref, ref_failed, _ = _solve_block((stepped,), *args)
        assert len(calls) == 1 + 20
        np.testing.assert_array_equal(failed, ref_failed)
        assert np.all(np.abs(states - ref) <= 1e-12 * (1.0 + np.abs(ref)))
