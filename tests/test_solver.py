import dataclasses
import math
import warnings

import numpy as np
import pytest

from fracavg.errors import PathBlowupError
from fracavg.harness import ExperimentConfig
from fracavg.kernels import gamma_fn
from fracavg.levy import (
    JumpMeasureSpec,
    NoiseBlock,
    NoiseRealization,
    TimeGrid,
    nu_integral,
    sample_noise,
)
from fracavg import levy
from fracavg.problems import build_problem, compile_expr
from fracavg.solver import (
    AveragedCoefficientSet,
    CoefficientSet,
    CoupledPaths,
    GridPath,
    JumpMode,
    RATE_RTOL,
    _Constant,
    _quadrature_rate,
    _solve_block,
    solve_averaged,
    solve_coupled,
    solve_original,
)

ML_075_AT_1 = 3.4858662200517439  # sum_k 1 / Gamma(0.75 k + 1), 200-term oracle


def zero_noise(n_steps, step=0.01, dim=1, spec=None):
    grid = TimeGrid(step=step, n_steps=n_steps)
    return NoiseRealization(
        grid=grid,
        increments=np.zeros((n_steps, dim)),
        jump_times=np.empty(0),
        jump_marks=np.empty(0),
        spec=spec,
        master_seed=0,
    )


class TestDeterministicSolves:
    def test_zero_coefficients_constant_path(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: 0.0, diffusion=lambda t, x: 0.0)
        path = solve_original(coeffs, zero_noise(50), x0=2.5, epsilon=0.7, beta=0.75)
        assert np.all(path.states == 2.5)

    def test_linear_drift_matches_mittag_leffler(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
        path = solve_original(coeffs, zero_noise(1000, step=1e-3), x0=1.0, epsilon=1.0, beta=0.75)
        assert path.states[-1, 0] == pytest.approx(ML_075_AT_1, rel=0.01)

    def test_refinement_order_at_least_09(self):
        errors = []
        for step in (1e-2, 5e-3, 2.5e-3):
            coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
            path = solve_original(
                coeffs, zero_noise(round(1.0 / step), step=step), x0=1.0, epsilon=1.0, beta=0.75
            )
            errors.append(abs(path.states[-1, 0] - ML_075_AT_1))
        slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errors), 1)[0]
        assert slope >= 0.9

    def test_near_one_order_matches_classical_euler(self):
        step = 1e-3
        n = 1000
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
        path = solve_original(coeffs, zero_noise(n, step=step), x0=1.0, epsilon=1.0, beta=0.999)
        euler = np.empty(n + 1)
        euler[0] = 1.0
        for k in range(n):
            euler[k + 1] = euler[k] + step * euler[k]
        assert np.max(np.abs(path.states[:, 0] - euler)) < 1e-2


class TestStochasticSolves:
    def test_near_one_order_matches_euler_maruyama(self):
        step = 1e-3
        grid = TimeGrid(step=step, n_steps=1000)
        noise = sample_noise(None, grid, dim=1, seed=31)
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: math.cos(t) * x, diffusion=lambda t, x: 0.2
        )
        path = solve_original(coeffs, noise, x0=1.0, epsilon=1.0, beta=0.999)
        em = np.empty(1001)
        em[0] = 1.0
        for k in range(1000):
            em[k + 1] = em[k] + step * math.cos(k * step) * em[k] + 0.2 * noise.increments[k, 0]
        assert np.max(np.abs(path.states[:, 0] - em)) < 1e-2

    def test_stochastic_convolution_variance_law(self):
        # additive unit diffusion, no drift: the terminal state is Gaussian
        # with variance h^(2b-1) sum_k k^(2b-2) / Gamma(b)^2
        beta = 0.6
        h = 0.05
        n = 20
        grid = TimeGrid(step=h, n_steps=n)
        coeffs = CoefficientSet.scalar(drift=lambda t, x: 0.0, diffusion=lambda t, x: 1.0)
        n_rep = 5000
        finals = np.empty(n_rep)
        for i in range(n_rep):
            noise = sample_noise(None, grid, dim=1, seed=23, stream_key=(i,))
            finals[i] = solve_original(coeffs, noise, x0=0.0, epsilon=1.0, beta=beta).states[-1, 0]
        lags = np.arange(1, n + 1, dtype=float)
        exact = h ** (2 * beta - 1) * np.sum(lags ** (2 * beta - 2)) / gamma_fn(beta) ** 2
        sample = finals.var(ddof=1)
        # sampling error of a Gaussian variance estimate: var * sqrt(2/(n-1))
        tol = 4.0 * exact * math.sqrt(2.0 / (n_rep - 1))
        assert abs(sample - exact) < tol
        se_mean = finals.std(ddof=1) / math.sqrt(n_rep)
        assert abs(finals.mean()) < 4.0 * se_mean

    def test_left_limit_states_fed_to_coefficients(self):
        seen = []

        def probing_drift(t, x):
            seen.append((t, float(x[0, 0])))
            return 0.3 * x

        coeffs = CoefficientSet(
            drift=probing_drift, diffusion=lambda t, x: np.full((len(x), 1, 1), 0.5)
        )
        grid = TimeGrid(step=0.1, n_steps=20)
        noise = sample_noise(None, grid, dim=1, seed=3)
        path = solve_original(coeffs, noise, x0=1.0, epsilon=0.5, beta=0.8)
        times_seen = [t for t, _ in seen]
        states_seen = [x for _, x in seen]
        np.testing.assert_allclose(times_seen, grid.times[:-1])
        np.testing.assert_allclose(states_seen, path.states[:-1, 0])

    def test_epsilon_zero_freezes_path(self):
        grid = TimeGrid(step=0.1, n_steps=10)
        noise = sample_noise(None, grid, dim=1, seed=8)
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 1.0)
        path = solve_original(coeffs, noise, x0=0.4, epsilon=0.0, beta=0.6)
        assert np.all(path.states == 0.4)

    def test_epsilon_continuity_near_zero(self):
        grid = TimeGrid(step=0.1, n_steps=10)
        noise = sample_noise(None, grid, dim=1, seed=8)
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 1.0)
        path = solve_original(coeffs, noise, x0=0.4, epsilon=1e-10, beta=0.6)
        assert np.max(np.abs(path.states - 0.4)) < 1e-4

    def test_epsilon_out_of_range(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                solve_original(coeffs, zero_noise(5), x0=1.0, epsilon=bad, beta=0.75)

    def test_blowup_reports_step_and_system(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: 1e308 * (1 + x**2), diffusion=lambda t, x: 0.0)
        with pytest.raises(PathBlowupError) as err:
            solve_original(coeffs, zero_noise(10, step=1.0), x0=1.0, epsilon=1.0, beta=0.75)
        assert err.value.system == "original"
        assert err.value.step >= 1

    def test_noise_dimension_mismatch(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 1.0)
        with pytest.raises(ValueError):
            solve_original(coeffs, zero_noise(5, dim=2), x0=1.0, epsilon=0.5, beta=0.75)


class TestJumpModes:
    SPEC = JumpMeasureSpec(gamma=1.0, alpha=0.5, cutoff=0.5, delta=0.05)

    def test_nu_drift_closed_form_vs_quadrature_fallback(self):
        scale = self.SPEC.gamma * self.SPEC.cutoff**3.5 / 3.5
        with_closed = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump=lambda t, x, z: z**4 * x,
            jump_mode=JumpMode.NU_DRIFT,
            jump_drift=lambda t, x: scale * x,
        )
        with_quad = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump=lambda t, x, z: z**4 * x,
            jump_mode=JumpMode.NU_DRIFT,
        )
        noise = zero_noise(20, step=0.05, spec=self.SPEC)
        a = solve_original(with_closed, noise, x0=1.0, epsilon=1.0, beta=0.75)
        b = solve_original(with_quad, noise, x0=1.0, epsilon=1.0, beta=0.75)
        np.testing.assert_allclose(a.states, b.states, rtol=1e-9)
        assert a.states[-1, 0] > 1.0  # positive drift actually acted

    def test_compensated_two_step_hand_computation(self):
        # two steps, two known events, state-free jump coefficient H = z
        beta = 0.75
        h = 0.5
        grid = TimeGrid(step=h, n_steps=2)
        noise = NoiseRealization(
            grid=grid,
            increments=np.zeros((2, 1)),
            jump_times=np.array([0.3, 0.7]),
            jump_marks=np.array([0.2, 0.3]),
            spec=self.SPEC,
            master_seed=0,
        )
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump=lambda t, x, z: z,
            jump_mode=JumpMode.COMPENSATED,
        )
        path = solve_original(coeffs, noise, x0=0.0, epsilon=1.0, beta=beta)

        # rate = integral of z against the measure over [delta, cutoff)
        g, a, c, d = 1.0, 0.5, 0.5, 0.05
        rate = g * (c ** (1 - a) - d ** (1 - a)) / (1 - a)
        j0 = 0.2 - h * rate
        j1 = 0.3 - h * rate
        gb = gamma_fn(beta)
        x1 = (h ** (beta - 1)) * j0 / gb
        x2 = ((2 * h) ** (beta - 1) * j0 + h ** (beta - 1) * j1) / gb
        assert path.states[1, 0] == pytest.approx(x1, rel=1e-12)
        assert path.states[2, 0] == pytest.approx(x2, rel=1e-12)

    def test_compensated_without_events_is_pure_compensator(self):
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump=lambda t, x, z: z,
            jump_mode=JumpMode.COMPENSATED,
        )
        noise = zero_noise(4, step=0.25, spec=self.SPEC)
        path = solve_original(coeffs, noise, x0=0.0, epsilon=1.0, beta=0.75)
        assert np.all(path.states[1:, 0] < 0.0)  # only the subtracted rate acts

    def test_compensated_mode_requires_jump_coefficient(self):
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump_mode=JumpMode.COMPENSATED,
            jump_drift=lambda t, x: 1.0,
        )
        with pytest.raises(ValueError):
            solve_original(coeffs, zero_noise(4, spec=self.SPEC), x0=0.0, epsilon=1.0, beta=0.75)

    def test_jump_without_measure_or_closed_form_rejected(self):
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump=lambda t, x, z: z,
            jump_mode=JumpMode.NU_DRIFT,
        )
        with pytest.raises(ValueError):
            solve_original(coeffs, zero_noise(4, spec=None), x0=0.0, epsilon=1.0, beta=0.75)

    def test_nu_drift_closed_form_needs_no_measure(self):
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump_mode=JumpMode.NU_DRIFT,
            jump_drift=lambda t, x: 0.5,
        )
        path = solve_original(coeffs, zero_noise(10, step=0.1, spec=None), x0=0.0, epsilon=1.0, beta=0.75)
        assert path.states[-1, 0] > 0.0

    def test_compensated_term_is_centered(self):
        # state-free jump coefficient: the compensated contribution has mean
        # zero at every grid time, so the terminal ensemble mean vanishes
        spec = JumpMeasureSpec(gamma=2.0, alpha=0.8, cutoff=0.5, delta=0.02)
        rate = spec.gamma * (spec.cutoff**0.2 - spec.delta**0.2) / 0.2
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: 0.0,
            diffusion=lambda t, x: 0.0,
            jump=lambda t, x, z: z,
            jump_mode=JumpMode.COMPENSATED,
            jump_drift=lambda t, x: rate,
        )
        grid = TimeGrid(step=0.05, n_steps=20)
        n_rep = 3000
        finals = np.empty(n_rep)
        for i in range(n_rep):
            noise = sample_noise(spec, grid, dim=1, seed=13, stream_key=(i,))
            finals[i] = solve_original(coeffs, noise, x0=0.0, epsilon=1.0, beta=0.75).states[-1, 0]
        se = finals.std(ddof=1) / math.sqrt(n_rep)
        assert abs(finals.mean()) < 4.0 * se

    def test_vector_state_compensated_jumps(self):
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.5, cutoff=0.5, delta=0.05)
        rate1 = spec.gamma * (spec.cutoff**0.5 - spec.delta**0.5) / 0.5

        def jump(t, x, z):
            return np.stack([z, 2.0 * z], axis=-1)

        def jump_drift(t, x):
            return np.tile([rate1, 2.0 * rate1], (len(x), 1))

        coeffs = CoefficientSet(
            drift=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.zeros((len(x), 2, 1)),
            jump=jump,
            jump_mode=JumpMode.COMPENSATED,
            jump_drift=jump_drift,
            dim=2,
            brownian_dim=1,
        )
        grid = TimeGrid(step=0.1, n_steps=10)
        noise = sample_noise(spec, grid, dim=1, seed=19)
        path = solve_original(coeffs, noise, x0=[0.0, 0.0], epsilon=1.0, beta=0.75)
        # the second component sees exactly twice the jump input of the first
        np.testing.assert_allclose(path.states[:, 1], 2.0 * path.states[:, 0], rtol=1e-12)


def _column(z):
    """Marks as a column: scalars and (P,) arrays become (1, 1) and (P, 1)."""
    return np.asarray(z, dtype=float).reshape(-1, 1)


class TestCompensatorTable:
    """Compensator rates from the measure's shell table, without a closed form."""

    SPEC = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
    # integral of z against the measure over [delta, cutoff)
    Z_RATE = SPEC.gamma * (SPEC.cutoff**0.2 - SPEC.delta**0.2) / 0.2

    @staticmethod
    def kink_rate(spec, k=0.1):
        """Closed-form integral of |z - k| against the measure over [delta, cutoff)."""
        a, g = spec.alpha, spec.gamma
        f1 = lambda z: z ** (1.0 - a) / (1.0 - a)  # antiderivative of z^-alpha
        f0 = lambda z: -(z**-a) / a  # antiderivative of z^(-1-alpha)
        below = k * (f0(k) - f0(spec.delta)) - (f1(k) - f1(spec.delta))
        above = (f1(spec.cutoff) - f1(k)) - k * (f0(spec.cutoff) - f0(k))
        return g * (below + above)

    def _coupled(self, jump, jump_drift):
        """Three paths of 50 steps, with the given compensator rate or none."""
        coeffs = CoefficientSet(
            drift=lambda t, x: -x,
            diffusion=lambda t, x: np.full((len(x), 1, 1), 0.3),
            jump=jump,
            jump_mode=JumpMode.COMPENSATED,
            jump_drift=jump_drift,
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: -x, diffusion=lambda x: np.full((len(x), 1, 1), 0.3)
        )
        grid = TimeGrid(step=0.02, n_steps=50)
        noise = NoiseBlock(tuple(
            sample_noise(self.SPEC, grid, dim=1, seed=4, stream_key=(i,)) for i in range(3)
        ))
        return solve_coupled(coeffs, averaged, noise, x0=1.0, epsilon=0.5, beta=0.75)

    def test_smooth_jump_matches_closed_form_without_fallback(self):
        table = self._coupled(lambda t, x, z: _column(z) * x * _column(np.cos(t)) ** 2, None)
        closed = self._coupled(
            lambda t, x, z: _column(z) * x * _column(np.cos(t)) ** 2,
            lambda t, x: self.Z_RATE * x * np.cos(t) ** 2,
        )
        assert table.quadrature_fallbacks == 0
        np.testing.assert_allclose(table.original, closed.original, rtol=1e-10, atol=0)

    def test_kinked_jump_falls_back_and_matches_closed_form(self):
        rate = self.kink_rate(self.SPEC)
        assert rate == pytest.approx(
            nu_integral(self.SPEC, lambda z: abs(z - 0.1), use_delta=True), rel=1e-10
        )
        jump = lambda t, x, z: np.abs(_column(z) - 0.1) * x
        table = self._coupled(jump, None)
        closed = self._coupled(jump, lambda t, x: rate * x)
        assert table.quadrature_fallbacks == 50 * 3  # every step of every path
        np.testing.assert_allclose(table.original, closed.original, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("form", ["batch", "scalar"])
    def test_overflowing_rate_fails_at_the_closed_form_step(self, form):
        # the compensator pushes x up until exp(1000 x) overflows
        c = self.Z_RATE
        if form == "batch":
            def build(jump_drift):
                return CoefficientSet(
                    drift=lambda t, x: np.zeros_like(x),
                    diffusion=lambda t, x: np.zeros((len(x), 1, 1)),
                    jump=lambda t, x, z: -_column(z) * np.exp(1000.0 * x),
                    jump_mode=JumpMode.COMPENSATED,
                    jump_drift=jump_drift,
                )
            closed_form = lambda t, x: -c * np.exp(1000.0 * x)
        else:
            def build(jump_drift):
                return CoefficientSet.scalar(
                    drift=lambda t, x: 0.0,
                    diffusion=lambda t, x: 0.0,
                    jump=lambda t, x, z: -z * math.exp(1000.0 * x),
                    jump_mode=JumpMode.COMPENSATED,
                    jump_drift=jump_drift,
                )
            closed_form = lambda t, x: -c * math.exp(1000.0 * x)
        noise = zero_noise(40, step=0.05, spec=self.SPEC)
        kw = dict(x0=0.0, epsilon=1.0, beta=0.75)
        with pytest.raises(PathBlowupError) as table:
            solve_original(build(None), noise, **kw)
        with pytest.raises(PathBlowupError) as closed:
            solve_original(build(closed_form), noise, **kw)
        assert 1 < table.value.step < 40
        assert table.value.step == closed.value.step

    def test_overflowing_row_stays_infinite(self):
        jump = lambda t, x, z: -_column(z) * np.exp(1000.0 * x)
        X = np.array([[0.0], [1.0], [0.5]])
        table = levy.shell_table(self.SPEC)
        with np.errstate(over="ignore", invalid="ignore"):
            rate, redone = _quadrature_rate(jump, (0.0,), X, self.SPEC, (table, np.tile(table.nodes, 3)))
        assert redone == 0
        assert rate[1, 0] == -math.inf
        assert rate[0, 0] == pytest.approx(-self.Z_RATE, rel=1e-12)
        assert rate[2, 0] == pytest.approx(-self.Z_RATE * math.exp(500.0), rel=1e-12)

    @staticmethod
    def per_call_rate(jump, targs, X, spec):
        """The compensator rate with the shell table looked up and its nodes
        tiled on every call, as each step did before they were built once per
        solve."""
        table = levy.shell_table(spec)
        p_count, k = X.shape[0], table.nodes.size
        values = np.asarray(
            jump(*targs, np.repeat(X, k, axis=0), np.tile(table.nodes, p_count)), dtype=float
        ).reshape(p_count, k, -1)
        rate = table.weights @ values
        redo = np.flatnonzero(table.unsettled(values.transpose(0, 2, 1), rate, RATE_RTOL).any(axis=1))
        if redo.size:  # the unsettled rows together, each column of values one row
            rows = X[redo]
            integrand = lambda z: np.asarray(
                jump(*targs, np.repeat(rows, z.size, axis=0), np.tile(z, len(rows)))
            ).reshape(len(rows), z.size).T
            rate[redo] = nu_integral(spec, integrand, rtol=RATE_RTOL)[:, None]
        return rate, redo.size

    @pytest.mark.parametrize("paths", [1, 3, 64])
    @pytest.mark.parametrize(
        "source, fallback",
        [("z*x*sin(t)**2", False), ("abs(z-0.1)*x", True), ("-z*exp(1000*x)", False)],
        ids=["smooth", "kinked", "overflow"],
    )
    def test_per_solve_inputs_match_a_per_call_table(self, paths, source, fallback):
        jump = compile_expr(source, ("t", "x", "z"))
        table = levy.shell_table(self.SPEC)
        shells = (table, np.tile(table.nodes, paths))  # built once, as the solver does per solve
        rng = np.random.default_rng(paths)
        for t in (0.3, 1.7):  # the same inputs serve every step
            X = rng.uniform(-0.5, 0.5, (paths, 1))  # no subnormal exp(1000 x)
            X[-1] = 1.0  # exp(1000) overflows: that row's rate is -inf
            with np.errstate(over="ignore", invalid="ignore"):
                got, redone = _quadrature_rate(jump, (t,), X, self.SPEC, shells)
                want, want_redone = self.per_call_rate(jump, (t,), X, self.SPEC)
            assert np.array_equal(got, want)
            assert redone == want_redone == (paths if fallback else 0)
        if source.startswith("-z"):
            assert got[-1, 0] == -math.inf

    @pytest.mark.parametrize(
        "problem, tables",
        [("eq10", 0), ("expr_compensated", 1), ("expr_closed_form", 0)],
    )
    def test_shell_table_is_looked_up_once_per_solve(self, monkeypatch, problem, tables):
        # eq10 has a measure but closed-form jump drifts, so it needs no table
        spec = self.SPEC
        if problem == "eq10":
            coeffs, averaged = (lambda p: (p.coeffs, p.averaged))(build_problem(
                ExperimentConfig(problem="eq10", case="a", epsilon=1e-3).resolved()
            ))
        else:
            jump = compile_expr("z*x*sin(t)**2", ("t", "x", "z"))
            closed = (lambda t, x: self.Z_RATE * x * np.sin(t) ** 2) if problem == "expr_closed_form" else None
            coeffs = CoefficientSet(
                drift=lambda t, x: -x, diffusion=_Constant(0.3), jump=jump,
                jump_mode=JumpMode.COMPENSATED, jump_drift=closed,
            )
            averaged = AveragedCoefficientSet(drift=lambda x: -x, diffusion=_Constant(0.3))
        calls = []
        lookup = levy.shell_table
        monkeypatch.setattr(levy, "shell_table", lambda s: calls.append(s) or lookup(s))
        grid = TimeGrid(step=0.02, n_steps=50)
        noise = NoiseBlock(tuple(
            sample_noise(spec, grid, dim=1, seed=4, stream_key=(i,)) for i in range(3)
        ))
        solve_coupled(coeffs, averaged, noise, x0=1.0, epsilon=0.5, beta=0.75)
        assert len(calls) == tables

    def test_nu_drift_expression_is_integrated_on_node_columns(self):
        # integral of z^2 against the measure over (0, cutoff), in closed form
        spec = self.SPEC
        z2 = spec.gamma * spec.cutoff ** (2.0 - spec.alpha) / (2.0 - spec.alpha)
        jump = compile_expr("z**2*x*sin(t)**2", ("t", "x", "z"))  # a _Linear: its call is integrated
        body, args = jump.call.fn, []
        jump.call.fn = lambda *values: args.append(values) or body(*values)
        t = np.float64(0.4)
        rate, redone = _quadrature_rate(jump, (t,), np.array([[0.7]]), spec, None)
        # one call per shell of the open range, on the row repeated at the shell's nodes
        assert 0 < len(args) <= 30 and redone == 0
        for t_arg, x, z in args:
            assert t_arg == t and type(t_arg) is np.float64
            assert x.dtype == z.dtype == np.float64 and x.shape == z.shape == (42,)
            assert np.all(x == 0.7)
        assert rate.shape == (1, 1)
        assert rate[0, 0] == pytest.approx(z2 * 0.7 * math.sin(0.4) ** 2, rel=1e-10)

    def test_refining_a_row_calls_the_jump_once_per_level(self):
        # |z - 0.1| is not settled by the table: nu_integral refines the row,
        # calling the compiled jump on node columns, not once per node
        jump = compile_expr("abs(z-0.1)*x", ("t", "x", "z"))
        body, sizes = jump.call.fn, []
        jump.call.fn = lambda *values: sizes.append(values[-1].size) or body(*values)
        table = levy.shell_table(self.SPEC)
        rate, redone = _quadrature_rate(jump, (0.3,), np.array([[0.7]]), self.SPEC, (table, table.nodes))
        assert redone == 1
        assert sizes[0] == sizes[1] == table.nodes.size  # the table, then nu_integral's first level
        assert len(sizes) <= 20 and sum(sizes) <= 5 * table.nodes.size
        assert rate[0, 0] == pytest.approx(0.7 * self.kink_rate(self.SPEC), rel=1e-10)


class TestCoefficientResults:
    """Which drift, jump_drift and diffusion results a solve accepts, for P = 3 and dim 1.

    An accepted result gives the states of the float64 array of the target
    shape, (3, 1), or (3, 1, 1) for the diffusion, bit for bit.
    """

    VALUES = (1, -2, 3)
    ACCEPTED = {
        "flat": lambda v: np.array(v, dtype=float),
        "nested_list": lambda v: [[x] for x in v],
        "int_column": lambda v: np.array(v).reshape(3, 1),
        "column_of_1x1": lambda v: np.array(v, dtype=float).reshape(3, 1, 1),
    }
    REJECTED = {
        "one_entry": lambda v: np.array([1.0]),
        "python_float": lambda v: 1.0,
    }

    @staticmethod
    def _solve(role, result):
        fields = dict(drift=lambda t, x: -x, diffusion=_Constant(0.5))
        if role == "jump_drift":
            fields.update(jump_drift=lambda t, x: result, jump_mode=JumpMode.NU_DRIFT)
        else:
            fields[role] = lambda t, x: result
        grid = TimeGrid(step=0.05, n_steps=20)
        noise = NoiseBlock(tuple(
            sample_noise(None, grid, dim=1, seed=4, stream_key=(i,)) for i in range(3)
        ))
        states, failed, _ = _solve_block((CoefficientSet(**fields),), noise, 0.2, 0.5, 0.7)
        assert not failed.any()
        return states

    @pytest.mark.parametrize("form", sorted(ACCEPTED))
    @pytest.mark.parametrize("role", ["drift", "jump_drift", "diffusion"])
    def test_accepted_results_solve_as_the_float64_array(self, role, form):
        target = (3, 1, 1) if role == "diffusion" else (3, 1)
        reference = self._solve(role, np.array(self.VALUES, dtype=float).reshape(target))
        assert np.array_equal(self._solve(role, self.ACCEPTED[form](self.VALUES)), reference)

    @pytest.mark.parametrize("form", sorted(REJECTED))
    @pytest.mark.parametrize("role", ["drift", "jump_drift", "diffusion"])
    def test_results_of_another_size_are_refused(self, role, form):
        with pytest.raises(ValueError):
            self._solve(role, self.REJECTED[form](self.VALUES))


class TestCoupling:
    def test_frozen_coefficients_bitwise_identical(self):
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: 0.8 * x, diffusion=lambda t, x: 0.3
        )
        averaged = AveragedCoefficientSet.scalar(
            drift=lambda x: 0.8 * x, diffusion=lambda x: 0.3
        )
        grid = TimeGrid(step=0.02, n_steps=100)
        noise = sample_noise(None, grid, dim=1, seed=99)
        a = solve_original(coeffs, noise, x0=0.1, epsilon=0.4, beta=0.7)
        b = solve_averaged(averaged, noise, x0=0.1, epsilon=0.4, beta=0.7)
        assert np.array_equal(a.states, b.states)

    def test_identical_coefficients_zero_error_many_seeds(self):
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: math.sin(x), diffusion=lambda t, x: 0.5 + 0.1 * x**2
        )
        averaged = AveragedCoefficientSet.scalar(
            drift=lambda x: math.sin(x), diffusion=lambda x: 0.5 + 0.1 * x**2
        )
        grid = TimeGrid(step=0.05, n_steps=40)
        for seed in range(10):
            noise = sample_noise(None, grid, dim=1, seed=seed)
            res = solve_coupled(coeffs, averaged, noise, x0=0.2, epsilon=0.9, beta=0.85)
            assert res.sup_sq_error == 0.0
            assert np.all(res.er == 0.0)

    @pytest.mark.parametrize("paths", [1, 2, 64])
    def test_identical_coefficients_with_a_constant_diffusion_zero_error(self, paths):
        # criterion 5 with the noise terms filled before the time loop
        coeffs = CoefficientSet(drift=lambda t, x: np.sin(x) + 0.2 * x, diffusion=_Constant(0.4))
        averaged = AveragedCoefficientSet(drift=lambda x: np.sin(x) + 0.2 * x, diffusion=_Constant(0.4))
        grid = TimeGrid(step=0.02, n_steps=700)
        noise = NoiseBlock(tuple(sample_noise(None, grid, dim=1, seed=8, stream_key=(i,)) for i in range(paths)))
        solved = solve_coupled(coeffs, averaged, noise, x0=0.3, epsilon=0.8, beta=0.7)
        for p in range(paths):
            assert solved.path(p).sup_sq_error == 0.0

    def test_zero_noise_zero_drift_constant(self):
        averaged = AveragedCoefficientSet.scalar(drift=lambda x: 0.0, diffusion=lambda x: 1.0)
        path = solve_averaged(averaged, zero_noise(30), x0=0.7, epsilon=0.5, beta=0.75)
        assert np.all(path.states == 0.7)

    def test_blowup_labels_failing_system(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: 0.0, diffusion=lambda t, x: 0.0)
        averaged = AveragedCoefficientSet.scalar(
            drift=lambda x: 1e308 * (1 + x**2), diffusion=lambda x: 0.0
        )
        with pytest.raises(PathBlowupError) as err:
            solve_coupled(coeffs, averaged, zero_noise(5, step=1.0), x0=1.0, epsilon=1.0, beta=0.75)
        assert err.value.system == "averaged"

    def test_er_curve_definition(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: 1.0, diffusion=lambda t, x: 0.0)
        averaged = AveragedCoefficientSet.scalar(drift=lambda x: 0.0, diffusion=lambda x: 0.0)
        res = solve_coupled(coeffs, averaged, zero_noise(10, step=0.1), x0=0.0, epsilon=1.0, beta=0.75)
        np.testing.assert_allclose(res.er, np.abs(res.original.states[:, 0]))
        assert res.sup_sq_error == pytest.approx(res.er.max() ** 2)
        assert res.er[0] == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_er_of_a_gap_whose_square_overflows(self, dim):
        # |X - Z| ~ 6.5e199 is finite though its square is not
        coeffs = CoefficientSet(
            drift=lambda t, x: np.full(x.shape, 1e200),
            diffusion=lambda t, x: np.zeros(x.shape + (dim,)),
            dim=dim,
            brownian_dim=dim,
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: np.zeros(x.shape),
            diffusion=lambda x: np.zeros(x.shape + (dim,)),
            dim=dim,
            brownian_dim=dim,
        )
        noise = zero_noise(5, step=0.1, dim=dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_coupled(coeffs, averaged, noise, x0=np.zeros(dim), epsilon=1.0, beta=0.75)
        # X(t) = 1e200 * t^beta / Gamma(beta + 1) in each component, Z = 0
        exact = math.sqrt(dim) * 1e200 * 0.5**0.75 / gamma_fn(1.75)
        assert np.all(np.isfinite(res.er))
        assert res.er[-1] == pytest.approx(exact, rel=1e-12)
        assert res.sup_error == res.er[-1]

    def test_sup_square_is_the_correctly_rounded_product(self):
        # glibc 2.36's pow rounds this square one ulp above x * x
        sup = 0.42672114373024106
        grid = GridPath(times=np.array([0.0, 0.1]), states=np.zeros((2, 1)))
        res = CoupledPaths(original=grid, averaged=grid, er=np.array([0.0, sup]))
        assert res.sup_sq_error == 0.18209093450644503 == float(np.square(sup))


class TestSerialization:
    def test_grid_path_csv_columns(self, tmp_path):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
        path = solve_original(coeffs, zero_noise(3, step=0.5), x0=1.0, epsilon=1.0, beta=0.75)
        target = tmp_path / "path.csv"
        path.to_csv(target)
        lines = target.read_text().splitlines()
        assert lines[0] == "t,X_1"
        assert len(lines) == 5

    def test_coupled_csv_columns(self, tmp_path):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
        averaged = AveragedCoefficientSet.scalar(drift=lambda x: x, diffusion=lambda x: 0.0)
        res = solve_coupled(coeffs, averaged, zero_noise(3, step=0.5), x0=1.0, epsilon=1.0, beta=0.75)
        target = tmp_path / "coupled.csv"
        res.to_csv(target)
        lines = target.read_text().splitlines()
        assert lines[0] == "t,X_1,Z_1,Er"
        assert len(lines) == 5
        assert lines[1].split(",")[-1] == "0.0"

    def test_path_arrays_frozen(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
        path = solve_original(coeffs, zero_noise(3), x0=1.0, epsilon=1.0, beta=0.75)
        with pytest.raises(ValueError):
            path.states[0, 0] = 5.0


class TestVectorStates:
    def test_two_dimensional_rotation_drift(self):
        def drift(t, x):
            return np.stack([-x[:, 1], x[:, 0]], axis=-1)

        def diffusion(t, x):
            return np.zeros((len(x), 2, 1))

        coeffs = CoefficientSet(drift=drift, diffusion=diffusion, dim=2, brownian_dim=1)
        path = solve_original(coeffs, zero_noise(200, step=5e-3), x0=[1.0, 0.0], epsilon=1.0, beta=0.9)
        norms = np.linalg.norm(path.states, axis=1)
        assert norms[-1] == pytest.approx(1.0, abs=0.1)
        assert path.states[-1, 1] > 0.0  # rotated counterclockwise

    def test_x0_shape_checked(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: x, diffusion=lambda t, x: 0.0)
        with pytest.raises(ValueError):
            solve_original(coeffs, zero_noise(3), x0=[1.0, 2.0], epsilon=1.0, beta=0.75)


class TestBlocks:
    """A block of paths solved in one time loop against the same paths one by one."""

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(case="a", horizon=10.0, step=1e-2),
            ExperimentConfig(
                problem="expr", case=None, jump_mode="compensated_prm",
                jump_expr="z*x*sin(t)**2", gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75,
                drift_expr="-x*(1+cos(t))", diffusion_expr="0.5",
                avg_drift_expr="-x", avg_diffusion_expr="0.5", horizon=1.0, step=0.02,
            ),
        ],
        ids=["eq10_a", "expr_compensated"],
    )
    def test_block_matches_single_solves(self, config):
        cfg = config.resolved()
        problem = build_problem(cfg)
        grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
        noises = [
            sample_noise(problem.spec, grid, dim=1, seed=5, stream_key=(i,),
                         include_jumps=problem.needs_jump_events)
            for i in range(7)
        ]
        block = solve_coupled(
            problem.coeffs, problem.averaged, NoiseBlock(tuple(noises)),
            problem.x0, cfg.epsilon, problem.beta,
        )
        assert block.failures == (None,) * 7
        for p, noise in enumerate(noises):
            single = solve_coupled(
                problem.coeffs, problem.averaged, noise, problem.x0, cfg.epsilon, problem.beta
            )
            np.testing.assert_allclose(block.original[:, p], single.original.states, rtol=1e-12, atol=0)
            np.testing.assert_allclose(block.averaged[:, p], single.averaged.states, rtol=1e-12, atol=0)

    def test_scalar_compensated_block_matches_single_solves(self):
        # float callables reach the shell table through the row-loop adapter
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        coeffs = CoefficientSet.scalar(
            drift=lambda t, x: -x * (1.0 + math.cos(t)),
            diffusion=lambda t, x: 0.5,
            jump=lambda t, x, z: z * x * math.sin(t) ** 2,
            jump_mode=JumpMode.COMPENSATED,
        )
        averaged = AveragedCoefficientSet.scalar(drift=lambda x: -x, diffusion=lambda x: 0.5)
        grid = TimeGrid(step=0.02, n_steps=50)
        noises = [sample_noise(spec, grid, dim=1, seed=5, stream_key=(i,)) for i in range(7)]
        kw = dict(x0=0.1, epsilon=1e-3, beta=0.75)
        block = solve_coupled(coeffs, averaged, NoiseBlock(tuple(noises)), **kw)
        assert block.failures == (None,) * 7
        assert block.quadrature_fallbacks == 0
        for p, noise in enumerate(noises):
            single = solve_coupled(coeffs, averaged, noise, **kw)
            np.testing.assert_allclose(block.original[:, p], single.original.states, rtol=1e-12, atol=0)
            np.testing.assert_allclose(block.averaged[:, p], single.averaged.states, rtol=1e-12, atol=0)

    def test_block_rejects_mismatched_realizations(self):
        with pytest.raises(ValueError):
            NoiseBlock(())
        with pytest.raises(ValueError):
            NoiseBlock((zero_noise(5), zero_noise(6)))
        with pytest.raises(ValueError):
            NoiseBlock((zero_noise(5), zero_noise(5, dim=2)))

    def test_blowup_in_one_column_leaves_the_others_unchanged(self):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: -x**3, diffusion=lambda t, x: 1.0)
        averaged = AveragedCoefficientSet.scalar(drift=lambda x: -x**3, diffusion=lambda x: 1.0)
        grid = TimeGrid(step=0.05, n_steps=40)
        noises = [sample_noise(None, grid, dim=1, seed=2, stream_key=(i,)) for i in range(4)]
        kick = noises[2].increments.copy()
        kick[5, 0] = 1e200  # the drift overflows in plain floats one step later
        bad = dataclasses.replace(noises[2], increments=kick)
        kw = dict(x0=0.1, epsilon=0.5, beta=0.7)

        clean = solve_coupled(coeffs, averaged, NoiseBlock(tuple(noises)), **kw)
        hit = solve_coupled(coeffs, averaged, NoiseBlock((noises[0], noises[1], bad, noises[3])), **kw)

        with pytest.raises(PathBlowupError) as alone:
            solve_coupled(coeffs, averaged, bad, **kw)
        failure = hit.failures[2]
        assert (failure.step, failure.time, failure.system) == (
            alone.value.step, alone.value.time, "original"
        )
        assert failure.step == 7
        assert clean.failures == (None,) * 4
        assert [f is None for f in hit.failures] == [True, True, False, True]
        others = [0, 1, 3]
        assert np.array_equal(hit.original[:, others], clean.original[:, others])
        assert np.array_equal(hit.averaged[:, others], clean.averaged[:, others])
        with pytest.raises(PathBlowupError):
            hit.path(2)


LOCKSTEP_PROBLEMS = [
    ExperimentConfig(
        problem="mlbench", case=None, beta=0.6, x0=1.0, epsilon=1.0, horizon=1.0, step=2e-3
    ),
    ExperimentConfig(case="a", horizon=3.0, step=1e-2),
    ExperimentConfig(
        problem="expr", case=None, jump_mode="compensated_prm",
        jump_expr="z*x*sin(t)**2", gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75,
        drift_expr="-x*(1+cos(t))", diffusion_expr="0.5",
        avg_drift_expr="-x", avg_diffusion_expr="0.5", horizon=3.0, step=1e-2,
    ),
    ExperimentConfig(
        problem="expr", case=None, jump_mode="compensated_prm",
        jump_expr="z*x*sin(t)**2", gamma=1.0, alpha=0.8, cutoff=0.5, beta=0.75,
        drift_expr="-x*(1+cos(t))", diffusion_expr="0.5*x",
        avg_drift_expr="-x", avg_diffusion_expr="0.5*x", horizon=3.0, step=1e-2,
    ),
]
LOCKSTEP_IDS = ["mlbench", "eq10_a", "expr_compensated", "expr_multiplicative"]


class TestLockstep:
    """Both systems stepped in one time loop against each system solved alone."""

    @staticmethod
    def _block(problem, grid, paths):
        return NoiseBlock(tuple(
            sample_noise(problem.spec, grid, dim=1, seed=5, stream_key=(i,),
                         include_jumps=problem.needs_jump_events)
            for i in range(paths)
        ))

    @staticmethod
    def _assert_solo_equal(coeffs, averaged, noise, kw):
        coupled = solve_coupled(coeffs, averaged, noise, **kw)
        pairs = ((coeffs, coupled.original, solve_original), (averaged, coupled.averaged, solve_averaged))
        for system, states, solve in pairs:
            alone, failed, _ = _solve_block((system,), noise, kw["x0"], kw["epsilon"], kw["beta"])
            assert np.array_equal(states, alone[:, 0])
            if noise.size == 1 and not failed.any():
                assert np.array_equal(states[:, 0], solve(system, noise.realizations[0], **kw).states)
        return coupled

    @pytest.mark.parametrize("paths", [1, 3, 64])
    @pytest.mark.parametrize("config", LOCKSTEP_PROBLEMS, ids=LOCKSTEP_IDS)
    def test_each_system_equals_its_solo_solve(self, config, paths):
        cfg = config.resolved()
        problem = build_problem(cfg)
        grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
        noise = self._block(problem, grid, paths)
        if problem.needs_jump_events:
            assert any(r.n_events for r in noise.realizations)
        kw = dict(x0=problem.x0, epsilon=cfg.epsilon, beta=problem.beta)
        coupled = self._assert_solo_equal(problem.coeffs, problem.averaged, noise, kw)
        assert coupled.failures == (None,) * paths

    @pytest.mark.parametrize("paths", [1, 3, 64])
    def test_a_blow_up_in_one_system_leaves_the_other_as_solved_alone(self, paths):
        coeffs = CoefficientSet.scalar(drift=lambda t, x: -x**3, diffusion=lambda t, x: 1.0)
        averaged = AveragedCoefficientSet.scalar(drift=lambda x: -x, diffusion=lambda x: 1.0)
        grid = TimeGrid(step=0.02, n_steps=300)
        noises = [sample_noise(None, grid, dim=1, seed=2, stream_key=(i,)) for i in range(paths)]
        kick = noises[-1].increments.copy()
        kick[140, 0] = 1e120  # the cubic drift overflows in plain floats one step later
        noises[-1] = dataclasses.replace(noises[-1], increments=kick)
        kw = dict(x0=0.1, epsilon=0.5, beta=0.7)
        if paths == 1:
            with pytest.raises(PathBlowupError) as alone:
                solve_original(coeffs, noises[0], **kw)
            assert alone.value.step == 142
        coupled = self._assert_solo_equal(coeffs, averaged, NoiseBlock(tuple(noises)), kw)
        failure = coupled.failures[-1]
        assert (failure.step, failure.system) == (142, "original")
        assert coupled.failures[:-1] == (None,) * (paths - 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("paths", [1, 2, 3, 5, 7, 33, 64])
    def test_identical_coefficients_zero_error(self, paths, dim):
        # criterion 5: equal systems on shared noise stay exactly equal, whatever the block width
        coupling = np.eye(dim) + 0.1
        coeffs = CoefficientSet(
            drift=lambda t, x: np.sin(3 * x) - 0.3 * x @ coupling,
            diffusion=lambda t, x: 0.5 + 0.1 * np.cos(x)[:, :, None] * coupling,
            dim=dim,
            brownian_dim=dim,
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: np.sin(3 * x) - 0.3 * x @ coupling,
            diffusion=lambda x: 0.5 + 0.1 * np.cos(x)[:, :, None] * coupling,
            dim=dim,
            brownian_dim=dim,
        )
        grid = TimeGrid(step=0.02, n_steps=300)
        noise = NoiseBlock(tuple(
            sample_noise(None, grid, dim=dim, seed=8, stream_key=(i,)) for i in range(paths)
        ))
        solved = solve_coupled(coeffs, averaged, noise, x0=np.linspace(0.1, 0.3, dim), epsilon=0.8, beta=0.7)
        assert solved.failures == (None,) * paths
        assert np.all(solved.er == 0.0)
        assert solved.er.max() ** 2 == 0.0
