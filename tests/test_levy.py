import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracavg import levy
from fracavg.errors import ConfigError, ConvergenceError, DivergenceError
from fracavg.levy import (
    JumpMeasureSpec,
    NoiseBlock,
    NoiseRealization,
    TimeGrid,
    gauss_kronrod,
    noise_stream,
    nu_integral,
    sample_noise,
    shell_table,
)

SPEC = JumpMeasureSpec(gamma=3.0, alpha=0.3, cutoff=0.5, delta=0.01)

# closed form gamma/alpha * (delta^-alpha - cutoff^-alpha), cross-checked
# against mpmath quadrature of the density below
LAMBDA_DELTA = 27.499272921900562


def mp_nu_integral(spec, integrand, points=()):
    """Integral of an mpmath integrand against the measure over [delta, cutoff)
    at 30 digits, split at the half-shell cuts and at ``points``."""
    cuts = sorted({*levy._half_shell_cuts(spec.cutoff, spec.delta).tolist(), *points})
    with mpmath.workdps(30):
        alpha = mpmath.mpf(spec.alpha)
        return float(mpmath.quad(
            lambda z: integrand(z) * spec.gamma * z ** (-1 - alpha), [mpmath.mpf(c) for c in cuts]
        ))


class TestJumpMeasureSpec:
    def test_simulated_intensity_closed_form(self):
        assert SPEC.simulated_intensity == pytest.approx(LAMBDA_DELTA, rel=1e-13)

    def test_intensity_matches_quadrature_oracle(self):
        oracle = mp_nu_integral(SPEC, lambda x: 1)
        assert SPEC.simulated_intensity == pytest.approx(oracle, rel=1e-10)

    def test_default_delta(self):
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.5, cutoff=0.5)
        assert spec.delta == pytest.approx(0.5e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0, alpha=0.5, cutoff=0.5),
            dict(gamma=-1.0, alpha=0.5, cutoff=0.5),
            dict(gamma=1.0, alpha=0.0, cutoff=0.5),
            dict(gamma=1.0, alpha=2.0, cutoff=0.5),
            dict(gamma=1.0, alpha=0.5, cutoff=0.0),
            dict(gamma=1.0, alpha=0.5, cutoff=0.5, delta=0.5),
            dict(gamma=1.0, alpha=0.5, cutoff=0.5, delta=0.6),
            dict(gamma=1.0, alpha=0.5, cutoff=0.5, delta=0.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            JumpMeasureSpec(**kwargs)

    def test_mark_sampler_endpoints(self):
        marks = SPEC.sample_marks(np.array([0.0, 1.0 - 1e-12]))
        assert marks[0] == pytest.approx(SPEC.delta)
        assert marks[1] == pytest.approx(SPEC.cutoff, rel=1e-9)


class TestTimeGrid:
    def test_times_and_horizon(self):
        grid = TimeGrid(step=0.25, n_steps=4)
        assert grid.horizon == pytest.approx(1.0)
        np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_from_horizon_divisibility(self):
        grid = TimeGrid.from_horizon(1.0, 0.01)
        assert grid.n_steps == 100
        with pytest.raises(ValueError):
            TimeGrid.from_horizon(1.0, 0.3)

    @pytest.mark.parametrize("kwargs", [dict(step=0.0, n_steps=3), dict(step=0.1, n_steps=0)])
    def test_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)


class TestSampleNoise:
    def test_same_seed_bit_identical(self):
        grid = TimeGrid(step=0.1, n_steps=50)
        a = sample_noise(SPEC, grid, dim=2, seed=123)
        b = sample_noise(SPEC, grid, dim=2, seed=123)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_marks, b.jump_marks)

    def test_different_streams_differ(self):
        grid = TimeGrid(step=0.1, n_steps=50)
        a = sample_noise(SPEC, grid, dim=1, seed=123, stream_key=(0,))
        b = sample_noise(SPEC, grid, dim=1, seed=123, stream_key=(1,))
        assert not np.array_equal(a.increments, b.increments)

    def test_excluding_jumps_keeps_brownian(self):
        grid = TimeGrid(step=0.1, n_steps=50)
        a = sample_noise(SPEC, grid, dim=1, seed=9, include_jumps=True)
        b = sample_noise(SPEC, grid, dim=1, seed=9, include_jumps=False)
        assert np.array_equal(a.increments, b.increments)
        assert b.n_events == 0

    def test_too_many_expected_events_are_refused_before_any_draw(self, monkeypatch):
        def no_draws(*key):
            raise AssertionError(f"noise stream {key} drawn")

        monkeypatch.setattr(levy, "noise_stream", no_draws)
        # 1.86e8 events per unit time, which sampling cannot hold in memory
        spec = JumpMeasureSpec(gamma=1.0, alpha=1.7, cutoff=1.0, delta=1e-5)
        with pytest.raises(ConfigError, match=r"1\.86e\+08 events per path"):
            sample_noise(spec, TimeGrid(step=0.01, n_steps=100), dim=1, seed=1)
        at_cap = TimeGrid(step=0.01, n_steps=1000).horizon * spec.simulated_intensity
        assert at_cap > levy.MAX_EVENTS_PER_PATH

    def test_expected_events_within_the_cap_are_sampled(self):
        # jumps_quad's measure over its horizon: ~5.4e3 events per path
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5)
        grid = TimeGrid(step=0.01, n_steps=1000)
        assert 5e3 < spec.simulated_intensity * grid.horizon < levy.MAX_EVENTS_PER_PATH
        assert sample_noise(spec, grid, dim=1, seed=1).n_events > 0
        # a measure over the cap is not refused when its events are not sampled
        big = JumpMeasureSpec(gamma=1.0, alpha=1.7, cutoff=1.0, delta=1e-5)
        assert sample_noise(big, grid, dim=1, seed=1, include_jumps=False).n_events == 0

    def test_event_support(self):
        grid = TimeGrid(step=0.05, n_steps=100)
        noise = sample_noise(SPEC, grid, dim=1, seed=7)
        assert noise.n_events > 0
        assert np.all(noise.jump_times >= 0.0)
        assert np.all(noise.jump_times < grid.horizon)
        assert np.all(noise.jump_marks >= SPEC.delta)
        assert np.all(noise.jump_marks < SPEC.cutoff)
        assert np.all(np.diff(noise.jump_times) >= 0.0)

    def test_brownian_moments(self):
        # ensemble of 10^4 realizations: per-step mean within 4 standard errors
        grid = TimeGrid(step=0.04, n_steps=4)
        n_rep = 10_000
        sums = np.zeros(grid.n_steps)
        for i in range(n_rep):
            noise = sample_noise(None, grid, dim=1, seed=77, stream_key=(i,))
            sums += noise.increments[:, 0]
        se = math.sqrt(grid.step / n_rep)
        assert np.all(np.abs(sums / n_rep) < 4.0 * se)

    def test_jump_count_law(self):
        spec = JumpMeasureSpec(gamma=0.5, alpha=0.5, cutoff=0.5, delta=0.05)
        lam = spec.simulated_intensity
        grid = TimeGrid(step=0.25, n_steps=4)
        n_rep = 10_000
        counts = np.array(
            [
                sample_noise(spec, grid, dim=1, seed=5, stream_key=(i,)).n_events
                for i in range(n_rep)
            ]
        )
        target = lam * grid.horizon
        tol = 4.0 * math.sqrt(target / n_rep)
        assert abs(counts.mean() - target) < tol

    def test_mark_law_kolmogorov_smirnov(self):
        # one large realization; empirical CDF against the truncated power law
        spec = JumpMeasureSpec(gamma=40.0, alpha=0.7, cutoff=0.5, delta=0.001)
        horizon = spec.simulated_intensity  # ~ 1 expected event per unit intensity
        grid = TimeGrid(step=1.0, n_steps=max(3, int(110_000 / spec.simulated_intensity)))
        noise = sample_noise(spec, grid, dim=1, seed=11)
        marks = np.sort(noise.jump_marks)
        n = marks.size
        assert n >= 100_000
        lo = spec.delta**-spec.alpha
        hi = spec.cutoff**-spec.alpha
        cdf = (lo - marks**-spec.alpha) / (lo - hi)
        gaps = np.maximum(
            np.abs(cdf - np.arange(1, n + 1) / n), np.abs(cdf - np.arange(n) / n)
        )
        ks = gaps.max()
        assert ks < 1.6276 / math.sqrt(n)  # 1% critical value

    def test_rejects_bad_args(self):
        grid = TimeGrid(step=0.1, n_steps=10)
        with pytest.raises(ValueError):
            sample_noise(SPEC, grid, dim=0, seed=1)
        with pytest.raises(ValueError):
            sample_noise(SPEC, grid, dim=1, seed=-1)

    def test_noise_stream_is_stable(self):
        # the stream for a given key never depends on other keys being drawn
        a = noise_stream(42, 3).standard_normal(4)
        b = noise_stream(42, 3).standard_normal(4)
        assert np.array_equal(a, b)


class TestNuIntegral:
    def test_power_closed_form_from_zero(self):
        # integral of 2 x^4 against the density over (0, cutoff)
        value = nu_integral(SPEC, lambda x: 2.0 * x**4, use_delta=False)
        closed = 2.0 * 3.0 * 0.5**3.7 / 3.7
        assert closed == pytest.approx(0.12477815000117395, rel=1e-12)
        assert value == pytest.approx(closed, rel=1e-9)

    def test_zero_integrand(self):
        assert nu_integral(SPEC, lambda x: 0.0, use_delta=False) == 0.0
        assert nu_integral(SPEC, lambda x: 0.0, use_delta=True) == 0.0

    def test_exponent_one_plus_alpha(self):
        # p = 1 + alpha makes the weighted integrand constant: gamma * cutoff
        value = nu_integral(SPEC, lambda x: x**SPEC.alpha * x, use_delta=False)
        assert value == pytest.approx(SPEC.gamma * SPEC.cutoff, rel=1e-9)

    def test_delta_range(self):
        value = nu_integral(SPEC, lambda x: x**2, use_delta=True)
        p = 2.0
        closed = (
            SPEC.gamma
            * (SPEC.cutoff ** (p - SPEC.alpha) - SPEC.delta ** (p - SPEC.alpha))
            / (p - SPEC.alpha)
        )
        assert value == pytest.approx(closed, rel=1e-10)

    def test_divergent_integrand_detected(self):
        with pytest.raises(DivergenceError):
            nu_integral(SPEC, lambda x: 1.0, use_delta=False)

    def test_slowly_converging_exponent(self):
        # p barely above alpha: geometric tail extrapolation must still land
        p = SPEC.alpha + 0.05
        value = nu_integral(SPEC, lambda x: x**p, use_delta=False)
        closed = SPEC.gamma * SPEC.cutoff ** (p - SPEC.alpha) / (p - SPEC.alpha)
        assert value == pytest.approx(closed, rel=1e-8)

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=1.9),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.3, max_value=6.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_power_integrands_match_closed_form(self, gamma, alpha, cutoff, margin):
        # any k x^p with p > alpha integrates to k gamma c^(p-alpha)/(p-alpha)
        spec = JumpMeasureSpec(gamma=gamma, alpha=alpha, cutoff=cutoff)
        p = alpha + margin
        value = nu_integral(spec, lambda x: 3.0 * x**p, use_delta=False)
        closed = 3.0 * gamma * cutoff ** (p - alpha) / (p - alpha)
        assert value == pytest.approx(closed, rel=1e-8)


class TestShellTable:
    SPECS = [
        SPEC,
        JumpMeasureSpec(gamma=1.0, alpha=0.8, cutoff=0.5),
        JumpMeasureSpec(gamma=0.5, alpha=1.7, cutoff=0.5, delta=1e-5),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["alpha0.3", "alpha0.8", "alpha1.7"])
    @pytest.mark.parametrize(
        "integrand, oracle",
        [
            (lambda z: z**3 - 2.0 * z + 1.0, lambda z: z**3 - 2 * z + 1),
            (lambda z: z**2.45, lambda z: z ** mpmath.mpf(2.45)),
            (lambda z: z * np.sin(30.0 * z), lambda z: z * mpmath.sin(30 * z)),
            (np.exp, mpmath.exp),
        ],
        ids=["polynomial", "power_law", "oscillatory", "exponential"],
    )
    def test_matches_adaptive_quadrature(self, spec, integrand, oracle):
        table = shell_table(spec)
        values = integrand(table.nodes)
        fine = table.weights @ values
        exact = mp_nu_integral(spec, oracle)
        assert fine == pytest.approx(exact, rel=1e-10)
        assert nu_integral(spec, integrand) == pytest.approx(exact, rel=1e-10)
        # the nested 10-point estimate agrees too, half-shell by half-shell,
        # so nu_integral and the solver keep the table value
        assert abs(table.spread @ values) <= 1e-10 * abs(fine)
        assert not table.unsettled(values, fine)

    @pytest.mark.parametrize("spec", SPECS, ids=["alpha0.3", "alpha0.8", "alpha1.7"])
    def test_both_rules_exact_for_polynomial_weighted_integrands(self, spec):
        # z^(1 + alpha + d) cancels the density: the weighted integrand is the
        # polynomial gamma z^d, which the 21-point rule integrates exactly up to
        # d = 31 and the 10-point rule up to d = 19
        table = shell_table(spec)
        c, d0 = spec.cutoff, spec.delta
        for d in range(20):
            values = table.nodes ** (1.0 + spec.alpha + d)
            exact = spec.gamma * (c ** (d + 1) - d0 ** (d + 1)) / (d + 1)
            assert table.weights @ values == pytest.approx(exact, rel=1e-13)
            assert (table.weights - table.spread) @ values == pytest.approx(exact, rel=1e-13)

    def test_nodes_cover_the_simulation_range(self):
        table = shell_table(SPEC)
        assert np.all(table.nodes > SPEC.delta) and np.all(table.nodes < SPEC.cutoff)
        assert shell_table(JumpMeasureSpec(gamma=3.0, alpha=0.3, cutoff=0.5, delta=0.01)) is table
        with pytest.raises(ValueError):
            table.weights[0] = 1.0

    def test_kinked_integrand_is_flagged(self):
        # |z - 0.1| has a kink inside a half-shell: the two estimates disagree
        table = shell_table(SPEC)
        values = np.abs(table.nodes - 0.1)
        assert abs(table.spread @ values) > 1e-10 * abs(table.weights @ values)
        assert table.unsettled(values, table.weights @ values)


class TestGaussKronrod:
    """The one adaptive integrator: the shell table is its first level."""

    def test_time_integrals_of_every_component_meet_closed_forms(self):
        calls = []

        def integrand(t):
            calls.append(t.size)
            return np.stack([np.cos(t) ** 2, np.sin(t), t**2, np.ones_like(t)], axis=1)

        span = 7.3
        cuts = np.linspace(0.0, span, 3)
        value = gauss_kronrod(integrand, cuts, rtol=1e-12, atol=1e-12 * span)
        exact = [span / 2 + np.sin(2 * span) / 4, 1.0 - np.cos(span), span**3 / 3, span]
        np.testing.assert_allclose(value, exact, rtol=1e-12, atol=1e-12)
        assert calls[0] == 2 * 21 and all(n % 21 == 0 for n in calls)
        # the cuts in either order give the same integral
        assert gauss_kronrod(lambda t: t**2, cuts[::-1]) == pytest.approx(span**3 / 3, rel=1e-14)

    def test_only_the_failing_half_shell_is_bisected(self):
        # z sin 30z with alpha 1.7, cutoff 1: the spreads of the half-shells
        # sum to 1.4e-9 of the integral, though the table value is within
        # 1e-15 of mpmath.  One half-shell fails the estimate, and its two
        # halves are the only nodes evaluated again.
        spec = JumpMeasureSpec(gamma=1.0, alpha=1.7, cutoff=1.0, delta=1e-5)
        sizes = []
        value = nu_integral(spec, lambda z: sizes.append(z.size) or z * np.sin(30.0 * z))
        assert sizes == [shell_table(spec).nodes.size, 2 * 21]
        exact = mp_nu_integral(spec, lambda z: z * mpmath.sin(30 * z))
        assert value == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("rtol", [1e-4, 1e-8, 1e-12])
    def test_rtol_is_honoured_on_the_simulation_range(self, rtol):
        sizes = []
        value = nu_integral(SPEC, lambda z: sizes.append(z.size) or np.abs(z - 0.1), rtol=rtol)
        exact = mp_nu_integral(SPEC, lambda z: abs(z - mpmath.mpf("0.1")), points=[0.1])
        assert value == pytest.approx(exact, rel=rtol)
        # one call per level, each on the new panels only
        assert len(sizes) <= 25 and sum(sizes) <= {1e-4: 300, 1e-8: 500, 1e-12: 800}[rtol]

    def test_vector_integrand_over_the_open_range(self):
        # each component extrapolates its own geometric tail; a zero one stays
        # 0, and an infinite one keeps its sum without holding the others back
        p = SPEC.alpha + 0.5
        value = nu_integral(
            SPEC, lambda z: np.stack([2.0 * z**4, 0.0 * z, z**p, np.full_like(z, np.inf)], axis=1),
            use_delta=False,
        )
        closed = [2.0 * 3.0 * 0.5**3.7 / 3.7, 0.0, SPEC.gamma * SPEC.cutoff**0.5 / 0.5]
        np.testing.assert_allclose(value[:3], closed, rtol=1e-9, atol=0)
        assert value[1] == 0.0 and value[3] == math.inf

    @pytest.mark.parametrize("use_delta", [True, False])
    def test_non_finite_integrand_gives_its_sum_at_once(self, use_delta):
        sizes = []
        with np.errstate(divide="ignore"):
            value = nu_integral(SPEC, lambda z: sizes.append(z.size) or 1.0 / (z - z), use_delta=use_delta)
        assert value == math.inf and len(sizes) == 1

    def test_an_integrand_that_never_settles_is_refused(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConvergenceError, match="did not settle"):
            nu_integral(SPEC, lambda z: rng.random(z.size))


class TestCompensatorIncrement:
    # the compensator of a step of length dt is dt times the integral of the
    # jump coefficient against the measure over [delta, cutoff)
    def test_zero_function(self):
        out = nu_integral(SPEC, lambda z: np.zeros((z.size, 2)))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_small_delta_limit_matches_full_integral(self):
        spec = JumpMeasureSpec(gamma=3.0, alpha=0.3, cutoff=0.5, delta=0.5e-6)
        out = nu_integral(spec, lambda z: 2.0 * z**4, use_delta=True)
        assert out == pytest.approx(0.12477815000117395, rel=1e-9)

    def test_compensated_sum_centers(self):
        # ensemble mean of (raw jump sum - compensator) for a bounded
        # state-free integrand is zero within four standard errors
        spec = JumpMeasureSpec(gamma=2.0, alpha=0.8, cutoff=0.5, delta=0.02)
        grid = TimeGrid(step=0.5, n_steps=2)
        comp = nu_integral(spec, lambda z: z**2) * grid.horizon
        n_rep = 4000
        values = np.empty(n_rep)
        for i in range(n_rep):
            noise = sample_noise(spec, grid, dim=1, seed=3, stream_key=(i,))
            values[i] = float(np.sum(noise.jump_marks**2)) - comp
        se = values.std(ddof=1) / math.sqrt(n_rep)
        assert abs(values.mean()) < 4.0 * se


class TestRealizationInvariants:
    def test_arrays_frozen(self):
        grid = TimeGrid(step=0.1, n_steps=10)
        noise = sample_noise(SPEC, grid, dim=1, seed=4)
        with pytest.raises(ValueError):
            noise.increments[0, 0] = 0.0

    def test_shape_validation(self):
        grid = TimeGrid(step=0.1, n_steps=10)
        with pytest.raises(ValueError):
            NoiseRealization(
                grid=grid,
                increments=np.zeros((5, 1)),
                jump_times=np.empty(0),
                jump_marks=np.empty(0),
                spec=None,
                master_seed=0,
            )

    @pytest.mark.parametrize(
        "increments, times, marks, message",
        [
            (np.zeros(10), np.empty(0), np.empty(0), "shape"),
            (np.zeros((10, 1)), np.array([0.1, 0.2]), np.array([0.3]), "parallel"),
        ],
        ids=["one_dim_increments", "unequal_jump_arrays"],
    )
    def test_shape_refusals(self, increments, times, marks, message):
        grid = TimeGrid(step=0.1, n_steps=10)
        with pytest.raises(ValueError, match=message):
            NoiseRealization(
                grid=grid, increments=increments, jump_times=times, jump_marks=marks,
                spec=None, master_seed=0,
            )

    def test_block_holds_its_brownian_noise_once(self):
        grid = TimeGrid(step=0.1, n_steps=40)
        noises = [sample_noise(SPEC, grid, dim=2, seed=21, stream_key=(i,)) for i in range(3)]
        block = NoiseBlock(tuple(noises))
        for p, (r, original) in enumerate(zip(block.realizations, noises)):
            assert np.shares_memory(block.increments, r.increments)
            assert np.array_equal(r.increments, original.increments)
            assert np.array_equal(block.increments[:, p], original.increments)
            assert r.jump_times is original.jump_times and r.stream_key == original.stream_key
            with pytest.raises(ValueError):
                r.increments[0, 0] = 0.0
