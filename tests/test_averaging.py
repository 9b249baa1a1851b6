import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracavg.averaging import (
    averaged_jump_drift,
    h3_residuals,
    probe_hypotheses,
    theorem_bound,
    time_average,
)
from fracavg.errors import ConvergenceError
from fracavg.levy import JumpMeasureSpec, nu_integral
from fracavg.problems import build_eq10, jump_drift_scale
from fracavg.solver import AveragedCoefficientSet, CoefficientSet, JumpMode

from test_kernels import mp_log_mittag_leffler

# closed forms of the worked example; high-precision oracle values
JC_CASE_A = 0.062389075000586974       # 3 * 0.5^3.7 / 3.7
GAMMA1_CASE_A = 1.9729157811292571     # JC / sqrt(1e-3)
BOUND_FIXED_TUPLE = 0.020883514430112031


class TestTimeAverage:
    def test_oscillating_drift_full_periods(self):
        value = time_average(lambda t, x: 2.0 * x * math.cos(t) ** 2, np.array([1.0]), 100 * math.pi)
        assert value[0] == pytest.approx(1.0, abs=1e-10)

    def test_time_independent_is_identity(self):
        value = time_average(lambda t, x: 3.0 * x + 1.0, np.array([2.0]), 7.3)
        assert value[0] == pytest.approx(7.0, rel=1e-12)

    def test_sine_over_whole_periods_vanishes(self):
        value = time_average(lambda t, x: math.sin(t), np.array([0.0]), 6 * math.pi)
        assert isinstance(value, float)
        assert abs(value) < 1e-11

    def test_matrix_valued_coefficient(self):
        value = time_average(
            lambda t, x: np.array([[1.0 + math.sin(t), 0.0], [0.0, 2.0]]),
            np.zeros(2),
            2 * math.pi,
        )
        assert value.shape == (2, 2)
        assert value[0, 0] == pytest.approx(1.0, abs=1e-11)
        assert value[1, 1] == pytest.approx(2.0, rel=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        f1 = lambda t, x: math.cos(t) ** 2
        f2 = lambda t, x: math.sin(t) + 1.0
        combo = time_average(lambda t, x: a * f1(t, x) + b * f2(t, x), np.array([0.0]), 5.0)
        parts = a * time_average(f1, np.array([0.0]), 5.0) + b * time_average(
            f2, np.array([0.0]), 5.0
        )
        assert combo == pytest.approx(parts, abs=1e-10)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            time_average(lambda t, x: 1.0, np.array([0.0]), 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_horizon_by_name(self, horizon):
        calls = []
        with pytest.raises(ValueError, match=rf"averaging horizon .*; got {horizon!r}$"):
            time_average(lambda t, x: calls.append(t) or 1.0, np.array([0.0]), horizon)
        assert calls == []

    def test_every_component_is_integrated_at_once_on_float_times(self):
        # one call per node and no more, each on a Python float, for all four entries
        times = []

        def coefficient(t, x):
            times.append(t)
            return np.array([[math.cos(t) ** 2, math.sin(t)], [t, 1.0]])

        value = time_average(coefficient, np.array([0.0]), 3.0)
        assert all(type(t) is float for t in times) and len(times) % 21 == 0
        np.testing.assert_allclose(
            value, [[0.5 + math.sin(6.0) / 12.0, (1.0 - math.cos(3.0)) / 3.0], [1.5, 1.0]], rtol=1e-12
        )


class TestAveragedJumpDrift:
    SPEC = JumpMeasureSpec(gamma=3.0, alpha=0.3, cutoff=0.5)

    def test_worked_example_scale(self):
        jump = lambda t, x, z: (2.0 * z**4 * math.sin(t) ** 2 * x.T).T
        value = averaged_jump_drift(self.SPEC, jump, np.array([1.0]), 10 * math.pi)
        assert value[0] == pytest.approx(JC_CASE_A, rel=1e-9)
        gamma1 = value[0] / math.sqrt(1e-3)
        assert gamma1 == pytest.approx(GAMMA1_CASE_A, rel=1e-9)

    def test_zero_jump(self):
        value = averaged_jump_drift(self.SPEC, lambda t, x, z: np.zeros((len(z), 1)), np.array([1.0]), 5.0)
        assert value[0] == 0.0

    def test_time_independent_reduces_to_measure_integral(self):
        jump = lambda t, x, z: np.array([z**2])
        value = averaged_jump_drift(self.SPEC, jump, np.array([0.0]), 3.7)
        direct = nu_integral(self.SPEC, lambda z: z**2, use_delta=False)
        assert value[0] == pytest.approx(direct, rel=1e-10)


class EnvelopeFixtures:
    @staticmethod
    def oscillating_pair():
        coeffs = CoefficientSet(
            drift=lambda t, x: 2.0 * x * np.cos(t) ** 2,
            diffusion=lambda t, x: np.ones((len(x), 1, 1)),
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: x,
            diffusion=lambda x: np.ones((len(x), 1, 1)),
        )
        return coeffs, averaged


class TestH3Residuals:
    def test_already_averaged_all_zero(self):
        coeffs = CoefficientSet(
            drift=lambda t, x: 0.5 * x, diffusion=lambda t, x: np.ones((len(x), 1, 1))
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: 0.5 * x, diffusion=lambda x: np.ones((len(x), 1, 1))
        )
        env = h3_residuals(coeffs, averaged, [5.0, 50.0], [np.array([1.0]), np.array([-2.0])])
        assert max(env.alpha1) < 1e-12
        assert max(env.alpha2) < 1e-12
        assert env.alpha3 == [0.0, 0.0]
        assert env.decay_flags["alpha1"] == "all_zero"

    def test_oscillating_drift_decays_like_inverse_horizon(self):
        coeffs, averaged = EnvelopeFixtures.oscillating_pair()
        grid = [10.0, 100.0, 1000.0]
        env = h3_residuals(coeffs, averaged, grid, [np.array([1.0]), np.array([10.0])])
        # |avg of x cos(2s)| = |x sin(2 T1)| / (2 T1) <= 1/(2 T1) after weighting
        for t1, a1 in zip(grid, env.alpha1):
            assert a1 <= 1.0 / (2.0 * t1) + 1e-9
        assert env.decay_flags["alpha1"] == "decays"
        # the pointwise residual does not decay: it oscillates at O(1)
        assert max(env.alpha1_pointwise) > 0.3

    def test_diffusion_square_residual_bound(self):
        coeffs = CoefficientSet(
            drift=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.full((len(x), 1, 1), np.sqrt(1.0 + np.sin(t))),
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: np.zeros_like(x), diffusion=lambda x: np.ones((len(x), 1, 1))
        )
        grid = [10.0, 100.0]
        env = h3_residuals(coeffs, averaged, grid, [np.array([0.0])])
        for t1, a2 in zip(grid, env.alpha2):
            expected = (1.0 - math.cos(t1)) / t1
            assert a2 == pytest.approx(expected, abs=1e-9)
            assert a2 <= 2.0 / t1 + 1e-9

    def test_jump_slot_closed_form_rates(self):
        problem = build_eq10(beta=0.6, alpha=0.3, gamma=3.0, cutoff=0.5, epsilon=1e-3)
        grid = [10.0, 100.0]
        env = h3_residuals(
            problem.coeffs, problem.averaged, grid, [np.array([1.0])], spec=problem.spec
        )
        # rate mismatch is JC * x * (2 sin^2 - 1); its average decays like 1/T1
        for t1, a3 in zip(grid, env.alpha3):
            assert a3 <= JC_CASE_A / (2.0 * t1) / 2.0 + 1e-9
        assert env.decay_flags["alpha3"] == "decays"

    def test_jump_slot_l2_fallback(self):
        spec = JumpMeasureSpec(gamma=1.0, alpha=0.5, cutoff=0.5)
        coeffs = CoefficientSet(
            drift=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.zeros((len(x), 1, 1)),
            jump=lambda t, x, z: (2.0 * z**4 * np.sin(t) ** 2 * x.T).T,
            jump_mode=JumpMode.NU_DRIFT,
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: np.zeros_like(x),
            diffusion=lambda x: np.zeros((len(x), 1, 1)),
            jump=lambda x, z: (z**4 * x.T).T,
            jump_mode=JumpMode.NU_DRIFT,
        )
        t1 = 5.0
        env = h3_residuals(coeffs, averaged, [t1], [np.array([1.0])], spec=spec)
        moment8 = spec.gamma * spec.cutoff ** (8.0 - spec.alpha) / (8.0 - spec.alpha)
        expected = 0.5 * (math.sin(2 * t1) / (2 * t1)) ** 2 * moment8
        assert env.alpha3[0] == pytest.approx(expected, rel=1e-4)
        assert env.decay_flags["alpha3"] == "insufficient_data"

    def test_requires_probes(self):
        coeffs, averaged = EnvelopeFixtures.oscillating_pair()
        with pytest.raises(ValueError):
            h3_residuals(coeffs, averaged, [10.0], [])

    def test_requires_horizons(self):
        coeffs, averaged = EnvelopeFixtures.oscillating_pair()
        with pytest.raises(ValueError, match="t1_grid must be nonempty"):
            h3_residuals(coeffs, averaged, [], [np.array([1.0])])


class TestAveragedConstruction:
    def test_numeric_averaging_reproduces_published_coefficients(self):
        # building the averaged coefficients numerically (time averages plus
        # the measure-drift average) must reproduce the worked example's
        # published averaged system on a probe grid of states
        problem = build_eq10(beta=0.6, alpha=0.3, gamma=3.0, cutoff=0.5, epsilon=1e-3)
        horizon = 100.0 * math.pi
        for x in (0.01, 0.1, 1.0, 10.0):
            state = np.array([x])
            drift_num = time_average(problem.coeffs.drift, state, horizon)
            assert drift_num[0] == pytest.approx(problem.averaged.drift(state)[0], abs=1e-8)
            rate_num = averaged_jump_drift(problem.spec, problem.coeffs.jump, state, horizon)
            assert rate_num[0] == pytest.approx(
                problem.averaged.jump_drift(state)[0], abs=1e-8
            )
        # and the averaged drift and jump drift fold into (1 + gamma1) x: slot 0
        # takes eps f + sqrt(eps) rate, that is eps (1 + rate / sqrt(eps)) at x = 1
        gamma1 = jump_drift_scale(gamma=3.0, alpha=0.3, cutoff=0.5) / math.sqrt(1e-3)
        one = np.array([1.0])
        rate = problem.averaged.jump_drift(one)[0]
        folded = problem.averaged.drift(one)[0] + rate / math.sqrt(1e-3)
        assert folded == pytest.approx(1.0 + gamma1, rel=1e-12)
        assert gamma1 == pytest.approx(GAMMA1_CASE_A, rel=1e-12)


class TestProbeHypotheses:
    def test_worked_example_constants(self):
        problem = build_eq10(beta=0.6, alpha=0.3, gamma=3.0, cutoff=0.5, epsilon=1e-3)
        report = probe_hypotheses(
            problem.coeffs,
            problem.averaged,
            spec=problem.spec,
            t1_grid=[10.0, 100.0],
            probe_states=[np.array([0.1]), np.array([1.0]), np.array([10.0])],
            times=np.linspace(0.0, 10.0, 11),
        )
        # drift Lipschitz quotient peaks at 4 cos^4(0) = 4
        assert report.lipschitz_estimate == pytest.approx(4.0, rel=1e-9)
        # growth quotient peaks at 4 x^2 / (1 + x^2) with x = 10
        assert report.growth_estimate == pytest.approx(400.0 / 101.0, rel=1e-6)
        assert report.envelope.decay_flags["alpha1"] == "decays"

    def test_close_probes_of_a_linear_diffusion_read_its_slope(self):
        # G = 1 + x: |G(x1) - G(x2)|^2 / |x1 - x2|^2 = 1 for every pair; the
        # increment is taken of G itself, not as a difference of G G' terms
        # that cancel to a few ulps of 4 at this spacing
        coeffs = CoefficientSet(
            drift=lambda t, x: np.zeros_like(x), diffusion=lambda t, x: (1.0 + x)[:, :, None]
        )
        averaged = AveragedCoefficientSet(
            drift=lambda x: np.zeros_like(x), diffusion=lambda x: (1.0 + x)[:, :, None]
        )
        report = probe_hypotheses(
            coeffs, averaged, t1_grid=[10.0],
            probe_states=[np.array([1.0]), np.array([1.0 + 1e-7])], times=[0.0],
        )
        assert report.lipschitz_estimate == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_default_probe_states_and_times(self, dim):
        # f = A x with A = diag(2, 3)[:dim], G = I: the Lipschitz quotient peaks
        # along the last axis, the growth quotient at its largest probe 100
        rates = np.array([2.0, 3.0])[:dim]
        drift = lambda x: x * rates
        diffusion = lambda x: np.broadcast_to(np.eye(dim), (len(x), dim, dim))
        coeffs = CoefficientSet(
            drift=lambda t, x: drift(x), diffusion=lambda t, x: diffusion(x), dim=dim, brownian_dim=dim
        )
        averaged = AveragedCoefficientSet(drift=drift, diffusion=diffusion, dim=dim, brownian_dim=dim)
        report = probe_hypotheses(coeffs, averaged, t1_grid=[10.0])
        assert len(report.probe_states) == 10 * dim
        assert sorted({abs(v) for x in report.probe_states for v in x} - {0.0}) == [1e-2, 1e-1, 1.0, 1e1, 1e2]
        assert report.times == np.linspace(0.0, 10.0, 41).tolist()
        top = rates[-1] ** 2
        assert report.lipschitz_estimate == pytest.approx(top, rel=1e-12)
        assert report.growth_estimate == pytest.approx(top * 1e4 / (1.0 + 1e4), rel=1e-12)
        flags = report.envelope.decay_flags
        assert flags == dict.fromkeys(("alpha1", "alpha2", "alpha3"), "insufficient_data")
        assert report.envelope.alpha1 == report.envelope.alpha2 == report.envelope.alpha3 == [0.0]

    def test_json_round_trip(self, tmp_path):
        coeffs, averaged = EnvelopeFixtures.oscillating_pair()
        report = probe_hypotheses(
            coeffs,
            averaged,
            t1_grid=[5.0, 50.0],
            probe_states=[np.array([1.0])],
            times=[0.0, 1.0],
        )
        target = tmp_path / "hypothesis.json"
        report.save(target)
        data = json.loads(target.read_text())
        assert data["probe_states"] == [[1.0]]
        assert data["envelope"]["t1_grid"] == [5.0, 50.0]
        assert "alpha1_pointwise" in data["envelope"]


class TestTheoremBound:
    def test_zero_envelopes_zero_bound(self):
        report = theorem_bound(2.0, (0.0, 0.0, 0.0), 3.0, beta=0.8, epsilon=[1e-2, 1e-3, 1e-4])
        assert report.bounds == [0.0, 0.0, 0.0]
        assert report.log10_bounds == [None, None, None]
        assert report.series_terms == [0, 0, 0]

    def test_fixed_tuple_matches_oracle(self):
        report = theorem_bound(
            1.0, (0.1, 0.1, 0.1), 2.0, beta=0.75, epsilon=1e-3, lam=0.5, big_l=1.0
        )
        assert report.bounds[0] == pytest.approx(BOUND_FIXED_TUPLE, rel=1e-10)
        assert report.k11 == report.k21 == report.k31
        assert report.series_terms[0] > 2

    def test_monotone_decreasing_in_epsilon(self):
        report = theorem_bound(1.0, (0.1, 0.2, 0.3), 2.0, beta=0.75, epsilon=[1e-2, 1e-3, 1e-4])
        assert report.bounds[0] > report.bounds[1] > report.bounds[2] > 0.0

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.001, max_value=1.0),
        st.floats(min_value=1.0, max_value=5.0),
        st.floats(min_value=0.55, max_value=0.95),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_property(self, c1, a, zm, beta, lam, big_l):
        report = theorem_bound(
            c1, (a, a, a), zm, beta=beta, epsilon=[1e-2, 1e-3, 1e-4], lam=lam, big_l=big_l
        )
        assert report.bounds[0] >= report.bounds[1] >= report.bounds[2] >= 0.0

    def test_monotone_in_z_moment_and_constants(self):
        low = theorem_bound(1.0, (0.1, 0.1, 0.1), 1.5, beta=0.75, epsilon=1e-3)
        high = theorem_bound(1.0, (0.1, 0.1, 0.1), 3.0, beta=0.75, epsilon=1e-3)
        assert high.bounds[0] > low.bounds[0]
        bigger_alpha = theorem_bound(1.0, (0.2, 0.1, 0.1), 1.5, beta=0.75, epsilon=1e-3)
        assert bigger_alpha.bounds[0] > low.bounds[0]

    # frozen values of the direct float64 series evaluation, which overflowed
    # beyond them; the log-domain evaluation must keep every one
    @pytest.mark.parametrize("kwargs, frozen", [
        (dict(c1=1.0, alpha_sups=(0.1, 0.1, 0.1), z_moment=2.0, beta=0.75),
         [0.2019049217851681, 0.020883514430112028, 0.003310040176455298]),
        (dict(c1=5.0, alpha_sups=(0.3, 0.2, 0.1), z_moment=1.5, beta=0.6, lam=0.3, big_l=2.0),
         [113804271777.86441, 0.051159071818451744, 0.0014667022821389527]),
        (dict(c1=10.0, alpha_sups=(0.1, 0.1, 0.1), z_moment=2.0, beta=0.9),
         [4.240109882511809e+66, 365730308914807.75, 81.6263270047385]),
        (dict(c1=12.0, alpha_sups=(0.2, 0.1, 0.3), z_moment=3.0, beta=0.75),
         [3.2719908887200905e+157, 1.0841506011313706e+21, 20.71888521589287]),
    ])
    def test_log_domain_keeps_finite_bounds(self, kwargs, frozen):
        report = theorem_bound(epsilon=[1e-2, 1e-3, 1e-4], **kwargs)
        assert report.bounds == pytest.approx(frozen, rel=1e-12)
        assert report.log10_bounds == pytest.approx([math.log10(v) for v in frozen], rel=1e-12)

    def test_bound_beyond_float64_has_log10(self):
        report = theorem_bound(50.0, (0.1, 0.1, 0.1), 2.0, beta=0.6, epsilon=[1e-2, 1e-3, 1e-4])
        assert report.bounds[:2] == [None, None]
        assert report.bounds[2] == pytest.approx(10.0 ** report.log10_bounds[2], rel=1e-12)
        assert report.log10_bounds[0] > report.log10_bounds[1] > 308.0
        # independent value of the epsilon = 1e-3 bound: the same constants,
        # with log E_beta from mpmath
        b, lam, eps = 0.6, 0.5, 1e-3
        gb = math.gamma(b)
        prefactor = (
            report.k12 * eps ** (1.0 + lam - 2.0 * b * lam)
            + (report.k22 + report.k32) * eps ** (2.0 * lam * (1.0 - b))
        )
        base = (report.k11 * eps ** (2.0 - lam - b * lam) + 2.0 * report.k21 * eps ** (1.0 - b * lam)) * gb
        expected = (
            math.log(prefactor) + mp_log_mittag_leffler(b, base) + (1.0 - lam) * math.log(eps)
        ) / math.log(10.0)
        assert report.log10_bounds[1] == pytest.approx(expected, rel=1e-13)

    def test_series_cap_raises_for_absurd_constants(self):
        with pytest.raises(ConvergenceError):
            theorem_bound(
                50.0, (0.1, 0.1, 0.1), 2.0, beta=0.75, epsilon=0.9, lam=0.9, big_l=10.0
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c1=1e200),  # c1**2 overflows
            dict(alpha_sups=(1e200, 0.1, 0.1)),  # a1**2 overflows
            dict(big_l=1e300),  # L**(2 beta) overflows
        ],
    )
    def test_constants_overflowing_float64_raise_convergence_error(self, kwargs):
        args = dict(c1=1.0, alpha_sups=(0.1, 0.1, 0.1), z_moment=2.0, beta=0.75, epsilon=1e-3)
        with pytest.raises(ConvergenceError):
            theorem_bound(**{**args, **kwargs})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0),
            dict(lam=1.0),
            dict(big_l=0.0),
            dict(z_moment=0.5),
            dict(epsilon=0.0),
            dict(alpha_sups=(-0.1, 0.0, 0.0)),
            dict(epsilon=[]),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            c1=1.0, alpha_sups=(0.1, 0.1, 0.1), z_moment=2.0, beta=0.75, epsilon=1e-3
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            theorem_bound(**base)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(c1=math.nan), "c1"),
            (dict(c1=math.inf), "c1"),
            (dict(alpha_sups=(0.1, math.nan, 0.1)), "alpha_sups"),
            (dict(alpha_sups=(math.inf, 0.0, 0.0)), "alpha_sups"),
            (dict(z_moment=math.inf), "z_moment"),
            (dict(z_moment=math.nan), "z_moment"),
            (dict(lam=math.nan), "lambda"),
            (dict(big_l=math.inf), "L"),
            (dict(epsilon=[1e-3, math.nan]), "epsilon"),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(next(iter(v.values()))),
    )
    def test_non_finite_inputs_are_refused_by_name(self, kwargs, name):
        # nan passes every sign and range check, and inf gives a nan or inf bound
        base = dict(c1=1.0, alpha_sups=(0.1, 0.1, 0.1), z_moment=2.0, beta=0.75, epsilon=1e-3)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            theorem_bound(**{**base, **kwargs})

    def test_json_round_trip(self, tmp_path):
        report = theorem_bound(1.0, (0.1, 0.1, 0.1), 2.0, beta=0.75, epsilon=[1e-2, 1e-4])
        target = tmp_path / "bound.json"
        report.save(target)
        data = json.loads(target.read_text())
        assert data["epsilons"] == [1e-2, 1e-4]
        assert data["k_constants"]["k12"] == pytest.approx(report.k12)
        assert data["inputs"]["alpha_sups"] == [0.1, 0.1, 0.1]
