import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqm import (
    DecayRates,
    InvalidParams,
    ModelParams,
    MomentVector,
    RegimeError,
    default_initial_state,
    effective_oscillator,
    ig_fg_ratio,
    integrate_moments,
    inverted_variance,
    inverted_variance_dissipative,
    inverted_variance_peak,
    moment_rhs,
    optimal_times,
    x_deriv_g,
    x_deriv_g_dissipative,
    x_mean,
    x_mean_dissipative,
    x_second_moment,
    x_variance,
    x_variance_dissipative,
)
from cqm.lindblad import NO_DECAY, REFERENCE_STATE_MOMENTS

REFERENCE_RATES = DecayRates.from_plus_minus(0.03, 0.01)


def params(g, lam=0.0):
    return ModelParams(omega=1.0, Omega=1e4, g=g, lam=lam)


TUNED = params(0.1, lam=-0.247)
PLAIN = params(0.1, lam=0.0)


class TestDecayRates:
    def test_plus_minus_roundtrip(self):
        r = DecayRates.from_plus_minus(0.03, 0.01)
        assert r.gamma_a == pytest.approx(0.02)
        assert r.gamma_h == pytest.approx(0.01)
        assert r.gamma_plus == pytest.approx(0.03)
        assert r.gamma_minus == pytest.approx(0.01)

    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidParams):
            DecayRates(-0.1, 0.0)
        with pytest.raises(InvalidParams):
            DecayRates(0.1, -0.1)

    def test_heating_dominated_closed_forms_rejected(self):
        amplifying = DecayRates(0.01, 0.02)
        with pytest.raises(InvalidParams):
            x_mean_dissipative(PLAIN, amplifying, 1.0)


class TestMomentRhs:
    def test_initial_flow_of_reference_state(self):
        eff = effective_oscillator(PLAIN)
        d = moment_rhs(REFERENCE_STATE_MOMENTS, PLAIN, NO_DECAY)
        assert d.x == pytest.approx(eff.omega_bar / np.sqrt(2))

    def test_g_equation_with_balanced_moments(self):
        m = MomentVector(x=0.2, p=-0.1, xx=0.7, pp=0.7, gg=0.0)
        eff = effective_oscillator(TUNED)
        d = moment_rhs(m, TUNED, NO_DECAY)
        assert d.gg == pytest.approx(
            2 * eff.omega_bar * 0.7 - eff.epsilon / (2 * eff.omega_bar) * 0.7
        )

    def test_fixed_point_from_independent_linear_solve(self):
        eff = effective_oscillator(TUNED)
        gm, gp = REFERENCE_RATES.gamma_minus, REFERENCE_RATES.gamma_plus
        w, e = eff.omega_bar, eff.epsilon
        block = np.array(
            [[-gm, 0.0, w], [0.0, -gm, -e / (4 * w)], [-e / (2 * w), 2 * w, -gm]]
        )
        xx, pp, gg = np.linalg.solve(block, [-gp / 2, -gp / 2, 0.0])
        fp = MomentVector(0.0, 0.0, xx, pp, gg)
        d = moment_rhs(fp, TUNED, REFERENCE_RATES).as_array()
        assert np.abs(d).max() < 1e-14
        assert xx > 0 and pp > 0


class TestIntegrateMoments:
    def test_closed_system_reproduces_unitary_forms(self):
        p = PLAIN
        tau1 = float(optimal_times(p, 1)[0])
        ts = np.linspace(0, 3 * tau1, 80)
        traj = integrate_moments(REFERENCE_STATE_MOMENTS, p, NO_DECAY, ts)
        assert np.abs(traj.moment("x") - x_mean(p, ts)).max() < 1e-12
        assert np.abs(traj.x_variance() - x_variance(p, ts)).max() < 1e-12

    def test_reference_rates_match_dissipative_closed_forms(self):
        for p in (TUNED, PLAIN):
            tau1 = float(optimal_times(p, 1)[0])
            ts = np.linspace(0, 10 * tau1, 300)
            traj = integrate_moments(REFERENCE_STATE_MOMENTS, p, REFERENCE_RATES, ts)
            xm = x_mean_dissipative(p, REFERENCE_RATES, ts)
            xv = x_variance_dissipative(p, REFERENCE_RATES, ts)
            assert np.abs(traj.moment("x") - xm).max() / np.abs(xm).max() < 1e-12
            assert np.abs(traj.x_variance() - xv).max() / np.abs(xv).max() < 1e-12

    def test_long_time_mean_decays(self):
        tau1 = float(optimal_times(TUNED, 1)[0])
        ts = np.linspace(0, 40 * tau1, 200)
        traj = integrate_moments(REFERENCE_STATE_MOMENTS, TUNED, REFERENCE_RATES, ts)
        assert abs(traj.moment("x")[-1]) < 1e-3

    def test_defective_generator_on_the_critical_line(self):
        # epsilon = 0 exactly: <P> only decays and <X> grows secularly,
        # x = wbar*p0*t*exp(-gamma_-*t/2); the moment matrix is defective here
        p = params(1.0)
        assert effective_oscillator(p).epsilon == 0.0
        ts = np.linspace(0.0, 50.0, 101)
        traj = integrate_moments(REFERENCE_STATE_MOMENTS, p, REFERENCE_RATES, ts)
        wbar, p0 = effective_oscillator(p).omega_bar, REFERENCE_STATE_MOMENTS.p
        exact = wbar * p0 * ts * np.exp(-0.5 * REFERENCE_RATES.gamma_minus * ts)
        assert np.abs(traj.moment("x") - exact).max() / np.abs(exact).max() < 1e-12

    def test_grid_spacing_does_not_change_the_trajectory(self):
        # each step is exact, so one long step lands where many short ones do
        tau1 = float(optimal_times(TUNED, 1)[0])
        fine = integrate_moments(REFERENCE_STATE_MOMENTS, TUNED, REFERENCE_RATES,
                                 np.linspace(0, 20 * tau1, 401))
        coarse = integrate_moments(REFERENCE_STATE_MOMENTS, TUNED, REFERENCE_RATES,
                                   [0.0, 20 * tau1])
        scale = np.abs(fine.values).max(axis=0)
        assert np.abs(coarse.values[-1] - fine.values[-1]).max() < 1e-12 * scale.max()

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidParams):
            integrate_moments(REFERENCE_STATE_MOMENTS, PLAIN, NO_DECAY, [0.0])
        with pytest.raises(InvalidParams):
            integrate_moments(REFERENCE_STATE_MOMENTS, PLAIN, NO_DECAY, [0.0, 0.0, 1.0])

    def test_states_stay_physical(self):
        tau1 = float(optimal_times(TUNED, 1)[0])
        ts = np.linspace(0, 10 * tau1, 120)
        traj = integrate_moments(REFERENCE_STATE_MOMENTS, TUNED, REFERENCE_RATES, ts)
        for row in traj.values:
            assert MomentVector.from_array(row).is_physical()

    @given(scale=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_linearity_superposition(self, scale):
        # the homogeneous part is linear: scaling the mean-field block of the
        # initial condition scales the (x, p) track
        p = PLAIN
        ts = np.linspace(0, 5.0, 30)
        base = integrate_moments(REFERENCE_STATE_MOMENTS, p, NO_DECAY, ts)
        m_scaled = MomentVector(0.0, scale / np.sqrt(2), 1.0, 1.0, 0.0)
        scaled = integrate_moments(m_scaled, p, NO_DECAY, ts)
        assert np.abs(scaled.moment("x") - scale * base.moment("x")).max() < 1e-8


class TestClosedForms:
    def test_reduction_to_unitary_at_zero_rates(self):
        for p in (TUNED, PLAIN, params(0.9)):
            ts = np.linspace(0.0, 30.0, 50)
            assert np.allclose(
                x_mean_dissipative(p, NO_DECAY, ts), x_mean(p, ts), atol=1e-12, rtol=1e-12
            )
            assert np.allclose(
                x_deriv_g_dissipative(p, NO_DECAY, ts), x_deriv_g(p, ts),
                atol=1e-12, rtol=1e-12,
            )
            assert np.allclose(
                x_variance_dissipative(p, NO_DECAY, ts), x_variance(p, ts),
                atol=1e-12, rtol=1e-12,
            )
            assert np.allclose(
                inverted_variance_dissipative(p, NO_DECAY, ts), inverted_variance(p, ts),
                atol=1e-12, rtol=1e-12,
            )

    def test_initial_values(self):
        assert x_mean_dissipative(TUNED, REFERENCE_RATES, 0.0) == 0.0
        assert x_deriv_g_dissipative(TUNED, REFERENCE_RATES, 0.0) == 0.0
        assert x_variance_dissipative(TUNED, REFERENCE_RATES, 0.0) == pytest.approx(1.0, abs=1e-13)
        assert inverted_variance_dissipative(TUNED, REFERENCE_RATES, 0.0) == 0.0

    def test_envelope_decay_over_one_period(self):
        eff = effective_oscillator(TUNED)
        period = 4 * np.pi / np.sqrt(eff.epsilon)
        t0 = 0.35 * period
        ratio = x_mean_dissipative(TUNED, REFERENCE_RATES, t0 + period) / x_mean_dissipative(
            TUNED, REFERENCE_RATES, t0
        )
        assert ratio == pytest.approx(
            np.exp(-REFERENCE_RATES.gamma_minus * period / 2), rel=1e-10
        )

    def test_quotient_identity(self):
        ts = np.linspace(0.0, 500.0, 400)
        lhs = inverted_variance_dissipative(TUNED, REFERENCE_RATES, ts)
        rhs = x_deriv_g_dissipative(TUNED, REFERENCE_RATES, ts) ** 2 / x_variance_dissipative(
            TUNED, REFERENCE_RATES, ts
        )
        mask = rhs > 0
        assert np.abs(lhs[mask] / rhs[mask] - 1).max() < 1e-10

    def test_damping_monotone_envelope(self):
        # |<X>| evaluated at successive quarter-period maxima never grows
        eff = effective_oscillator(TUNED)
        period = 4 * np.pi / np.sqrt(eff.epsilon)
        peaks = [
            abs(x_mean_dissipative(TUNED, REFERENCE_RATES, (k + 0.25) * period))
            for k in range(8)
        ]
        assert np.all(np.diff(peaks) < 0)

    def test_peaks_rise_then_fall(self):
        taus = optimal_times(TUNED, 30)
        peaks = inverted_variance_dissipative(TUNED, REFERENCE_RATES, taus)
        k = int(np.argmax(peaks))
        assert 0 < k < len(peaks) - 1
        assert peaks[0] < peaks[k] and peaks[-1] < peaks[k]

    def test_tuned_case_beats_plain_case_by_three_orders(self):
        taus_t = optimal_times(TUNED, 5)
        taus_p = optimal_times(PLAIN, 5)
        it = inverted_variance_dissipative(TUNED, REFERENCE_RATES, taus_t)
        ip = inverted_variance_dissipative(PLAIN, REFERENCE_RATES, taus_p)
        assert np.all(it / ip >= 1e3)

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            x_variance_dissipative(params(1.5), REFERENCE_RATES, 1.0)

    def test_every_closed_form_needs_the_normal_regime(self):
        # x_mean serves both sides of g_c, but the damped forms and the moment
        # equations they are checked against are written for the normal regime
        for fn in (x_mean_dissipative, x_deriv_g_dissipative, x_variance_dissipative,
                   inverted_variance_dissipative):
            with pytest.raises(RegimeError):
                fn(params(1.2), REFERENCE_RATES, 1.0)

    def test_critical_band_is_not_normal(self):
        # 0 < eps_g <= REGIME_TOL is the critical line for every formula: the
        # normal-only closed and damped forms raise there, as x_mean does
        p = params(float(np.sqrt(1.0 - 5e-13)))
        assert 0.0 < effective_oscillator(p).epsilon_g <= 1e-12
        state = default_initial_state()
        closed = [
            lambda: x_deriv_g(p, 1.0), lambda: x_second_moment(p, 1.0),
            lambda: x_variance(p, 1.0), lambda: inverted_variance(p, 1.0),
            lambda: optimal_times(p, 1), lambda: inverted_variance_peak(p, 1),
            lambda: ig_fg_ratio(state, p),
        ]
        damped = [
            lambda fn=fn: fn(p, REFERENCE_RATES, 1.0)
            for fn in (x_mean_dissipative, x_deriv_g_dissipative,
                       x_variance_dissipative, inverted_variance_dissipative)
        ]
        for form in closed + damped:
            with pytest.raises(RegimeError):
                form()

    def test_tiny_gamma_minus_series_branch(self):
        # gamma_- below the series crossover must stay continuous
        r1 = DecayRates.from_plus_minus(0.03, 1e-9)
        r2 = DecayRates.from_plus_minus(0.03, 1e-13)
        ts = np.linspace(0.0, 20.0, 11)
        v1 = x_variance_dissipative(PLAIN, r1, ts)
        v2 = x_variance_dissipative(PLAIN, r2, ts)
        assert np.abs(v1 - v2).max() < 1e-6
