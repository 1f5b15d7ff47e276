from dataclasses import fields

import numpy as np
import pytest

from cqm import (
    DecayRates,
    InvalidParams,
    ModelParams,
    PROBE_AMPLITUDES,
    RegimeError,
    ig_fg_ratio,
    integrate_moments,
    inverted_variance,
    inverted_variance_dissipative,
    inverted_variance_peak,
    moment_generator,
    optimal_times,
    oscillator_frame,
    x_deriv_g,
    x_deriv_g_dissipative,
    x_mean,
    x_mean_dissipative,
    x_second_moment,
    x_variance,
    x_variance_dissipative,
)
from cqm.closed_form import _generator_variance
from cqm.lindblad import NO_DECAY, REFERENCE_STATE_MOMENTS
from cqm.model import REGIMES

REFERENCE_RATES = DecayRates(gamma_plus=0.03, gamma_minus=0.01)


def params(g, lam=0.0):
    return ModelParams(omega=1.0, Omega=1e4, g=g, lam=lam)


TUNED = params(0.1, lam=-0.247)
PLAIN = params(0.1, lam=0.0)


class TestDecayRates:
    def test_plus_minus_roundtrip(self):
        # held exactly as given: converting through (gamma_a, gamma_h) made
        # gamma_minus 0.010000000000000002
        r = DecayRates(gamma_plus=0.03, gamma_minus=0.01)
        assert (r.gamma_plus, r.gamma_minus) == (0.03, 0.01)
        assert [f.name for f in fields(DecayRates)] == ["gamma_plus", "gamma_minus"]

    def test_positional_rates_rejected(self):
        with pytest.raises(TypeError):
            DecayRates(0.03, 0.01)

    def test_negative_rates_rejected(self):
        # gamma_a < 0 and gamma_h < 0: |gamma_minus| > gamma_plus either way
        with pytest.raises(InvalidParams):
            DecayRates(gamma_plus=0.01, gamma_minus=-0.02)
        with pytest.raises(InvalidParams):
            DecayRates(gamma_plus=0.01, gamma_minus=0.02)
        with pytest.raises(InvalidParams):
            DecayRates(gamma_plus=-0.1, gamma_minus=0.0)

    @pytest.mark.parametrize("gamma_a, gamma_h", [
        (np.nan, 0.0), (0.02, np.nan), (np.inf, 0.0), (0.02, np.inf),
    ])
    def test_non_finite_rates_rejected(self, gamma_a, gamma_h):
        # a NaN rate used to give NaN closed forms, an infinite one 0
        with pytest.raises(InvalidParams, match="finite"):
            DecayRates(gamma_plus=gamma_a + gamma_h, gamma_minus=gamma_a - gamma_h)

    @pytest.mark.parametrize("gamma_plus, gamma_minus", [(np.inf, 0.0), (np.inf, np.inf),
                                                          (np.nan, 0.01), (0.03, np.nan),
                                                          (0.03, -np.inf)])
    def test_non_finite_plus_minus_rates_rejected(self, gamma_plus, gamma_minus):
        with pytest.raises(InvalidParams, match="finite"):
            DecayRates(gamma_plus=gamma_plus, gamma_minus=gamma_minus)

    def test_heating_dominated_closed_forms_rejected(self):
        amplifying = DecayRates(gamma_plus=0.03, gamma_minus=-0.01)
        with pytest.raises(InvalidParams):
            x_mean_dissipative(PLAIN, amplifying, 1.0)


def rhs(m, p, rates):
    """dm/dt = A*m + b read off the augmented moment generator."""
    gen = moment_generator(p, rates)
    return gen[:5, :5] @ np.asarray(m) + gen[:5, 5]


def is_physical(m, tol=1e-8):
    """Positivity of both variances and the uncertainty product

    (Delta X)^2 (Delta P)^2 - (G_tilde/2)^2 >= 1/4, up to ``tol`` slack,
    with G_tilde = <G> - 2<X><P>, for moments (<X>, <P>, <X^2>, <P^2>, <G>).
    """
    x, p, xx, pp, gg = m
    vx, vp = xx - x * x, pp - p * p
    if vx < -1e-10 or vp < -1e-10:
        return False
    return vx * vp - 0.25 * (gg - 2.0 * x * p) ** 2 >= 0.25 * (1.0 - tol)


class TestMomentRhs:
    def test_generator_matches_the_five_equations(self):
        # each equation written out term by term, at moments and rates with
        # no zero entry, so every coefficient of the matrix is exercised
        x, p, xx, pp, gg = 0.3, -0.2, 1.4, 0.9, 0.25
        frame = oscillator_frame(TUNED)
        w, e = frame.omega_bar, frame.epsilon
        gm, gp = REFERENCE_RATES.gamma_minus, REFERENCE_RATES.gamma_plus
        expected = [
            w * p - gm / 2 * x,
            -e / (4 * w) * x - gm / 2 * p,
            -gm * xx + w * gg + gp / 2,
            -gm * pp - e / (4 * w) * gg + gp / 2,
            -gm * gg + 2 * w * pp - e / (2 * w) * xx,
        ]
        got = rhs([x, p, xx, pp, gg], TUNED, REFERENCE_RATES)
        assert np.abs(got - expected).max() < 1e-15 * np.abs(expected).max()
        gen = moment_generator(TUNED, REFERENCE_RATES)
        assert gen.shape == (6, 6) and np.all(gen[5] == 0.0)

    def test_generator_follows_from_the_master_equation(self):
        # L^dag O = i[H, O] + gamma_a D[a] + gamma_h D[a^dag] on O = X, P, X^2,
        # P^2, G in 40 levels, each fitted on (X, P, X^2, P^2, G, 1) over the
        # top-left 34 x 34 block, which the truncation at 40 levels leaves exact
        frame = oscillator_frame(TUNED)
        w, e = frame.omega_bar, frame.epsilon
        gp, gm = REFERENCE_RATES.gamma_plus, REFERENCE_RATES.gamma_minus
        gamma_a, gamma_h = (gp + gm) / 2, (gp - gm) / 2
        a = np.diag(np.sqrt(np.arange(1.0, 40.0)), 1).astype(complex)
        ad = a.conj().T
        x, p = (a + ad) / np.sqrt(2.0), 1j * (ad - a) / np.sqrt(2.0)
        h = w / 2 * p @ p + e / (8 * w) * x @ x

        def adjoint(o):
            def dissipator(c):
                cdc = c.conj().T @ c
                return c.conj().T @ o @ c - (cdc @ o + o @ cdc) / 2
            return 1j * (h @ o - o @ h) + gamma_a * dissipator(a) + gamma_h * dissipator(ad)

        ops = [x, p, x @ x, p @ p, x @ p + p @ x]
        basis = np.stack([op[:34, :34].ravel() for op in ops + [np.eye(40)]], axis=1)
        gen = moment_generator(TUNED, REFERENCE_RATES)
        for row, op in zip(gen, ops):
            coef, *_ = np.linalg.lstsq(basis, adjoint(op)[:34, :34].ravel(), rcond=None)
            assert np.abs(coef - row).max() <= 1e-12 * np.abs(gen).max()

    def test_initial_flow_of_reference_state(self):
        frame = oscillator_frame(PLAIN)
        d = rhs(REFERENCE_STATE_MOMENTS, PLAIN, NO_DECAY)
        assert d[0] == pytest.approx(frame.omega_bar / np.sqrt(2))

    def test_reference_moments_are_those_of_the_reference_state(self):
        # the probe's amplitudes, its covariance of N + 1/2 and (a^2 +
        # a^dag^2)/2 and the moment ODE's starting row are three forms of
        # (|0> + i|1>)/sqrt(2); on four levels X^2 and P^2 of |1> are exact
        psi = np.append(PROBE_AMPLITUDES, [0.0, 0.0])
        a = np.diag(np.sqrt([1.0, 2.0, 3.0]), 1)  # the annihilator on |0>..|3>
        x, p = (a + a.T) / np.sqrt(2.0), 1j * (a.T - a) / np.sqrt(2.0)
        ops = (x, p, x @ x, p @ p, x @ p + p @ x)
        moments = np.array([np.vdot(psi, op @ psi) for op in ops])
        assert np.abs(moments.imag).max() <= 1e-15
        assert np.abs(moments.real - REFERENCE_STATE_MOMENTS).max() <= 1e-15
        # N + 1/2 = (X^2 + P^2)/2 and (a^2 + a^dag^2)/2 = (X^2 - P^2)/2
        applied = np.stack([(x @ x + p @ p) @ psi, (x @ x - p @ p) @ psi]) / 2.0
        means = np.real(applied @ psi.conj())
        covariance = np.real(applied.conj() @ applied.T) - np.outer(means, means)
        # the closed forms' Var[P^2 - s*X^2] reads the hand-derived diag(1/4, 1);
        # the dense products carry the roundoff of the 1/sqrt(2) amplitudes
        # (2 ulp at most)
        assert np.abs(covariance - np.diag([0.25, 1.0])).max() <= 1e-15
        s = np.linspace(-1.0, 1.0, 9)
        v = np.stack([1.0 - s, -(1.0 + s)], axis=1)
        dense = np.einsum("ki,ij,kj->k", v, covariance, v)
        assert np.abs(_generator_variance(s) - dense).max() <= 1e-14

    def test_g_equation_with_balanced_moments(self):
        frame = oscillator_frame(TUNED)
        d = rhs([0.2, -0.1, 0.7, 0.7, 0.0], TUNED, NO_DECAY)
        assert d[4] == pytest.approx(
            2 * frame.omega_bar * 0.7 - frame.epsilon / (2 * frame.omega_bar) * 0.7
        )

    def test_fixed_point_from_independent_linear_solve(self):
        frame = oscillator_frame(TUNED)
        gm, gp = REFERENCE_RATES.gamma_minus, REFERENCE_RATES.gamma_plus
        w, e = frame.omega_bar, frame.epsilon
        block = np.array(
            [[-gm, 0.0, w], [0.0, -gm, -e / (4 * w)], [-e / (2 * w), 2 * w, -gm]]
        )
        xx, pp, gg = np.linalg.solve(block, [-gp / 2, -gp / 2, 0.0])
        d = rhs([0.0, 0.0, xx, pp, gg], TUNED, REFERENCE_RATES)
        assert np.abs(d).max() < 1e-14
        assert xx > 0 and pp > 0


class TestIntegrateMoments:
    def test_closed_system_reproduces_unitary_forms(self):
        p = PLAIN
        tau1 = float(optimal_times(p, 1)[0])
        ts = np.linspace(0, 3 * tau1, 80)
        m, _ = integrate_moments(p, NO_DECAY, ts)
        assert m.shape == (len(ts), 5)
        assert np.abs(m[:, 0] - x_mean(p, ts)).max() < 1e-12
        assert np.abs(m[:, 2] - m[:, 0] ** 2 - x_variance(p, ts)).max() < 1e-12

    def test_reference_rates_match_dissipative_closed_forms(self):
        for p in (TUNED, PLAIN):
            tau1 = float(optimal_times(p, 1)[0])
            ts = np.linspace(0, 10 * tau1, 300)
            m, _ = integrate_moments(p, REFERENCE_RATES, ts)
            xm = x_mean_dissipative(p, REFERENCE_RATES, ts)
            xv = x_variance_dissipative(p, REFERENCE_RATES, ts)
            assert np.abs(m[:, 0] - xm).max() / np.abs(xm).max() < 1e-12
            assert np.abs(m[:, 2] - m[:, 0] ** 2 - xv).max() / np.abs(xv).max() < 1e-12

    def test_long_time_mean_decays(self):
        tau1 = float(optimal_times(TUNED, 1)[0])
        ts = np.linspace(0, 40 * tau1, 200)
        m, _ = integrate_moments(TUNED, REFERENCE_RATES, ts)
        assert abs(m[-1, 0]) < 1e-3

    def test_defective_generator_on_the_critical_line(self):
        # epsilon = 0 exactly: <P> only decays and <X> grows secularly,
        # x = wbar*p0*t*exp(-gamma_-*t/2); the moment matrix is defective here
        p = params(1.0)
        frame = oscillator_frame(p, *REGIMES)
        assert frame.epsilon == 0.0
        ts = np.linspace(0.0, 50.0, 101)
        m, _ = integrate_moments(p, REFERENCE_RATES, ts)
        wbar, p0 = frame.omega_bar, REFERENCE_STATE_MOMENTS[1]
        exact = wbar * p0 * ts * np.exp(-0.5 * REFERENCE_RATES.gamma_minus * ts)
        assert np.abs(m[:, 0] - exact).max() / np.abs(exact).max() < 1e-12

    @pytest.mark.parametrize("g, lam", [(1.2, 0.0), (1.5, -0.2)])
    def test_past_g_c_the_moments_follow_the_displaced_frame(self, g, lam):
        # the moment equations evolve the displaced-frame oscillator past g_c,
        # as x_mean does; they once took the normal-regime gap there, an
        # inverted oscillator whose <X> grew 1e14-fold by t = 50
        p = params(g, lam=lam)
        ts = np.linspace(0.0, 50.0, 101)
        m, _ = integrate_moments(p, NO_DECAY, ts)
        expected = x_mean(p, ts)
        assert np.abs(m[:, 0] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_grid_spacing_does_not_change_the_trajectory(self):
        # each step is exact, so one long step lands where many short ones do
        tau1 = float(optimal_times(TUNED, 1)[0])
        fine, _ = integrate_moments(TUNED, REFERENCE_RATES, np.linspace(0, 20 * tau1, 401))
        coarse, _ = integrate_moments(TUNED, REFERENCE_RATES, [0.0, 20 * tau1])
        scale = np.abs(fine).max(axis=0)
        assert np.abs(coarse[-1] - fine[-1]).max() < 1e-12 * scale.max()

    def test_bad_grid_rejected(self):
        # the flow runs forward from t = 0, so [0.0] alone is a grid
        moments, dmoments = integrate_moments(PLAIN, NO_DECAY, [0.0])
        assert np.array_equal(moments, [REFERENCE_STATE_MOMENTS])
        assert np.array_equal(dmoments, np.zeros((1, 5)))  # the probe does not depend on g
        with pytest.raises(InvalidParams, match="t >= 0"):
            integrate_moments(PLAIN, NO_DECAY, [-1.0, 0.0])
        with pytest.raises(InvalidParams):
            integrate_moments(PLAIN, NO_DECAY, [0.0, 0.0, 1.0])

    def test_a_late_grid_starts_from_zero(self):
        # the first step runs from t = 0 to the grid's first time
        full = integrate_moments(TUNED, REFERENCE_RATES, [0.0, 2.0, 5.0])
        late = integrate_moments(TUNED, REFERENCE_RATES, [2.0, 5.0])
        assert all(np.array_equal(a, b[1:]) for a, b in zip(late, full))

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [np.nan, 1.0], [0.0, 1.0, np.nan],
                                      [0.0, np.inf], [-np.inf, 0.0]])
    def test_non_finite_times_rejected(self, grid):
        # NaN steps used to pass the increasing-grid check
        with pytest.raises(InvalidParams, match="finite"):
            integrate_moments(PLAIN, NO_DECAY, grid)

    @pytest.mark.parametrize("p", [TUNED, PLAIN], ids=["tuned", "plain"])
    def test_propagated_g_derivative_meets_the_closed_form(self, p):
        # the decoherence defaults' two cells: d<X>/dg carried through the
        # moment loop, against x_deriv_g_dissipative (measured 3.3e-14 and 1.7e-14)
        ts = np.linspace(0.0, 10.0, 600) * float(optimal_times(p, 1)[0])
        _, dmoments = integrate_moments(p, REFERENCE_RATES, ts)
        closed = x_deriv_g_dissipative(p, REFERENCE_RATES, ts)
        assert np.abs(dmoments[:, 0] - closed).max() <= 1e-12 * np.abs(closed).max()

    @pytest.mark.parametrize("g, lam", [(0.1, -0.247), (0.1, 0.0), (0.9, 0.0), (1.3, 0.0)])
    def test_every_moment_derivative_meets_a_centered_difference(self, g, lam):
        # the X^2, P^2 and G rows read dA/dg entries that d<X>/dg never does;
        # a step of 1e-5*g meets them to 5.9e-7 of a row's scale at most (g = 0.9)
        ts, h = np.linspace(0.0, 50.0, 101), 1e-5 * g
        _, dmoments = integrate_moments(params(g, lam), REFERENCE_RATES, ts)
        up, down = (integrate_moments(params(g + s, lam), REFERENCE_RATES, ts)[0]
                    for s in (h, -h))
        scale = np.abs(dmoments).max(axis=0)
        assert np.all(np.abs((up - down) / (2 * h) - dmoments).max(axis=0) <= 1e-5 * scale)

    def test_states_stay_physical(self):
        tau1 = float(optimal_times(TUNED, 1)[0])
        ts = np.linspace(0, 10 * tau1, 120)
        m, _ = integrate_moments(TUNED, REFERENCE_RATES, ts)
        assert all(is_physical(row) for row in m)
        # the check has teeth: a squeezed-below-vacuum moment set fails it
        assert not is_physical([0.0, 0.0, 0.2, 0.2, 0.0])


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
        frame = oscillator_frame(TUNED)
        period = 4 * np.pi / np.sqrt(frame.epsilon)
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
        frame = oscillator_frame(TUNED)
        period = 4 * np.pi / np.sqrt(frame.epsilon)
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

    @pytest.mark.parametrize("fn", [x_mean_dissipative, x_deriv_g_dissipative,
                                    x_variance_dissipative, inverted_variance_dissipative])
    def test_negative_times_rejected(self, fn):
        # the damped flow runs forward only: at t = -2000 (Delta X)^2 read
        # -1.08e9 and I_g -1.8e5
        with pytest.raises(InvalidParams, match="times >= 0"):
            fn(TUNED, REFERENCE_RATES, np.array([0.0, -2000.0]))
        with pytest.raises(InvalidParams, match="times >= 0"):
            fn(TUNED, REFERENCE_RATES, np.nan)

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
        assert 0.0 < oscillator_frame(p, *REGIMES).epsilon_g <= 1e-12
        closed = [
            lambda: x_deriv_g(p, 1.0), lambda: x_second_moment(p, 1.0),
            lambda: x_variance(p, 1.0), lambda: inverted_variance(p, 1.0),
            lambda: optimal_times(p, 1), lambda: inverted_variance_peak(p, 1),
            lambda: ig_fg_ratio(p),
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
        r1 = DecayRates(gamma_plus=0.03, gamma_minus=1e-9)
        r2 = DecayRates(gamma_plus=0.03, gamma_minus=1e-13)
        ts = np.linspace(0.0, 20.0, 11)
        v1 = x_variance_dissipative(PLAIN, r1, ts)
        v2 = x_variance_dissipative(PLAIN, r2, ts)
        assert np.abs(v1 - v2).max() < 1e-6
