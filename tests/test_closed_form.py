import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqm import (
    BosonInitialState,
    InvalidParams,
    ModelParams,
    RegimeError,
    default_initial_state,
    effective_oscillator,
    ig_fg_ratio,
    inverted_variance,
    inverted_variance_peak,
    optimal_times,
    qfi_g,
    var_n,
    x_deriv_g,
    x_mean,
    x_second_moment,
    x_variance,
)
from cqm.closed_form import sin_minus_x_cos_over_x3, sin_minus_x_over_x3


def params(g, lam=0.0, omega=1.0, Omega=1e4):
    return ModelParams(omega=omega, Omega=Omega, g=g, lam=lam)


def reference_variance(eps_g):
    """Var[P^2 - eps_g*X^2] over (|0>+i|1>)/sqrt(2), derived by hand from
    <(n+1/2)^2> = 5/4, <(a^2+a^dag^2)^2> = 4 and vanishing cross terms."""
    return (1 - eps_g) ** 2 / 4 + (1 + eps_g) ** 2


# couplings strictly inside the normal regime for a given lam
def normal_params(g_frac, lam):
    gc = np.sqrt(1 + 4 * lam)
    return params(g_frac * gc, lam=lam)


lam_strategy = st.floats(min_value=-0.2475, max_value=2.0)
frac_strategy = st.floats(min_value=0.05, max_value=0.95)
time_strategy = st.floats(min_value=0.0, max_value=200.0)


class TestInitialState:
    def test_default_state_is_normalized(self):
        st0 = default_initial_state()
        assert np.linalg.norm(st0.amplitudes) == pytest.approx(1.0, abs=1e-15)
        assert st0.n_max == 5

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidParams):
            BosonInitialState(np.array([1.0, 1.0]))


class TestVarN:
    def test_reference_state_at_small_stiffness(self):
        # the zero-stiffness limit of the reference state: Var[P^2] = 5/4
        assert default_initial_state().generator_variance(0.0) == pytest.approx(
            1.25, rel=1e-14
        )

    def test_vacuum_at_unit_stiffness(self):
        vac = BosonInitialState(np.eye(6)[0])
        assert vac.generator_variance(1.0) == pytest.approx(2.0, rel=1e-13)

    @given(lam=lam_strategy, frac=frac_strategy)
    @settings(max_examples=60)
    def test_matches_hand_derived_variance(self, lam, frac):
        p = normal_params(frac, lam)
        eps_g = effective_oscillator(p).epsilon_g
        scale = (1 + 4 * lam) ** 3
        assert var_n(default_initial_state(), p) == pytest.approx(
            scale * reference_variance(eps_g), rel=1e-12
        )

    def test_eigenstate_has_zero_variance(self):
        # at stiffness -1 the operator is P^2 + X^2 = 2n + 1, whose exact
        # eigenstates are the Fock states themselves
        for k in (0, 3):
            state = BosonInitialState(np.eye(8)[k])
            assert state.generator_variance(-1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 5, 9])
    def test_covariance_matches_dense_products_on_a_larger_basis(self, dim):
        # P^2 - s*X^2 from dense X and P on a basis four slots larger than the
        # state's, where the truncation cannot reach it; the random states
        # fill every slot, the top two included
        rng = np.random.default_rng(dim)
        big = dim + 4
        a = np.diag(np.sqrt(np.arange(1, big, dtype=float)), 1)
        x = (a + a.T) / np.sqrt(2.0)
        p = 1j * (a.T - a) / np.sqrt(2.0)
        for _ in range(20):
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state = BosonInitialState(amps / np.linalg.norm(amps))
            padded = np.concatenate([state.amplitudes, np.zeros(4)])
            for s in (-1.0, 0.0, 0.37, 1.0):
                op_amps = (p @ p - s * (x @ x)) @ padded
                mean = np.vdot(padded, op_amps).real
                dense = np.vdot(op_amps, op_amps).real - mean * mean
                assert state.generator_variance(s) == pytest.approx(dense, rel=1e-12)

    def test_beyond_variant_uses_alpha_stiffness(self):
        p = params(1.2)
        eps_ga = 1 - (1 / 1.2**2) ** 2
        assert var_n(default_initial_state(), p) == pytest.approx(
            reference_variance(eps_ga), rel=1e-12
        )


class TestStableTrig:
    def test_series_and_naive_agree_at_crossover(self):
        for x in (1e-4, 1.0000001e-4, 2e-4):
            naive = (np.sin(x) - x) / x**3
            assert sin_minus_x_over_x3(x) == pytest.approx(naive, rel=1e-6)
            naive2 = (np.sin(x) - x * np.cos(x)) / x**3
            assert sin_minus_x_cos_over_x3(x) == pytest.approx(naive2, rel=1e-6)

    def test_small_argument_limits(self):
        assert sin_minus_x_over_x3(0.0) == pytest.approx(-1 / 6)
        assert sin_minus_x_cos_over_x3(0.0) == pytest.approx(1 / 3)
        for x in (1e-8, 1e-6, 1e-5):
            assert sin_minus_x_over_x3(x) == pytest.approx(-1 / 6, rel=1e-9)

    def test_no_cancellation_blowup_below_crossover(self):
        xs = np.logspace(-8, -4, 50)
        vals = sin_minus_x_over_x3(xs)
        assert np.all(np.abs(vals + 1 / 6) < 1e-8)


class TestQfi:
    def test_zero_time_zero_information(self):
        p = params(0.099, lam=-0.2475)
        v = var_n(default_initial_state(), p)
        assert qfi_g(p, 0.0, v) == 0.0

    def test_closer_coupling_larger_qfi(self):
        state = default_initial_state()
        values = []
        for g in (0.097, 0.098, 0.099):
            p = params(g, lam=-0.2475)
            values.append(qfi_g(p, 1000.0, var_n(state, p)))
        assert values[0] < values[1] < values[2]

    def test_argmax_sits_at_the_tuned_critical_point(self):
        state = default_initial_state()
        lam = -0.2
        gc = np.sqrt(0.2)
        grid = np.arange(0.30, 0.60, 2e-4)
        best_g, best_val = None, -1.0
        for g in grid:
            p = params(g, lam=lam)
            if effective_oscillator(p).epsilon_g == 0:
                continue
            val = qfi_g(p, 1000.0, var_n(state, p))
            if val > best_val:
                best_g, best_val = g, val
        assert abs(best_g - gc) < 1e-3

    def test_monotone_divergence_toward_the_critical_point(self):
        state = default_initial_state()
        gs = np.linspace(0.05, 0.95, 120)
        vals = [qfi_g(params(g), 7.0, var_n(state, params(g))) for g in gs]
        assert np.all(np.diff(vals) > 0)

    def test_regime_guard(self):
        # qfi_g and var_n serve both sides of g_c and raise only on the
        # critical line; the normal-only ig_fg_ratio still raises past g_c
        state = default_initial_state()
        v = var_n(state, params(0.5))
        for g in (0.5, 1.2):
            assert qfi_g(params(g), 1.0, v) > 0
        critical = params(1.0)
        with pytest.raises(RegimeError):
            qfi_g(critical, 1.0, v)
        with pytest.raises(RegimeError):
            var_n(state, critical)
        with pytest.raises(RegimeError):
            ig_fg_ratio(state, params(1.2))

    def test_beyond_prefactor(self):
        # past g_c the prefactor is 64*((1 - epsilon_g_alpha)/g)^2
        p = params(1.2)
        eps_ga = 1 - (1 / 1.2**2) ** 2
        t = 3.0
        x = np.sqrt(4 * eps_ga) * t
        expected = 64 * ((1 - eps_ga) / 1.2) ** 2 * ((np.sin(x) - x) / (4 * eps_ga) ** 1.5) ** 2
        assert qfi_g(p, t, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_beyond_zero_time(self):
        p = params(1.2)
        assert qfi_g(p, 0.0, var_n(default_initial_state(), p)) == 0.0

    def test_beyond_grows_approaching_the_critical_point(self):
        state = default_initial_state()
        t = 50.0
        vals = []
        for g in (1.20, 1.10, 1.05, 1.02):
            p = params(g)
            vals.append(qfi_g(p, t, var_n(state, p)))
        assert np.all(np.diff(vals) > 0)


class TestQuadratures:
    def test_mean_starts_at_zero_and_peaks_at_quarter_period(self):
        p = params(0.9)
        eff = effective_oscillator(p)
        assert x_mean(p, 0.0) == 0.0
        t_quarter = np.pi / np.sqrt(eff.epsilon)
        assert x_mean(p, t_quarter) == pytest.approx(
            np.sqrt(0.5 / eff.epsilon_g), rel=1e-12
        )

    def test_beyond_mean_same_shape(self):
        p = params(1.2)
        eps_ga = 1 - (1 / 1.44) ** 2
        eps_a = 4 * eps_ga
        assert x_mean(p, 0.0) == 0.0
        t_quarter = np.pi / np.sqrt(eps_a)
        assert x_mean(p, t_quarter) == pytest.approx(
            1 / np.sqrt(2 * eps_ga), rel=1e-12
        )

    def test_variance_starts_at_one_and_returns_at_optimal_times(self):
        p = params(0.9)
        assert x_variance(p, 0.0) == pytest.approx(1.0)
        for tau in optimal_times(p, 3):
            assert x_variance(p, tau) == pytest.approx(1.0, abs=1e-12)

    def test_derivative_against_centered_difference(self):
        for g, lam, t in [(0.9, 0.0, 5.0), (0.3, -0.2, 12.0), (0.099, -0.2475, 40.0)]:
            p = params(g, lam=lam)
            h = 1e-6 * g
            fd = (x_mean(params(g + h, lam=lam), t) - x_mean(params(g - h, lam=lam), t)) / (2 * h)
            assert x_deriv_g(p, t) == pytest.approx(fd, rel=1e-5)

    def test_derivative_magnitude_at_optimal_times(self):
        p = params(0.9)
        eff = effective_oscillator(p)
        pref = np.sqrt(2) / 2 * p.omega * p.g / (p.omega + 4 * p.lam)
        for n, tau in enumerate(optimal_times(p, 4), start=1):
            expected = pref * eff.epsilon_g**-1.5 * n * np.pi
            assert abs(x_deriv_g(p, tau)) == pytest.approx(expected, rel=1e-10)

    @given(lam=lam_strategy, frac=frac_strategy, t=time_strategy)
    @settings(max_examples=150)
    def test_variance_identity(self, lam, frac, t):
        p = normal_params(frac, lam)
        direct = x_second_moment(p, t) - x_mean(p, t) ** 2
        assert direct == pytest.approx(x_variance(p, t), rel=1e-12, abs=1e-12)

    @given(lam=lam_strategy, frac=frac_strategy, t=time_strategy)
    @settings(max_examples=150)
    def test_inverted_variance_quotient_identity(self, lam, frac, t):
        p = normal_params(frac, lam)
        quotient = x_deriv_g(p, t) ** 2 / x_variance(p, t)
        assert inverted_variance(p, t) == pytest.approx(quotient, rel=1e-12, abs=1e-300)

    def test_regime_guards(self):
        # x_mean serves both sides of g_c and raises only on the critical
        # line; the normal-only formulas still raise past g_c
        assert x_mean(params(1.2), 1.0) > 0
        with pytest.raises(RegimeError):
            x_mean(params(1.0), 1.0)
        for fn in (x_deriv_g, x_variance, x_second_moment, inverted_variance):
            with pytest.raises(RegimeError):
                fn(params(1.2), 1.0)
        with pytest.raises(RegimeError):
            optimal_times(params(1.2), 1)
        with pytest.raises(RegimeError):
            inverted_variance_peak(params(1.2), 1)


class TestOptimalTimesAndPeaks:
    def test_first_time_value(self):
        taus = optimal_times(params(0.9), 3)
        assert taus[0] == pytest.approx(2 * np.pi / np.sqrt(0.76), rel=1e-12)
        assert np.all(np.diff(taus) > 0)
        assert taus[1] == pytest.approx(2 * taus[0], rel=1e-14)

    def test_weak_coupling_limit_is_the_bare_half_period(self):
        p = params(1e-8)
        assert optimal_times(p, 1)[0] == pytest.approx(np.pi, rel=1e-9)

    def test_peak_reference_value(self):
        assert inverted_variance_peak(params(0.9), 1) == pytest.approx(
            582.7656775683326, rel=1e-12
        )

    def test_peak_matches_curve(self):
        for p in (params(0.9), params(0.099, lam=-0.2475)):
            taus = optimal_times(p, 50)
            for n in (1, 7, 50):
                assert inverted_variance(p, taus[n - 1]) == pytest.approx(
                    inverted_variance_peak(p, n), rel=1e-10
                )

    def test_peak_index_scaling(self):
        p = params(0.9)
        peaks = inverted_variance_peak(p, np.arange(1, 6))
        ratios = peaks[1:] / peaks[:-1]
        expected = (np.arange(2, 6) / np.arange(1, 5)) ** 2
        assert ratios == pytest.approx(expected, rel=1e-14)

    def test_zero_index_peak_is_zero(self):
        assert inverted_variance_peak(params(0.9), 0) == 0.0

    def test_bad_n_max(self):
        with pytest.raises(InvalidParams):
            optimal_times(params(0.9), 0)


class TestRatio:
    def test_critical_limit_value(self):
        # Var -> 5/4 as the stiffness vanishes, so the ratio tends to 0.4
        p = params(0.1 * np.sqrt(1 - 1e-9), lam=-0.2475)
        assert ig_fg_ratio(default_initial_state(), p) == pytest.approx(0.4, rel=1e-6)

    def test_closed_form_ratio_identity(self):
        # peak / QFI at tau_n equals the ratio exactly, for every n
        state = default_initial_state()
        p = params(0.099, lam=-0.2475)
        taus = optimal_times(p, 20)
        v = var_n(state, p)
        ratio = ig_fg_ratio(state, p)
        for n in (1, 5, 20):
            peak = inverted_variance_peak(p, n)
            qfi = qfi_g(p, taus[n - 1], v)
            assert peak / qfi == pytest.approx(ratio, rel=1e-12)
