import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cqm import (
    PROBE_AMPLITUDES,
    InvalidParams,
    ModelParams,
    Regime,
    RegimeError,
    ig_fg_ratio,
    inverted_variance,
    inverted_variance_peak,
    optimal_times,
    oscillator_frame,
    qfi_g,
    var_n,
    x_deriv_g,
    x_mean,
    x_second_moment,
    x_variance,
)
from cqm.closed_form import (_generator_variance, peak_indices, sin_minus_x_cos_over_x3,
                             sin_minus_x_over_x3)
from cqm.model import REGIMES


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
        assert np.linalg.norm(PROBE_AMPLITUDES) == pytest.approx(1.0, abs=1e-15)
        assert len(PROBE_AMPLITUDES) == 2

    def test_reference_state_is_rebuilt_identically(self):
        # one read-only constant, so no caller can change the probe
        assert not PROBE_AMPLITUDES.flags.writeable
        with pytest.raises(ValueError):
            PROBE_AMPLITUDES[0] = 1.0


class TestVarN:
    def test_reference_state_at_small_stiffness(self):
        # the zero-stiffness limit of the reference state: Var[P^2] = 5/4
        assert _generator_variance(0.0) == pytest.approx(1.25, rel=1e-14)

    @given(lam=lam_strategy, frac=frac_strategy)
    @settings(max_examples=60)
    def test_matches_hand_derived_variance(self, lam, frac):
        p = normal_params(frac, lam)
        eps_g = oscillator_frame(p).epsilon_g
        scale = (1 + 4 * lam) ** 3
        assert var_n(p) == pytest.approx(scale * reference_variance(eps_g), rel=1e-12)

    def test_beyond_variant_uses_alpha_stiffness(self):
        p = params(1.2)
        eps_ga = 1 - (1 / 1.2**2) ** 2
        assert var_n(p) == pytest.approx(reference_variance(eps_ga), rel=1e-12)


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
        assert qfi_g(p, 0.0) == 0.0

    def test_closer_coupling_larger_qfi(self):
        values = [qfi_g(params(g, lam=-0.2475), 1000.0) for g in (0.097, 0.098, 0.099)]
        assert values[0] < values[1] < values[2]

    def test_argmax_sits_at_the_tuned_critical_point(self):
        lam = -0.2
        gc = np.sqrt(0.2)
        grid = np.arange(0.30, 0.60, 2e-4)
        best_g, best_val = None, -1.0
        for g in grid:
            p = params(g, lam=lam)
            if oscillator_frame(p, *REGIMES).regime is Regime.CRITICAL:
                continue
            val = qfi_g(p, 1000.0)
            if val > best_val:
                best_g, best_val = g, val
        assert abs(best_g - gc) < 1e-3

    def test_monotone_divergence_toward_the_critical_point(self):
        gs = np.linspace(0.05, 0.95, 120)
        vals = [qfi_g(params(g), 7.0) for g in gs]
        assert np.all(np.diff(vals) > 0)

    def test_regime_guard(self):
        # qfi_g and var_n serve both sides of g_c and raise only on the
        # critical line; the normal-only ig_fg_ratio still raises past g_c
        for g in (0.5, 1.2):
            assert qfi_g(params(g), 1.0) > 0
        critical = params(1.0)
        with pytest.raises(RegimeError):
            qfi_g(critical, 1.0)
        with pytest.raises(RegimeError):
            var_n(critical)
        with pytest.raises(RegimeError):
            ig_fg_ratio(params(1.2))

    def test_beyond_prefactor(self):
        # past g_c the prefactor is 64*((1 - epsilon_g_alpha)/g)^2, times
        # the probe's variance at stiffness epsilon_g_alpha
        p = params(1.2)
        eps_ga = 1 - (1 / 1.2**2) ** 2
        t = 3.0
        x = np.sqrt(4 * eps_ga) * t
        expected = 64 * ((1 - eps_ga) / 1.2) ** 2 * ((np.sin(x) - x) / (4 * eps_ga) ** 1.5) ** 2
        assert qfi_g(p, t) == pytest.approx(expected * reference_variance(eps_ga), rel=1e-10)

    def test_beyond_zero_time(self):
        p = params(1.2)
        assert qfi_g(p, 0.0) == 0.0

    def test_beyond_grows_approaching_the_critical_point(self):
        vals = [qfi_g(params(g), 50.0) for g in (1.20, 1.10, 1.05, 1.02)]
        assert np.all(np.diff(vals) > 0)


class TestQuadratures:
    def test_mean_starts_at_zero_and_peaks_at_quarter_period(self):
        p = params(0.9)
        frame = oscillator_frame(p)
        assert x_mean(p, 0.0) == 0.0
        t_quarter = np.pi / np.sqrt(frame.epsilon)
        assert x_mean(p, t_quarter) == pytest.approx(
            np.sqrt(0.5 / frame.epsilon_g), rel=1e-12
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
        eps_g = oscillator_frame(p).epsilon_g
        pref = np.sqrt(2) / 2 * p.omega * p.g / (p.omega + 4 * p.lam)
        for n, tau in enumerate(optimal_times(p, 4), start=1):
            expected = pref * eps_g**-1.5 * n * np.pi
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

    def test_regime_errors_name_epsilon_g(self):
        # every regime guard is oscillator_frame's: the critical line, where
        # x_mean has no oscillator, and past g_c, where x_deriv_g has no formula
        for call in (lambda: x_mean(params(1.0), 1.0), lambda: x_deriv_g(params(1.2), 1.0)):
            with pytest.raises(RegimeError, match="^epsilon_g = "):
                call()


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
        # 2.5 used to give the three times of n_max = 3
        for bad in (0, -1, 2.5, np.nan, 2.0**53):
            with pytest.raises(InvalidParams, match="peak indices"):
                optimal_times(params(0.9), bad)
        assert optimal_times(params(0.9), 3.0).tolist() == optimal_times(params(0.9), 3).tolist()

    def test_peak_indices_are_integers_from_one_below_2_to_the_53(self):
        assert peak_indices(3.0).tolist() == [3]
        assert peak_indices([1, 2.0**53 - 1]).tolist() == [1, 2**53 - 1]
        for bad in (0, -2, 2.5, np.nan, 2.0**53, [1, 0]):
            with pytest.raises(InvalidParams, match="peak indices"):
                peak_indices(bad)


class TestRatio:
    def test_critical_limit_value(self):
        # Var -> 5/4 as the stiffness vanishes, so the ratio tends to 0.4
        p = params(0.1 * np.sqrt(1 - 1e-9), lam=-0.2475)
        assert ig_fg_ratio(p) == pytest.approx(0.4, rel=1e-6)

    def test_closed_form_ratio_identity(self):
        # peak / QFI at tau_n equals the ratio exactly, for every n
        p = params(0.099, lam=-0.2475)
        taus = optimal_times(p, 20)
        ratio = ig_fg_ratio(p)
        for n in (1, 5, 20):
            peak = inverted_variance_peak(p, n)
            qfi = qfi_g(p, taus[n - 1])
            assert peak / qfi == pytest.approx(ratio, rel=1e-12)


class TestCouplingArrays:
    """A ModelParams with an array of couplings goes through the same code as
    one coupling at a time, on both sides of g_c."""

    @given(lam=lam_strategy, fracs=st.lists(st.floats(0.0, 3.0), max_size=10),
           t=st.floats(0.0, 1000.0))
    @settings(max_examples=150)
    def test_array_calls_match_scalar_calls(self, lam, fracs, t):
        gc = np.sqrt(1 + 4 * lam)
        gs = np.array([0.5, 1.5] + fracs) * gc  # always crosses g_c
        scalars = [params(g, lam=lam) for g in gs]
        assume(all(oscillator_frame(p, *REGIMES).regime is not Regime.CRITICAL for p in scalars))
        p = params(gs, lam=lam)
        frame = oscillator_frame(p)
        frames = [oscillator_frame(q) for q in scalars]
        for field in ("epsilon_g", "stiffness", "dstiffness_dg", "epsilon"):
            np.testing.assert_allclose(getattr(frame, field),
                                       [getattr(f, field) for f in frames], rtol=1e-15, atol=0)
        assert list(frame.regime) == [f.regime for f in frames]
        np.testing.assert_allclose(var_n(p), [var_n(q) for q in scalars], rtol=1e-15, atol=0)
        np.testing.assert_allclose(qfi_g(p, t), [qfi_g(q, t) for q in scalars],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(x_mean(p, t), [x_mean(q, t) for q in scalars],
                                   rtol=1e-15, atol=0)

    def test_lam_pairs_match_scalar_calls(self):
        # lam paired with g entry by entry, across rows of lam and both sides of g_c
        lam = np.repeat([-0.2475, 0.0, 0.5], 3)
        g = np.sqrt(1 + 4 * lam) * np.tile([0.4, 0.95, 1.6], 3)
        t = 300.0
        p = params(g, lam=lam)
        points = [params(float(a), lam=float(b)) for a, b in zip(g, lam)]
        np.testing.assert_allclose(var_n(p), [var_n(q) for q in points], rtol=1e-15, atol=0)
        np.testing.assert_allclose(qfi_g(p, t), [qfi_g(q, t) for q in points],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(x_mean(p, t), [x_mean(q, t) for q in points],
                                   rtol=1e-15, atol=0)

    def test_couplings_are_read_only_and_frames_repeat(self):
        gs = np.array([0.2, 0.4])
        p = params(gs)
        gs[0] = 5.0
        assert p.g.tolist() == [0.2, 0.4]
        assert not p.g.flags.writeable
        first, second = oscillator_frame(p), oscillator_frame(p)
        for name in ("stiffness", "dstiffness_dg", "epsilon"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    @pytest.mark.parametrize("g", [[0.2, -0.1], [0.2, np.inf], [[0.2, 0.4]]])
    def test_every_coupling_is_validated(self, g):
        with pytest.raises(InvalidParams) as err:
            params(g)
        assert err.value.field == "g"

    def test_critical_point_in_the_array_raises(self):
        with pytest.raises(RegimeError):
            oscillator_frame(params([0.5, 1.0]))
        with pytest.raises(RegimeError):
            x_deriv_g(params([0.5, 1.5]), 1.0)  # normal-only formula, one point past g_c


#: qfi_g, var_n and ig_fg_ratio over couplings on both sides of g_c, as bytes
_KERNEL_PROBE = """
import numpy as np
from cqm import ModelParams, ig_fg_ratio, qfi_g, var_n
g = np.concatenate([np.linspace(0.02, 0.98, 97), np.linspace(1.02, 1.5, 49)])
lam = np.repeat([0.0, -0.2, 0.1], 49)[:g.size]  # g_c = 1, 0.447 and 1.183
both = ModelParams(1.0, 1e4, g, lam)
normal = ModelParams(1.0, 1e4, g[:97], 0.0)
t = np.linspace(0.0, 1000.0, 7)[:, None]
values = (qfi_g(both, t), var_n(both), ig_fg_ratio(normal))
data = b"".join(np.ascontiguousarray(v).tobytes() for v in values)
"""


class TestBlasKernel:
    def test_closed_forms_do_not_depend_on_the_blas_kernel(self):
        # the same code here and under Prescott, OpenBLAS's generic x86-64
        # kernel, which every such CPU can run: a BLAS product in these forms
        # would let the kernel (with FMA or without) choose their last bits
        here = {}
        exec(_KERNEL_PROBE, here)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = _KERNEL_PROBE + "import sys; sys.stdout.buffer.write(data)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        assert len(here["data"]) == (7 * 146 + 146 + 97) * 8
        assert done.stdout == here["data"]
