import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqm import (
    InvalidParams,
    ModelParams,
    Regime,
    RegimeError,
    critical_coupling,
    effective_oscillator,
    lambda_for_target_critical,
    oscillator_frame,
    squeeze_parameter,
    validate,
)

OMEGA_Q = 1000.0


def params(g, lam=0.0, omega=1.0, Omega=OMEGA_Q):
    return ModelParams(omega=omega, Omega=Omega, g=g, lam=lam)


# strategies bounded to the validated parameter region
lams = st.floats(min_value=-0.2475, max_value=2.0)
couplings = st.floats(min_value=0.0, max_value=2.0)


class TestValidate:
    def test_plain_params_pass(self):
        p = params(0.5)
        assert validate(p) is p

    def test_squeeze_boundary_rejected(self):
        with pytest.raises(InvalidParams):
            params(0.5, lam=-0.25)  # 1 + 4*lam/omega == 0

    def test_tuned_weak_coupling_point_valid(self):
        validate(params(0.1, lam=-0.2475))

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(omega=0.0, Omega=1.0, g=0.1), "omega"),
            (dict(omega=1.0, Omega=-2.0, g=0.1), "Omega"),
            (dict(omega=1.0, Omega=1.0, g=-0.1), "g"),
            (dict(omega=math.inf, Omega=1.0, g=0.1), "omega"),
            (dict(omega=1.0, Omega=math.inf, g=0.1), "Omega"),
            (dict(omega=1.0, Omega=1.0, g=math.inf), "g"),
            (dict(omega=1.0, Omega=1.0, g=0.1, lam=math.inf), "lam"),
        ],
    )
    def test_each_field_checked(self, kwargs, field):
        with pytest.raises(InvalidParams) as err:
            ModelParams(**kwargs)
        assert err.value.field == field


class TestSqueezeParameter:
    def test_zero_without_quadratic_term(self):
        assert squeeze_parameter(params(0.5)) == 0.0

    def test_tuned_value(self):
        # 0.25 * ln(0.01), evaluated independently
        expected = 0.25 * math.log(0.01)
        assert squeeze_parameter(params(0.1, lam=-0.2475)) == pytest.approx(
            expected, rel=1e-13
        )

    def test_positive_quadratic_term(self):
        expected = 0.25 * math.log(4.0)
        assert squeeze_parameter(params(0.5, lam=0.75)) == pytest.approx(
            expected, rel=1e-13
        )

    @given(lam=st.floats(min_value=-0.24, max_value=2.0))
    def test_increasing_in_lam_and_zero_at_zero(self, lam):
        r = squeeze_parameter(params(0.5, lam=lam))
        if lam > 0:
            assert r > 0
        elif lam < 0:
            assert r < 0
        else:
            assert r == 0.0


class TestCriticalCoupling:
    def test_unmodified_model(self):
        assert critical_coupling(params(0.5)) == 1.0

    def test_tuned_to_weak_coupling(self):
        assert abs(critical_coupling(params(0.1, lam=-0.2475)) - 0.1) <= 1e-12

    def test_sqrt_fifth(self):
        assert critical_coupling(params(0.3, lam=-0.2)) == pytest.approx(
            0.4472135954999579, rel=1e-14
        )

    def test_target_tuning_examples(self):
        assert lambda_for_target_critical(1.0, 1.0) == 0.0
        assert lambda_for_target_critical(0.1, 1.0) == pytest.approx(-0.2475, abs=1e-15)
        assert lambda_for_target_critical(0.4472135954999579, 1.0) == pytest.approx(
            -0.2, rel=1e-12
        )

    def test_target_must_be_positive(self):
        with pytest.raises(InvalidParams):
            lambda_for_target_critical(0.0, 1.0)

    @given(g=st.floats(min_value=1e-3, max_value=2.0))
    @settings(max_examples=200)
    def test_round_trip(self, g):
        lam = lambda_for_target_critical(g, 1.0)
        assert abs(critical_coupling(params(0.0, lam=lam)) - g) <= 1e-12


class TestEffectiveOscillator:
    def test_plain_normal_point(self):
        eff = effective_oscillator(params(0.9))
        assert eff.omega_bar == 1.0
        assert eff.epsilon_g == pytest.approx(0.19, rel=1e-14)
        assert eff.epsilon == pytest.approx(0.76, rel=1e-14)
        assert eff.regime is Regime.NORMAL

    def test_critical_point(self):
        eff = effective_oscillator(params(1.0))
        assert eff.epsilon_g == 0.0
        assert eff.regime is Regime.CRITICAL

    def test_tuned_near_critical_point(self):
        eff = effective_oscillator(params(0.099, lam=-0.2475))
        assert eff.epsilon_g == pytest.approx(0.0199, rel=1e-12)
        assert eff.epsilon == pytest.approx(4 * 0.01 * 0.0199, rel=1e-12)

    def test_superradiant_classification(self):
        assert effective_oscillator(params(1.2)).regime is Regime.SUPERRADIANT

    @given(g=couplings, lam=lams)
    @settings(max_examples=200)
    def test_gap_identity(self, g, lam):
        eff = effective_oscillator(params(g, lam=lam))
        assert eff.epsilon == pytest.approx(
            4.0 * eff.omega_bar**2 * eff.epsilon_g, rel=1e-13, abs=1e-15
        )

    @given(lam=lams)
    def test_stiffness_vanishes_at_the_critical_coupling(self, lam):
        p = params(0.0, lam=lam)
        eff = effective_oscillator(params(critical_coupling(p), lam=lam))
        assert abs(eff.epsilon_g) < 1e-14

    @given(lam=lams, a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95))
    @example(lam=0.0, a=0.05, b=0.05000000000000001)  # both round to 0.9975
    @settings(max_examples=100)
    def test_stiffness_strictly_decreasing_in_g(self, lam, a, b):
        # Couplings a few ulp apart can round to the same epsilon_g in
        # binary64, so the decrease is strict only beyond 1e-12*g_c.
        gc = critical_coupling(params(0.0, lam=lam))
        g1, g2 = sorted((a * gc, b * gc))
        e1 = effective_oscillator(params(g1, lam=lam)).epsilon_g
        e2 = effective_oscillator(params(g2, lam=lam)).epsilon_g
        assert e2 <= e1
        if g2 - g1 > 1e-12 * gc:
            assert e2 < e1


class TestBeyondCriticalFrame:
    """The superradiant side of oscillator_frame: stiffness epsilon_g_alpha."""

    def test_reference_stiffness(self):
        frame = oscillator_frame(params(1.2))
        assert frame.regime is Regime.SUPERRADIANT
        assert frame.stiffness == pytest.approx(0.5177469135802469, rel=1e-13)
        assert 0 < frame.stiffness < 1

    def test_boundary_raises(self):
        # the alpha frame starts strictly past g_c: the critical line has no
        # oscillator, and below it the frame is the normal one
        with pytest.raises(RegimeError):
            oscillator_frame(params(1.0))
        assert oscillator_frame(params(0.9)).regime is Regime.NORMAL

    def test_deep_coupling_limit(self):
        frame = oscillator_frame(params(1e6))
        assert frame.stiffness == pytest.approx(1.0, abs=1e-12)

    def test_gap_closes_from_above(self):
        gc = 1.0
        frame = oscillator_frame(params(gc * (1 + 1e-8)))
        assert frame.regime is Regime.SUPERRADIANT
        assert 0 < frame.stiffness < 1e-6

    @given(lam=lams, step=st.floats(1.01, 3.0))
    @settings(max_examples=100)
    def test_epsilon_alpha_consistent(self, lam, step):
        p0 = params(0.0, lam=lam)
        g = critical_coupling(p0) * step
        frame = oscillator_frame(params(g, lam=lam))
        assert 0 < frame.stiffness < 1
        assert frame.epsilon == pytest.approx(
            4.0 * (1.0 + 4.0 * lam) * frame.stiffness, rel=1e-12
        )


class TestOscillatorFrame:
    def test_normal_side_is_the_effective_oscillator(self):
        p = params(0.3, lam=-0.2)
        frame, eff = oscillator_frame(p), effective_oscillator(p)
        assert (frame.omega_bar, frame.stiffness, frame.epsilon, frame.regime) == (
            eff.omega_bar, eff.epsilon_g, eff.epsilon, eff.regime)

    def test_superradiant_side_is_the_alpha_frame(self):
        # epsilon_g_alpha = 1 - (g_c/g)^4 past g_c
        p = params(1.2, lam=0.1)
        frame = oscillator_frame(p)
        assert frame.stiffness == pytest.approx(1 - (1.4 / 1.44) ** 2, rel=1e-13)
        assert frame.epsilon == pytest.approx(4 * 1.4 * frame.stiffness, rel=1e-13)
        assert frame.omega_bar == effective_oscillator(p).omega_bar

    def test_critical_line_raises(self):
        with pytest.raises(RegimeError):
            oscillator_frame(params(1.0))
        with pytest.raises(RegimeError):
            oscillator_frame(params(critical_coupling(params(0.0, lam=-0.2)), lam=-0.2))

    @pytest.mark.parametrize("g,lam", [(0.3, 0.0), (0.099, -0.2475), (0.9, 0.5),
                                       (1.2, 0.0), (0.2, -0.2475), (3.0, 0.5)])
    def test_stiffness_derivative_against_centered_difference(self, g, lam):
        # covers both sides of g_c (g_c = 1, 0.1, sqrt(3) for these lam)
        h = 1e-6 * g
        fd = (oscillator_frame(params(g + h, lam=lam)).stiffness
              - oscillator_frame(params(g - h, lam=lam)).stiffness) / (2 * h)
        assert oscillator_frame(params(g, lam=lam)).dstiffness_dg == pytest.approx(fd, rel=1e-7)
