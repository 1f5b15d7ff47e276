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
    lambda_for_target_critical,
    oscillator_frame,
    validate,
)
from cqm.model import REGIMES

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

    @pytest.mark.parametrize("g,lam,field", [
        (1e308, 0.0, "g"), ([0.5, 1.4e154], 0.0, "g"), (np.float64(1e308), 0.0, "g"),
        (0.5, 1e308, "lam"), ([0.5, 0.6], [0.0, 4.5e307], "lam"), (0.5, np.float64(1e308), "lam"),
    ])
    def test_overflowing_frame_products_rejected(self, g, lam, field):
        # omega*g^2 and 4*omega*(omega + 4*lam) are the frame's first products:
        # they overflowed there, and the warning filter decided the outcome
        with pytest.raises(InvalidParams) as err:
            params(g, lam=lam)
        assert err.value.field == field
        params(1.3e154)  # omega*g^2 = 1.69e308 still fits


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


class TestArrayLam:
    def test_paired_arrays_are_accepted(self):
        p = ModelParams(1.0, 1e4, [0.2, 0.3], [0.1, -0.2])
        got = critical_coupling(p)
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert got.tolist() == [critical_coupling(params(g, lam=lam))
                                for g, lam in ((0.2, 0.1), (0.3, -0.2))]

    def test_scalar_calls_return_python_floats(self):
        assert type(critical_coupling(params(0.5, lam=0.1))) is float
        assert type(critical_coupling(params(0.5, lam=np.float64(0.1)))) is float

    def test_every_entry_equals_math_bit_for_bit(self):
        # np.sqrt rounds as math.sqrt does
        rng = np.random.default_rng(3)
        lams = np.concatenate((rng.uniform(-0.2499, 3.0, 9_000),
                               rng.uniform(-1e-4, 1e-4, 1_000)))
        p = ModelParams(1.0, 1e4, np.zeros_like(lams), lams)
        for lam, gc in zip(lams.tolist(), critical_coupling(p).tolist()):
            assert gc == math.sqrt(1.0 + 4.0 * lam) == critical_coupling(params(0.0, lam=lam))


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
    def test_plain_normal_point(self):
        frame = oscillator_frame(params(0.9))
        assert frame.omega_bar == 1.0
        assert frame.epsilon_g == pytest.approx(0.19, rel=1e-14)
        assert frame.epsilon == pytest.approx(0.76, rel=1e-14)
        assert frame.regime is Regime.NORMAL

    def test_critical_point(self):
        # asked for, the critical line is a frame of zero stiffness and gap
        frame = oscillator_frame(params(1.0), *REGIMES)
        assert frame.epsilon_g == frame.stiffness == frame.epsilon == 0.0
        assert frame.regime is Regime.CRITICAL

    def test_tuned_near_critical_point(self):
        frame = oscillator_frame(params(0.099, lam=-0.2475))
        assert frame.epsilon_g == pytest.approx(0.0199, rel=1e-12)
        assert frame.epsilon == pytest.approx(4 * 0.01 * 0.0199, rel=1e-12)

    def test_superradiant_classification(self):
        assert oscillator_frame(params(1.2)).regime is Regime.SUPERRADIANT

    def test_stiffness_is_epsilon_g_up_to_g_c(self):
        # bit for bit, in the normal regime and on the critical line
        for g, lam in ((0.3, -0.2), (0.9, 0.0), (0.099, -0.2475), (1.0, 0.0),
                       (float(np.sqrt(1.0 - 5e-13)), 0.0)):
            frame = oscillator_frame(params(g, lam=lam), *REGIMES)
            assert frame.regime is not Regime.SUPERRADIANT
            assert frame.stiffness == frame.epsilon_g

    @given(g=couplings, lam=lams)
    @settings(max_examples=200)
    def test_gap_identity(self, g, lam):
        frame = oscillator_frame(params(g, lam=lam), *REGIMES)
        assert frame.epsilon == pytest.approx(
            4.0 * frame.omega_bar**2 * frame.stiffness, rel=1e-13, abs=1e-15
        )

    @given(lam=lams)
    def test_stiffness_vanishes_at_the_critical_coupling(self, lam):
        p = params(0.0, lam=lam)
        frame = oscillator_frame(params(critical_coupling(p), lam=lam), *REGIMES)
        assert abs(frame.epsilon_g) < 1e-14

    @given(lam=lams, a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95))
    @example(lam=0.0, a=0.05, b=0.05000000000000001)  # both round to 0.9975
    @settings(max_examples=100)
    def test_stiffness_strictly_decreasing_in_g(self, lam, a, b):
        # Couplings a few ulp apart can round to the same epsilon_g in
        # binary64, so the decrease is strict only beyond 1e-12*g_c.
        gc = critical_coupling(params(0.0, lam=lam))
        g1, g2 = sorted((a * gc, b * gc))
        e1 = oscillator_frame(params(g1, lam=lam)).epsilon_g
        e2 = oscillator_frame(params(g2, lam=lam)).epsilon_g
        assert e2 <= e1
        if g2 - g1 > 1e-12 * gc:
            assert e2 < e1

    def test_superradiant_side_is_the_alpha_frame(self):
        # epsilon_g_alpha = 1 - (g_c/g)^4 past g_c
        p = params(1.2, lam=0.1)
        frame = oscillator_frame(p)
        assert frame.stiffness == pytest.approx(1 - (1.4 / 1.44) ** 2, rel=1e-13)
        assert frame.epsilon == pytest.approx(4 * 1.4 * frame.stiffness, rel=1e-13)
        assert frame.omega_bar == np.sqrt(1.0 + 4.0 * 0.1)
        assert frame.regime is Regime.SUPERRADIANT

    def test_critical_line_raises(self):
        with pytest.raises(RegimeError, match="^epsilon_g = 0.0 "):
            oscillator_frame(params(1.0))
        with pytest.raises(RegimeError):
            oscillator_frame(params(critical_coupling(params(0.0, lam=-0.2)), lam=-0.2))

    @pytest.mark.parametrize("g,allowed,refused", [
        (0.5, (Regime.CRITICAL, Regime.SUPERRADIANT), Regime.NORMAL),
        (1.0, (Regime.NORMAL, Regime.SUPERRADIANT), Regime.CRITICAL),
        (1.5, (Regime.NORMAL,), Regime.SUPERRADIANT),
        (1.5, (Regime.NORMAL, Regime.CRITICAL), Regime.SUPERRADIANT),
    ])
    def test_only_the_regimes_asked_for(self, g, allowed, refused):
        # one guard: each coupling outside the regimes asked for is refused,
        # named by its epsilon_g and regime, and every one inside passes
        assert oscillator_frame(params(g), *REGIMES).regime is refused
        with pytest.raises(RegimeError, match=f"^epsilon_g = .* \\({refused.value}\\)"):
            oscillator_frame(params(g), *allowed)
        assert oscillator_frame(params(g), refused).regime is refused

    def test_an_array_names_its_first_refused_coupling(self):
        with pytest.raises(RegimeError, match=r"^epsilon_g = -1.25 \(superradiant\)"):
            oscillator_frame(params([0.5, 1.5, 1.0]), Regime.NORMAL)

    @pytest.mark.parametrize("g,lam", [(0.3, 0.0), (0.099, -0.2475), (0.9, 0.5),
                                       (1.2, 0.0), (0.2, -0.2475), (3.0, 0.5)])
    def test_stiffness_derivative_against_centered_difference(self, g, lam):
        # covers both sides of g_c (g_c = 1, 0.1, sqrt(3) for these lam)
        h = 1e-6 * g
        fd = (oscillator_frame(params(g + h, lam=lam)).stiffness
              - oscillator_frame(params(g - h, lam=lam)).stiffness) / (2 * h)
        assert oscillator_frame(params(g, lam=lam)).dstiffness_dg == pytest.approx(fd, rel=1e-7)


class TestLamArrays:
    """lam as a 1-D array, paired entry by entry with an array of couplings."""

    @pytest.mark.parametrize("lam,g", [
        ([0.1, np.nan], [0.2, 0.3]),
        ([0.1, np.inf], [0.2, 0.3]),
        ([-np.inf, 0.1], [0.2, 0.3]),
        ([0.1, -0.25], [0.2, 0.3]),  # 1 + 4*lam/omega == 0
        ([-0.3, 0.1], [0.2, 0.3]),  # 1 + 4*lam/omega < 0
        ([[0.1, 0.2]], [0.2, 0.3]),  # 2-D
        ([0.1, 0.2, 0.3], [0.2, 0.3]),  # shape differs from g's
        ([0.1, 0.2], 0.3),  # an array of lam needs an array of g
    ])
    def test_bad_lam_arrays_raise(self, lam, g):
        with pytest.raises(InvalidParams) as err:
            params(g, lam=lam)
        assert err.value.field == "lam"

    def test_pairs_match_scalar_calls(self):
        # four lam rows, each with couplings on both sides of its g_c, and
        # two points on the critical line
        lam = np.append(np.repeat([-0.2475, -0.1, 0.0, 0.5], 4), [0.0, 0.5])
        g = np.sqrt(1 + 4 * lam) * np.append(np.tile([0.3, 0.9, 1.1, 2.0], 4), [1.0, 1.0])
        frame = oscillator_frame(params(g, lam=lam), *REGIMES)
        frames = [oscillator_frame(params(float(a), lam=float(b)), *REGIMES)
                  for a, b in zip(g, lam)]
        for field in ("omega_bar", "epsilon_g", "stiffness", "dstiffness_dg", "epsilon"):
            np.testing.assert_allclose(getattr(frame, field), [getattr(f, field) for f in frames],
                                       rtol=1e-15, atol=0)
        assert list(frame.regime) == [f.regime for f in frames]
        assert list(frame.regime[-2:]) == [Regime.CRITICAL] * 2

    def test_lam_is_a_read_only_copy(self):
        lam = np.array([0.1, -0.2])
        p = params([0.2, 0.3], lam=lam)
        lam[0] = 5.0
        assert p.lam.tolist() == [0.1, -0.2]
        assert not p.lam.flags.writeable

    def test_scalar_calls_return_python_floats(self):
        for g in (0.3, 1.2):
            frame = oscillator_frame(params(g, lam=-0.2))
            for value in (frame.omega_bar, frame.epsilon_g, frame.stiffness,
                          frame.dstiffness_dg, frame.epsilon):
                assert type(value) is float
