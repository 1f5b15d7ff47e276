"""Closed-form dynamics of the effective critical oscillator.

Everything here is an explicit function of (ModelParams, t): the dynamical
quantum Fisher information about g, the quadrature mean/derivative/variance,
and the inverted variance with its optimal measurement times and peak values.
Time arguments broadcast as numpy arrays.

Every formula reads one parametrisation, model.oscillator_frame: the
stiffness s of (omega_bar/2)*(P^2 + s*X^2), its g-derivative ds/dg and the
squared gap epsilon.  x_mean, var_n and qfi_g hold on both sides of the
critical point (s = epsilon_g, or epsilon_g_alpha past g_c); the other
formulas are written for the normal regime and go through one guard,
_normal_frame, which raises past g_c and on the critical line.  The initial
state enters only through the 2x2 covariance of N + 1/2 and
(a^2 + a^dag^2)/2, since P^2 - s*X^2 = (1 - s)*(N + 1/2) - (1 + s)*(a^2 +
a^dag^2)/2; it is exact for any state.

The QFI expressions keep only the leading divergence ~ epsilon^-3 of the full
generator variance; they are asymptotics meant for sqrt(epsilon)*t of order
one near criticality, and their residual against the exact oracle shrinks as
epsilon_g -> 0 (see the fock module and the acceptance suite).  Everything
else (quadrature mean, variance, inverted variance) is exact for the
effective oscillator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, RegimeError
from .model import (ModelParams, OscillatorFrame, Regime, effective_oscillator,
                    oscillator_frame)

#: Below this argument, sin(x) - x and sin(x) - x*cos(x) switch to series.
_SERIES_CUT = 1e-4


# ----------------------------------------------------------------------
# initial states
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BosonInitialState:
    """Complex amplitudes over the Fock basis |0..n_max>, normalized to 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise InvalidParams("amplitudes", f"norm {norm} != 1 beyond 1e-12")

    @property
    def n_max(self) -> int:
        return len(self.amplitudes) - 1

    @functools.cached_property
    def _covariance(self) -> np.ndarray:
        """Symmetrized 2x2 covariance of N + 1/2 and (a^2 + a^dag^2)/2.

        Both operators are applied as bands on the basis padded by two Fock
        slots, which holds a^dag^2 of the top slot, so the result is exact.
        """
        amps = np.append(self.amplitudes, [0.0, 0.0])
        n = np.arange(len(amps), dtype=float)
        root = np.sqrt(n[1:-1] * n[2:])  # <m|a^2|m+2> = sqrt((m+1)(m+2))
        squeeze = np.zeros_like(amps)
        squeeze[:-2] += 0.5 * root * amps[2:]
        squeeze[2:] += 0.5 * root * amps[:-2]
        ops = np.stack([(n + 0.5) * amps, squeeze])
        means = np.real(ops @ amps.conj())
        return np.real(ops.conj() @ ops.T) - np.outer(means, means)

    def generator_variance(self, stiffness: float) -> float:
        """Var[P^2 - stiffness*X^2] over the state, v.C.v with
        v = (1 - stiffness, -(1 + stiffness)) and C the covariance above."""
        v = np.array([1.0 - stiffness, -(1.0 + stiffness)])
        return float(v @ self._covariance @ v)


def default_initial_state(dim: int = 6) -> BosonInitialState:
    """The reference state (|0> + i|1>)/sqrt(2), zero-padded to ``dim``."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[1] = 1.0j / np.sqrt(2.0)
    return BosonInitialState(amps)


# ----------------------------------------------------------------------
# numerically stable trig helpers
# ----------------------------------------------------------------------

def sin_minus_x_over_x3(x):
    """(sin(x) - x)/x^3, series -1/6 + x^2/120 - x^4/5040 below the cut.

    The naive difference loses all digits for small x; the two branches agree
    to better than 1e-6 at the crossover x = 1e-4.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 1.0, x)  # keep the naive branch division safe
    naive = (np.sin(xs) - xs) / xs**3
    x2 = x * x
    series = -1.0 / 6.0 + x2 / 120.0 - x2 * x2 / 5040.0
    out = np.where(small, series, naive)
    return out if out.ndim else float(out)


def sin_minus_x_cos_over_x3(x):
    """(sin(x) - x*cos(x))/x^3, series 1/3 - x^2/30 + x^4/840 below the cut."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 1.0, x)
    naive = (np.sin(xs) - xs * np.cos(xs)) / xs**3
    x2 = x * x
    series = 1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0
    out = np.where(small, series, naive)
    return out if out.ndim else float(out)


def _normal_frame(params: ModelParams) -> OscillatorFrame:
    """oscillator_frame(params), with a RegimeError unless the regime is normal."""
    frame = oscillator_frame(params)  # raises on the critical line
    if frame.regime is not Regime.NORMAL:
        raise RegimeError(
            f"epsilon_g = {effective_oscillator(params).epsilon_g} ({frame.regime.value}): "
            "formulas for the normal regime do not apply (past g_c only x_mean, var_n "
            "and qfi_g do)"
        )
    return frame


# ----------------------------------------------------------------------
# variance of the divergence-scale generator term
# ----------------------------------------------------------------------

def var_n(state: BosonInitialState, params: ModelParams) -> float:
    """Variance of the generator's divergence-scale term over ``state``.

    Equals omega_bar^6 * Var[P^2 - stiffness*X^2], with the stiffness
    epsilon_g (epsilon_g_alpha past g_c).
    """
    frame = oscillator_frame(params)
    return frame.omega_bar**6 * state.generator_variance(frame.stiffness)


def ig_fg_ratio(state: BosonInitialState, params: ModelParams) -> float:
    """Asymptotic ratio of inverted-variance peaks to the QFI at those times.

    1 / (2 * Var[P^2 - epsilon_g*X^2]); independent of the peak index because
    both quantities grow as n^2.
    """
    return 1.0 / (2.0 * state.generator_variance(_normal_frame(params).stiffness))


# ----------------------------------------------------------------------
# QFI about g
# ----------------------------------------------------------------------

def qfi_g(params: ModelParams, t, var_n_value: float):
    """Leading-order dynamical QFI about g on either side of g_c, at ``t``.

    4*(dstiffness/dg)^2 * [sin(sqrt(eps)*t) - sqrt(eps)*t]^2 / eps^3 * Var[N] in
    the oscillator frame, through the stabilized series near criticality.
    """
    frame = oscillator_frame(params)
    t = np.asarray(t, dtype=float)
    x = np.sqrt(frame.epsilon) * t
    pref = 4.0 * frame.dstiffness_dg ** 2
    out = pref * (sin_minus_x_over_x3(x) * t**3) ** 2 * var_n_value
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# quadrature dynamics
# ----------------------------------------------------------------------

def x_mean(params: ModelParams, t):
    """<X>_t = sin(sqrt(eps)*t/2) / sqrt(2*stiffness), in the oscillator
    frame of either side of g_c."""
    frame = oscillator_frame(params)
    t = np.asarray(t, dtype=float)
    out = np.sin(0.5 * np.sqrt(frame.epsilon) * t) / np.sqrt(2.0 * frame.stiffness)
    return out if out.ndim else float(out)


def x_deriv_g(params: ModelParams, t):
    """d<X>_t/dg through the stiffness only:

    -(sqrt(2)/4) * (ds/dg) * s^(-3/2) * [sin(y) - y*cos(y)],  y = sqrt(eps)*t/2.
    """
    frame = _normal_frame(params)
    t = np.asarray(t, dtype=float)
    y = 0.5 * np.sqrt(frame.epsilon) * t
    pref = -np.sqrt(2.0) / 4.0 * frame.dstiffness_dg * frame.stiffness**-1.5
    out = pref * sin_minus_x_cos_over_x3(y) * y**3
    return out if out.ndim else float(out)


def x_second_moment(params: ModelParams, t):
    """<X^2>_t = 1 + (1/s - 1) * sin^2(sqrt(eps)*t/2)."""
    frame = _normal_frame(params)
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * np.sqrt(frame.epsilon) * t)
    out = 1.0 + (1.0 / frame.stiffness - 1.0) * s * s
    return out if out.ndim else float(out)


def x_variance(params: ModelParams, t):
    """(Delta X)^2_t = 1 + (1/(2*s) - 1) * sin^2(sqrt(eps)*t/2)."""
    frame = _normal_frame(params)
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * np.sqrt(frame.epsilon) * t)
    out = 1.0 + (0.5 / frame.stiffness - 1.0) * s * s
    return out if out.ndim else float(out)


def inverted_variance(params: ModelParams, t):
    """I_g(t) = (d<X>_t/dg)^2 / (Delta X)^2_t, in its explicit form

    (ds/dg)^2 * [sin(y) - y*cos(y)]^2 / (4*s^3 * [2 + (1/s - 2)*sin^2(y)]),
    y = sqrt(eps)*t/2.
    """
    frame = _normal_frame(params)
    t = np.asarray(t, dtype=float)
    y = 0.5 * np.sqrt(frame.epsilon) * t
    bracket = sin_minus_x_cos_over_x3(y) * y**3
    s = np.sin(y)
    denom = 2.0 + (1.0 / frame.stiffness - 2.0) * s * s
    out = frame.dstiffness_dg**2 * bracket**2 / (4.0 * frame.stiffness**3 * denom)
    return out if out.ndim else float(out)


def optimal_times(params: ModelParams, n_max: int) -> np.ndarray:
    """Measurement times tau_n = 2*pi*n/sqrt(eps), n = 1..n_max.

    The quadrature variance returns to its initial value there while the
    derivative keeps its secular growth, which maximizes I_g.
    """
    frame = _normal_frame(params)
    if n_max < 1:
        raise InvalidParams("n_max", f"must be >= 1, got {n_max}")
    return 2.0 * np.pi * np.arange(1, n_max + 1) / np.sqrt(frame.epsilon)


def inverted_variance_peak(params: ModelParams, n) -> float | np.ndarray:
    """Peak value I_g(tau_n) = (n*pi*ds/dg)^2 / (8*s^3)."""
    frame = _normal_frame(params)
    n = np.asarray(n, dtype=float)
    out = (n * np.pi * frame.dstiffness_dg) ** 2 / (8.0 * frame.stiffness**3)
    return out if out.ndim else float(out)
