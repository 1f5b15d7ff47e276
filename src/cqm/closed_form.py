"""Closed-form dynamics of the effective critical oscillator.

Everything here is an explicit function of (ModelParams, t): the dynamical
quantum Fisher information about g, the quadrature mean/derivative/variance,
and the inverted variance with its optimal measurement times and peak values.
Time arguments broadcast as numpy arrays, and so do couplings: a ModelParams
whose g is a 1-D array (and lam a number or an array paired with g) gives one
value per coupling, bit for bit the value of that g alone (t and the couplings
broadcast against each other by numpy's rules, so t[:, None] gives a
time-by-coupling grid).  The formulas raise nothing to a power, squares by
np.square and cubes as products, so neither libm's pow on a scalar nor numpy's
CPU-dispatched power on an array picks their bits: only +, -, *, /, sqrt, sin
and cos do, which round alike on both paths.

Every formula reads one parametrisation, model.oscillator_frame: the
stiffness s of (omega_bar/2)*(P^2 + s*X^2), its g-derivative ds/dg and the
squared gap epsilon.  x_mean, var_n and qfi_g hold on both sides of the
critical point (s = epsilon_g, or epsilon_g_alpha past g_c); the other
formulas are written for the normal regime and ask oscillator_frame for
Regime.NORMAL alone, so they raise past g_c and on the critical line.  Every
formula is written for the paper's one probe state, (|0> + i|1>)/sqrt(2)
(PROBE_AMPLITUDES), which enters the QFI only through Var[P^2 - s*X^2]
(_generator_variance).

The QFI expressions keep only the leading divergence ~ epsilon^-3 of the full
generator variance; they are asymptotics meant for sqrt(epsilon)*t of order
one near criticality, and their residual against the exact oracle shrinks as
epsilon_g -> 0 (see the fock module and the acceptance suite).  Everything
else (quadrature mean, variance, inverted variance) is exact for the
effective oscillator.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .model import ModelParams, Regime, oscillator_frame, _unwrap
from .model import effective_oscillator  # noqa: F401 (perfbench/selftest.py traces it here)

#: Below this argument, sin(x) - x and sin(x) - x*cos(x) switch to series.
_SERIES_CUT = 1e-4


# ----------------------------------------------------------------------
# the probe state
# ----------------------------------------------------------------------

#: Fock amplitudes of the paper's probe state (|0> + i|1>)/sqrt(2).
PROBE_AMPLITUDES = np.array([1.0, 1.0j]) / np.sqrt(2.0)
PROBE_AMPLITUDES.setflags(write=False)


def _generator_variance(stiffness):
    """Var[P^2 - s*X^2] over the probe, s = ``stiffness``: P^2 - s*X^2 = (1 - s)*(N + 1/2)
    - (1 + s)*(a^2 + a^dag^2)/2, Var[N] = 1/4, Var[(a^2 + a^dag^2)/2] = 1, and the two are
    uncorrelated.  Elementwise, so no BLAS kernel decides its bits, and by np.square: a
    float's ** 2 goes through libm's pow, which differs from x*x on ~0.1% of arguments."""
    return _unwrap(0.25 * np.square(1.0 - stiffness) + np.square(1.0 + stiffness))


# ----------------------------------------------------------------------
# numerically stable trig helpers
# ----------------------------------------------------------------------

def sin_minus_x(x):
    """sin(x) - x, by the series x^3*(-1/6 + x^2/120 - x^4/5040) below the cut.

    The naive difference loses all digits for small x; the two branches agree
    to better than 1e-6 at the crossover x = 1e-4.
    """
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = x2 * x * (-1.0 / 6.0 + x2 / 120.0 - x2 * x2 / 5040.0)
    return _unwrap(np.where(np.abs(x) < _SERIES_CUT, series, np.sin(x) - x))


def sin_minus_x_cos(x):
    """sin(x) - x*cos(x), by the series x^3*(1/3 - x^2/30 + x^4/840) below the cut."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = x2 * x * (1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0)
    return _unwrap(np.where(np.abs(x) < _SERIES_CUT, series, np.sin(x) - x * np.cos(x)))


# ----------------------------------------------------------------------
# variance of the divergence-scale generator term
# ----------------------------------------------------------------------

def var_n(params: ModelParams) -> float:
    """Variance of the generator's divergence-scale term over the probe.

    Equals omega_bar^6 * Var[P^2 - stiffness*X^2], with the stiffness
    epsilon_g (epsilon_g_alpha past g_c).
    """
    frame = oscillator_frame(params)
    w = frame.omega_bar
    return _unwrap(np.square(np.square(w) * w) * _generator_variance(frame.stiffness))


def ig_fg_ratio(params: ModelParams) -> float:
    """Asymptotic ratio of inverted-variance peaks to the QFI at those times.

    1 / (2 * Var[P^2 - epsilon_g*X^2]); independent of the peak index because
    both quantities grow as n^2.
    """
    return 1.0 / (2.0 * _generator_variance(oscillator_frame(params, Regime.NORMAL).stiffness))


# ----------------------------------------------------------------------
# QFI about g
# ----------------------------------------------------------------------

def qfi_g(params: ModelParams, t):
    """Leading-order dynamical QFI about g on either side of g_c, at ``t``.

    4*(dstiffness/dg)^2 * [sin(sqrt(eps)*t) - sqrt(eps)*t]^2 / eps^3 * var_n in
    the oscillator frame, through the stabilized series near criticality.
    Past g_c this is the displaced-frame oscillator's QFI, for a probe
    prepared in the frame of the very g being estimated.  A probe prepared
    independently of g gains a QFI that grows like Omega/omega instead: at
    lam = 0, g = 1.2 and a quarter period about 2.75*Omega/omega, 2.75e4 at
    Omega = 1e4, against the frame's 4.13.
    """
    frame = oscillator_frame(params)
    eps = frame.epsilon
    bracket = frame.dstiffness_dg * sin_minus_x(np.sqrt(eps) * np.asarray(t, dtype=float))
    # / eps before squaring: below eps ~ 1e-103, eps*eps*eps and the squared bracket are 0
    return _unwrap(4.0 * np.square(bracket / eps) / eps * var_n(params))


# ----------------------------------------------------------------------
# quadrature dynamics
# ----------------------------------------------------------------------

def x_mean(params: ModelParams, t):
    """<X>_t = sin(sqrt(eps)*t/2) / sqrt(2*stiffness), in the oscillator
    frame of either side of g_c.  Past g_c that is the displaced-frame
    oscillator's <X>, measured from the frame's displaced origin, for a probe
    prepared in the frame of the very g being estimated."""
    frame = oscillator_frame(params)
    t = np.asarray(t, dtype=float)
    return _unwrap(np.sin(0.5 * np.sqrt(frame.epsilon) * t) / np.sqrt(2.0 * frame.stiffness))


def x_deriv_g(params: ModelParams, t):
    """d<X>_t/dg through the stiffness only:

    -(sqrt(2)/4) * (ds/dg) * s^(-3/2) * [sin(y) - y*cos(y)],  y = sqrt(eps)*t/2.
    """
    frame = oscillator_frame(params, Regime.NORMAL)
    s = frame.stiffness
    y = 0.5 * np.sqrt(frame.epsilon) * np.asarray(t, dtype=float)
    pref = -np.sqrt(2.0) / 4.0 * frame.dstiffness_dg / (s * np.sqrt(s))
    return _unwrap(pref * sin_minus_x_cos(y))


def x_second_moment(params: ModelParams, t):
    """<X^2>_t = 1 + (1/s - 1) * sin^2(sqrt(eps)*t/2)."""
    frame = oscillator_frame(params, Regime.NORMAL)
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * np.sqrt(frame.epsilon) * t)
    return _unwrap(1.0 + (1.0 / frame.stiffness - 1.0) * s * s)


def x_variance(params: ModelParams, t):
    """(Delta X)^2_t = 1 + (1/(2*s) - 1) * sin^2(sqrt(eps)*t/2)."""
    frame = oscillator_frame(params, Regime.NORMAL)
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * np.sqrt(frame.epsilon) * t)
    return _unwrap(1.0 + (0.5 / frame.stiffness - 1.0) * s * s)


def inverted_variance(params: ModelParams, t):
    """I_g(t) = (d<X>_t/dg)^2 / (Delta X)^2_t, in its explicit form

    (ds/dg)^2 * [sin(y) - y*cos(y)]^2 / (4*s^3 * [2 + (1/s - 2)*sin^2(y)]),
    y = sqrt(eps)*t/2.
    """
    frame = oscillator_frame(params, Regime.NORMAL)
    y = 0.5 * np.sqrt(frame.epsilon) * np.asarray(t, dtype=float)
    s, sin_y = frame.stiffness, np.sin(y)
    denom = 2.0 + (1.0 / s - 2.0) * sin_y * sin_y
    return _unwrap(np.square(frame.dstiffness_dg * sin_minus_x_cos(y)) / (4.0 * s * s * s * denom))


def optimal_times(params: ModelParams, n_max: int) -> np.ndarray:
    """peak_time at every peak index n = 1..n_max; InvalidParams unless
    n_max is itself a peak index (peak_indices)."""
    return peak_time(params, np.arange(1, peak_indices(n_max).item() + 1))


def peak_indices(n) -> np.ndarray:
    """``n`` as an integer array; InvalidParams unless each is an integer in
    [1, 2**53), below which every integer is a float and none is rounded."""
    ns = np.atleast_1d(n).astype(float)
    if np.any(ns < 1) or np.any(ns >= 2.0**53) or np.any(ns != np.floor(ns)):
        raise InvalidParams("n", f"peak indices {ns.tolist()} must be integers in [1, 2**53)")
    return ns.astype(int)


def peak_time(params: ModelParams, n) -> float | np.ndarray:
    """Measurement time tau_n = 2*pi*n/sqrt(eps) of each peak index ``n``: the
    quadrature variance returns to its initial value there while the
    derivative keeps its secular growth, which maximizes I_g."""
    frame = oscillator_frame(params, Regime.NORMAL)
    return _unwrap(2.0 * np.pi * np.asarray(n, dtype=float) / np.sqrt(frame.epsilon))


def inverted_variance_peak(params: ModelParams, n) -> float | np.ndarray:
    """Peak value I_g(tau_n) = (n*pi*ds/dg)^2 / (8*s^3)."""
    frame = oscillator_frame(params, Regime.NORMAL)
    n, s = np.asarray(n, dtype=float), frame.stiffness
    return _unwrap(np.square(n * np.pi * frame.dstiffness_dg) / (8.0 * s * s * s))
