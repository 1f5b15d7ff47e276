"""Damped quadrature-moment dynamics of the effective oscillator.

A mode decaying at gamma_a and heated at gamma_h under the effective
oscillator Hamiltonian closes on five expectation values
(<X>, <P>, <X^2>, <P^2>, <G>) with G = XP + PX.  This module carries the
coupled linear moment equations, their exact propagation on a time grid
(used as an independent check), and the explicit solutions for <X>_t,
d<X>_t/dg, (Delta X)^2_t and the dissipative inverted variance.  The
explicit solutions hold in the normal regime and read the same oscillator
frame (stiffness s, ds/dg, gap epsilon) as the closed_form module, through
its normal-regime guard; the moment equations read effective_oscillator,
so they also hold on the critical line.  Every closed form reduces
pointwise to its unitary counterpart at gamma_a = gamma_h = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParams
from .closed_form import _normal_frame, sin_minus_x_cos_over_x3, x_deriv_g, x_mean
from .model import ModelParams, OscillatorFrame, effective_oscillator


@dataclass(frozen=True)
class DecayRates:
    """Decay rate gamma_a and heating rate gamma_h (both >= 0).

    gamma_minus = gamma_a - gamma_h sets the damping envelope; the closed
    forms below additionally require gamma_minus >= 0 (net damping).
    """

    gamma_a: float
    gamma_h: float = 0.0

    def __post_init__(self):
        if self.gamma_a < 0:
            raise InvalidParams("gamma_a", f"must be >= 0, got {self.gamma_a}")
        if self.gamma_h < 0:
            raise InvalidParams("gamma_h", f"must be >= 0, got {self.gamma_h}")

    @property
    def gamma_plus(self) -> float:
        return self.gamma_a + self.gamma_h

    @property
    def gamma_minus(self) -> float:
        return self.gamma_a - self.gamma_h

    @classmethod
    def from_plus_minus(cls, gamma_plus: float, gamma_minus: float) -> "DecayRates":
        return cls(0.5 * (gamma_plus + gamma_minus), 0.5 * (gamma_plus - gamma_minus))


NO_DECAY = DecayRates(0.0, 0.0)


@dataclass(frozen=True)
class MomentVector:
    """(<X>, <P>, <X^2>, <P^2>, <G>) with G = XP + PX."""

    x: float
    p: float
    xx: float
    pp: float
    gg: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.p, self.xx, self.pp, self.gg], dtype=float)

    @classmethod
    def from_array(cls, values) -> "MomentVector":
        return cls(*(float(v) for v in values))

    def g_tilde(self) -> float:
        """Covariance combination <G> - 2<X><P>."""
        return self.gg - 2.0 * self.x * self.p

    def is_physical(self, tol: float = 1e-8) -> bool:
        """Positivity of both variances and the uncertainty product

        (Delta X)^2 (Delta P)^2 - (G_tilde/2)^2 >= 1/4, up to ``tol`` slack.
        """
        vx = self.xx - self.x * self.x
        vp = self.pp - self.p * self.p
        if vx < -1e-10 or vp < -1e-10:
            return False
        return vx * vp - 0.25 * self.g_tilde() ** 2 >= 0.25 * (1.0 - tol)


#: Moments of the reference state (|0> + i|1>)/sqrt(2).
REFERENCE_STATE_MOMENTS = MomentVector(0.0, 1.0 / np.sqrt(2.0), 1.0, 1.0, 0.0)


def moment_rhs(m: MomentVector, params: ModelParams, rates: DecayRates) -> MomentVector:
    """Time derivative of the five moments under damped oscillator flow:

        d<X>   = wbar*<P> - gamma_-/2*<X>
        d<P>   = -eps/(4*wbar)*<X> - gamma_-/2*<P>
        d<X^2> = -gamma_-*<X^2> + wbar*<G> + gamma_+/2
        d<P^2> = -gamma_-*<P^2> - eps/(4*wbar)*<G> + gamma_+/2
        d<G>   = -gamma_-*<G> + 2*wbar*<P^2> - eps/(2*wbar)*<X^2>
    """
    eff = effective_oscillator(params)
    wbar, eps = eff.omega_bar, eff.epsilon
    gm, gp = rates.gamma_minus, rates.gamma_plus
    return MomentVector(
        x=wbar * m.p - 0.5 * gm * m.x,
        p=-eps / (4.0 * wbar) * m.x - 0.5 * gm * m.p,
        xx=-gm * m.xx + wbar * m.gg + 0.5 * gp,
        pp=-gm * m.pp - eps / (4.0 * wbar) * m.gg + 0.5 * gp,
        gg=-gm * m.gg + 2.0 * wbar * m.pp - eps / (2.0 * wbar) * m.xx,
    )


@dataclass(frozen=True)
class TimeSeries:
    """Moment trajectory on a grid; values has one row per time."""

    t: np.ndarray
    values: np.ndarray

    def moment(self, name: str) -> np.ndarray:
        return self.values[:, ("x", "p", "xx", "pp", "gg").index(name)]

    def x_variance(self) -> np.ndarray:
        return self.moment("xx") - self.moment("x") ** 2


def _augmented_generator(params: ModelParams, rates: DecayRates) -> np.ndarray:
    """[[A, b], [0, 0]] of dm/dt = A*m + b: b = rhs(0), column j of A = rhs(e_j) - b."""
    def rhs(m: np.ndarray) -> np.ndarray:
        return moment_rhs(MomentVector.from_array(m), params, rates).as_array()

    gen = np.zeros((6, 6))
    gen[:5, 5] = rhs(np.zeros(5))
    for j, e in enumerate(np.eye(5)):
        gen[:5, j] = rhs(e) - gen[:5, 5]
    return gen


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in the stack ``a`` by scaling and squaring a
    Taylor series.  No eigendecomposition: the moment generator is singular
    at gamma_- = 0 and defective on the critical line (epsilon = 0)."""
    norm = np.abs(a).sum(axis=-1).max()
    squarings = max(0, int(np.frexp(norm)[1]) + 1)  # scaled norm < 1/2
    a = a / 2.0**squarings
    term = out = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    for k in range(1, 17):  # remainder < 2^-17/17! ~ 2e-20
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def integrate_moments(
    m0: MomentVector,
    params: ModelParams,
    rates: DecayRates,
    t_grid: Sequence[float],
) -> TimeSeries:
    """The moments on ``t_grid`` from ``m0`` at t_grid[0].  A and b are constant,
    so each grid step is exact: (m, 1) is multiplied by exp([[A, b], [0, 0]]*dt)."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or len(ts) < 2 or np.any(np.diff(ts) <= 0):
        raise InvalidParams("t_grid", "need a strictly increasing grid")
    steps = _expm(_augmented_generator(params, rates) * np.diff(ts)[:, None, None])
    out = np.empty((len(ts), 6))
    out[0] = [*m0.as_array(), 1.0]
    for i, step in enumerate(steps):
        out[i + 1] = step @ out[i]
    return TimeSeries(ts, out[:, :5])


# ----------------------------------------------------------------------
# explicit dissipative solutions
# ----------------------------------------------------------------------

def _damped_frame(params: ModelParams, rates: DecayRates) -> OscillatorFrame:
    """The normal-regime oscillator frame, once the rates are net damping."""
    if rates.gamma_minus < 0:
        raise InvalidParams(
            "rates", "closed forms require net damping (gamma_a >= gamma_h)"
        )
    return _normal_frame(params)


def x_mean_dissipative(params: ModelParams, rates: DecayRates, t):
    """<X>_t with damping: the unitary result times exp(-gamma_-*t/2)."""
    _damped_frame(params, rates)
    t = np.asarray(t, dtype=float)
    out = x_mean(params, t) * np.exp(-0.5 * rates.gamma_minus * t)
    return out if out.ndim else float(out)


def x_deriv_g_dissipative(params: ModelParams, rates: DecayRates, t):
    """d<X>_t/dg with damping; the rates carry no g dependence."""
    _damped_frame(params, rates)
    t = np.asarray(t, dtype=float)
    out = x_deriv_g(params, t) * np.exp(-0.5 * rates.gamma_minus * t)
    return out if out.ndim else float(out)


def _expm1_over(gamma_minus: float, t: np.ndarray) -> np.ndarray:
    """(exp(gamma_-*t) - 1)/gamma_-, with the gamma_- -> 0 series fallback."""
    gt = gamma_minus * t
    small = np.abs(gt) < 1e-6
    safe = np.where(small, 1.0, gamma_minus)
    return np.where(small, t * (1.0 + 0.5 * gt), np.expm1(gt) / safe)


def _variance_braces(frame: OscillatorFrame, rates: DecayRates, t: np.ndarray) -> np.ndarray:
    """The braced combination whose damped quarter is (Delta X)^2_t:

    2 + 1/s + gm*gp*(eps - 4*wbar^2)/(eps*(gm^2 + eps))
    + gp*(2*gm^2 + eps + 4*wbar^2)/(gm^2 + eps) * (e^(gm*t) - 1)/gm
    + [2 - 1/s - (eps - 4*wbar^2)*gp*gm/(eps*(gm^2 + eps))]*cos(sqrt(eps)*t)
    - sqrt(eps)*(1/s - 1)*gp/(gm^2 + eps)*sin(sqrt(eps)*t)
    """
    s, epsilon, wbar = frame.stiffness, frame.epsilon, frame.omega_bar
    gm, gp = rates.gamma_minus, rates.gamma_plus
    w2 = wbar * wbar
    den = gm * gm + epsilon
    root = np.sqrt(epsilon)
    const = 2.0 + 1.0 / s + gm * gp * (epsilon - 4.0 * w2) / (epsilon * den)
    relax = gp * (2.0 * gm * gm + epsilon + 4.0 * w2) / den * _expm1_over(gm, t)
    cos_c = 2.0 - 1.0 / s - (epsilon - 4.0 * w2) * gp * gm / (epsilon * den)
    sin_c = root * (1.0 / s - 1.0) * gp / den
    return const + relax + cos_c * np.cos(root * t) - sin_c * np.sin(root * t)


def x_variance_dissipative(params: ModelParams, rates: DecayRates, t):
    """(Delta X)^2_t under damping: braces/4 * exp(-gamma_-*t).

    The transcription is pinned by three independent gates: it equals 1 at
    t = 0, collapses to the unitary variance at gamma_+ = gamma_- = 0, and
    tracks the exactly propagated moment equations at finite rates.
    """
    frame = _damped_frame(params, rates)
    t = np.asarray(t, dtype=float)
    out = 0.25 * _variance_braces(frame, rates, t) * np.exp(-rates.gamma_minus * t)
    return out if out.ndim else float(out)


def inverted_variance_dissipative(params: ModelParams, rates: DecayRates, t):
    """I_g(t) = (d<X>_t/dg)^2 / (Delta X)^2_t in the damped dynamics:

    (ds/dg)^2 * [sin(y) - y*cos(y)]^2 / (2*s^3 * braces),  y = sqrt(eps)*t/2;

    the damping envelopes of numerator and denominator cancel, leaving only
    the braces' relaxation terms to lower the late peaks.
    """
    frame = _damped_frame(params, rates)
    t = np.asarray(t, dtype=float)
    y = 0.5 * np.sqrt(frame.epsilon) * t
    bracket = sin_minus_x_cos_over_x3(y) * y**3
    braces = _variance_braces(frame, rates, t)
    out = frame.dstiffness_dg**2 * bracket**2 / (2.0 * frame.stiffness**3 * braces)
    return out if out.ndim else float(out)
