"""Damped quadrature-moment dynamics of the effective oscillator.

A mode decaying at gamma_a and heated at gamma_h under the effective
oscillator Hamiltonian closes on five expectation values
m = (<X>, <P>, <X^2>, <P^2>, <G>) with G = XP + PX, held as arrays in that
order.  This module writes the coupled linear moment equations once, as
the augmented matrix of moment_generator, propagates them and their
g-derivatives exactly from the probe's moments at t = 0 onto a time grid
(integrate_moments, used as an independent check), and gives the explicit
solutions for <X>_t, d<X>_t/dg, (Delta X)^2_t and the dissipative inverted
variance at times >= 0.  Both read model.oscillator_frame (stiffness s,
ds/dg, gap epsilon): the explicit solutions for the normal regime alone, as
closed_form does, and the moment equations for every regime, so past g_c
they evolve the displaced-frame oscillator x_mean describes.  Every equation
reads the rates as gamma_+- = gamma_a +- gamma_h, as DecayRates holds them,
and every closed form reduces pointwise to its unitary counterpart at
gamma_+ = gamma_- = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParams
from .closed_form import sin_minus_x_cos_over_x3, x_deriv_g, x_mean
from .model import (REGIMES, ModelParams, OscillatorFrame, Regime, _one_point, _unwrap,
                    oscillator_frame)
from .model import effective_oscillator  # noqa: F401 (perfbench/selftest.py traces it here)


@dataclass(frozen=True, kw_only=True)
class DecayRates:
    """gamma_plus = gamma_a + gamma_h and gamma_minus = gamma_a - gamma_h of
    decay (gamma_a) and heating (gamma_h), exactly as given; valid when
    |gamma_minus| <= gamma_plus < inf (gamma_a, gamma_h >= 0).  gamma_minus sets
    the damping envelope; the closed forms also need gamma_minus >= 0."""

    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        if not abs(self.gamma_minus) <= self.gamma_plus < np.inf:  # NaN fails too
            raise InvalidParams("rates", "need finite rates with |gamma_minus| <= gamma_plus, "
                                         f"got {self.gamma_plus} and {self.gamma_minus}")


NO_DECAY = DecayRates(gamma_plus=0.0, gamma_minus=0.0)


#: Moments (<X>, <P>, <X^2>, <P^2>, <G>) of the reference state (|0> + i|1>)/sqrt(2).
REFERENCE_STATE_MOMENTS = np.array([0.0, 1.0 / np.sqrt(2.0), 1.0, 1.0, 0.0])
REFERENCE_STATE_MOMENTS.setflags(write=False)


def moment_generator(params: ModelParams, rates: DecayRates) -> np.ndarray:
    """[[A, b], [0, 0]] of dm/dt = A*m + b for m = (<X>, <P>, <X^2>, <P^2>, <G>),
    the five moment equations of damped oscillator flow:

        d<X>   = wbar*<P> - gamma_-/2*<X>
        d<P>   = -eps/(4*wbar)*<X> - gamma_-/2*<P>
        d<X^2> = -gamma_-*<X^2> + wbar*<G> + gamma_+/2
        d<P^2> = -gamma_-*<P^2> - eps/(4*wbar)*<G> + gamma_+/2
        d<G>   = -gamma_-*<G> + 2*wbar*<P^2> - eps/(2*wbar)*<X^2>

    One (g, lam) point a call: an array of couplings is an InvalidParams.
    """
    _one_point(params)
    frame = oscillator_frame(params, *REGIMES)
    wbar, eps = frame.omega_bar, frame.epsilon
    gm, gp = rates.gamma_minus, rates.gamma_plus
    return np.array([
        [-0.5 * gm, wbar, 0.0, 0.0, 0.0, 0.0],
        [-eps / (4.0 * wbar), -0.5 * gm, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -gm, 0.0, wbar, 0.5 * gp],
        [0.0, 0.0, 0.0, -gm, -eps / (4.0 * wbar), 0.5 * gp],
        [0.0, 0.0, -eps / (2.0 * wbar), 2.0 * wbar, -gm, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])


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


def integrate_moments(params: ModelParams, rates: DecayRates,
                      t_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The five moments on ``t_grid`` from REFERENCE_STATE_MOMENTS at t = 0,
    and their g-derivatives, one row per time each, for a non-empty, finite,
    strictly increasing grid with t_grid[0] >= 0.  A and b are constant, so
    each grid step, the first from t = 0, is exact: (m, 1) is multiplied by
    L = exp(moment_generator*dt), and dm/dg by L with D*m added, D the
    top-right block of exp([[A, dA/dg], [0, A]]*dt) (Van Loan, IEEE TAC 23,
    395 (1978)); only epsilon depends on g."""
    ts = np.asarray(t_grid, dtype=float)
    if (ts.ndim != 1 or not ts.size or not np.isfinite(ts).all() or ts[0] < 0
            or np.any(np.diff(ts) <= 0)):
        raise InvalidParams("t_grid", "need a finite, strictly increasing grid from t >= 0")
    a, frame = moment_generator(params, rates), oscillator_frame(params, *REGIMES)
    deps = 4.0 * params.omega * (params.omega + 4.0 * params.lam) * frame.dstiffness_dg
    flow = np.zeros((12, 12))
    flow[:6, :6] = flow[6:, 6:] = a
    flow[1, 6] = flow[3, 10] = -deps / (4.0 * frame.omega_bar)
    flow[4, 8] = -deps / (2.0 * frame.omega_bar)
    dts = np.diff(ts, prepend=0.0)[:, None, None]
    steps, derivs = _expm(a * dts), _expm(flow * dts)[:, :6, 6:]
    out = np.zeros((len(ts) + 1, 2, 6))  # (m, 1) and its g-derivative
    out[0, 0] = [*REFERENCE_STATE_MOMENTS, 1.0]
    for i, (step, deriv) in enumerate(zip(steps, derivs)):
        out[i + 1, 0] = step @ out[i, 0]
        out[i + 1, 1] = step @ out[i, 1] + deriv @ out[i, 0]
    return out[1:, 0, :5], out[1:, 1, :5]


# ----------------------------------------------------------------------
# explicit dissipative solutions
# ----------------------------------------------------------------------

def _damped_frame(params: ModelParams, rates: DecayRates,
                  t) -> tuple[OscillatorFrame, np.ndarray]:
    """The normal-regime oscillator frame and ``t`` as an array, once the
    rates are net damping and every time is >= 0 (the damped flow runs
    forward only)."""
    if rates.gamma_minus < 0:
        raise InvalidParams(
            "rates", "closed forms require net damping (gamma_minus >= 0)"
        )
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # NaN fails too
        raise InvalidParams("t", "the damped closed forms need times >= 0")
    return oscillator_frame(params, Regime.NORMAL), t


def x_mean_dissipative(params: ModelParams, rates: DecayRates, t):
    """<X>_t with damping: the unitary result times exp(-gamma_-*t/2)."""
    _, t = _damped_frame(params, rates, t)
    return _unwrap(x_mean(params, t) * np.exp(-0.5 * rates.gamma_minus * t))


def x_deriv_g_dissipative(params: ModelParams, rates: DecayRates, t):
    """d<X>_t/dg with damping; the rates carry no g dependence."""
    _, t = _damped_frame(params, rates, t)
    return _unwrap(x_deriv_g(params, t) * np.exp(-0.5 * rates.gamma_minus * t))


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
    frame, t = _damped_frame(params, rates, t)
    return _unwrap(0.25 * _variance_braces(frame, rates, t) * np.exp(-rates.gamma_minus * t))


def inverted_variance_dissipative(params: ModelParams, rates: DecayRates, t):
    """I_g(t) = (d<X>_t/dg)^2 / (Delta X)^2_t in the damped dynamics:

    (ds/dg)^2 * [sin(y) - y*cos(y)]^2 / (2*s^3 * braces),  y = sqrt(eps)*t/2;

    the damping envelopes of numerator and denominator cancel, leaving only
    the braces' relaxation terms to lower the late peaks.
    """
    frame, t = _damped_frame(params, rates, t)
    y = 0.5 * np.sqrt(frame.epsilon) * t
    bracket = sin_minus_x_cos_over_x3(y) * y**3
    braces = _variance_braces(frame, rates, t)
    return _unwrap(frame.dstiffness_dg**2 * bracket**2 / (2.0 * frame.stiffness**3 * braces))
