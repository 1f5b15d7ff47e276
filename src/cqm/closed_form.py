"""Closed-form dynamics of the effective critical oscillator.

Everything here is an explicit function of (ModelParams, t): the dynamical
quantum Fisher information about g, the quadrature mean/derivative/variance,
and the inverted variance with its optimal measurement times and peak values.
Time arguments broadcast as numpy arrays.

x_mean, var_n and qfi_g read model.oscillator_frame and so hold on both sides
of the critical point (stiffness epsilon_g, or epsilon_g_alpha past g_c); the
other formulas are written for the normal regime and raise past g_c.

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

from .errors import CutoffTooSmall, InvalidParams, RegimeError
from .model import ModelParams, Regime, effective_oscillator, oscillator_frame

#: Below this argument, sin(x) - x and sin(x) - x*cos(x) switch to series.
_SERIES_CUT = 1e-4

#: Amplitudes smaller than this in the top two Fock slots count as padding.
_OCCUPANCY_TOL = 1e-12


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


def _normal_gaps(params: ModelParams):
    """(epsilon_g, epsilon) with a RegimeError unless the regime is normal."""
    eff = effective_oscillator(params)
    if eff.regime is not Regime.NORMAL:
        raise RegimeError(
            f"epsilon_g = {eff.epsilon_g} ({eff.regime.value}): formulas for the "
            "normal regime do not apply (past g_c only x_mean, var_n and qfi_g do)"
        )
    return eff.epsilon_g, eff.epsilon


# ----------------------------------------------------------------------
# variance of the divergence-scale generator term
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _quadrature_squares(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (Re(P^2), X^2) at one state dimension, built once per process.

    Re(P^2) - s*X^2 equals (P^2 - s*X^2).real bit for bit, since X^2 is real.
    """
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    p2, x2 = (p @ p).real, x @ x
    p2.setflags(write=False)
    x2.setflags(write=False)
    return p2, x2


def _bare_generator_variance(state: BosonInitialState, stiffness: float) -> float:
    """Var[P^2 - stiffness*X^2] over ``state`` from exact Fock matrix elements.

    The operator connects |n> to |n+-2|, so the value is exact whenever the
    state keeps the top two basis slots empty.
    """
    amps = state.amplitudes
    dim = len(amps)
    if dim < 5:
        raise CutoffTooSmall(f"need n_max >= 4, got n_max = {dim - 1}")
    if np.any(np.abs(amps[-2:]) > _OCCUPANCY_TOL):
        raise CutoffTooSmall(
            "state occupies the top two Fock slots; enlarge the basis so the "
            "quadratic operator acts exactly"
        )
    p2, x2 = _quadrature_squares(dim)
    op = p2 - stiffness * x2  # real symmetric
    op_amps = op @ amps
    mean = np.real(np.vdot(amps, op_amps))
    second = np.real(np.vdot(op_amps, op_amps))
    return second - mean * mean


def var_n(state: BosonInitialState, params: ModelParams) -> float:
    """Variance of the generator's divergence-scale term over ``state``.

    Equals (omega^2 + 4*lam*omega)^3 * Var[P^2 - stiffness*X^2], with the
    stiffness epsilon_g (epsilon_g_alpha past g_c).
    """
    stiffness = oscillator_frame(params).stiffness
    scale = (params.omega * (params.omega + 4.0 * params.lam)) ** 3
    return scale * _bare_generator_variance(state, stiffness)


def ig_fg_ratio(state: BosonInitialState, params: ModelParams) -> float:
    """Asymptotic ratio of inverted-variance peaks to the QFI at those times.

    1 / (2 * Var[P^2 - epsilon_g*X^2]); independent of the peak index because
    both quantities grow as n^2.
    """
    epsilon_g, _ = _normal_gaps(params)
    return 1.0 / (2.0 * _bare_generator_variance(state, epsilon_g))


# ----------------------------------------------------------------------
# QFI about g
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QfiSample:
    """A (t, value) sample of the quantum Fisher information about g."""

    t: np.ndarray | float
    value: np.ndarray | float


def qfi_g(params: ModelParams, t, var_n_value: float) -> QfiSample:
    """Leading-order dynamical QFI about g on either side of g_c.

    4*(dstiffness/dg)^2 * [sin(sqrt(eps)*t) - sqrt(eps)*t]^2 / eps^3 * Var[N] in
    the oscillator frame, through the stabilized series near criticality; the
    prefactor is 16*(omega*g/(omega + 4*lam))^2 below g_c and
    64*((1 - epsilon_g_alpha)/g)^2 past it.
    """
    frame = oscillator_frame(params)
    t = np.asarray(t, dtype=float)
    x = np.sqrt(frame.epsilon) * t
    pref = 4.0 * frame.dstiffness_dg ** 2
    value = pref * (sin_minus_x_over_x3(x) * t**3) ** 2 * var_n_value
    if value.ndim == 0:
        return QfiSample(float(t), float(value))
    return QfiSample(t, value)


# ----------------------------------------------------------------------
# quadrature dynamics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSample:
    """Quadrature observables at one time: mean, g-derivative, variance, I_g."""

    t: float
    x_mean: float
    x_deriv_g: float
    x_var: float
    inv_var: float


def quadrature_sample(params: ModelParams, t: float) -> QuadratureSample:
    """All four quadrature observables at one time, as one record."""
    return QuadratureSample(
        t=float(t),
        x_mean=x_mean(params, t),
        x_deriv_g=x_deriv_g(params, t),
        x_var=x_variance(params, t),
        inv_var=inverted_variance(params, t),
    )


def x_mean(params: ModelParams, t):
    """<X>_t = sin(sqrt(eps)*t/2) / sqrt(2*stiffness), in the oscillator
    frame of either side of g_c."""
    frame = oscillator_frame(params)
    t = np.asarray(t, dtype=float)
    out = np.sin(0.5 * np.sqrt(frame.epsilon) * t) / np.sqrt(2.0 * frame.stiffness)
    return out if out.ndim else float(out)


def x_deriv_g(params: ModelParams, t):
    """d<X>_t/dg through the stiffness only:

    sqrt(2)*omega*g/(2*(omega + 4*lam)) * epsilon_g^(-3/2)
    * [sin(y) - y*cos(y)],  y = sqrt(eps)*t/2.
    """
    epsilon_g, epsilon = _normal_gaps(params)
    t = np.asarray(t, dtype=float)
    y = 0.5 * np.sqrt(epsilon) * t
    pref = (
        np.sqrt(2.0)
        * params.omega
        * params.g
        / (2.0 * (params.omega + 4.0 * params.lam))
        * epsilon_g**-1.5
    )
    out = pref * sin_minus_x_cos_over_x3(y) * y**3
    return out if out.ndim else float(out)


def x_second_moment(params: ModelParams, t):
    """<X^2>_t = 1 + 4*omega^2*g^2/eps * sin^2(sqrt(eps)*t/2)."""
    epsilon_g, epsilon = _normal_gaps(params)
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * np.sqrt(epsilon) * t)
    out = 1.0 + 4.0 * (params.omega * params.g) ** 2 / epsilon * s * s
    return out if out.ndim else float(out)


def x_variance(params: ModelParams, t):
    """(Delta X)^2_t = 1 + (1/(2*epsilon_g) - 1) * sin^2(sqrt(eps)*t/2)."""
    epsilon_g, epsilon = _normal_gaps(params)
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * np.sqrt(epsilon) * t)
    out = 1.0 + (0.5 / epsilon_g - 1.0) * s * s
    return out if out.ndim else float(out)


def inverted_variance(params: ModelParams, t):
    """I_g(t) = (d<X>_t/dg)^2 / (Delta X)^2_t, in its explicit form

    omega^2*g^2*[sin(y) - y*cos(y)]^2
    / ((omega + 4*lam)^2 * epsilon_g^3 * [2 + (1/epsilon_g - 2)*sin^2(y)]),
    y = sqrt(eps)*t/2.
    """
    epsilon_g, epsilon = _normal_gaps(params)
    t = np.asarray(t, dtype=float)
    y = 0.5 * np.sqrt(epsilon) * t
    bracket = sin_minus_x_cos_over_x3(y) * y**3
    s = np.sin(y)
    denom = 2.0 + (1.0 / epsilon_g - 2.0) * s * s
    out = (
        (params.omega * params.g) ** 2
        * bracket**2
        / ((params.omega + 4.0 * params.lam) ** 2 * epsilon_g**3 * denom)
    )
    return out if out.ndim else float(out)


def optimal_times(params: ModelParams, n_max: int) -> np.ndarray:
    """Measurement times tau_n = 2*pi*n/sqrt(eps), n = 1..n_max.

    The quadrature variance returns to its initial value there while the
    derivative keeps its secular growth, which maximizes I_g.
    """
    _, epsilon = _normal_gaps(params)
    if n_max < 1:
        raise InvalidParams("n_max", f"must be >= 1, got {n_max}")
    return 2.0 * np.pi * np.arange(1, n_max + 1) / np.sqrt(epsilon)


def inverted_variance_peak(params: ModelParams, n) -> float | np.ndarray:
    """Peak value I_g(tau_n) = n^2*pi^2*omega^2*g^2 / (2*(omega+4*lam)^2*eps_g^3)."""
    epsilon_g, _ = _normal_gaps(params)
    n = np.asarray(n, dtype=float)
    out = (
        (n * np.pi * params.omega * params.g) ** 2
        / (2.0 * (params.omega + 4.0 * params.lam) ** 2)
        * epsilon_g**-3
    )
    return out if out.ndim else float(out)
