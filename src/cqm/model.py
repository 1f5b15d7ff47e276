"""Model parameters and derived critical-point quantities.

The system is a two-level system (frequency Omega) linearly coupled, with
normalized strength g, to a bosonic mode (frequency omega) that additionally
carries a quadratic term lam*(a + a^dag)^2.  hbar = 1 throughout; omega sets
the time/energy unit and all shipped configurations use omega = 1.

The quadratic term renormalizes the mode: a squeeze with parameter
r = ln(1 + 4*lam/omega)/4 maps it onto a plain oscillator of frequency
omega_bar = sqrt(omega^2 + 4*lam*omega), and the low-frequency (Omega >> omega)
reduction of the spin-down sector is the oscillator

    H_eff = (omega_bar/2) * (P^2 + epsilon_g * X^2),

whose stiffness epsilon_g = 1 - omega*g^2/(omega + 4*lam) vanishes at the
critical coupling g_c = sqrt(1 + 4*lam/omega).  Tuning lam therefore moves the
critical point anywhere in (0, inf).  Past it the same oscillator form holds
with epsilon_g replaced by epsilon_g_alpha; oscillator_frame derives both sides
once, and is the one guard that refuses a coupling outside a caller's regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParams, RegimeError

#: |epsilon_g| below this counts as sitting on the critical line.
REGIME_TOL = 1e-12


class Regime(Enum):
    NORMAL = "normal"
    CRITICAL = "critical"
    SUPERRADIANT = "superradiant"


#: The regimes in the order _regime_index numbers them.
REGIMES = (Regime.SUPERRADIANT, Regime.CRITICAL, Regime.NORMAL)
_REGIMES = np.array(REGIMES, dtype=object)


def _regime_index(epsilon_g):
    """The position in REGIMES of the regime of each stiffness epsilon_g."""
    return (epsilon_g > REGIME_TOL) * 1 + (epsilon_g >= -REGIME_TOL)


@dataclass(frozen=True)
class ModelParams:
    """Input parameters (omega, Omega, g, lam); validated on construction.

    ``g`` may also be a 1-D array of couplings at the fixed (omega, Omega), and
    ``lam`` then a scalar or an array of the same shape, paired with ``g``
    entry by entry.  Arrays are stored as read-only float copies and
    validated elementwise, and the oscillator quantities below (and the
    closed forms built on them) then hold one value per (lam, g) point.
    """

    omega: float
    Omega: float
    g: float | np.ndarray
    lam: float | np.ndarray = 0.0

    def __post_init__(self):
        for name in ("g", "lam"):
            value = getattr(self, name)
            if isinstance(value, (list, tuple, np.ndarray)):
                value = np.array(value, dtype=float)
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        validate(self)


def validate(params: ModelParams) -> ModelParams:
    """Check all parameter invariants; return ``params`` unchanged if valid.

    Raises InvalidParams naming the offending field.  The constraint
    1 + 4*lam/omega > 0 keeps the squeeze parameter and omega_bar real; at the
    boundary the mode frequency collapses to zero and the model is unphysical.
    """
    g_low, g_high = _extremes("g", params.g)
    lam_low, lam_high = _extremes("lam", params.lam)
    if np.ndim(params.lam) and np.shape(params.lam) != np.shape(params.g):
        raise InvalidParams("lam", f"an array of lam needs a g of the same shape, got "
                                   f"{np.shape(params.lam)} and {np.shape(params.g)}")
    for name, value in (("omega", params.omega), ("Omega", params.Omega), ("g", g_low),
                        ("g", g_high), ("lam", lam_low), ("lam", lam_high)):
        if not math.isfinite(value):  # a TypeError for an array omega or Omega
            raise InvalidParams(name, f"must be finite, got {value}")
    # as Python floats, the products below overflow to inf with no RuntimeWarning
    omega, g_low, g_high, lam_low, lam_high = map(float, (params.omega, g_low, g_high,
                                                          lam_low, lam_high))
    if not omega > 0:
        raise InvalidParams("omega", f"must be > 0, got {omega}")
    if not params.Omega > 0:
        raise InvalidParams("Omega", f"must be > 0, got {params.Omega}")
    if not g_low >= 0:
        raise InvalidParams("g", f"must be >= 0, got {g_low}")
    if not 1.0 + 4.0 * lam_low / omega > 0:
        raise InvalidParams("lam", f"1 + 4*lam/omega = {1.0 + 4.0 * lam_low / omega} must be > 0 "
                                   "(squeeze parameter would be complex)")
    if not math.isfinite(omega * g_high * g_high):  # oscillator_frame's first products
        raise InvalidParams("g", f"omega*g^2 overflows at g = {g_high}")
    if not math.isfinite(4.0 * omega * (omega + 4.0 * lam_high)):
        raise InvalidParams("lam", f"4*omega*(omega + 4*lam) overflows at lam = {lam_high}")
    return params


def _extremes(name: str, value) -> tuple:
    """The smallest and largest entry of a number or a 1-D array.

    An array is checked through its extremes: a NaN reaches both, and the 0
    they are taken with changes no check of validate (and lets an empty
    array pass)."""
    if not isinstance(value, np.ndarray):
        return value, value
    if value.ndim > 1:
        raise InvalidParams(name, f"must be a number or a 1-D array, not {value.ndim}-D")
    return value.min(initial=0.0), value.max(initial=0.0)


def critical_coupling(params: ModelParams) -> float | np.ndarray:
    """Critical coupling g_c = sqrt(1 + 4*lam/omega), one per entry of an
    array lam (np.sqrt and math.sqrt both round correctly)."""
    return _unwrap(np.sqrt(1.0 + 4.0 * params.lam / params.omega))


def lambda_for_target_critical(g_target: float, omega: float) -> float:
    """Quadratic strength lam that places the critical point at ``g_target``.

    Inverse of ``critical_coupling``: lam = (g_target^2 - 1) * omega / 4.
    (The sign is fixed by that inversion; see the package docs for the
    round-trip identity this must satisfy.)
    """
    if not g_target > 0:
        raise InvalidParams("g_target", f"must be > 0, got {g_target}")
    return (g_target * g_target - 1.0) * omega / 4.0


def _unwrap(value):
    """A 0-d array or a number as a Python float; any other array unchanged."""
    return value if getattr(value, "ndim", 0) else float(value)


def _libm(name: str, x) -> np.ndarray:
    """np.<name> of ``x`` (its inf or nan, and its warning, alike on any CPU) with each
    finite entry replaced by math.<name>'s, so numpy's SIMD dispatch decides no bit."""
    y = np.array(getattr(np, name)(x), dtype=float)
    finite = np.isfinite(y)
    y[finite] = list(map(getattr(math, name), np.asarray(x, dtype=float)[finite].tolist()))
    return y


def _one_point(params: ModelParams) -> None:
    """InvalidParams naming g if ``params`` holds an array of couplings: the
    Fock-space and moment-equation engines evolve one (g, lam) point a call."""
    if np.ndim(params.g):
        raise InvalidParams("g", f"must be one coupling, not an array of shape "
                                 f"{np.shape(params.g)}")


@dataclass(frozen=True)
class OscillatorFrame:
    """(omega_bar/2)*(P^2 + stiffness*X^2) of each coupling: epsilon_g =
    1 - omega*g^2/(omega + 4*lam) (> 0 below g_c), stiffness epsilon_g up to
    g_c and epsilon_g_alpha past it, dstiffness_dg its g-derivative, epsilon =
    4*omega*(omega + 4*lam)*stiffness the squared gap (the quadratures
    oscillate at sqrt(epsilon)/2) and regime the Regime of epsilon_g.  Arrays
    of couplings give arrays, regime an object array of Regime members."""

    omega_bar: float | np.ndarray
    epsilon_g: float | np.ndarray
    stiffness: float | np.ndarray
    dstiffness_dg: float | np.ndarray
    epsilon: float | np.ndarray
    regime: Regime | np.ndarray


def oscillator_frame(params: ModelParams, *regimes: Regime) -> OscillatorFrame:
    """The effective oscillator of each coupling of ``params``; RegimeError if
    any sits outside ``regimes``, by default either side of g_c.  The critical
    line has no reduction: asked for, it gets the stiffness epsilon_g (0 at g_c).

    Past g_c the mode is displaced and the spin rotated onto the mean-field
    minimum first (Hwang, Puebla & Plenio, PRL 115, 180404 (2015)); the
    oscillator left over has stiffness epsilon_g_alpha = 1 - (g_c/g)^4.
    Values built on that frame describe this oscillator, with the probe
    prepared in the frame of the very g being estimated; with a preparation
    that does not depend on g, the QFI grows like Omega/omega instead.
    """
    omega, g, lam = params.omega, params.g, params.lam
    regimes = regimes or (Regime.SUPERRADIANT, Regime.NORMAL)
    omega_bar = _unwrap(np.sqrt(omega * (omega + 4.0 * lam)))
    epsilon_g = 1.0 - omega * g * g / (omega + 4.0 * lam)
    index = _regime_index(epsilon_g)
    allowed = np.array([r in regimes for r in REGIMES])[index]
    if not allowed.all():
        first = np.argmin(allowed)
        raise RegimeError(f"epsilon_g = {np.ravel(epsilon_g)[first]} "
                          f"({REGIMES[np.ravel(index)[first]].value}): this needs the "
                          f"{' or '.join(r.value for r in regimes)} regime")
    past = index == 0
    g_past = _unwrap(np.where(past, g, np.inf))  # the past-g_c branch reads 0 elsewhere
    ratio = (omega + 4.0 * lam) / (omega * g_past * g_past)  # (g_c/g)^2, in (0, 1) past g_c
    stiffness = _unwrap(np.where(past, 1.0 - ratio * ratio, epsilon_g))
    dstiffness_dg = np.where(past, 4.0 * (1.0 - stiffness) / g_past,
                             -2.0 * omega * g / (omega + 4.0 * lam))
    epsilon = 4.0 * omega * (omega + 4.0 * lam) * stiffness
    return OscillatorFrame(omega_bar, epsilon_g, stiffness, _unwrap(dstiffness_dg), epsilon,
                           _REGIMES[index])


#: The name perfbench/selftest.py traces in every module; oscillator_frame itself.
effective_oscillator = oscillator_frame
