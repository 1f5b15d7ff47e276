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
critical point anywhere in (0, inf); this module owns those relations and the
displaced/rotated frame used past the critical point, where the same
oscillator form holds with epsilon_g replaced by epsilon_g_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParams, RegimeError

#: |epsilon_g| below this counts as sitting on the critical line.
REGIME_TOL = 1e-12


class Regime(Enum):
    NORMAL = "normal"
    CRITICAL = "critical"
    SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class ModelParams:
    """Input parameters (omega, Omega, g, lam); validated on construction."""

    omega: float
    Omega: float
    g: float
    lam: float = 0.0

    def __post_init__(self):
        validate(self)


def validate(params: ModelParams) -> ModelParams:
    """Check all parameter invariants; return ``params`` unchanged if valid.

    Raises InvalidParams naming the offending field.  The constraint
    1 + 4*lam/omega > 0 keeps the squeeze parameter and omega_bar real; at the
    boundary the mode frequency collapses to zero and the model is unphysical.
    """
    for name in ("omega", "Omega", "g", "lam"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise InvalidParams(name, f"must be finite, got {value}")
    if not params.omega > 0:
        raise InvalidParams("omega", f"must be > 0, got {params.omega}")
    if not params.Omega > 0:
        raise InvalidParams("Omega", f"must be > 0, got {params.Omega}")
    if not params.g >= 0:
        raise InvalidParams("g", f"must be >= 0, got {params.g}")
    if not 1.0 + 4.0 * params.lam / params.omega > 0:
        raise InvalidParams(
            "lam",
            f"1 + 4*lam/omega = {1.0 + 4.0 * params.lam / params.omega} "
            "must be > 0 (squeeze parameter would be complex)",
        )
    return params


def squeeze_parameter(params: ModelParams) -> float:
    """Squeeze parameter r = ln(1 + 4*lam/omega)/4 of the mode rotation."""
    return 0.25 * math.log1p(4.0 * params.lam / params.omega)


def critical_coupling(params: ModelParams) -> float:
    """Critical coupling g_c = sqrt(1 + 4*lam/omega)."""
    return math.sqrt(1.0 + 4.0 * params.lam / params.omega)


def lambda_for_target_critical(g_target: float, omega: float) -> float:
    """Quadratic strength lam that places the critical point at ``g_target``.

    Inverse of ``critical_coupling``: lam = (g_target^2 - 1) * omega / 4.
    (The sign is fixed by that inversion; see the package docs for the
    round-trip identity this must satisfy.)
    """
    if not g_target > 0:
        raise InvalidParams("g_target", f"must be > 0, got {g_target}")
    return (g_target * g_target - 1.0) * omega / 4.0


@dataclass(frozen=True)
class EffectiveOscillator:
    """Low-energy oscillator of the spin-down sector.

    omega_bar : renormalized mode frequency sqrt(omega^2 + 4*lam*omega)
    epsilon_g : stiffness 1 - omega*g^2/(omega + 4*lam); > 0 below criticality
    epsilon   : squared gap 4*omega*(omega + 4*lam)*epsilon_g
                (= 4*omega_bar^2*epsilon_g; the oscillation frequency of all
                quadrature dynamics is sqrt(epsilon)/2)
    regime    : classification of epsilon_g against REGIME_TOL
    """

    omega_bar: float
    epsilon_g: float
    epsilon: float
    regime: Regime


def effective_oscillator(params: ModelParams) -> EffectiveOscillator:
    """Derived oscillator quantities and regime classification."""
    omega, lam, g = params.omega, params.lam, params.g
    omega_bar = math.sqrt(omega * (omega + 4.0 * lam))
    epsilon_g = 1.0 - omega * g * g / (omega + 4.0 * lam)
    epsilon = 4.0 * omega * (omega + 4.0 * lam) * epsilon_g
    if epsilon_g > REGIME_TOL:
        regime = Regime.NORMAL
    elif epsilon_g < -REGIME_TOL:
        regime = Regime.SUPERRADIANT
    else:
        regime = Regime.CRITICAL
    return EffectiveOscillator(omega_bar, epsilon_g, epsilon, regime)


@dataclass(frozen=True)
class OscillatorFrame:
    """(omega_bar/2)*(P^2 + stiffness*X^2) on either side of g_c: stiffness is
    epsilon_g below g_c and epsilon_g_alpha past it, dstiffness_dg its
    g-derivative, epsilon = 4*omega*(omega + 4*lam)*stiffness the gap, and
    regime the side of g_c it was built for (never CRITICAL)."""

    omega_bar: float
    stiffness: float
    dstiffness_dg: float
    epsilon: float
    regime: Regime


def oscillator_frame(params: ModelParams) -> OscillatorFrame:
    """The effective oscillator of the regime ``params`` sits in; RegimeError
    on the critical line, where neither reduction applies.

    Past g_c the mode is displaced and the spin rotated onto the mean-field
    minimum first (Hwang, Puebla & Plenio, PRL 115, 180404 (2015)); the
    oscillator left over has stiffness epsilon_g_alpha = 1 - (g_c/g)^4.
    """
    omega, g, lam = params.omega, params.g, params.lam
    eff = effective_oscillator(params)
    if eff.regime is Regime.NORMAL:
        dstiffness_dg = -2.0 * omega * g / (omega + 4.0 * lam)
        return OscillatorFrame(eff.omega_bar, eff.epsilon_g, dstiffness_dg, eff.epsilon,
                               eff.regime)
    if eff.regime is Regime.CRITICAL:
        raise RegimeError("no effective oscillator on the critical line")
    ratio = (omega + 4.0 * lam) / (omega * g * g)  # (g_c/g)^2, in (0, 1) here
    stiffness = 1.0 - ratio * ratio
    epsilon = 4.0 * omega * (omega + 4.0 * lam) * stiffness
    return OscillatorFrame(eff.omega_bar, stiffness, 4.0 * (1.0 - stiffness) / g, epsilon,
                           eff.regime)
