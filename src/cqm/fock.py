"""Exact numerics in a truncated Fock space.

Builds the spin (x) boson Hamiltonian as one dense matrix and the effective
low-energy oscillator as its two parity blocks (it couples n only to n and
n+-2, so the even and odd Fock indices form two real tridiagonal blocks),
evolves states by eigendecomposition of each block (exactly unitary at any
time), and computes the quantum Fisher information two independent ways:
a fidelity finite difference and the spectral integral of the evolution
generator.  It also measures how far finite-frequency (Omega/omega = eta)
dynamics sits from the low-frequency closed forms.

Truncation policy: the oracles double the basis from AUTO_CUTOFF_START
until the requested observables stop moving (relative test, with an
absolute floor for the quadrature blocks); all but finite_frequency_point
also take a pinned n_cut.  The tolerances are module constants, not
arguments, apart from generator_qfi_grid's rtol.  States anti-squeeze near
criticality, with Fock tails decaying only like (1 - 2*epsilon_g)^n, so
near-critical runs legitimately need cutoffs of order 1/epsilon_g; the
doubling ladder finds that automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CutoffNotConverged,
    InvalidParams,
    RegimeError,
    StepTooLarge,
    TruncationLeak,
)
from .closed_form import BosonInitialState, default_initial_state
from .closed_form import inverted_variance_peak, optimal_times
from .model import ModelParams, Regime, effective_oscillator, oscillator_frame

AUTO_CUTOFF_START = 32
AUTO_CUTOFF_MAX = 4096
#: Smallest Omega/omega at which finite_frequency_point compares the engines.
ETA_MIN = 10.0
#: (rtol, atol) of quadrature_series's per-block convergence test.
SERIES_RTOL, SERIES_ATOL = 1e-6, 1e-9

#: Fraction of top Fock indices whose total weight is checked after evolution,
#: and the most weight an evolved state may put there.
TAIL_FRACTION = 0.1
LEAK_TOL = 1e-8

SPIN_DOWN, SPIN_UP = 0, 1  # block order inside joint vectors


# ----------------------------------------------------------------------
# operators and states
# ----------------------------------------------------------------------

def destroy(n_cut: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_cut, dtype=float)), 1)


def quadratures(n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """X = (a + a^dag)/sqrt(2) (real) and P = i(a^dag - a)/sqrt(2) (imaginary)."""
    a = destroy(n_cut)
    return (a + a.T) / np.sqrt(2.0), 1j * (a.T - a) / np.sqrt(2.0)


def _x_band(n_cut: int) -> np.ndarray:
    """Superdiagonal of X: X[n, n+1] = sqrt(n+1)/sqrt(2)."""
    return np.sqrt(np.arange(1, n_cut, dtype=float)) / np.sqrt(2.0)


def _x_squared_bands(n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and second superdiagonal of the truncated product X@X, its
    only nonzero bands.  Re(P@P) has the same diagonal and the negated
    superdiagonal.  The corner entry n = n_cut-1 keeps only X[n, n-1]^2."""
    x = _x_band(n_cut)
    diag = np.append(x * x, 0.0) + np.append(0.0, x * x)
    return diag, x[:-1] * x[1:]


def _band_apply(diag: np.ndarray, sup: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T @ v for the real symmetric tridiagonal T with diagonal ``diag`` and
    superdiagonal ``sup``; ``v`` is (len(diag), k)."""
    out = diag[:, None] * v
    out[:-1] += sup[:, None] * v[1:]
    out[1:] += sup[:, None] * v[:-1]
    return out


class HermitianOperator:
    """Hermitian operator held as invariant blocks, each with a cached
    eigendecomposition: ``blocks`` lists (indices, block) pairs, the operator
    acting as ``block`` on the basis states ``indices`` (a slice).  A plain
    matrix is one block over all indices; ``matrix`` assembles the dense
    operator.  ``dim`` is n_cut for boson-only operators, 2*n_cut on the
    joint space.
    """

    def __init__(self, matrix: np.ndarray | None = None,
                 blocks: list[tuple[slice, np.ndarray]] | None = None):
        if blocks is None:
            blocks = [(slice(None), np.asarray(matrix))]
        for _, h in blocks:
            residual = np.abs(h - h.conj().T).max()
            if residual > 1e-12:
                raise InvalidParams("matrix", f"hermiticity residual {residual} > 1e-12")
        self.blocks = blocks
        self.dim = sum(h.shape[0] for _, h in blocks)
        self._eig: list[tuple[slice, np.ndarray, np.ndarray]] | None = None

    @property
    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(*(h for _, h in self.blocks)))
        for idx, h in self.blocks:
            out[idx, idx] = h
        return out

    def eig(self) -> list[tuple[slice, np.ndarray, np.ndarray]]:
        """(indices, energies, vectors) of each block, ascending energies
        within a block."""
        if self._eig is None:
            self._eig = [(idx, *np.linalg.eigh(h)) for idx, h in self.blocks]
        return self._eig


@dataclass(frozen=True)
class JointState:
    """Amplitudes over (spin in {down, up}) x (Fock 0..n_cut-1), spin-major."""

    amplitudes: np.ndarray
    n_cut: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if len(amps) != 2 * self.n_cut:
            raise InvalidParams("amplitudes", "length must be 2*n_cut")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise InvalidParams("amplitudes", f"norm {norm} != 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", amps)


def spin_down_state(boson: BosonInitialState | np.ndarray, n_cut: int) -> JointState:
    """|down> (x) |boson>, zero-padded to ``n_cut``."""
    amps = np.zeros(2 * n_cut, dtype=complex)
    amps[SPIN_DOWN * n_cut: (SPIN_DOWN + 1) * n_cut] = _pad(boson, n_cut)
    return JointState(amps, n_cut)


def _pad(boson: BosonInitialState | np.ndarray, n_cut: int) -> np.ndarray:
    b = boson.amplitudes if isinstance(boson, BosonInitialState) else np.asarray(boson)
    if len(b) > n_cut:
        raise InvalidParams("n_cut", "smaller than the boson state length")
    out = np.zeros(n_cut, dtype=complex)
    out[: len(b)] = b
    return out


# ----------------------------------------------------------------------
# Hamiltonian builders
# ----------------------------------------------------------------------

def _joint_hamiltonian(
    n_cut: int, omega: float, Omega: float, coupling: float, quadratic: float
) -> HermitianOperator:
    """omega*a^dag*a + quadratic*(a+a^dag)^2 + (Omega/2)*sigma_z
    + coupling*(a+a^dag)*sigma_x on the joint space."""
    if n_cut < 4:
        raise InvalidParams("n_cut", f"must be >= 4, got {n_cut}")
    a = destroy(n_cut)
    q = a + a.T  # a + a^dag
    boson = omega * (a.T @ a)
    if quadratic != 0.0:  # skip the (a+a^dag)^2 matmul when it cannot contribute
        boson = boson + quadratic * (q @ q)
    # spin matrices in (down, up) block order
    sz = np.diag([-1.0, 1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = (
        np.kron(np.eye(2), boson)
        + np.kron(0.5 * Omega * sz, np.eye(n_cut))
        + np.kron(coupling * sx, q)
    )
    return HermitianOperator(h)


def build_full_hamiltonian(params: ModelParams, n_cut: int) -> HermitianOperator:
    """Joint-space Hamiltonian with the quadratic term, in the lab frame:

    omega*a^dag*a + (Omega/2)*sigma_z + (sqrt(omega*Omega)/2)*g*(a+a^dag)*sigma_x
    + lam*(a+a^dag)^2.
    """
    coupling = 0.5 * np.sqrt(params.omega * params.Omega) * params.g
    return _joint_hamiltonian(n_cut, params.omega, params.Omega, coupling, params.lam)


def build_squeezed_frame_hamiltonian(params: ModelParams, n_cut: int) -> HermitianOperator:
    """Joint-space Hamiltonian after the mode squeeze that absorbs the
    quadratic term:

    omega_bar*a^dag*a + (Omega/2)*sigma_z
    + (sqrt(omega*Omega)/2)*g*(1+4*lam/omega)^(-1/4)*(a+a^dag)*sigma_x.

    This is the frame in which the low-frequency closed forms are written;
    at lam = 0 it coincides with build_full_hamiltonian.
    """
    coupling = (
        0.5
        * np.sqrt(params.omega * params.Omega)
        * params.g
        * (1.0 + 4.0 * params.lam / params.omega) ** -0.25
    )
    omega_bar = effective_oscillator(params).omega_bar
    return _joint_hamiltonian(n_cut, omega_bar, params.Omega, coupling, 0.0)


def build_effective_hamiltonian(params: ModelParams, n_cut: int) -> HermitianOperator:
    """Boson-only effective oscillator (omega_bar/2)*(P^2 + stiffness*X^2),
    built from the bands of the truncated products P@P and X@X and held as
    its even (indices 0::2) and odd (1::2) tridiagonal blocks.

    The stiffness is epsilon_g in the normal regime and epsilon_g_alpha past
    the critical point; on the critical line neither reduction applies.
    """
    if n_cut < 4:
        raise InvalidParams("n_cut", f"must be >= 4, got {n_cut}")
    frame = oscillator_frame(params)
    xx_diag, xx_sup = _x_squared_bands(n_cut)
    diag = 0.5 * frame.omega_bar * (xx_diag + frame.stiffness * xx_diag)
    sup = 0.5 * frame.omega_bar * (-xx_sup + frame.stiffness * xx_sup)
    blocks = []
    for start in (0, 1):
        d, e = diag[start::2], sup[start::2]
        blocks.append((slice(start, None, 2), np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    return HermitianOperator(blocks=blocks)


# ----------------------------------------------------------------------
# evolution
# ----------------------------------------------------------------------

def _spectral_propagate(h: HermitianOperator, amps0: np.ndarray, ts) -> np.ndarray:
    if len(amps0) != h.dim:
        raise InvalidParams("psi0", f"length {len(amps0)} != operator dim {h.dim}")
    ts = np.asarray(ts, dtype=float)
    out = np.empty((h.dim, len(ts)), dtype=complex)
    for idx, energies, vectors in h.eig():
        coeffs = vectors.conj().T @ amps0[idx]
        phases = np.exp(-1j * np.outer(energies, ts))
        out[idx] = vectors @ (phases * coeffs[:, None])
    norm_err = np.abs(np.linalg.norm(out, axis=0) - 1.0).max()
    if norm_err > 1e-10:
        raise TruncationLeak(f"unitarity lost: max |norm - 1| = {norm_err}")
    return out


def _check_tail(out: np.ndarray, n_cut: int) -> None:
    """Worst tail mass over the columns of ``out`` (n_cut-long blocks x time)."""
    n_tail = max(1, int(n_cut * TAIL_FRACTION))
    tail = out.reshape(-1, n_cut, out.shape[1])[:, n_cut - n_tail:]
    worst = float((np.abs(tail) ** 2).sum(axis=(0, 1)).max())
    if worst > LEAK_TOL:
        raise TruncationLeak(
            f"tail mass {worst:.3e} exceeds {LEAK_TOL:.1e}; raise n_cut"
        )


def evolve_grid(h: HermitianOperator, psi0, ts: Sequence[float]) -> np.ndarray:
    """exp(-i*H*t)|psi0> by spectral decomposition at every time in ``ts``;
    (dim, len(ts)) array.  Raises TruncationLeak when an evolved state puts
    more than LEAK_TOL weight into the top Fock indices."""
    amps0 = psi0.amplitudes if hasattr(psi0, "amplitudes") else np.asarray(psi0, dtype=complex)
    out = _spectral_propagate(h, amps0, ts)
    _check_tail(out, h.dim)
    return out


def evolve_joint_grid(h: HermitianOperator, psi0: JointState, ts: Sequence[float]) -> np.ndarray:
    """Joint-space evolution, with the tail check on each spin block."""
    out = _spectral_propagate(h, psi0.amplitudes, ts)
    _check_tail(out, psi0.n_cut)
    return out


# ----------------------------------------------------------------------
# automatic cutoff selection
# ----------------------------------------------------------------------

def auto_cutoff(
    run: Callable[[int], np.ndarray],
    start: int = AUTO_CUTOFF_START,
    max_cut: int = AUTO_CUTOFF_MAX,
    rtol: float = 1e-6,
    converged: Callable[[np.ndarray, np.ndarray], bool] | None = None,
) -> tuple[int, np.ndarray]:
    """Double the cutoff until ``run(n_cut)``'s observables stop moving.

    Convergence: every component changes by at most
    rtol*max(|new|, |old|) when the cutoff doubles, unless a
    ``converged(old, new)`` test is given.  TruncationLeak from ``run``
    counts as "keep doubling".  Returns (accepted n_cut, values at that
    cutoff).  CutoffNotConverged names the last level that leaked and the
    cutoff the ladder would need next.
    """
    if converged is None:
        def converged(old: np.ndarray, new: np.ndarray) -> bool:
            tol = rtol * np.maximum(np.abs(new), np.abs(old))
            return bool(np.all(np.abs(new - old) <= tol))

    prev, moving, leak = None, False, ""
    n = start
    while n <= max_cut:
        try:
            values = np.atleast_1d(np.asarray(run(n), dtype=float))
        except TruncationLeak as exc:
            prev, moving, leak = None, False, f"; n_cut = {n} leaked ({exc})"
            n *= 2
            continue
        if prev is not None and converged(prev, values):
            return n, values
        prev, moving = values, prev is not None
        n *= 2
    reason = (f"observables still moving at n_cut = {n // 2} (rtol={rtol})" if moving
              else "no two consecutive levels ran without a leak")
    raise CutoffNotConverged(
        f"{reason}{leak}; the ladder would need n_cut = {n} next, above max_cut = {max_cut}"
    )


# ----------------------------------------------------------------------
# quadrature dynamics with an exact engine
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSeries:
    """Oracle quadrature observables on a time grid."""

    t: np.ndarray
    x_mean: np.ndarray
    x_second: np.ndarray
    x_deriv_g: np.ndarray
    n_cut: int

    @property
    def x_var(self) -> np.ndarray:
        return self.x_second - self.x_mean**2

    @property
    def inv_var(self) -> np.ndarray:
        return self.x_deriv_g**2 / self.x_var


def _evolve_from(h: HermitianOperator, psi0, n_cut: int, ts) -> np.ndarray:
    """Evolve ``psi0`` under ``h``: as |down> (x) psi0 when ``h`` acts on the
    joint spin-boson space (dim 2*n_cut), else as the boson state itself."""
    if h.dim == 2 * n_cut:
        return evolve_joint_grid(h, spin_down_state(psi0, n_cut), ts)
    return evolve_grid(h, _pad(psi0, n_cut), ts)


def _x_moments(amps: np.ndarray, n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """<X>_t = Re<psi|X psi> and <X^2>_t = ||X psi||^2 for the columns of
    ``amps`` (dim, T), X acting on the Fock index of each n_cut-long block."""
    n_t = amps.shape[1]
    psi = amps.reshape(-1, n_cut, n_t).swapaxes(0, 1).reshape(n_cut, -1)
    xpsi = _band_apply(np.zeros(n_cut), _x_band(n_cut), psi)
    mean = np.real(psi.conj() * xpsi).sum(axis=0)
    second = (np.abs(xpsi) ** 2).sum(axis=0)
    return mean.reshape(-1, n_t).sum(axis=0), second.reshape(-1, n_t).sum(axis=0)


def _series_at_cutoff(
    params: ModelParams,
    ts: np.ndarray,
    psi0: BosonInitialState,
    n_cut: int,
    builder: Callable[[ModelParams, int], HermitianOperator],
) -> np.ndarray:
    """Rows x, x^2, the 4-point (Richardson) g-derivative of x, and its two
    centered stencils (full and halved step), at one cutoff."""
    dg = 1e-5 * max(params.g, 0.01)

    def measure(gv: float) -> tuple[np.ndarray, np.ndarray]:
        h = builder(replace(params, g=gv), n_cut)
        return _x_moments(_evolve_from(h, psi0, n_cut, ts), n_cut)

    x0, xx0 = measure(params.g)
    (xp1, _), (xm1, _) = measure(params.g + dg), measure(params.g - dg)
    (xp2, _), (xm2, _) = measure(params.g + 0.5 * dg), measure(params.g - 0.5 * dg)
    d_wide = (xp1 - xm1) / (2.0 * dg)
    d_half = (xp2 - xm2) / dg
    deriv = (4.0 * d_half - d_wide) / 3.0  # Richardson: O(dg^4) bias
    return np.array([x0, xx0, deriv, d_wide, d_half])


def quadrature_series(
    params: ModelParams,
    ts: Sequence[float],
    psi0: BosonInitialState | None = None,
    n_cut: int | None = None,
    builder: Callable[[ModelParams, int], HermitianOperator] = build_effective_hamiltonian,
) -> QuadratureSeries:
    """<X>_t, <X^2>_t and d<X>_t/dg on a grid, with automatic cutoff.

    A builder of a joint spin-boson operator evolves |down> (x) psi0; a
    boson-only builder evolves psi0.  The ladder accepts a cutoff once each
    block (x, x^2, derivative) moves by at most
    SERIES_ATOL + SERIES_RTOL*(block scale) on doubling.  The derivative
    uses a Richardson-extrapolated centered difference with the fixed base
    step dg = 1e-5*max(g, 0.01); the two stencils must agree to 1e-3
    relative wherever the derivative is appreciable, else StepTooLarge.
    """
    ts = np.asarray(ts, dtype=float)
    psi0 = psi0 if psi0 is not None else default_initial_state()

    def run(n: int) -> np.ndarray:
        return _series_at_cutoff(params, ts, psi0, n, builder)

    def converged(prev: np.ndarray, new: np.ndarray) -> bool:
        # curves cross zero, so convergence is judged per block (x, x^2,
        # derivative) against the block's own scale, not pointwise
        for old_block, new_block in zip(prev[:3], new[:3]):
            scale = max(np.abs(old_block).max(), np.abs(new_block).max(), SERIES_ATOL)
            if np.abs(new_block - old_block).max() > SERIES_ATOL + SERIES_RTOL * scale:
                return False
        return True

    if n_cut is None:
        n_cut, got = auto_cutoff(run, converged=converged)
    else:
        got = run(n_cut)
    x_mean, x_second, deriv, d_wide, d_half = got
    scale = np.abs(deriv).max()
    if scale > 0 and np.abs(d_half - d_wide).max() > 1e-3 * scale:
        raise StepTooLarge(
            "halved and full g-steps disagree beyond 1e-3 of the derivative "
            "scale; the response is nonlinear at this dg"
        )
    return QuadratureSeries(ts, x_mean, x_second, deriv, n_cut)


# ----------------------------------------------------------------------
# QFI, two independent ways
# ----------------------------------------------------------------------

def qfi_overlap(
    params: ModelParams,
    t: float,
    psi0: BosonInitialState | None = None,
    dg: float | None = None,
    n_cut: int | None = None,
) -> float:
    """QFI of the effective oscillator from the fidelity drop between
    evolutions at g -/+ dg/2:

    F ~= 8*(1 - |<psi_{g-dg/2}(t)|psi_{g+dg/2}(t)>|) / dg^2.

    With dg=None the step is tuned so the fidelity deficit sits near 1e-6,
    far from both the quadratic-validity ceiling (1e-2) and roundoff.
    Raises StepTooLarge when an explicit dg leaves the deficit above 1e-2.
    With n_cut=None the cutoff ladder runs at auto_cutoff's default rtol.
    """
    psi0 = psi0 if psi0 is not None else default_initial_state()

    def deficit_at(n: int, step: float) -> float:
        def state(gv):
            h = build_effective_hamiltonian(replace(params, g=gv), n)
            return evolve_grid(h, _pad(psi0, n), [t])[:, 0]

        minus = state(params.g - 0.5 * step)
        plus = state(params.g + 0.5 * step)
        # |<a|b>| can exceed 1 by rounding for near-identical states
        return max(1.0 - abs(np.vdot(minus, plus)), 0.0)

    def qfi_at(n: int) -> float:
        step = dg
        if step is None:
            step = 1e-3 * max(params.g, 0.01)
            for _ in range(40):  # geometric search for deficit ~ 1e-6
                d = deficit_at(n, step)
                if d > 1e-2:
                    step *= 0.25
                    continue
                if d > 0:
                    step *= np.sqrt(1e-6 / max(d, 1e-14))
                    step = min(step, 0.3 * params.g if params.g > 0 else step)
                break
        d = deficit_at(n, step)
        if d > 1e-2:
            raise StepTooLarge(
                f"fidelity deficit {d:.3e} > 1e-2 at dg = {step:.3e}; halve dg"
            )
        return 8.0 * d / step**2

    if n_cut is not None:
        return qfi_at(n_cut)
    _, values = auto_cutoff(qfi_at)
    return float(values[0])


def generator_qfi_grid(
    params: ModelParams,
    ts: Sequence[float],
    psi0: BosonInitialState | None = None,
    n_cut: int | None = None,
    rtol: float = 1e-6,
) -> tuple[np.ndarray, int]:
    """QFI from the spectral integral of the evolution generator, on a whole
    time grid with one diagonalization of each parity block per cutoff.

    With H_eff = H0 + zeta*H1 (H0 = wbar/2*P^2, H1 = wbar/2*X^2,
    zeta = epsilon_g), the generator is h = int_0^t H1(s) ds, assembled in
    each block's eigenbasis as H1_jk * (exp(i*(Ej-Ek)*t) - 1)/(i*(Ej-Ek))
    with the diagonal (and any |Ej-Ek| < 1e-12 pair) replaced by t.  The
    kernel is factored as exp(i*Ej*t/2)*exp(-i*Ek*t/2)*2*sin((Ej-Ek)*t/2)/(Ej-Ek)
    with the sine expanded in sin/cos of Ej*t/2 and Ek*t/2, so h applied to
    the state at every time is two matrix products, and exactly 0 at t = 0.
    Then F_g = (d epsilon_g/d g)^2 * 4*Var[h].  Returns (values, n_cut): the
    given n_cut, or the one the ladder accepted, its convergence measured
    jointly across the grid at relative tolerance ``rtol``.
    """
    if effective_oscillator(params).regime is not Regime.NORMAL:
        raise RegimeError("generator_qfi_grid is defined for the normal regime")
    frame = oscillator_frame(params)
    psi0 = psi0 if psi0 is not None else default_initial_state()
    ts = np.asarray(ts, dtype=float)

    def qfi_at(n: int) -> np.ndarray:
        h1_diag, h1_sup = (0.5 * frame.omega_bar * band for band in _x_squared_bands(n))
        amps0 = _pad(psi0, n)
        mean = np.zeros(len(ts))
        second = np.zeros(len(ts))
        for idx, energies, vectors in build_effective_hamiltonian(params, n).eig():
            h1 = vectors.T @ _band_apply(h1_diag[idx], h1_sup[idx], vectors)
            de = energies[:, None] - energies[None, :]
            near = np.abs(de) < 1e-12
            ratio = np.where(near, 0.0, h1 / np.where(near, 1.0, de))
            coeffs = vectors.conj().T @ amps0[idx]
            half = 0.5 * np.outer(energies, ts)
            sin, cos = np.sin(half), np.cos(half)
            phase = cos - 1j * sin  # exp(-i*E_j*t/2)
            rotated = phase * coeffs[:, None]
            # generator on the state, times phase: 2*sum_k ratio_jk*
            # sin((E_j-E_k)*t/2)*rotated_k, plus t*h1_jk*c_k on near pairs
            gen = 2.0 * (sin * (ratio @ (cos * rotated)) - cos * (ratio @ (sin * rotated)))
            gen += phase * np.outer(np.where(near, h1, 0.0) @ coeffs, ts)
            mean += np.real(np.sum(rotated.conj() * gen, axis=0))
            second += np.sum(np.abs(gen) ** 2, axis=0)
        return frame.dstiffness_dg**2 * 4.0 * (second - mean * mean)

    if n_cut is not None:
        return qfi_at(n_cut), n_cut
    n_cut, values = auto_cutoff(qfi_at, rtol=rtol)
    return values, n_cut


def verify_reciprocal_relation(params: ModelParams, n_cut: int) -> float:
    """Max interior-block residual of the ladder identity closing the
    generator's commutator series:

        [H_eff, Lambda] = sqrt(epsilon)*Lambda,
        Lambda = i*sqrt(epsilon)*M - N,
        M = -i*[H0, H1],  N = -[H_eff, [H0, H1]].

    The identity is exact in the untruncated algebra; truncation corrupts the
    top rows, so the residual is evaluated on the lowest 80% of Fock indices.
    """
    eff = effective_oscillator(params)
    if eff.regime is not Regime.NORMAL:
        raise RegimeError("reciprocal relation is checked in the normal regime")
    x, p = quadratures(n_cut)
    h0 = 0.5 * eff.omega_bar * (p @ p)
    h1 = 0.5 * eff.omega_bar * (x @ x).astype(complex)
    hz = h0 + eff.epsilon_g * h1
    comm01 = h0 @ h1 - h1 @ h0
    m_op = -1j * comm01
    n_op = -(hz @ comm01 - comm01 @ hz)
    lam_op = 1j * np.sqrt(eff.epsilon) * m_op - n_op
    residual = (hz @ lam_op - lam_op @ hz) - np.sqrt(eff.epsilon) * lam_op
    interior = int(0.8 * n_cut)
    return float(np.abs(residual[:interior, :interior]).max())


# ----------------------------------------------------------------------
# finite-frequency discrepancy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyPoint:
    """One finite-frequency comparison at tau_n."""

    eta: float
    n: int
    tau: float
    inv_var_exact: float
    inv_var_limit: float
    delta: float
    n_cut: int


def finite_frequency_point(params: ModelParams, eta: float, n: int = 1) -> FrequencyPoint:
    """Finite-frequency inverted variance against the low-frequency peak,
    delta = (I_g^(eta)(tau_n) - I_g(tau_n)) / I_g(tau_n).

    The exact side evolves |down> (x) (|0>+i|1>)/sqrt(2) under the squeezed-
    frame Hamiltonian at Omega = eta*omega (the frame the closed forms live
    in) and measures <X>, <X^2> and the Richardson-centered d<X>/dg at the
    low-frequency optimal time tau_n = 2*pi*n/sqrt(epsilon) through
    quadrature_series, whose ladder always picks the cutoff.
    """
    if eta < ETA_MIN:
        raise InvalidParams("eta", f"must be >= {ETA_MIN:g}, got {eta}")
    full_params = replace(params, Omega=eta * params.omega)
    tau = float(optimal_times(params, n)[-1])
    series = quadrature_series(full_params, [tau], builder=build_squeezed_frame_hamiltonian)
    i_exact = float(series.inv_var[0])
    i_limit = inverted_variance_peak(params, n)
    return FrequencyPoint(
        eta=eta,
        n=n,
        tau=tau,
        inv_var_exact=i_exact,
        inv_var_limit=i_limit,
        delta=(i_exact - i_limit) / i_limit,
        n_cut=series.n_cut,
    )
