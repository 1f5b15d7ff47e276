"""Exact numerics in a truncated Fock space.

Every operator is filled from the bands of a and a^dag and held as the
nonzero diagonals of its real symmetric blocks: the spin (x) boson
Hamiltonian as one block over spin-major amplitudes (plain arrays, with
|down> (x) boson the boson's amplitudes zero-padded to 2*n_cut), and the
effective low-energy oscillator as its two parity blocks (it couples n only
to n and n+-2, so the even and odd Fock indices form two real tridiagonal
blocks).  Every block decomposition goes through HermitianOperator.eig and
its one routine, _block_eig, and a dense matrix exists only while it runs,
for LAPACK: eigh, or for a tridiagonal block of TRIDIAGONAL_MIN rows or
more inverse iteration, first at its untruncated spectrum with no LAPACK
call, then at eigvalsh's energies, its vectors certified by one test and
kept by one rule (eigh if they are not).  The probe is evolved
by eigendecomposition of each block (exactly unitary; an operator too small
to hold it, or a time grid that is empty, not 1-D or not finite, is rejected
before any decomposition, and a time float64 cannot resolve the phases of
after it), and the module computes the QFI two independent ways: a fidelity
finite difference and the spectral integral of the evolution generator.  It
also evolves the probe in the joint spin (x) boson squeezed frame at a finite
qubit frequency Omega (squeezed_frame_series); the runner sets Omega =
eta*omega and compares that series with the closed forms.

The effective oscillator takes d<X>_t/dg exactly (Duhamel) from the kernel
of its generator QFI, so one decomposition per cutoff level serves every
observable; each level passes its state, generator and untruncated
spectrum omega_bar*sqrt(stiffness)*(n + 1/2) to HermitianOperator.eig, so at
the large cutoffs _block_eig first certifies only the lowest modes from that
spectrum, with no dense matrix, and keeps them alone when they are all the
state and its generator reach.  squeezed_frame_series, on the joint
squeezed-frame builder, still takes a five-point stencil in g.

Every oracle, and both evolution routines, evolve the paper's one probe
state, (|0> + i|1>)/sqrt(2) (closed_form.PROBE_AMPLITUDES), the state all
the closed forms it checks are written for.

Truncation policy: every oracle doubles the basis from AUTO_CUTOFF_START
until its observables stop moving, and accepts no leaking level
(auto_cutoff): qfi_overlap's value (its fidelity step always tuned), the
series' rows on one ladder, _series_ladder.
No oracle takes a cutoff or a tolerance: they are module constants.  Only the
builders and verify_reciprocal_relation take an n_cut, an integer >= 4.
Every function here that takes a ModelParams takes one (g, lam) point: an
array of couplings is an InvalidParams before any Hamiltonian is built.  The
regime guard is model.oscillator_frame's: the generator QFI and
verify_reciprocal_relation ask it for the normal regime alone; the other
effective-oscillator oracles take either side.
States anti-squeeze near criticality, with Fock tails decaying only like
(1 - 2*epsilon_g)^n, so near-critical runs legitimately need cutoffs of
order 1/epsilon_g; the doubling ladder finds that automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import CutoffNotConverged, InvalidParams, StepTooLarge, TruncationLeak
from .closed_form import PROBE_AMPLITUDES
from .model import REGIMES, ModelParams, Regime, _one_point, oscillator_frame
from .model import effective_oscillator  # noqa: F401 (perfbench/selftest.py traces it here)

AUTO_CUTOFF_START = 32
AUTO_CUTOFF_MAX = 4096
#: auto_cutoff's default test: every value moves by at most this fraction of
#: its magnitude when the cutoff doubles.
AUTO_CUTOFF_RTOL = 1e-6
#: (rtol, atol) of quadrature_series's per-block convergence test.
SERIES_RTOL, SERIES_ATOL = 1e-6, 1e-9
#: Smallest fidelity deficit qfi_overlap accepts: np.vdot of unit vectors of
#: n <= AUTO_CUTOFF_MAX entries errs by at most n*2^-53 <= 4.5e-13, < 0.5% of it
#: (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 3.1).
DEFICIT_MIN = 1e-10

#: Fraction of top Fock indices whose total weight is checked after evolution,
#: and the most weight an evolved state may put there.
TAIL_FRACTION = 0.1
LEAK_TOL = 1e-8

#: Smallest tridiagonal block (rows) decomposed by inverse iteration and
#: _certified_modes instead of eigh.  On the effective oscillator's blocks at
#: eps_g = 0.0199 (2 vCPUs, BLAS default, best of 5): at 1024 rows eigh
#: takes 0.20 s, eigvalsh 0.092 s and all 1024 vectors 0.051 s; at 512 rows
#: 0.035 s against 0.016 + 0.012 s, a saving under 0.01 s a block.
TRIDIAGONAL_MIN = 1024
#: _block_eig, given a state, certifies the lowest m // LOW_MODES modes of
#: such a block (0.050 s at 1024 rows; all m take 0.072 s) before all m: at
#: that point and n_cut 2048 the probe reaches the lowest 59 and 66 of the two
#: blocks' 1024 modes above 1e-16, and the 131 of 256 certified hold dH/dg too.
LOW_MODES = 4
#: Largest residual over eigenvalue gap (Davis-Kahan) a mode found by inverse
#: iteration may have; _certified_modes keeps the longest prefix within it.
CERTIFY_TOL = 1e-10


# ----------------------------------------------------------------------
# operators and states
# ----------------------------------------------------------------------

def _a_band(n_cut: int) -> np.ndarray:
    """Superdiagonal of the annihilation operator: a[n, n+1] = sqrt(n+1)."""
    return np.sqrt(np.arange(1, n_cut, dtype=float))


def _x_band(n_cut: int) -> np.ndarray:
    """Superdiagonal of X: X[n, n+1] = sqrt(n+1)/sqrt(2)."""
    return _a_band(n_cut) / np.sqrt(2.0)


def _squared_bands(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and second superdiagonal of Q@Q for the truncated symmetric
    Q with zero diagonal and superdiagonal ``band`` (X, or a + a^dag), its
    only nonzero bands.  The corner entry n = n_cut-1 keeps only
    Q[n, n-1]^2.  Re(P@P) has the diagonal of X@X and its negated
    superdiagonal."""
    diag = np.append(band * band, 0.0) + np.append(0.0, band * band)
    return diag, band[:-1] * band[1:]


def _band_apply(diag: np.ndarray, sup: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T @ v for the real symmetric tridiagonal T with diagonal ``diag`` and
    superdiagonal ``sup``; ``v`` is (len(diag), k)."""
    out = diag[:, None] * v
    out[:-1] += sup[:, None] * v[1:]
    out[1:] += sup[:, None] * v[:-1]
    return out


class HermitianOperator:
    """Real symmetric operator held as invariant blocks, each by its nonzero
    diagonals: ``blocks`` lists (indices, diagonals) pairs, the operator
    acting on the basis states ``indices`` (a slice) as the m x m block whose
    k-th super- and subdiagonal are ``diagonals[k]``, of length m - k (the
    main diagonal, k = 0, sets m).  ``dim`` is n_cut for boson-only
    operators, 2*n_cut on the joint space.  eig alone calls _block_eig.
    """

    def __init__(self, blocks: list[tuple[slice, dict[int, np.ndarray]]]):
        self.blocks = [(idx, _checked_diagonals(diagonals)) for idx, diagonals in blocks]
        self.dim = sum(len(diagonals[0]) for _, diagonals in self.blocks)

    def eig(self, *reach: np.ndarray) -> list[tuple[slice, np.ndarray, np.ndarray]]:
        """(indices, energies, vectors) of each block, ascending energies
        within a block.  Each block's slice of ``reach`` = (state, dH/dg
        diagonal and superdiagonal, untruncated spectrum) is _block_eig's."""
        return [(idx, *_block_eig(diagonals, tuple(r[idx] for r in reach) or None))
                for idx, diagonals in self.blocks]


def _checked_diagonals(diagonals: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """A float copy of ``diagonals``; InvalidParams unless the main diagonal
    is there and every offset k is an integer 0 <= k < m whose diagonal holds
    m - k real, finite values."""
    if 0 not in diagonals:
        raise InvalidParams("diagonals", "no main diagonal (offset 0)")
    m = np.size(diagonals[0])
    checked = {}
    for k, values in diagonals.items():
        if not isinstance(k, (int, np.integer)) or not 0 <= k < m:
            raise InvalidParams("diagonals", f"offset {k!r} outside 0 <= k < {m}")
        values = np.asarray(values)
        if values.shape != (m - k,):
            raise InvalidParams("diagonals", f"offset {k} has shape {values.shape}, "
                                             f"not ({m - k},)")
        if values.dtype.kind not in "biuf" or not np.isfinite(values).all():
            raise InvalidParams("diagonals", f"offset {k} holds a non-real or non-finite value")
        checked[int(k)] = values.astype(float)
    return checked


def _dense(diagonals: dict[int, np.ndarray]) -> np.ndarray:
    """The symmetric block with the given (checked) diagonals, 0 elsewhere."""
    m = len(diagonals[0])
    h = np.zeros((m, m))
    for k, values in diagonals.items():
        np.fill_diagonal(h[:, k:], values)
        np.fill_diagonal(h[k:], values)
    return h


def _block_eig(diagonals: dict[int, np.ndarray],
               reach: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(energies, vectors) of one block: eigh, or for a tridiagonal block of
    TRIDIAGONAL_MIN rows or more _certified_modes, given ``reach`` = (state,
    dH diagonal and superdiagonal, untruncated spectrum) first at the lowest
    m // LOW_MODES of that spectrum, then at all of eigvalsh's energies.  A
    set is kept if it holds every mode or holds the state and closes under dH
    (_closes), else eigh: a wrong spectrum costs time only."""
    if diagonals.keys() == {0, 1} and len(diagonals[0]) >= TRIDIAGONAL_MIN:
        d, e, m = diagonals[0], diagonals[1], len(diagonals[0])
        for n in ([m // LOW_MODES] if reach else []) + [m]:
            spectrum = (reach[3] if n < m
                        else np.append(np.linalg.eigvalsh(_dense(diagonals)), np.inf))
            energies, vectors = _certified_modes(d, e, spectrum, n)
            if len(energies) == m or reach and _closes(vectors, *reach[:3]):
                return energies, vectors
    return np.linalg.eigh(_dense(diagonals))


def _certified_modes(d: np.ndarray, e: np.ndarray, spectrum: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """(energies, vectors) of the lowest modes of T = (d, e), possibly none: inverse
    iteration at the lowest ``n`` of ``spectrum``, n + 1 or more guesses at T's
    eigenvalues (inf past the last), Rayleigh-quotient energies, cut to the longest
    prefix that strictly rises and whose residuals over gaps (Davis-Kahan: bounds on
    the sines to the true eigenvectors) are <= CERTIFY_TOL, the top mode's gap up to
    a point with that many below it, counted once, over the candidate tops only."""
    vectors = _inverse_iteration(d, e, spectrum[:n])
    applied = _band_apply(d, e, vectors)
    energies = np.einsum("ij,ij->j", vectors, applied)
    applied -= energies * vectors  # in place: a complete set holds m x m floats
    residuals = np.linalg.norm(applied, axis=0)
    steps = np.diff(energies)
    below = np.append(np.inf, steps)
    ceiling = 0.5 * (energies + spectrum[1:n + 1])  # x above each candidate top
    inner = residuals[:-1] <= CERTIFY_TOL * np.minimum(below[:-1], steps)
    top = residuals <= CERTIFY_TOL * np.minimum(below, ceiling - energies)
    top &= np.append(True, np.logical_and.accumulate(inner & (steps > 0)))
    lengths = np.flatnonzero(top) + 1  # candidate prefix lengths, ascending
    k = lengths[_sturm_count(d, e, ceiling[lengths - 1]) == lengths].max(initial=0)
    return energies[:k], vectors[:, :k]


def _inverse_pivots(d: np.ndarray, e: np.ndarray, points: np.ndarray):
    """Yield 1/pivot of each row in turn of T - x = L D L^T, T = (d, e), vectorized over
    the points x; a pivot under eps*||T|| is raised to it with its sign, as T - x is singular
    to rounding at an eigenvalue x (Demmel, Applied Numerical Linear Algebra, SIAM 1997, 5.3.4)."""
    tiny = np.finfo(float).eps * (np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0))
    squares, row, inv = np.append(0.0, e * e), np.empty(len(points)), np.zeros(len(points))
    for i in range(len(d)):
        np.subtract(d[i], points, out=row)
        row -= squares[i] * inv
        np.copysign(np.maximum(np.abs(row), tiny), row, out=row)
        inv = 1.0 / row
        yield inv


def _sturm_count(d: np.ndarray, e: np.ndarray, points: np.ndarray) -> np.ndarray:
    """How many eigenvalues of T = (d, e) lie below each of ``points``: T - x's
    negative pivots (Sylvester).  _certified_modes counts once, at its candidate tops."""
    return sum(np.signbit(inv) for inv in _inverse_pivots(d, e, points))


def _inverse_iteration(d: np.ndarray, e: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Unit eigenvectors (m, len(shifts)) of the tridiagonal T = (d, e) at its
    eigenvalues ``shifts``: two Thomas solves of (T - shift) x = b over _inverse_pivots,
    vectorized over the shifts, from cos(k*phi) at the golden angle phi (a random start
    would import numpy's random module, about 10 ms a process); _certified_modes checks them."""
    m, shifts = len(d), np.asarray(shifts, dtype=float)
    inv = np.array(list(_inverse_pivots(d, e, shifts)))  # (m, len(shifts))
    row = np.empty(len(shifts))
    x = np.empty_like(inv)
    x[:] = np.cos(2.399963229728653 * np.arange(m))[:, None]
    for _ in range(2):
        for i in range(1, m):  # L y = b, L unit lower with e[i-1]/pivot[i-1]
            np.multiply(inv[i - 1], e[i - 1], out=row)
            row *= x[i - 1]
            x[i] -= row
        x[-1] *= inv[-1]
        for i in range(m - 2, -1, -1):  # U x = y, U with the pivots and e
            np.multiply(x[i + 1], e[i], out=row)
            x[i] -= row
            x[i] *= inv[i]
        x /= np.linalg.norm(x, axis=0)
    return x


def _cutoff(n_cut) -> int:
    """``n_cut`` as an int; InvalidParams unless it is an integer >= 4 (never a bool)."""
    if not isinstance(n_cut, (int, np.integer)) or n_cut < 4:
        raise InvalidParams("n_cut", f"must be an integer >= 4, got {n_cut!r}")
    return int(n_cut)


def _probe(dim: int) -> np.ndarray:
    """The probe state zero-padded to ``dim`` (to 2*n_cut: |down> (x) the probe)."""
    return np.pad(PROBE_AMPLITUDES, (0, dim - len(PROBE_AMPLITUDES)))


# ----------------------------------------------------------------------
# Hamiltonian builders
# ----------------------------------------------------------------------

def _joint_hamiltonian(
    n_cut: int, omega: float, Omega: float, coupling: float, quadratic: float
) -> HermitianOperator:
    """omega*a^dag*a + quadratic*(a+a^dag)^2 + (Omega/2)*sigma_z
    + coupling*(a+a^dag)*sigma_x on the joint space, from the Fock bands, as
    one block over (down, up) spin-major order: diagonals 0, 2 (only with a
    quadratic term), n_cut - 1 and n_cut + 1."""
    n_cut = _cutoff(n_cut)
    a = _a_band(n_cut)
    boson = omega * np.append(0.0, a * a)  # a^dag*a: n as sqrt(n)^2, as a^T@a rounds
    # the (down, up) coupling block's sub- and superdiagonal sit n_cut -+ 1
    # above the main diagonal; the first and last entries of n_cut - 1 fall
    # in the spin-diagonal blocks
    diagonals = {n_cut - 1: np.concatenate(([0.0], coupling * a, [0.0])),
                 n_cut + 1: coupling * a}
    if quadratic != 0.0:
        diag, sup = _squared_bands(a)  # (a+a^dag)^2
        boson = boson + quadratic * diag
        diagonals[2] = np.concatenate((quadratic * sup, [0.0, 0.0], quadratic * sup))
    diagonals[0] = np.concatenate((boson - 0.5 * Omega, boson + 0.5 * Omega))
    return HermitianOperator([(slice(None), diagonals)])


def build_full_hamiltonian(params: ModelParams, n_cut: int) -> HermitianOperator:
    """Joint-space Hamiltonian with the quadratic term, in the lab frame:

    omega*a^dag*a + (Omega/2)*sigma_z + (sqrt(omega*Omega)/2)*g*(a+a^dag)*sigma_x
    + lam*(a+a^dag)^2.
    """
    _one_point(params)
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
    _one_point(params)
    coupling = (
        0.5
        * np.sqrt(params.omega * params.Omega)
        * params.g
        * (1.0 + 4.0 * params.lam / params.omega) ** -0.25
    )
    omega_bar = oscillator_frame(params, *REGIMES).omega_bar
    return _joint_hamiltonian(n_cut, omega_bar, params.Omega, coupling, 0.0)


def build_effective_hamiltonian(params: ModelParams, n_cut: int) -> HermitianOperator:
    """Boson-only effective oscillator (omega_bar/2)*(P^2 + stiffness*X^2),
    built from the bands of the truncated products P@P and X@X and held as
    its even (indices 0::2) and odd (1::2) tridiagonal blocks.

    The stiffness is epsilon_g in the normal regime and epsilon_g_alpha past
    the critical point; on the critical line neither reduction applies.
    """
    _one_point(params)
    n_cut = _cutoff(n_cut)
    frame = oscillator_frame(params)
    xx_diag, xx_sup = _squared_bands(_x_band(n_cut))
    diag = 0.5 * frame.omega_bar * (xx_diag + frame.stiffness * xx_diag)
    sup = 0.5 * frame.omega_bar * (-xx_sup + frame.stiffness * xx_sup)
    return HermitianOperator([(slice(start, None, 2), {0: diag[start::2], 1: sup[start::2]})
                              for start in (0, 1)])


# ----------------------------------------------------------------------
# evolution
# ----------------------------------------------------------------------

def _propagate(eig, amps0: np.ndarray, ts, dh=None):
    """U(t)|amps0> on the grid ``ts`` from the block decompositions ``eig``,
    (dim, len(ts)); with the bands dh = (diag, sup) of a dH/dg tridiagonal in
    each block, also U(t) h(t)|amps0> for h(t) = int_0^t U^dag(s) dH U(s) ds,
    so d|psi_t>/dg = -i U(t) h(t)|psi0> (Duhamel; Wilcox, J. Math. Phys. 8, 962
    (1967)).  In the eigenbasis h_jk = dH_jk*(exp(i*(Ej-Ek)*t) - 1)/(i*(Ej-Ek)),
    t on near-degenerate pairs, as exp(i*(Ej-Ek)*t/2)*2*sin((Ej-Ek)*t/2)/(Ej-Ek)
    with the sine expanded in sin/cos of Ej*t/2: two matrix products, 0 at t = 0.
    Every block is real symmetric, so every product with its eigenvectors runs
    in real arithmetic.  InvalidParams("ts") if the phases' roundoff on the probe's
    coefficients c_k, eps*max|t|*sum_k |c_k|^2 |E_k|, exceeds AUTO_CUTOFF_RTOL."""
    ts = np.asarray(ts, dtype=float)
    block_coeffs = [_real_matmul(vectors.T, amps0[idx]) for idx, _, vectors in eig]
    roundoff = np.finfo(float).eps * np.abs(ts).max() * sum(
        np.abs(c) ** 2 @ np.abs(energies) for c, (_, energies, _) in zip(block_coeffs, eig))
    if roundoff > AUTO_CUTOFF_RTOL:
        raise InvalidParams("ts", f"float64 rounds the phases E*t by {roundoff:.1e} rad")
    out = np.empty((len(amps0), len(ts)), dtype=complex)
    hout = None if dh is None else np.empty_like(out)
    for (idx, energies, vectors), coeffs in zip(eig, block_coeffs):
        phases = np.exp(-1j * np.outer(energies, ts))
        out[idx] = _real_matmul(vectors, phases * coeffs[:, None])
        if dh is None:
            continue
        ratio = vectors.T @ _band_apply(dh[0][idx], dh[1][idx], vectors)  # dH_jk
        de = energies[:, None] - energies[None, :]
        near = de < 1e-12
        near &= de > -1e-12  # |Ej-Ek| < 1e-12 with no float temporary
        j, k = np.nonzero(near)  # the near pairs, the diagonal among them
        on_near = np.zeros(len(energies), dtype=complex)
        np.add.at(on_near, j, ratio[j, k] * coeffs[k])
        de[j, k] = np.inf  # dH_jk/(Ej-Ek), 0 on near pairs, in place: memory peaks here
        np.divide(ratio, de, out=ratio)
        half = 0.5 * np.outer(energies, ts)
        sin, cos = np.sin(half), np.cos(half)
        phase = cos - 1j * sin  # exp(-i*E_j*t/2)
        rotated = phase * coeffs[:, None]
        # exp(-i*E_j*t/2)*(h c)_j: 2*sum_k ratio_jk*sin((E_j-E_k)*t/2)*rotated_k,
        # plus t*dH_jk*c_k on near pairs
        gen = 2.0 * (sin * _real_matmul(ratio, cos * rotated)
                     - cos * _real_matmul(ratio, sin * rotated))
        gen += phase * np.outer(on_near, ts)
        hout[idx] = _real_matmul(vectors, phase * gen)
        del ratio, de, near  # before the next block allocates its own
    norm_err = np.abs(np.linalg.norm(out, axis=0) - 1.0).max()
    if not norm_err <= 1e-10:  # NaN fails too
        raise TruncationLeak(f"unitarity lost: max |norm - 1| = {norm_err}")
    return out, hout


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z from z's real and imaginary parts: a real ``a`` is never copied to complex."""
    return a @ z.real + 1j * (a @ z.imag)


def _tail_mass(out: np.ndarray, n_cut: int) -> float:
    """Most weight a column of ``out`` (n_cut-long blocks x time) puts into the top
    TAIL_FRACTION of each block's Fock indices."""
    n_tail = max(1, int(n_cut * TAIL_FRACTION))
    tail = out.reshape(-1, n_cut, out.shape[1])[:, n_cut - n_tail:]
    return float((np.abs(tail) ** 2).sum(axis=(0, 1)).max())


def _check_tail(out: np.ndarray, n_cut: int, rows: np.ndarray | None = None) -> None:
    """TruncationLeak, carrying the level's ``rows``, past LEAK_TOL of _tail_mass."""
    if (worst := _tail_mass(out, n_cut)) > LEAK_TOL:
        raise TruncationLeak(f"tail mass {worst:.3e} exceeds {LEAK_TOL:.1e}; raise n_cut", rows)


def _times(ts) -> np.ndarray:
    """``ts`` as a float array; InvalidParams unless it is a non-empty 1-D
    grid and every time is finite."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise InvalidParams("ts", f"times must be a non-empty 1-D grid, got shape {ts.shape}")
    if not np.isfinite(ts).all():
        raise InvalidParams("ts", "times must be finite")
    return ts


def evolve_grid(h: HermitianOperator, ts: Sequence[float]) -> np.ndarray:
    """exp(-i*H*t) on the probe zero-padded to h.dim, by spectral
    decomposition at every time in ``ts``; (dim, len(ts)) array.  Raises
    InvalidParams, before any decomposition, for h.dim < 2 or a bad time
    grid (_times), and TruncationLeak when an evolved state puts more than
    LEAK_TOL weight into the top Fock indices."""
    return _evolve(h, ts, 1)


def evolve_joint_grid(h: HermitianOperator, ts: Sequence[float]) -> np.ndarray:
    """evolve_grid for |down> (x) the probe, spin-major: h.dim even and >= 4,
    the tail checked on each spin block of length h.dim // 2."""
    return _evolve(h, ts, 2)


def _evolve(h: HermitianOperator, ts, blocks: int) -> np.ndarray:
    if h.dim < 2 * blocks or h.dim % blocks:
        raise InvalidParams("h", f"dim {h.dim} is not {blocks} blocks of 2 or more Fock states")
    ts = _times(ts)
    out = _propagate(h.eig(), _probe(h.dim), ts)[0]
    _check_tail(out, h.dim // blocks)
    return out


# ----------------------------------------------------------------------
# automatic cutoff selection
# ----------------------------------------------------------------------

def _pointwise(old: np.ndarray, new: np.ndarray) -> bool:
    """Whether every value moved by at most AUTO_CUTOFF_RTOL*max(|new|, |old|)."""
    tol = AUTO_CUTOFF_RTOL * np.maximum(np.abs(new), np.abs(old))
    return bool(np.all(np.abs(new - old) <= tol))


def auto_cutoff(
    run: Callable[[int], np.ndarray],
    converged: Callable[[np.ndarray, np.ndarray], bool] = _pointwise,
) -> tuple[int, np.ndarray]:
    """Double n_cut from AUTO_CUTOFF_START to AUTO_CUTOFF_MAX until ``run(n_cut)`` settles:
    ``converged(old, new)`` holds for the values at n_cut // 2 and n_cut.

    A level whose ``run`` raises TruncationLeak is never accepted; the next
    level is compared with the rows the leak carries, or starts a new pair.
    Returns (accepted n_cut, its values).  CutoffNotConverged names the last
    level that leaked and the cutoff the ladder would need next."""
    prev, moving, leak = None, False, ""
    n = AUTO_CUTOFF_START
    while n <= AUTO_CUTOFF_MAX:
        try:
            values = np.atleast_1d(np.asarray(run(n), dtype=float))
        except TruncationLeak as exc:
            prev, moving, leak = exc.rows, False, f"; n_cut = {n} leaked ({exc})"
            n *= 2
            continue
        if prev is not None and converged(prev, values):
            return n, values
        prev, moving = values, prev is not None
        n *= 2
    reason = (f"observables still moving at n_cut = {n // 2}" if moving
              else "no two consecutive levels ran without a leak")
    raise CutoffNotConverged(
        f"{reason}{leak}; the ladder would need n_cut = {n} next, above the cap {AUTO_CUTOFF_MAX}"
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


def _x_moments(amps: np.ndarray, n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """<X>_t = Re<psi|X psi> and <X^2>_t = ||X psi||^2 for the columns of
    ``amps`` (dim, T), X acting on the Fock index of each n_cut-long block."""
    n_t = amps.shape[1]
    psi = amps.reshape(-1, n_cut, n_t).swapaxes(0, 1).reshape(n_cut, -1)
    xpsi = _band_apply(np.zeros(n_cut), _x_band(n_cut), psi)
    mean = np.real(psi.conj() * xpsi).sum(axis=0)
    second = (np.abs(xpsi) ** 2).sum(axis=0)
    return mean.reshape(-1, n_t).sum(axis=0), second.reshape(-1, n_t).sum(axis=0)


def _effective_level(params: ModelParams, ts: np.ndarray, n_cut: int) -> np.ndarray:
    """One decomposition of the effective oscillator at ``n_cut``: the rows
    <X>_t, <X^2>_t, d<X>_t/dg and F_g(t) of the evolved probe state psi0, or
    TruncationLeak carrying them when psi_t leaks (_check_tail).
    dH/dg = s'*H1 (H1 = (omega_bar/2)*X^2, s' = dstiffness/dg) on either side
    of g_c, so with h(t) the generator of H1,
    d<X>_t/dg = 2*Re<psi_t|X|d_g psi_t> = 2*s'*Im<psi_t|X U(t) h(t) psi0>
    and F_g(t) = 4*s'^2*Var_psi0[h(t)]."""
    frame = oscillator_frame(params)
    dh = tuple(0.5 * frame.omega_bar * band for band in _squared_bands(_x_band(n_cut)))
    amps0 = _probe(n_cut)
    spectrum = frame.omega_bar * np.sqrt(frame.stiffness) * (np.arange(n_cut) + 0.5)
    modes = build_effective_hamiltonian(params, n_cut).eig(amps0, *dh, spectrum)
    psi, hpsi = _propagate(modes, amps0, ts, dh)
    mean, second = _x_moments(psi, n_cut)
    x_hpsi = _band_apply(np.zeros(n_cut), _x_band(n_cut), hpsi)
    deriv = 2.0 * frame.dstiffness_dg * np.imag(psi.conj() * x_hpsi).sum(axis=0)
    h_mean = np.real(psi.conj() * hpsi).sum(axis=0)
    qfi = 4.0 * frame.dstiffness_dg**2 * ((np.abs(hpsi) ** 2).sum(axis=0) - h_mean**2)
    rows = np.array([mean, second, deriv, qfi])
    _check_tail(psi, n_cut, rows)
    return rows


def _closes(vectors: np.ndarray, amps: np.ndarray, dh_diag: np.ndarray,
            dh_sup: np.ndarray) -> bool:
    """Whether the orthonormal modes V = ``vectors`` hold the state a =
    ``amps``, ||a - V V^T a|| <= 1e-12, and close under the tridiagonal dH
    on it: sum_k |c_k| ||(1 - V V^T) dH v_k|| <= 1e-10 ||dH V c||, c = V^T a."""
    coeffs = _real_matmul(vectors.T, amps)
    if np.linalg.norm(amps - _real_matmul(vectors, coeffs)) > 1e-12:
        return False
    moved = _band_apply(dh_diag, dh_sup, vectors)  # dH v_k
    outside = moved - vectors @ (vectors.T @ moved)  # (1 - V V^T) dH v_k
    return bool(np.abs(coeffs) @ np.linalg.norm(outside, axis=0)
                <= 1e-10 * np.linalg.norm(_real_matmul(moved, coeffs)))


def _series_at_cutoff(params: ModelParams, ts: np.ndarray, dg: float, n_cut: int) -> np.ndarray:
    """Rows x, x^2, the 4-point (Richardson) g-derivative of x, and its two centered
    stencils (full and halved step, base step ``dg``), at one cutoff of the joint
    squeezed-frame builder, for |down> (x) the probe state.  The exact derivative would move the
    frequency-scaling row lam=-0.247, eta=1e4 (inv_var_exact 73884.747 -> 73884.932 at
    n_cut 256) past the benchmark gate's same-cutoff 1e-6 until its reference moves.
    Roundoff alone decides that row's cutoff: 256 in the recorded reference (two BLAS
    threads), 512 at one.  Any change to the order of arithmetic here, in _joint_hamiltonian
    or in _propagate can move it a doubling and fail the gate until the references are
    recorded again: the two parity chains, their blocks bit-identical, moved it to 1024."""

    def measure(gv: float) -> tuple[np.ndarray, np.ndarray]:
        h = build_squeezed_frame_hamiltonian(replace(params, g=gv), n_cut)
        return _x_moments(evolve_joint_grid(h, ts), n_cut)

    x0, xx0 = measure(params.g)
    (xp1, _), (xm1, _) = measure(params.g + dg), measure(params.g - dg)
    (xp2, _), (xm2, _) = measure(params.g + 0.5 * dg), measure(params.g - 0.5 * dg)
    d_wide = (xp1 - xm1) / (2.0 * dg)
    d_half = (xp2 - xm2) / dg
    deriv = (4.0 * d_half - d_wide) / 3.0  # Richardson: O(dg^4) bias
    return np.array([x0, xx0, deriv, d_wide, d_half])


def _series_ladder(run: Callable[[int], np.ndarray], ts: np.ndarray,
                   pointwise: int = 0) -> tuple[QuadratureSeries, np.ndarray]:
    """QuadratureSeries from the rows x, x^2, dx/dg of ``run``, and its further rows, at the
    first level auto_cutoff accepts: x, x^2 and dx/dg each moved by at most SERIES_ATOL +
    SERIES_RTOL*(the row's scale) from the level below, the next ``pointwise`` rows _pointwise."""

    def converged(prev: np.ndarray, new: np.ndarray) -> bool:
        # these curves cross zero, so each is judged against its own scale
        scale = np.maximum(np.abs(prev[:3]).max(axis=1), np.abs(new[:3]).max(axis=1))
        tol = SERIES_ATOL + SERIES_RTOL * np.maximum(scale, SERIES_ATOL)
        return (not np.any(np.abs(new[:3] - prev[:3]).max(axis=1) > tol)
                and _pointwise(prev[3:3 + pointwise], new[3:3 + pointwise]))

    n_cut, rows = auto_cutoff(run, converged=converged)
    return QuadratureSeries(ts, *rows[:3], n_cut), rows[3:]


def quadrature_series(params: ModelParams, ts: Sequence[float]) -> QuadratureSeries:
    """<X>_t, <X^2>_t and d<X>_t/dg of the probe state under the effective
    oscillator on a grid, at the cutoff _series_ladder accepts for these three
    rows.  A bad time grid (_times) is an InvalidParams."""
    _one_point(params)
    ts = _times(ts)
    return _series_ladder(partial(_effective_level, params, ts), ts)[0]


def check_g_stencil(g):
    """The base step dg = 1e-5*max(g, 0.01) of squeezed_frame_series's g-stencil at each
    coupling in ``g``; InvalidParams if a foot g - dg is below 0 as float64 computes it."""
    dg = 1e-5 * np.maximum(g, 0.01)
    if np.any(g - dg < 0):
        raise InvalidParams("g", f"the g-stencil takes g = {np.min(g):g} below 0")
    return dg


def squeezed_frame_series(params: ModelParams, ts: Sequence[float]) -> QuadratureSeries:
    """quadrature_series for |down> (x) the probe state under the joint
    squeezed-frame Hamiltonian (build_squeezed_frame_hamiltonian) at the
    qubit frequency params.Omega, the frame the closed forms are written in.

    The derivative is a Richardson-extrapolated centered difference, base
    step dg from check_g_stencil, whose two stencils must agree to 1e-3 of the
    derivative scale, else StepTooLarge.  An array of couplings, a g the
    stencil would take below 0 (check_g_stencil) or a bad time grid (_times)
    is an InvalidParams before anything is built.
    """
    _one_point(params)
    dg = check_g_stencil(params.g)
    ts = _times(ts)
    series, (d_wide, d_half) = _series_ladder(partial(_series_at_cutoff, params, ts, dg), ts)
    scale = np.abs(series.x_deriv_g).max()
    if scale > 0 and np.abs(d_half - d_wide).max() > 1e-3 * scale:
        raise StepTooLarge("halved and full g-steps disagree beyond 1e-3 of the derivative "
                           "scale; the response is nonlinear at this dg")
    return series


# ----------------------------------------------------------------------
# QFI, two independent ways
# ----------------------------------------------------------------------

def qfi_overlap(params: ModelParams, t: float) -> float:
    """QFI of the effective oscillator about the probe state from the
    fidelity drop between evolutions at g -/+ dg/2:

    F ~= 8*(1 - |<psi_{g-dg/2}(t)|psi_{g+dg/2}(t)>|) / dg^2.

    The step dg is tuned from 1e-3*max(g, 0.01) so the fidelity deficit sits
    near 1e-6, far from both the quadratic-validity ceiling (1e-2) and
    roundoff (under DEFICIT_MIN the step grows to its cap, 0.3g), and the
    ladder picks the cutoff at AUTO_CUTOFF_RTOL.  Raises StepTooLarge when the
    tuned step leaves the deficit above 1e-2, and InvalidParams naming g when
    it ends under DEFICIT_MIN or, before any decomposition, when the first
    step would take g below 0 (or naming t unless t is a finite number).
    F = 0 at t = 0, where every g gives the probe.
    """
    _one_point(params)
    if np.ndim(t) or not np.isfinite(t):
        raise InvalidParams("t", f"must be a finite number, got {t!r}")
    first = 1e-3 * max(params.g, 0.01)
    if params.g < 0.5 * first:
        raise InvalidParams("g", f"the fidelity step {first:g} takes g = {params.g:g} below 0")

    def deficit_at(n: int, step: float) -> float:
        def state(gv):
            return evolve_grid(build_effective_hamiltonian(replace(params, g=gv), n), [t])[:, 0]

        # rounding can make |<a|b>| exceed 1: DEFICIT_MIN refuses that too
        return 1.0 - abs(np.vdot(state(params.g - 0.5 * step), state(params.g + 0.5 * step)))

    def qfi_at(n: int) -> float:
        if t == 0:
            return 0.0
        step = first
        for _ in range(40):  # geometric search for deficit ~ 1e-6
            d = deficit_at(n, step)
            if d > 1e-2:
                step *= 0.25
            elif d < DEFICIT_MIN and step < 0.3 * params.g:
                step = 0.3 * params.g  # under roundoff: try the largest step
            else:
                step = min(step * np.sqrt(1e-6 / max(d, DEFICIT_MIN)), 0.3 * params.g)
                break
        d = deficit_at(n, step)
        if d > 1e-2:
            raise StepTooLarge(f"fidelity deficit {d:.3e} > 1e-2 at the tuned step "
                               f"{step:.3e} about g = {params.g:g}")
        if d < DEFICIT_MIN:
            raise InvalidParams("g", f"fidelity deficit {d:.3e} at the step {step:.3e} is "
                                     f"under the roundoff floor {DEFICIT_MIN:g}")
        return 8.0 * d / step**2

    _, values = auto_cutoff(qfi_at)
    return float(values[0])


def generator_qfi_grid(params: ModelParams,
                       ts: Sequence[float]) -> tuple[QuadratureSeries, np.ndarray]:
    """QFI about the probe state from the spectral integral of the evolution
    generator, on a whole time grid with one decomposition of each parity
    block per cutoff, normal regime only (RegimeError past it).

    With H_eff = H0 + zeta*H1 (H0 = wbar/2*P^2, H1 = wbar/2*X^2,
    zeta = epsilon_g), the generator is h = int_0^t H1(s) ds, and
    F_g = (d epsilon_g/d g)^2 * 4*Var[h].  Returns (series, F_g) at the one
    cutoff where _series_ladder accepts all four rows, F_g (>= 0, 0 at t = 0)
    _pointwise.  A bad time grid (_times) is an InvalidParams.
    """
    _one_point(params)
    oscillator_frame(params, Regime.NORMAL)
    ts = _times(ts)
    series, (qfi,) = _series_ladder(partial(_effective_level, params, ts), ts, pointwise=1)
    return series, qfi


def verify_reciprocal_relation(params: ModelParams, n_cut: int) -> float:
    """Max interior-block residual of the ladder identity closing the
    generator's commutator series:

        [H_eff, Lambda] = sqrt(epsilon)*Lambda,
        Lambda = i*sqrt(epsilon)*M - N,
        M = -i*[H0, H1],  N = -[H_eff, [H0, H1]],

    so Lambda = sqrt(epsilon)*[H0, H1] + [H_eff, [H0, H1]].  H0 =
    (omega_bar/2)*P^2 and H1 = (omega_bar/2)*X^2 are real, from the bands of
    the truncated X@X (P@P negates its second superdiagonal).  The identity is
    exact in the untruncated algebra; truncation corrupts the top rows, so the
    residual is evaluated on the lowest 80% of Fock indices.
    """
    _one_point(params)
    n_cut = _cutoff(n_cut)
    frame = oscillator_frame(params, Regime.NORMAL)
    diag, sup = _squared_bands(_x_band(n_cut))
    h0 = 0.5 * frame.omega_bar * _dense({0: diag, 2: -sup})
    h1 = 0.5 * frame.omega_bar * _dense({0: diag, 2: sup})
    hz = h0 + frame.stiffness * h1
    comm01 = h0 @ h1 - h1 @ h0
    lam_op = np.sqrt(frame.epsilon) * comm01 + (hz @ comm01 - comm01 @ hz)
    residual = (hz @ lam_op - lam_op @ hz) - np.sqrt(frame.epsilon) * lam_op
    interior = int(0.8 * n_cut)
    return float(np.abs(residual[:interior, :interior]).max())
