import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqm import (
    PROBE_AMPLITUDES,
    CutoffNotConverged,
    InvalidParams,
    ModelParams,
    RegimeError,
    StepTooLarge,
    TruncationLeak,
    auto_cutoff,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_squeezed_frame_hamiltonian,
    evolve_grid,
    oscillator_frame,
    generator_qfi_grid,
    inverted_variance,
    inverted_variance_peak,
    optimal_times,
    peak_time,
    qfi_g,
    qfi_overlap,
    quadrature_series,
    squeezed_frame_series,
    verify_reciprocal_relation,
    x_mean,
    x_variance,
)
from cqm import fock
from cqm.fock import (
    HermitianOperator,
    _band_apply,
    _certified_modes,
    _dense,
    _effective_level,
    _inverse_iteration,
    _probe,
    _squared_bands,
    _sturm_count,
    _x_band,
    _x_moments,
    evolve_joint_grid,
)
from cqm.lindblad import NO_DECAY, integrate_moments, moment_generator


def params(g, lam=0.0, omega=1.0, Omega=1e4):
    return ModelParams(omega=omega, Omega=Omega, g=g, lam=lam)


@pytest.fixture
def shifts(monkeypatch):
    """The number of vectors each inverse iteration finds, in call order."""
    calls = []
    iterate = fock._inverse_iteration

    def counted(d, e, at):
        calls.append(len(at))
        return iterate(d, e, at)

    monkeypatch.setattr(fock, "_inverse_iteration", counted)
    return calls


def assembled(op):
    """The operator ``op`` as one matrix, each block filled as eig() fills it."""
    out = np.zeros((op.dim, op.dim))
    for idx, diagonals in op.blocks:
        out[idx, idx] = _dense(diagonals)
    return out


def destroy(n_cut):
    return np.diag(np.sqrt(np.arange(1, n_cut, dtype=float)), 1)


def quadratures(n_cut):
    """Dense X = (a + a^dag)/sqrt(2) (real) and P = i(a^dag - a)/sqrt(2) (imaginary)."""
    a = destroy(n_cut)
    return (a + a.T) / np.sqrt(2.0), 1j * (a.T - a) / np.sqrt(2.0)


def blockwise_generator_qfi(p, ts, n_cut):
    """generator_qfi_grid's kernel as it stood before the Duhamel kernel was
    shared: per parity block, the variance summed in the eigenbasis."""
    frame = oscillator_frame(p)
    ts = np.asarray(ts, dtype=float)
    h1_diag, h1_sup = (0.5 * frame.omega_bar * band for band in _squared_bands(_x_band(n_cut)))
    amps0 = _probe(n_cut)
    mean = np.zeros(len(ts))
    second = np.zeros(len(ts))
    for idx, energies, vectors in build_effective_hamiltonian(p, n_cut).eig():
        h1 = vectors.T @ _band_apply(h1_diag[idx], h1_sup[idx], vectors)
        de = energies[:, None] - energies[None, :]
        near = np.abs(de) < 1e-12
        ratio = np.where(near, 0.0, h1 / np.where(near, 1.0, de))
        coeffs = vectors.conj().T @ amps0[idx]
        half = 0.5 * np.outer(energies, ts)
        sin, cos = np.sin(half), np.cos(half)
        phase = cos - 1j * sin
        rotated = phase * coeffs[:, None]
        gen = 2.0 * (sin * (ratio @ (cos * rotated)) - cos * (ratio @ (sin * rotated)))
        gen += phase * np.outer(np.where(near, h1, 0.0) @ coeffs, ts)
        mean += np.real(np.sum(rotated.conj() * gen, axis=0))
        second += np.sum(np.abs(gen) ** 2, axis=0)
    return frame.dstiffness_dg**2 * 4.0 * (second - mean * mean)


def level_qfi(p, ts, n_cut):
    """generator_qfi_grid's F_g row at one cutoff level: row 3 of
    _effective_level, a TruncationLeak if the level leaks, as on the ladder."""
    return _effective_level(p, np.asarray(ts, dtype=float), n_cut)[3]


def level_series(p, ts, n_cut):
    """quadrature_series's rows x, x^2, dx/dg at one cutoff level, a
    TruncationLeak if the level leaks, as on the ladder."""
    return _effective_level(p, np.asarray(ts, dtype=float), n_cut)[:3]


def dense_joint_hamiltonian(n_cut, omega, Omega, coupling, quadratic):
    """Reference assembly from dense ladder matrices and Kronecker products:
    omega*a^dag*a + quadratic*(a+a^dag)^2 + (Omega/2)*sigma_z
    + coupling*(a+a^dag)*sigma_x, spin-major in (down, up) order."""
    a = destroy(n_cut)
    q = a + a.T
    boson = omega * (a.T @ a) + quadratic * (q @ q)
    sz = np.diag([-1.0, 1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (
        np.kron(np.eye(2), boson)
        + np.kron(0.5 * Omega * sz, np.eye(n_cut))
        + np.kron(coupling * sx, q)
    )


# the frequency-scaling defaults: (g, lam) cases times Omega = eta*omega
FREQUENCY_SCALING_POINTS = [
    (g, lam, eta) for g, lam in ((0.9, 0.0), (0.1, -0.247))
    for eta in (1e2, 3e2, 1e3, 3e3, 1e4)
]


class TestBuilders:
    def test_decoupled_full_hamiltonian_is_diagonal(self):
        p = params(0.0, Omega=7.0, omega=2.0)
        h = assembled(build_full_hamiltonian(p, 5))
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        fock_e = 2.0 * np.arange(5)
        expected = np.concatenate([fock_e - 3.5, fock_e + 3.5])
        assert np.allclose(np.diag(h).real, expected)

    def test_quadratic_only_ground_energy_converges_to_bogoliubov(self):
        # boson block of the g = 0 model: lowest eigenvalue -> (omega_bar - omega)/2
        lam = 0.3
        p = params(0.0, lam=lam)
        omega_bar = np.sqrt(1 + 4 * lam)
        errs = []
        for n_cut in (8, 16, 32, 64):
            h = assembled(build_full_hamiltonian(p, n_cut))
            boson_block = h[:n_cut, :n_cut] + 0.5 * p.Omega * np.eye(n_cut)
            e0 = np.linalg.eigvalsh(boson_block)[0]
            errs.append(abs(e0 - (omega_bar - 1.0) / 2.0))
        assert errs[-1] < 1e-10
        assert errs[0] > errs[-1]  # convergence sweep actually improves

    def test_hermiticity_of_all_builders(self):
        p = params(0.7, lam=-0.1, Omega=321.0)
        for build in (build_full_hamiltonian, build_squeezed_frame_hamiltonian):
            h = assembled(build(p, 24))
            assert np.abs(h - h.conj().T).max() < 1e-12

    def test_squeezed_frame_equals_lab_frame_without_quadratic_term(self):
        p = params(0.9, lam=0.0, Omega=100.0)
        a = assembled(build_full_hamiltonian(p, 16))
        b = assembled(build_squeezed_frame_hamiltonian(p, 16))
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("g, lam, Omega, n_cut", [
        (0.5, 0.3, 10.0, 256), (0.5, -0.2, 10.0, 512), (0.5, 0.3, 100.0, 256)])
    def test_squeeze_maps_the_lab_frame_onto_the_squeezed_frame(self, g, lam, Omega, n_cut):
        # the squeeze that absorbs lam*(a+a^dag)^2 turns omega into omega_bar
        # and the coupling's g into g*(1+4*lam/omega)^(-1/4), and shifts every
        # energy by the zero-point difference (omega_bar - omega)/2
        p = params(g, lam=lam, Omega=Omega)
        lab, squeezed = (np.sort(build(p, n_cut).eig()[0][1])[:20]
                         for build in (build_full_hamiltonian, build_squeezed_frame_hamiltonian))
        shift = 0.5 * (oscillator_frame(p).omega_bar - p.omega)
        assert np.abs(lab - (squeezed + shift)).max() <= 1e-12

    def test_effective_unit_stiffness_is_harmonic(self):
        h = build_effective_hamiltonian(params(0.0), 60)
        energies = np.sort(np.concatenate([e for _, e, _ in h.eig()]))
        assert np.allclose(energies[:10], np.arange(10) + 0.5, atol=1e-10)

    def test_effective_gaps_scale_with_sqrt_stiffness(self):
        p = params(0.9)
        frame = oscillator_frame(p)
        h = build_effective_hamiltonian(p, 120)
        energies = np.sort(np.concatenate([e for _, e, _ in h.eig()]))
        gaps = np.diff(energies[:8])
        assert np.allclose(gaps, frame.omega_bar * np.sqrt(frame.stiffness), rtol=1e-9)

    @pytest.mark.parametrize("ratio, lam, n_cut", [
        pytest.param(1.2, 0.0, 256, id="1.2"),
        pytest.param(1.3, 0.0, 256, id="1.3"),
        pytest.param(1.2, -0.2, 384, id="1.2-lam=-0.2"),
        pytest.param(1.3, -0.2, 384, id="1.3-lam=-0.2"),
    ])
    def test_superradiant_frame_meets_the_spin_boson_model(self, ratio, lam, n_cut):
        # past g_c the lab-frame model's lowest excitation, averaged over its
        # two near-degenerate pairs, tends to omega_bar*sqrt(s) as Omega grows
        # (Hwang, Puebla & Plenio 2015); one Richardson step in 1/Omega from
        # Omega = 200 and 400 meets it to 3.9e-4 and 1.0e-4 of its value, and its
        # g-slope omega_bar*(ds/dg)/(2*sqrt(s)) to 3.8e-3 and 1.3e-3 (n_cut 512
        # moves none of these gaps by more than 2e-12).  At lam = -0.2 the
        # squeezed frame is the lam = 0 model at omega_bar = sqrt(0.2), coupling
        # g/g_c and Omega/omega_bar up to 894; its displacement needs n_cut 384
        # (at 256 the 1.3 gaps are off by O(1), and 512 moves none by more
        # than 1.1e-10), and it meets the limit to 7.3e-5 and 1.9e-5, the slope
        # to 6.8e-4 and 2.4e-4
        build = build_squeezed_frame_hamiltonian if lam else build_full_hamiltonian
        g = ratio * np.sqrt(1.0 + 4.0 * lam)  # g_c at omega = 1

        def gap(coupling, Omega):
            h = build(params(coupling, lam=lam, Omega=Omega), n_cut)
            e = np.linalg.eigvalsh(assembled(h))[:4]
            return 0.5 * (e[2] + e[3] - e[0] - e[1])

        def limit(coupling):
            return 2.0 * gap(coupling, 400.0) - gap(coupling, 200.0)

        frame, step = oscillator_frame(params(g, lam=lam)), 1e-4 * g
        root = np.sqrt(frame.stiffness)
        assert limit(g) == pytest.approx(frame.omega_bar * root, rel=1e-3)
        slope = (limit(g + step) - limit(g - step)) / (2.0 * step)
        assert slope == pytest.approx(frame.omega_bar * frame.dstiffness_dg / (2.0 * root),
                                      rel=1e-2)

    def test_effective_ground_state_is_squeezed_vacuum(self):
        p = params(0.9)
        stiffness = oscillator_frame(p).stiffness
        n_cut = 120
        h = build_effective_hamiltonian(p, n_cut)
        even, _, vecs = h.eig()[0]  # the ground state lies in the even block
        ground = np.zeros(n_cut)
        ground[even] = vecs[:, 0]
        x, _ = quadratures(n_cut)
        xx = ground @ (x @ x) @ ground
        assert xx == pytest.approx(0.5 / np.sqrt(stiffness), rel=1e-9)

    @pytest.mark.parametrize("g, lam, n_cut", [(0.9, 0.0, 64), (0.099, -0.2475, 257), (1.2, 0.1, 40)])
    def test_band_built_effective_equals_dense_products(self, g, lam, n_cut):
        p = params(g, lam=lam)
        frame = oscillator_frame(p)
        x, pq = quadratures(n_cut)
        dense = 0.5 * frame.omega_bar * ((pq @ pq).real + frame.stiffness * (x @ x))
        h = build_effective_hamiltonian(p, n_cut)
        assert [idx for idx, _ in h.blocks] == [slice(0, None, 2), slice(1, None, 2)]
        assert np.abs(assembled(h) - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("g, lam, n_cut", [(0.9, 0.0, 64), (0.099, -0.2475, 256), (1.2, 0.1, 41)])
    def test_block_spectra_make_the_full_spectrum(self, g, lam, n_cut):
        h = build_effective_hamiltonian(params(g, lam=lam), n_cut)
        energies = np.sort(np.concatenate([e for _, e, _ in h.eig()]))
        full = np.linalg.eigvalsh(assembled(h))
        assert np.abs(energies - full).max() <= 1e-12 * np.abs(full).max()

    def test_blocks_are_checked_for_hermiticity(self):
        # a bad second block is caught as well as a bad first one: a value off
        # the real line would make the symmetric block non-Hermitian
        good = {0: np.ones(2), 1: np.ones(1)}
        for bad in ({0: np.ones(2), 1: np.array([1j])}, {0: np.array([0.0, np.nan])},
                    {0: np.array([np.inf, 0.0])}, {0: np.array(["1", "2"])}):
            with pytest.raises(InvalidParams):
                HermitianOperator(blocks=[(slice(0, None, 2), good), (slice(1, None, 2), bad)])
        h = HermitianOperator(blocks=[(slice(0, None, 2), good), (slice(1, None, 2), good)])
        assert h.dim == 4
        assert np.array_equal(assembled(h), [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]])

    def test_effective_regime_dispatch(self):
        h = build_effective_hamiltonian(params(1.2), 16)  # superradiant: fine
        assert h.dim == 16
        with pytest.raises(RegimeError):
            build_effective_hamiltonian(params(1.0), 16)
        with pytest.raises(InvalidParams):
            build_effective_hamiltonian(params(0.9), 3)

    @pytest.mark.parametrize("builder", [build_full_hamiltonian,
                                         build_squeezed_frame_hamiltonian])
    def test_joint_builders_need_four_fock_states(self, builder):
        with pytest.raises(InvalidParams, match="n_cut"):
            builder(params(0.9, Omega=50.0), 3)
        assert builder(params(0.9, Omega=50.0), 4).dim == 8

    @pytest.mark.parametrize("call, field", [
        (lambda p: build_effective_hamiltonian(p, 4.5), "n_cut"),  # was rounded to dim 5
        (lambda p: build_full_hamiltonian(p, 8.0), "n_cut"),  # blamed "offset 7.0"
        (lambda p: build_squeezed_frame_hamiltonian(p, np.float64(8.0)), "n_cut"),
        (lambda p: build_effective_hamiltonian(p, True), "n_cut"),
        (lambda p: verify_reciprocal_relation(p, 0), "n_cut"),  # a zero-size ValueError
        (lambda p: verify_reciprocal_relation(p, 3.0), "n_cut"),
        (lambda p: verify_reciprocal_relation(p, np.int64(2)), "n_cut"),
    ], ids=["effective-4.5", "full-8.0", "squeezed-float64", "effective-True", "reciprocal-0",
            "reciprocal-3.0", "reciprocal-int64-2"])
    def test_sizes_rejected_unless_integers_in_range(self, monkeypatch, call, field):
        # before any band, padded state or decomposition is made
        def allocates(*args, **kwargs):
            raise AssertionError("allocated before the size was checked")

        for name in ("_a_band", "_x_band", "_probe", "_block_eig"):
            monkeypatch.setattr(fock, name, allocates)
        with pytest.raises(InvalidParams, match=field):
            call(params(0.9, Omega=50.0))

    @pytest.mark.parametrize("call", [
        lambda p: build_full_hamiltonian(p, 16),  # numpy broadcasting ValueErrors
        lambda p: build_squeezed_frame_hamiltonian(p, 16),
        lambda p: build_effective_hamiltonian(p, 16),
        lambda p: quadrature_series(p, [1.0]),
        lambda p: qfi_overlap(p, 1.0),  # "truth value ... ambiguous"
        lambda p: squeezed_frame_series(p, [1.0]),
        lambda p: generator_qfi_grid(p, [1.0]),  # a RegimeError for two normal couplings
        lambda p: verify_reciprocal_relation(p, 16),
        lambda p: moment_generator(p, NO_DECAY),  # "inhomogeneous shape"
        lambda p: integrate_moments(p, NO_DECAY, [0.0, 1.0]),
    ], ids=["full", "squeezed", "effective", "series", "overlap",
            "frequency", "generator", "reciprocal", "moment-generator",
            "integrate-moments"])
    def test_array_couplings_rejected_before_any_hamiltonian_is_built(self, monkeypatch, call):
        # ModelParams holds an array of couplings for the closed forms; the
        # exact engines evolve one point a call
        def allocates(*args, **kwargs):
            raise AssertionError("allocated before the coupling was checked")

        for name in ("_a_band", "_x_band", "_probe", "_block_eig"):
            monkeypatch.setattr(fock, name, allocates)
        with pytest.raises(InvalidParams) as err:
            call(params(np.array([0.5, 0.6])))
        assert err.value.field == "g"

    def test_hermitian_wrapper_rejects_nonhermitian(self):
        # complex: i on both off-diagonals is symmetric but not Hermitian
        with pytest.raises(InvalidParams, match="non-real"):
            HermitianOperator([(slice(None), {0: np.zeros(2), 1: np.array([1j])})])
        # offsets outside 0 <= k < m, a non-integer offset, no main diagonal,
        # an empty or scalar one
        for diagonals in ({0: np.zeros(3), -1: np.zeros(2)}, {0: np.zeros(3), 3: np.zeros(0)},
                          {0: np.zeros(3), 1.0: np.zeros(2)}, {1: np.zeros(2)}, {0: np.zeros(0)},
                          {0: 1.0}):
            with pytest.raises(InvalidParams):
                HermitianOperator([(slice(None), diagonals)])
        # a diagonal of length other than m - k
        for values in (np.zeros(3), np.zeros(1), np.zeros((2, 1))):
            with pytest.raises(InvalidParams, match="shape"):
                HermitianOperator([(slice(None), {0: np.zeros(3), 1: values})])
        # the diagonals are copied: later writes to the caller's array do not reach eig()
        diag = np.arange(3.0)
        h = HermitianOperator([(slice(None), {0: diag, 2: np.ones(1)})])
        diag[:] = 7.0
        assert np.array_equal(assembled(h), [[0, 0, 1], [0, 1, 0], [1, 0, 2]])

    @pytest.mark.parametrize("n_cut", [64, 128, 256, 512])
    def test_squeezed_frame_equals_dense_reference_bit_for_bit(self, n_cut):
        for g, lam, eta in FREQUENCY_SCALING_POINTS:
            p = params(g, lam=lam, Omega=eta)
            h = build_squeezed_frame_hamiltonian(p, n_cut)
            assert [idx for idx, _ in h.blocks] == [slice(None)]
            coupling = 0.5 * np.sqrt(p.omega * p.Omega) * g * (1.0 + 4.0 * lam) ** -0.25
            omega_bar = oscillator_frame(p).omega_bar
            reference = dense_joint_hamiltonian(n_cut, omega_bar, p.Omega, coupling, 0.0)
            assert np.array_equal(assembled(h), reference), (g, lam, eta)

    @pytest.mark.parametrize("n_cut", [16, 64, 256, 512])
    def test_full_equals_dense_reference(self, n_cut):
        # the (a+a^dag)^2 diagonal is a sum of two squares, which the dense
        # product may round differently; everything else matches exactly
        points = FREQUENCY_SCALING_POINTS + [(0.7, 0.3, 2.0), (1.3, 1.5, 5.0), (0.5, -0.2, 1.0)]
        for g, lam, eta in points:
            p = params(g, lam=lam, Omega=eta)
            h = assembled(build_full_hamiltonian(p, n_cut))
            coupling = 0.5 * np.sqrt(p.omega * p.Omega) * g
            reference = dense_joint_hamiltonian(n_cut, p.omega, p.Omega, coupling, lam)
            assert np.abs(h - reference).max() <= 1e-15 * np.abs(reference).max(), (g, lam, eta)
            off_diagonal = ~np.eye(2 * n_cut, dtype=bool)
            assert np.array_equal(h[off_diagonal], reference[off_diagonal])


class TestEvolve:
    def test_zero_time_identity(self):
        h = build_effective_hamiltonian(params(0.9), 32)
        out = evolve_grid(h, [0.0])[:, 0]
        assert np.allclose(out, _probe(32))

    def test_diagonal_hamiltonian_only_rotates_phases(self):
        # spectral propagation of an arbitrary state, below the probe routines
        h = HermitianOperator([(slice(None), {0: np.arange(8, dtype=float)})])
        amps = np.append(np.ones(7), 0.0) / np.sqrt(7)
        out = fock._propagate(h.eig(), amps, [0.37])[0][:, 0]
        assert np.allclose(np.abs(out), np.abs(amps))
        assert np.allclose(out, amps * np.exp(-1j * 0.37 * np.arange(8)))

    def test_norm_preserved_on_long_grid(self):
        h = build_effective_hamiltonian(params(0.9), 64)
        out = evolve_grid(h, np.linspace(0, 100, 7))
        assert np.abs(np.linalg.norm(out, axis=0) - 1).max() < 1e-12

    def test_truncation_leak_raises(self):
        # strong anti-squeezing in a tiny basis must trip the tail check
        p = params(0.099, lam=-0.2475)
        h = build_effective_hamiltonian(p, 16)
        tau = float(optimal_times(p, 1)[0])
        with pytest.raises(TruncationLeak):
            evolve_grid(h, [tau / 2])

    def test_joint_state_roundtrip(self):
        p = params(0.9, Omega=50.0)
        h = build_squeezed_frame_hamiltonian(p, 24)
        psi = _probe(48)  # |down> (x) the probe, spin-major
        assert psi.shape == (48,) and psi.dtype == complex
        assert np.array_equal(psi[:2], PROBE_AMPLITUDES) and not psi[2:].any()
        out = evolve_joint_grid(h, [0.0, 1.0])
        assert np.abs(out[:, 0] - psi).max() < 1e-12
        assert np.linalg.norm(out[:, 1]) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out[24:, 1]).max() > 0.0  # the coupling flips the spin

    @pytest.mark.parametrize("evolve, dim", [
        (evolve_grid, 1), (evolve_joint_grid, 1), (evolve_joint_grid, 2),
        (evolve_joint_grid, 33),
    ], ids=["boson-1", "joint-1", "joint-2", "joint-odd"])
    def test_operators_too_small_for_the_probe_rejected(self, monkeypatch, evolve, dim):
        # before any decomposition: an odd joint dim used to fail in the tail
        # check's reshape with numpy's ValueError
        def no_decomposition(*args):
            raise AssertionError("a block was decomposed before the operator was checked")

        h = HermitianOperator([(slice(None), {0: np.arange(float(dim))})])
        monkeypatch.setattr(fock, "_block_eig", no_decomposition)
        with pytest.raises(InvalidParams, match=f"h: dim {dim} "):
            evolve(h, [1.0])

    @pytest.mark.parametrize("evolve, dim", [(evolve_grid, 2), (evolve_joint_grid, 4)],
                             ids=["boson-2", "joint-4"])
    def test_smallest_operators_pass_the_size_check(self, evolve, dim):
        # the probe fills the top Fock slot of each n_cut = 2 block, so the
        # evolution runs and the tail check, not the size check, refuses it
        h = HermitianOperator([(slice(None), {0: np.arange(float(dim)), 1: np.ones(dim - 1)})])
        with pytest.raises(TruncationLeak, match="tail mass"):
            evolve(h, [0.0, 0.3])

    @pytest.mark.parametrize("ts, what", [
        ([1.0, np.nan], "finite"), ([np.inf], "finite"), ([0.0, -np.inf], "finite"),
        ([], "non-empty 1-D"), ([[1.0, 2.0]], "non-empty 1-D"),
    ], ids=["nan", "inf", "-inf", "empty", "2-D"])
    def test_non_finite_times_rejected_before_any_decomposition(self, monkeypatch, ts, what):
        # a NaN time used to give NaN rows at a pinned cutoff, and on the
        # automatic ladder to climb to AUTO_CUTOFF_MAX and blame the cutoff;
        # an empty grid failed in the unitarity check's reduction, a 2-D one
        # in a broadcast
        def no_decomposition(*args):
            raise AssertionError("a block was decomposed before the times were checked")

        monkeypatch.setattr(fock, "_block_eig", no_decomposition)
        p = params(0.9)
        calls = [
            lambda: evolve_grid(build_effective_hamiltonian(p, 16), ts),
            lambda: evolve_joint_grid(build_full_hamiltonian(params(0.9, Omega=50.0), 16), ts),
            lambda: generator_qfi_grid(p, ts),
            lambda: quadrature_series(p, ts),
        ]
        if what == "finite":  # qfi_overlap takes one time
            calls.append(lambda: qfi_overlap(p, ts[-1]))
        for call in calls:
            with pytest.raises(InvalidParams, match=what):
                call()

    def test_a_nan_norm_fails_the_unitarity_check(self):
        # _propagate evolves any state: a NaN amplitude, or a NaN time, fails
        # its norm check
        h = build_effective_hamiltonian(params(0.9), 16)
        nan = _probe(16)
        nan[-1] = np.nan
        for amps, ts in ((_probe(16), [1.0, np.nan]), (nan, [1.0])):
            with pytest.raises(TruncationLeak, match="unitarity"):
                fock._propagate(h.eig(), amps, ts)


class TestBandContraction:
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_band_moments_equal_dense_einsum(self, blocks):
        rng = np.random.default_rng(7)
        n_cut, n_t = 48, 5
        amps = rng.normal(size=(blocks * n_cut, n_t)) + 1j * rng.normal(size=(blocks * n_cut, n_t))
        amps /= np.linalg.norm(amps, axis=0)
        x = np.kron(np.eye(blocks), quadratures(n_cut)[0])
        mean, second = _x_moments(amps, n_cut)
        for got, op in ((mean, x), (second, x @ x)):
            dense = np.einsum("it,ij,jt->t", amps.conj(), op, amps).real
            assert np.abs(got - dense).max() < 1e-12 * np.abs(dense).max()


class TestAutoCutoff:
    def test_doubles_until_converged(self):
        calls = []

        def run(n):
            calls.append(n)
            return np.array([1.0 + 4e-4 / n])

        # successive values differ by 2e-4/n; AUTO_CUTOFF_RTOL = 1e-6 is first met at 512
        n_cut, values = auto_cutoff(run)
        assert calls == [32, 64, 128, 256, 512]  # from AUTO_CUTOFF_START
        assert n_cut == 512
        assert values[0] == pytest.approx(1.0 + 4e-4 / 512)

    def test_raises_when_never_converges(self):
        with pytest.raises(CutoffNotConverged):
            auto_cutoff(lambda n: np.array([np.log(n)]))

    def test_failure_names_the_last_leak_and_the_next_cutoff(self):
        def run(n):
            if n < 4096:
                raise TruncationLeak(f"tail mass {1.0 / n:.3e} exceeds 1.0e-08")
            return np.array([2.0])

        # 32 to 2048 leak and 4096 runs alone, so no two levels compare
        with pytest.raises(CutoffNotConverged) as err:
            auto_cutoff(run)
        message = str(err.value)
        assert message.startswith("no two consecutive levels ran without a leak")
        assert "n_cut = 2048 leaked (tail mass 4.883e-04" in message
        assert message.endswith("need n_cut = 8192 next, above the cap 4096")
        # a ladder that compares but never settles says so, naming its leak too
        def drifting(n):
            return run(4096 if n > 32 else n) * np.log(n)

        with pytest.raises(CutoffNotConverged) as err:
            auto_cutoff(drifting)
        message = str(err.value)
        assert message.startswith("observables still moving at n_cut = 4096")
        assert "n_cut = 32 leaked (tail mass 3.125e-02" in message

    @pytest.mark.parametrize("bad", [0.0, -1e-6, np.nan, np.inf])
    def test_bad_rtol_or_dg_rejected_before_any_run(self, monkeypatch, bad):
        # the ladder tolerance is the constant AUTO_CUTOFF_RTOL: an rtol, bad
        # or not, is refused before any run (with a pinned n_cut a NaN rtol
        # used to pass unchecked); qfi_overlap always tunes its step on the
        # ladder, so a step dg or a pinned n_cut is refused the same way
        def run(n):
            raise AssertionError("run was called before rtol was refused")

        def no_decomposition(*args):
            raise AssertionError("a block was decomposed before the step was checked")

        with pytest.raises(TypeError, match="rtol"):
            auto_cutoff(run, rtol=bad)
        monkeypatch.setattr(fock, "_block_eig", no_decomposition)
        with pytest.raises(TypeError, match="rtol"):
            generator_qfi_grid(params(0.9), [1.0], rtol=bad)
        with pytest.raises(TypeError, match="dg"):
            qfi_overlap(params(0.9), 1.0, dg=bad)
        with pytest.raises(TypeError, match="n_cut"):
            qfi_overlap(params(0.9), 1.0, n_cut=48)

    @pytest.mark.parametrize("call,t,field", [
        *(pytest.param(qfi_overlap, t, "t", id=name) for t, name in [
            (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), ([1.0, 2.0], "pair"),
            ([[1.0]], "2-D")]),
        *(pytest.param(squeezed_frame_series, ts, "ts", id=f"squeezed-{name}") for ts, name in [
            ([np.nan], "nan"), ([1.0, np.inf], "inf"), ([], "empty"), (1.0, "scalar"),
            ([[1.0]], "2-D")]),
    ])
    def test_bad_time_named_before_any_hamiltonian_is_built(self, monkeypatch, call, t, field):
        # qfi_overlap's error used to come from evolve_grid, naming its grid `ts`
        def no_build(*args):
            raise AssertionError("a Hamiltonian was built before the time was checked")

        for name in ("build_effective_hamiltonian", "build_squeezed_frame_hamiltonian"):
            monkeypatch.setattr(fock, name, no_build)
        with pytest.raises(InvalidParams) as err:
            call(params(0.9), t)
        assert err.value.field == field

    @pytest.mark.parametrize("call", [
        lambda: qfi_overlap(params(0.0), 1.0),  # the tuned step starts at 1e-5
        lambda: squeezed_frame_series(params(0.0), [1.0]),
        lambda: squeezed_frame_series(params(5e-8), [1.0]),
    ], ids=["overlap-g0", "frequency-g0", "frequency-5e-8"])
    def test_steps_below_zero_coupling_rejected_before_any_decomposition(
            self, monkeypatch, call):
        # g = 0 is valid, but the fidelity step and the g-stencil reach
        # g - dg/2 and g - dg: ModelParams used to reject a coupling the
        # caller never passed
        def no_decomposition(*args):
            raise AssertionError("a block was decomposed before the step was checked")

        monkeypatch.setattr(fock, "_block_eig", no_decomposition)
        with pytest.raises(InvalidParams, match="^g: .* below 0"):
            call()

    def test_g_stencil_check_returns_the_step_the_series_takes(self, monkeypatch):
        # the check held a hand-derived bound, g >= 1e-7, of its own: at g = 1e-7
        # the foot g - dg is -1.3e-23, and every cell failed in ModelParams
        with pytest.raises(InvalidParams, match="^g: .* below 0"):
            fock.check_g_stencil(1e-7)
        assert np.nextafter(1e-7, 1) - fock.check_g_stencil(np.nextafter(1e-7, 1)) == 0.0
        built, build = [], fock.build_squeezed_frame_hamiltonian
        monkeypatch.setattr(fock, "build_squeezed_frame_hamiltonian",
                            lambda p, n_cut: built.append(p.g) or build(p, n_cut))
        g, dg = 0.9, fock.check_g_stencil(0.9)
        squeezed_frame_series(params(g, Omega=50.0), [1.0, 2.0])
        assert built[:5] == [g, g + dg, g - dg, g + 0.5 * dg, g - 0.5 * dg]

    def test_a_leaking_level_is_compared_with_never_accepted(self):
        # the rows a leak carries are what the next level is compared with;
        # a leaking level is not accepted even when it agrees with the one below
        calls = []

        def run(n):
            calls.append(n)
            if n < 128:
                raise TruncationLeak("too small", np.array([2.0]))
            return np.array([2.0])

        assert auto_cutoff(run)[0] == 128
        assert calls == [32, 64, 128]

    def test_leak_restarts_comparison(self):
        def run(n):
            if n < 64:
                raise TruncationLeak("too small")
            return np.array([2.0])

        n_cut, _ = auto_cutoff(run)
        assert n_cut == 128  # 64 raises nothing; convergence checked at 128

    def test_doubling_changes_stay_below_tolerance_for_dynamics(self):
        # the accepted cutoff of a converged run is insensitive to doubling
        p = params(0.9)
        ts = np.linspace(0.0, 14.0, 9)
        series = quadrature_series(p, ts)
        bigger, _, _ = level_series(p, ts, 2 * series.n_cut)
        rel = np.abs(bigger - series.x_mean).max() / np.abs(series.x_mean).max()
        assert rel < 1e-6


class TestQfiMethods:
    def test_overlap_zero_time(self):
        assert qfi_overlap(params(0.9), 0.0) == 0.0
        assert qfi_overlap(params(1e-5), 0.0) == 0.0

    @pytest.mark.parametrize("g", [0.01, 0.05])
    def test_overlap_tracks_the_generator_at_small_coupling(self, g):
        _, (a,) = generator_qfi_grid(params(g), [1.0])
        assert qfi_overlap(params(g), 1.0) == pytest.approx(a, rel=1e-4)

    @pytest.mark.parametrize("g", [1e-5, 1e-3], ids=["g1e-5", "g1e-3"])
    def test_overlap_deficit_under_roundoff_rejected(self, g):
        # the deficit used to round to 0 and the QFI came back as 0.0; at
        # g = 1e-3 it is 4e-14 even at the largest step, 0.3g
        with pytest.raises(InvalidParams, match="^g: fidelity deficit .* roundoff"):
            qfi_overlap(params(g), 1.0)

    def test_overlap_deficit_the_search_cannot_lower_rejected(self, monkeypatch):
        # orthogonal states at every step: the search quarters the step 40
        # times and the guard still sees a deficit of 1
        calls = []

        def orthogonal(h, ts):
            calls.append(None)
            return np.eye(h.dim, 1, k=-(len(calls) % 2))

        monkeypatch.setattr(fock, "evolve_grid", orthogonal)
        with pytest.raises(StepTooLarge, match="deficit 1.000e\\+00 > 1e-2 .* g = 0.9$"):
            qfi_overlap(params(0.9), 1.0)
        assert len(calls) == 2 * 41

    def test_generator_zero_time(self):
        (value,) = level_qfi(params(0.9), [0.0], 48)
        assert value == pytest.approx(0.0, abs=1e-20)

    def test_methods_agree(self):
        p = params(0.9)
        for t in (1.0, 5.0, 12.0):
            _, (a,) = generator_qfi_grid(p, [t])
            b = qfi_overlap(p, t)
            assert b == pytest.approx(a, rel=1e-4)

    def test_generator_grid_matches_scalar(self):
        p = params(0.9)
        grid = level_qfi(p, [2.0, 5.0], 96)
        for t, value in zip((2.0, 5.0), grid):
            (alone,) = level_qfi(p, [t], 96)
            assert value == pytest.approx(alone, rel=1e-12)

    def test_generator_grid_equals_per_time_dense_kernel(self):
        # reference: the dense operator's eigenbasis and the kernel
        # (exp(i*de*t) - 1)/(i*de), with t on near-degenerate pairs, one time at a time
        p = params(0.9, lam=0.05)
        n_cut = 96
        ts = [0.0, 0.7, 3.0, 11.0]
        frame = oscillator_frame(p)
        energies, vectors = np.linalg.eigh(assembled(build_effective_hamiltonian(p, n_cut)))
        x, _ = quadratures(n_cut)
        h1 = vectors.T @ (0.5 * frame.omega_bar * (x @ x)) @ vectors
        de = energies[:, None] - energies[None, :]
        near = np.abs(de) < 1e-12
        coeffs = vectors.T @ _probe(n_cut)
        reference = []
        for t in ts:
            kernel = np.where(near, t, (np.exp(1j * de * t) - 1.0) / (1j * np.where(near, 1.0, de)))
            gc = (h1 * kernel) @ coeffs
            var = np.vdot(gc, gc).real - np.vdot(coeffs, gc).real ** 2
            reference.append(frame.dstiffness_dg**2 * 4.0 * var)
        values = level_qfi(p, ts, n_cut)
        assert values[0] == 0.0
        assert np.abs(values - reference).max() < 1e-10 * max(reference)

    def test_generator_grid_reports_its_cutoff(self):
        p = params(0.9)
        ts = np.array([2.0, 5.0, 9.0])
        series, values = generator_qfi_grid(p, ts)
        # the ladder stops at the first level that does not leak and moves
        # none of x, x^2, dx/dg beyond SERIES_ATOL + SERIES_RTOL of the row's
        # scale, nor F_g beyond AUTO_CUTOFF_RTOL of any value, from the level
        # below (whose rows a leak carries), and returns that level's rows
        assert np.array_equal(level_qfi(p, ts, series.n_cut), values)

        def rows(n):
            try:
                return _effective_level(p, ts, n)
            except TruncationLeak as leak:
                return leak.rows

        def moved(n):  # the rows that doubling n // 2 -> n moves beyond the ladder's tests
            low, high = rows(n // 2), rows(n)
            scale = np.maximum(np.abs(low).max(axis=1), np.abs(high).max(axis=1))[:3]
            tol = fock.SERIES_ATOL + fock.SERIES_RTOL * np.maximum(scale, fock.SERIES_ATOL)
            block = np.abs(high - low)[:3].max(axis=1) > tol
            tol = fock.AUTO_CUTOFF_RTOL * np.maximum(np.abs(low[3]), np.abs(high[3]))
            return np.flatnonzero(np.append(block, np.any(np.abs(high - low)[3] > tol))).tolist()

        with pytest.raises(TruncationLeak):
            level_qfi(p, ts, 32)
        # 64 -> 128 moves F_g alone (by 2.7e-6 of its value), not the three
        # rows quadrature_series judges
        assert series.n_cut == 256 and quadrature_series(p, ts).n_cut == 128
        assert moved(64) == [0, 1, 2, 3] and moved(128) == [3] and moved(256) == []

    @pytest.mark.parametrize("oracle", [quadrature_series, generator_qfi_grid])
    def test_oracles_take_no_cutoff(self, oracle):
        # every oracle's cutoff is the ladder's
        with pytest.raises(TypeError, match="n_cut"):
            oracle(params(0.9), [1.0], n_cut=64)

    @pytest.mark.parametrize("g, lam, n_cut, ts", [
        (0.9, 0.0, 48, [0.0]),
        (0.9, 0.0, 96, [2.0, 5.0]),
        (0.9, 0.05, 96, [0.0, 0.7, 3.0, 11.0]),
        (0.9, 0.0, 128, [1.0, 5.0, 12.0]),
        (np.sqrt(0.92), 0.0, 256, [np.pi / np.sqrt(4 * 0.08)]),
        (np.sqrt(0.98), 0.0, 1024, [np.pi / np.sqrt(4 * 0.02)]),
        (0.099, -0.2475, 512, [1000.0]),
    ])
    def test_generator_grid_equals_the_blockwise_kernel(self, g, lam, n_cut, ts):
        p = params(g, lam=lam)
        reference = blockwise_generator_qfi(p, ts, n_cut)
        values = level_qfi(p, ts, n_cut)
        assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_generator_ladder_matches_the_blockwise_kernel(self):
        p, ts = params(0.9), [2.0, 5.0]
        series, values = generator_qfi_grid(p, ts)
        reference = blockwise_generator_qfi(p, ts, series.n_cut)
        assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_generator_level_peaks_below_six_blocks(self):
        # numpy's data allocations are traced, so the peak is deterministic.
        # Both eigenvector sets plus the kernel's real n^2 scratch fit in six
        # (n_cut/2)^2 float blocks; both dense blocks held at once, or complex
        # copies of the eigenvectors, do not
        p, n_cut = params(0.099, lam=-0.2475), 1024
        ts = np.linspace(0.0, 1000.0, 16)
        tracemalloc.start()
        try:
            level_qfi(p, ts, n_cut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * (n_cut // 2) ** 2

    def test_first_stage_level_peaks_below_two_blocks(self, shifts):
        # at n_cut 2048 both blocks take eigvalsh plus the lowest quarter of
        # their vectors: the one dense block alive (for eigvalsh) and the
        # low modes peak at 1.85 (n_cut/2)^2 float blocks, against 4.6 with
        # eigh and its full eigenvectors
        p, n_cut = params(0.099, lam=-0.2475), 2048
        ts = np.linspace(0.0, 1000.0, 16)
        tracemalloc.start()
        try:
            level_qfi(p, ts, n_cut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shifts == [n_cut // 8] * 2  # the first stage held in both blocks
        assert peak <= 2 * 8 * (n_cut // 2) ** 2

    def test_generator_regime_guard(self):
        with pytest.raises(RegimeError):
            generator_qfi_grid(params(1.2), [1.0])

    def test_closed_form_is_asymptotic_to_generator(self):
        # residual shrinks with distance to criticality at fixed sqrt(eps)*t
        rels = []
        for eps_g_target, n_cut in ((0.08, 256), (0.02, 1024)):
            g = np.sqrt(1 - eps_g_target)
            p = params(g)
            t = np.pi / np.sqrt(oscillator_frame(p).epsilon)
            (exact,) = level_qfi(p, [t], n_cut)
            approx = qfi_g(p, t)
            rels.append(abs(approx - exact) / exact)
        assert rels[1] < rels[0]


class TestExactDerivative:
    @pytest.mark.parametrize("g, lam, n_cut", [(0.9, 0.0, 128), (1.2, 0.0, 64), (1.2, 0.1, 512)])
    def test_matches_centred_difference(self, g, lam, n_cut):
        # below g_c and past it (the displaced frame), at one cutoff level
        p = params(g, lam=lam)
        ts = np.linspace(0.1, 2.0, 7) * 2.0 * np.pi / np.sqrt(oscillator_frame(p).epsilon)
        exact = level_series(p, ts, n_cut)[2]
        dg = 1e-6 * g
        plus, minus = (level_series(replace(p, g=g + s * dg), ts, n_cut)[0]
                       for s in (1.0, -1.0))
        centred = (plus - minus) / (2.0 * dg)
        assert np.abs(exact - centred).max() <= 1e-7 * np.abs(exact).max()

    def test_generator_ladder_decomposes_each_level_once(self, monkeypatch):
        # x, x^2, dx/dg and F_g of a level come from one eigh of each parity block
        p = params(0.9)
        ts = [2.0, 5.0, 9.0]
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        series, qfi = generator_qfi_grid(p, ts)
        levels = [32 * 2**k for k in range(int(np.log2(series.n_cut // 32)) + 1)]
        assert levels[-1] == series.n_cut > 32
        assert sorted(calls) == sorted(n // 2 for n in levels for _ in range(2))

    def test_every_level_decomposes_through_eig(self, monkeypatch):
        # HermitianOperator.eig is the one entry into _block_eig: one call per
        # cutoff level, alone or on the one ladder of generator_qfi_grid
        dims = []
        eig = HermitianOperator.eig

        def counted(self, *args):
            dims.append(self.dim)
            return eig(self, *args)

        monkeypatch.setattr(HermitianOperator, "eig", counted)
        p, ts = params(0.9), [2.0, 5.0, 9.0]
        level_qfi(p, ts, 64)
        assert dims == [64]
        dims.clear()
        series, _ = generator_qfi_grid(p, ts)
        assert dims == [32 * 2**k for k in range(int(np.log2(series.n_cut // 32)) + 1)]
        assert series.n_cut > 32

    def test_the_ladder_judges_the_qfi(self):
        # on inverted-variance's grid at g = 0.9, x, x^2 and dx/dg settle at
        # 128 and F_g a doubling later; generator_qfi_grid returns all four
        # rows of the level it accepts
        p = params(0.9)
        ts = np.linspace(0.0, 5.0, 400) * peak_time(p, 1)
        assert quadrature_series(p, ts).n_cut == 128
        series, qfi = generator_qfi_grid(p, ts)
        assert series.n_cut == 256
        rows = np.array([series.x_mean, series.x_second, series.x_deriv_g, qfi])
        assert np.array_equal(rows, _effective_level(p, ts, 256))

    def test_the_ladder_judges_the_qfi_at_each_time(self):
        # at g = 0.99 on these times level 1024 moves x, x^2, dx/dg and the
        # F_g row within the block test, but F_g(30) by 1.3e-6 of its value:
        # F_g is judged at each time, so the ladder takes one doubling more
        p, ts = params(0.99), np.array([1.0, 30.0, 60.0])
        low, high = (_effective_level(p, ts, n)[3] for n in (512, 1024))
        assert np.abs(high - low)[1] > fock.AUTO_CUTOFF_RTOL * high[1]
        assert np.abs(high - low).max() <= fock.SERIES_RTOL * high.max()
        assert generator_qfi_grid(p, ts)[0].n_cut == 2048

    def test_time_float64_cannot_resolve_fails_the_first_level(self, monkeypatch):
        # at n = 1e15 the peak time is 7.2e15: float64 rounds each phase
        # E_k*t by about a radian, and the ratio used to come out at n_cut
        # 4096 as 0.124 with no error
        dims = []
        eig = HermitianOperator.eig
        monkeypatch.setattr(HermitianOperator, "eig",
                            lambda self, *reach: dims.append(self.dim) or eig(self, *reach))
        p = params(0.9)
        with pytest.raises(InvalidParams, match="^ts: float64 rounds the phases"):
            generator_qfi_grid(p, [peak_time(p, 1e15)])
        assert dims == [fock.AUTO_CUTOFF_START]
        h = build_effective_hamiltonian(p, 32)
        with pytest.raises(InvalidParams, match="^ts: "):
            evolve_grid(h, [1.0, 1e11])  # eps*t*<|E|> ~ 1e-5
        psi, _ = fock._propagate(h.eig(), _probe(32), [1e9])  # ~ 1e-7: evolved
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


def all_ceilings_length(d, e, spectrum, n):
    """How many modes _certified_modes keeps under the rule as first
    written: a Sturm count at every candidate's ceiling, then the longest
    prefix whose top passes every test."""
    vectors = _inverse_iteration(d, e, spectrum[:n])
    energies = np.einsum("ij,ij->j", vectors, _band_apply(d, e, vectors))
    residuals = np.linalg.norm(_band_apply(d, e, vectors) - energies * vectors, axis=0)
    steps = np.diff(energies)
    below = np.append(np.inf, steps)
    ceiling = 0.5 * (energies + spectrum[1:n + 1])
    inner = residuals[:-1] <= fock.CERTIFY_TOL * np.minimum(below[:-1], steps)
    top = residuals <= fock.CERTIFY_TOL * np.minimum(below, ceiling - energies)
    top &= _sturm_count(d, e, ceiling) == np.arange(1, n + 1)
    top &= np.append(True, np.logical_and.accumulate(inner & (steps > 0)))
    return n - int(np.argmax(top[::-1])) if top.any() else 0


@pytest.fixture
def counts(monkeypatch):
    """How many points each Sturm count takes, in call order."""
    calls = []
    count = fock._sturm_count

    def counted(d, e, points):
        calls.append(len(points))
        return count(d, e, points)

    monkeypatch.setattr(fock, "_sturm_count", counted)
    return calls


class TestTridiagonalSolver:
    """eigvalsh plus inverse iteration, on blocks made small by lowering
    TRIDIAGONAL_MIN."""

    @pytest.fixture(autouse=True)
    def small_floor(self, monkeypatch):
        monkeypatch.setattr(fock, "TRIDIAGONAL_MIN", 32)

    @staticmethod
    def level(monkeypatch, p, ts, n_cut):
        """The tail mass _check_tail judged and _effective_level's rows, those
        the TruncationLeak carries if the level leaks."""
        tails, tail_mass = [], fock._tail_mass
        with monkeypatch.context() as m:
            m.setattr(fock, "_tail_mass", lambda *args: tails.append(tail_mass(*args)) or tails[-1])
            try:
                rows = _effective_level(p, ts, n_cut)
            except TruncationLeak as leak:
                rows = leak.rows
        (tail,) = tails
        return tail, rows

    def eigh_rows(self, monkeypatch, p, ts, n_cut):
        with monkeypatch.context() as m:
            m.setattr(fock, "TRIDIAGONAL_MIN", 10**9)
            return self.level(monkeypatch, p, ts, n_cut)

    @pytest.mark.parametrize("g, lam, n_cut", [(0.9, 0.0, 256), (0.099, -0.2475, 512),
                                               (1.2, 0.1, 128)])
    def test_inverse_iteration_matches_eigh(self, g, lam, n_cut):
        for _, diagonals in build_effective_hamiltonian(params(g, lam=lam), n_cut).blocks:
            d, e = diagonals[0], diagonals[1]
            energies, vectors = np.linalg.eigh(_dense(diagonals))
            shifts = np.linalg.eigvalsh(_dense(diagonals))
            norm = np.abs(d).max() + 2.0 * np.abs(e).max()
            assert np.abs(shifts - energies).max() <= 1e-14 * norm
            found = _inverse_iteration(d, e, shifts)
            assert np.abs(np.abs((vectors * found).sum(axis=0)) - 1.0).max() <= 1e-12
            assert np.abs(found.T @ found - np.eye(len(d))).max() <= 1e-10

    def test_eig_decomposes_large_tridiagonal_blocks_by_inverse_iteration(self, monkeypatch):
        op = build_effective_hamiltonian(params(0.9), 128)
        monkeypatch.setattr(np.linalg, "eigh", None)  # never reached
        for (_, diagonals), (_, energies, vectors) in zip(op.blocks, op.eig()):
            # Rayleigh quotients at eigvalsh's energies, as exact as they are
            norm = np.abs(diagonals[0]).max() + 2.0 * np.abs(diagonals[1]).max()
            assert (np.abs(energies - np.linalg.eigvalsh(_dense(diagonals))).max()
                    <= 1e-13 * norm)
            assert vectors.shape == (64, 64)
            assert np.abs(_band_apply(diagonals[0], diagonals[1], vectors)
                          - energies * vectors).max() <= 1e-12

    @pytest.mark.parametrize("spread", [False, True])
    def test_both_stages_match_the_eigh_path(self, monkeypatch, shifts, spread):
        # the default state sits in the lowest quarter of the modes; a state
        # over the whole block, put in the probe's place, needs the completion stage
        p, n_cut = params(0.9), 256
        ts = np.array([0.0, 1.3, 7.0, 40.0])
        if spread:  # on the top Fock indices too: the level leaks, its rows on the leak
            amps = np.random.default_rng(5).normal(size=n_cut) + 1j
            monkeypatch.setattr(fock, "PROBE_AMPLITUDES", amps / np.linalg.norm(amps))
        tail, rows = self.level(monkeypatch, p, ts, n_cut)
        assert (tail > fock.LEAK_TOL) == spread
        # each block's lowest quarter first, started at the untruncated
        # spectrum; all of its modes, started at eigvalsh's energies, only
        # when the state spreads past them
        assert shifts == ([n_cut // 8, n_cut // 2] if spread else [n_cut // 8]) * 2
        ref_tail, reference = self.eigh_rows(monkeypatch, p, ts, n_cut)
        scale = np.abs(reference).max(axis=1)
        assert (np.abs(rows - reference).max(axis=1) <= 1e-10 * scale).all()
        assert abs(tail - ref_tail) <= 1e-12

    def test_certificate_failure_falls_back_to_eigh(self, monkeypatch, shifts):
        p, n_cut = params(0.9), 256
        ts = np.array([1.3, 7.0])
        monkeypatch.setattr(fock, "CERTIFY_TOL", 0.0)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        _, rows = self.level(monkeypatch, p, ts, n_cut)
        # no mode of the lowest quarter passes, so each block finds all of
        # its modes again, and then decomposes by eigh
        assert shifts == [n_cut // 8, n_cut // 2] * 2
        assert calls == [n_cut // 2] * 2
        assert np.array_equal(rows, self.eigh_rows(monkeypatch, p, ts, n_cut)[1])

    def test_near_critical_level_makes_no_dense_decomposition(self, monkeypatch):
        # criterion 6's point at n_cut 2048: each 1024-row block keeps the
        # modes found from the untruncated spectrum, with Rayleigh-quotient
        # energies as accurate as eigvalsh's
        p, n_cut = params(0.099, lam=-0.2475), 2048
        ts = np.linspace(1.0, 700.0, 9)  # not the peak times, where <X> is 0 to roundoff
        found = []
        eig = HermitianOperator.eig
        monkeypatch.setattr(HermitianOperator, "eig",
                            lambda self, *reach: found.append(eig(self, *reach)) or found[-1])

        def dense(*args, **kwargs):
            raise AssertionError("a block was decomposed densely")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", dense)
            m.setattr(np.linalg, "eigh", dense)
            tail, rows = self.level(monkeypatch, p, ts, n_cut)
        for (_, diagonals), (_, energies, _) in zip(build_effective_hamiltonian(p, n_cut).blocks,
                                                    found[0]):
            assert 0 < len(energies) <= n_cut // 8
            exact = np.linalg.eigvalsh(_dense(diagonals))[:len(energies)]
            norm = np.abs(diagonals[0]).max() + 2.0 * np.abs(diagonals[1]).max()
            assert np.abs(energies - exact).max() <= 1e-13 * norm
        ref_tail, reference = self.eigh_rows(monkeypatch, p, ts, n_cut)
        scale = np.abs(reference).max(axis=1)
        assert (np.abs(rows - reference).max(axis=1) <= 1e-10 * scale).all()
        assert abs(tail - ref_tail) <= 1e-12

    def test_wrong_spectrum_falls_back(self, monkeypatch, shifts):
        # a spectrum 0.1% high starts inverse iteration off every mode: no
        # prefix holds the state, so each block is decomposed in full
        p, n_cut = params(0.099, lam=-0.2475), 512
        ts = np.array([10.0, 300.0])
        eig = HermitianOperator.eig
        monkeypatch.setattr(HermitianOperator, "eig", lambda self, *reach: eig(
            self, *reach[:3], 1.001 * reach[3]))
        tail, rows = self.level(monkeypatch, p, ts, n_cut)
        assert shifts == [n_cut // 8, n_cut // 2] * 2
        ref_tail, reference = self.eigh_rows(monkeypatch, p, ts, n_cut)
        scale = np.abs(reference).max(axis=1)
        assert (np.abs(rows - reference).max(axis=1) <= 1e-10 * scale).all()
        assert abs(tail - ref_tail) <= 1e-12

    def test_keep_rule_keeps_a_certified_prefix_that_holds_the_state(
            self, monkeypatch, shifts):
        # the spectrum 0.1% high fails the first stage; scrambling the upper
        # half of the complete batch leaves its certified lower half, which
        # holds the probe and closes under dH, so no block reaches eigh
        p, n_cut = params(0.9), 256
        ts = np.array([1.3, 7.0, 40.0])
        eig = HermitianOperator.eig
        monkeypatch.setattr(HermitianOperator, "eig", lambda self, *reach: eig(
            self, *reach[:3], 1.001 * reach[3]))
        iterate, kept = fock._inverse_iteration, []

        def scrambled(d, e, at):
            x = iterate(d, e, at)
            if len(at) == len(d):
                noise = np.random.default_rng(3).normal(size=(len(d), len(d) - len(d) // 2))
                x[:, len(d) // 2:] = noise / np.linalg.norm(noise, axis=0)
            return x

        monkeypatch.setattr(fock, "_inverse_iteration", scrambled)
        certify = fock._certified_modes
        monkeypatch.setattr(fock, "_certified_modes", lambda d, e, spectrum, n: kept.append(
            certify(d, e, spectrum, n)) or kept[-1])

        def dense(*args, **kwargs):
            raise AssertionError("a block was decomposed by eigh")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", dense)
            tail, rows = self.level(monkeypatch, p, ts, n_cut)
        # each block: the first stage certifies nothing, the complete batch its lower half
        assert shifts == [n_cut // 8, n_cut // 2] * 2
        assert [len(energies) for energies, _ in kept] == [0, n_cut // 4] * 2
        ref_tail, reference = self.eigh_rows(monkeypatch, p, ts, n_cut)
        scale = np.abs(reference).max(axis=1)
        assert (np.abs(rows - reference).max(axis=1) <= 1e-10 * scale).all()
        assert abs(tail - ref_tail) <= 1e-12

    def test_certified_modes_keep_only_what_they_certify(self):
        # from a guess 1e-7 high the energies are Rayleigh quotients, as exact
        # as eigvalsh's; from a guess that skips the third eigenvalue the modes
        # past it pass their residual test too, but the Sturm count sees the
        # one missed below them, so at most the two under it are kept; from
        # eigvalsh's energies and a final inf every mode is kept
        _, diagonals = build_effective_hamiltonian(params(0.9), 256).blocks[0]
        d, e = diagonals[0], diagonals[1]
        m = len(d)
        exact = np.linalg.eigvalsh(_dense(diagonals))
        norm = np.abs(d).max() + 2.0 * np.abs(e).max()
        for guess, n, kept in ((exact * (1.0 + 1e-7), m // 4, {m // 4}),
                               (np.delete(exact, 2), m // 4, {1, 2}),
                               (np.append(exact, np.inf), m, {m})):
            energies, _ = _certified_modes(d, e, guess, n)
            assert len(energies) in kept
            assert np.abs(energies - exact[:len(energies)]).max() <= 1e-13 * norm

    def test_near_critical_first_stage_counts_once(self, counts):
        # criterion 6's even block at n_cut 2048, 1024 rows: one count, over
        # the candidate tops, keeps what counting at all 256 ceilings keeps
        p, n_cut = params(0.099, lam=-0.2475), 2048
        idx, diagonals = build_effective_hamiltonian(p, n_cut).blocks[0]
        d, e, m = diagonals[0], diagonals[1], len(diagonals[0])
        frame = oscillator_frame(p)
        spectrum = (frame.omega_bar * np.sqrt(frame.stiffness) * (np.arange(n_cut) + 0.5))[idx]
        energies, _ = _certified_modes(d, e, spectrum, m // fock.LOW_MODES)
        assert m == 1024 and len(counts) == 1
        assert 0 < len(energies) == all_ceilings_length(d, e, spectrum, m // fock.LOW_MODES)

    @pytest.mark.parametrize("case", ["high", "skip", "complete", "skip-to-inf"])
    def test_one_count_keeps_the_all_ceilings_prefix(self, case):
        # the keep-rule cases of the test above, and a guess that skips an
        # eigenvalue yet reaches inf after m - 1 finite guesses: the count at
        # inf is m, so no candidate past the skip may be kept
        _, diagonals = build_effective_hamiltonian(params(0.9), 256).blocks[0]
        d, e = diagonals[0], diagonals[1]
        m = len(d)
        exact = np.linalg.eigvalsh(_dense(diagonals))
        guess, n = {"high": (exact * (1.0 + 1e-7), m // 4), "skip": (np.delete(exact, 2), m // 4),
                    "complete": (np.append(exact, np.inf), m),
                    "skip-to-inf": (np.append(np.delete(exact, 2), np.inf), m - 1)}[case]
        energies, _ = _certified_modes(d, e, guess, n)
        assert len(energies) == all_ceilings_length(d, e, guess, n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_count_matches_the_all_ceilings_rule(self, data):
        # perturbed or gapped guesses at a block's spectrum: the one count
        # over the candidate tops keeps exactly what counting every ceiling
        # keeps
        g = data.draw(st.sampled_from([0.3, 0.9]))
        block = data.draw(st.integers(0, 1))
        _, diagonals = build_effective_hamiltonian(params(g), 96).blocks[block]
        d, e = diagonals[0], diagonals[1]
        m = len(d)
        guess = np.append(np.linalg.eigvalsh(_dense(diagonals)), np.inf)
        scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 3e-2]))
        noise = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m + 1, max_size=m + 1))
        guess *= 1.0 + scale * np.array(noise)
        for _ in range(data.draw(st.integers(0, 3))):
            guess = np.delete(guess, data.draw(st.integers(0, len(guess) - 2)))
        n = data.draw(st.integers(1, len(guess) - 1))
        energies, _ = _certified_modes(d, e, guess, n)
        assert len(energies) == all_ceilings_length(d, e, guess, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sturm_count_matches_eigvalsh(self, data):
        m = data.draw(st.integers(1, 40))
        real = st.floats(-10.0, 10.0)
        d = np.array(data.draw(st.lists(real, min_size=m, max_size=m)))
        e = np.array(data.draw(st.lists(real, min_size=m - 1, max_size=m - 1)))
        points = np.array(data.draw(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8)))
        exact = np.linalg.eigvalsh(_dense({0: d, 1: e}))
        # points at least 1e-8*||T|| from every eigenvalue
        points = points[np.abs(points[:, None] - exact).min(axis=1) > 1e-8 * np.abs(exact).max()]
        assert np.array_equal(_sturm_count(d, e, points),
                              (exact < points[:, None]).sum(axis=1))

    def test_repeated_levels_are_bit_identical(self):
        p, ts = params(0.099, lam=-0.2475), np.array([10.0, 300.0])
        first, second = (_effective_level(p, ts, 512) for _ in range(2))  # 256 leaks
        assert np.array_equal(first, second)


class TestReciprocalRelation:
    def test_reference_point(self):
        assert verify_reciprocal_relation(params(0.9), 60) < 1e-9

    def test_free_oscillator_limit(self):
        assert verify_reciprocal_relation(params(0.0), 60) < 1e-9

    def test_tuned_point(self):
        assert verify_reciprocal_relation(params(0.09, lam=-0.2475), 60) < 1e-9

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            verify_reciprocal_relation(params(1.5), 40)


class TestCrossEngine:
    def test_x_mean_tracks_closed_form(self):
        p = params(0.9)
        tau = float(optimal_times(p, 1)[0])
        ts = np.linspace(0, 2 * tau, 25)
        series = quadrature_series(p, ts)
        assert np.abs(series.x_mean - x_mean(p, ts)).max() < 1e-8

    def test_variance_tracks_closed_form(self):
        p = params(0.9)
        ts = np.linspace(0, 12, 17)
        series = quadrature_series(p, ts)
        assert np.abs(series.x_var - x_variance(p, ts)).max() < 1e-8

    def test_inverted_variance_tracks_closed_form(self):
        p = params(0.9)
        ts = np.linspace(0.5, 12, 9)
        series = quadrature_series(p, ts)
        icl = inverted_variance(p, ts)
        assert np.abs(series.inv_var - icl).max() / np.abs(icl).max() < 1e-6


class TestFiniteFrequency:
    def test_discrepancy_shrinks_with_frequency_ratio(self):
        p = params(0.9)
        tau, limit = peak_time(p, 1), inverted_variance_peak(p, 1)

        def delta(eta):
            exact = squeezed_frame_series(replace(p, Omega=eta * p.omega), [tau]).inv_var[0]
            return (exact - limit) / limit

        d_small, d_large = delta(1e2), delta(1e3)
        assert abs(d_large) < abs(d_small) < 1.0

    def test_full_model_tracks_closed_form_at_large_eta(self):
        # joint-space mean over the first period deviates by O(1/eta):
        # eta * deviation is a stable constant across a decade of eta
        p0 = params(0.9)
        tau1 = float(optimal_times(p0, 1)[0])
        ts = np.linspace(0.0, tau1, 13)
        closed = x_mean(p0, ts)
        rels = {}
        for eta in (1e3, 1e4):
            series = squeezed_frame_series(params(0.9, Omega=eta), ts)
            rels[eta] = np.abs(series.x_mean - closed).max() / np.abs(closed).max()
        assert rels[1e3] < 0.1
        assert 7.0 < rels[1e3] / rels[1e4] < 14.0

    def test_disagreeing_stencils_raise(self, monkeypatch):
        # at the accepted cutoff the full- and halved-step derivatives (rows
        # 3 and 4 of each level) must agree to 1e-3 of the derivative's scale (row 2)
        p, ts = params(0.9, Omega=50.0), [1.0, 2.0]

        def rows(gap):
            return lambda *args: np.array([[1.0, 2.0]] * 4 + [[1.0 + gap, 2.0]])

        monkeypatch.setattr(fock, "_series_at_cutoff", rows(1e-4))
        assert squeezed_frame_series(p, ts).n_cut == 2 * fock.AUTO_CUTOFF_START
        monkeypatch.setattr(fock, "_series_at_cutoff", rows(3e-3))
        with pytest.raises(StepTooLarge, match="halved and full g-steps disagree"):
            squeezed_frame_series(p, ts)


class TestClosedFormAsymptoticAtLongTime:
    def test_ten_percent_agreement_near_criticality(self):
        # tuned weak-coupling point at the long-time scale of the QFI curves,
        # at the cutoff the ladder accepts: 256 leaks, 1024 moves no row from 512
        p = params(0.099, lam=-0.2475)
        series, (exact,) = generator_qfi_grid(p, [1000.0])
        assert series.n_cut == 1024
        approx = qfi_g(p, 1000.0)
        assert abs(approx - exact) / exact < 0.10
