import numpy as np
import pytest

from cqm import (
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
    default_initial_state,
    effective_oscillator,
    evolve_grid,
    oscillator_frame,
    finite_frequency_point,
    generator_qfi_grid,
    inverted_variance,
    optimal_times,
    qfi_g,
    qfi_overlap,
    quadrature_series,
    var_n,
    verify_reciprocal_relation,
    x_mean,
    x_variance,
)
from cqm.fock import (
    HermitianOperator,
    JointState,
    _x_moments,
    evolve_joint_grid,
    quadratures,
    spin_down_state,
)


def params(g, lam=0.0, omega=1.0, Omega=1e4):
    return ModelParams(omega=omega, Omega=Omega, g=g, lam=lam)


class TestBuilders:
    def test_decoupled_full_hamiltonian_is_diagonal(self):
        p = params(0.0, Omega=7.0, omega=2.0)
        h = build_full_hamiltonian(p, 5).matrix
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
            h = build_full_hamiltonian(p, n_cut).matrix
            boson_block = h[:n_cut, :n_cut] + 0.5 * p.Omega * np.eye(n_cut)
            e0 = np.linalg.eigvalsh(boson_block)[0]
            errs.append(abs(e0 - (omega_bar - 1.0) / 2.0))
        assert errs[-1] < 1e-10
        assert errs[0] > errs[-1]  # convergence sweep actually improves

    def test_hermiticity_of_all_builders(self):
        p = params(0.7, lam=-0.1, Omega=321.0)
        for build in (build_full_hamiltonian, build_squeezed_frame_hamiltonian):
            h = build(p, 24).matrix
            assert np.abs(h - h.conj().T).max() < 1e-12

    def test_squeezed_frame_equals_lab_frame_without_quadratic_term(self):
        p = params(0.9, lam=0.0, Omega=100.0)
        a = build_full_hamiltonian(p, 16).matrix
        b = build_squeezed_frame_hamiltonian(p, 16).matrix
        assert np.abs(a - b).max() < 1e-12

    def test_effective_unit_stiffness_is_harmonic(self):
        h = build_effective_hamiltonian(params(0.0), 60)
        energies = np.sort(np.concatenate([e for _, e, _ in h.eig()]))
        assert np.allclose(energies[:10], np.arange(10) + 0.5, atol=1e-10)

    def test_effective_gaps_scale_with_sqrt_stiffness(self):
        p = params(0.9)
        eff = effective_oscillator(p)
        h = build_effective_hamiltonian(p, 120)
        energies = np.sort(np.concatenate([e for _, e, _ in h.eig()]))
        gaps = np.diff(energies[:8])
        assert np.allclose(gaps, eff.omega_bar * np.sqrt(eff.epsilon_g), rtol=1e-9)

    def test_effective_ground_state_is_squeezed_vacuum(self):
        p = params(0.9)
        eff = effective_oscillator(p)
        n_cut = 120
        h = build_effective_hamiltonian(p, n_cut)
        even, _, vecs = h.eig()[0]  # the ground state lies in the even block
        ground = np.zeros(n_cut)
        ground[even] = vecs[:, 0]
        x, _ = quadratures(n_cut)
        xx = ground @ (x @ x).real @ ground
        assert xx == pytest.approx(0.5 / np.sqrt(eff.epsilon_g), rel=1e-9)

    @pytest.mark.parametrize("g, lam, n_cut", [(0.9, 0.0, 64), (0.099, -0.2475, 257), (1.2, 0.1, 40)])
    def test_band_built_effective_equals_dense_products(self, g, lam, n_cut):
        p = params(g, lam=lam)
        frame = oscillator_frame(p)
        x, pq = quadratures(n_cut)
        dense = 0.5 * frame.omega_bar * ((pq @ pq).real + frame.stiffness * (x @ x))
        h = build_effective_hamiltonian(p, n_cut)
        assert [idx for idx, _ in h.blocks] == [slice(0, None, 2), slice(1, None, 2)]
        assert np.abs(h.matrix - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("g, lam, n_cut", [(0.9, 0.0, 64), (0.099, -0.2475, 256), (1.2, 0.1, 41)])
    def test_block_spectra_make_the_full_spectrum(self, g, lam, n_cut):
        h = build_effective_hamiltonian(params(g, lam=lam), n_cut)
        energies = np.sort(np.concatenate([e for _, e, _ in h.eig()]))
        full = np.linalg.eigvalsh(h.matrix)
        assert np.abs(energies - full).max() <= 1e-12 * np.abs(full).max()

    def test_blocks_are_checked_for_hermiticity(self):
        good = np.eye(2)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidParams):
            HermitianOperator(blocks=[(slice(0, None, 2), good), (slice(1, None, 2), bad)])

    def test_effective_regime_dispatch(self):
        h = build_effective_hamiltonian(params(1.2), 16)  # superradiant: fine
        assert h.dim == 16
        with pytest.raises(RegimeError):
            build_effective_hamiltonian(params(1.0), 16)
        with pytest.raises(InvalidParams):
            build_effective_hamiltonian(params(0.9), 3)

    def test_hermitian_wrapper_rejects_nonhermitian(self):
        with pytest.raises(InvalidParams):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEvolve:
    def test_zero_time_identity(self):
        h = build_effective_hamiltonian(params(0.9), 32)
        psi = default_initial_state(32)
        out = evolve_grid(h, psi, [0.0])[:, 0]
        assert np.allclose(out, psi.amplitudes)

    def test_diagonal_hamiltonian_only_rotates_phases(self):
        h = HermitianOperator(np.diag(np.arange(8, dtype=float)))
        # uniform over all but the top Fock slot, which the leak check reads
        amps = np.append(np.ones(7), 0.0) / np.sqrt(7)
        out = evolve_grid(h, amps, [0.37])[:, 0]
        assert np.allclose(np.abs(out), np.abs(amps))
        assert np.allclose(out, amps * np.exp(-1j * 0.37 * np.arange(8)))

    def test_norm_preserved_on_long_grid(self):
        h = build_effective_hamiltonian(params(0.9), 64)
        psi = default_initial_state(64)
        out = evolve_grid(h, psi, np.linspace(0, 100, 7))
        assert np.abs(np.linalg.norm(out, axis=0) - 1).max() < 1e-12

    def test_truncation_leak_raises(self):
        # strong anti-squeezing in a tiny basis must trip the tail check
        p = params(0.099, lam=-0.2475)
        h = build_effective_hamiltonian(p, 16)
        tau = float(optimal_times(p, 1)[0])
        with pytest.raises(TruncationLeak):
            evolve_grid(h, default_initial_state(16), [tau / 2])

    def test_joint_state_roundtrip(self):
        p = params(0.9, Omega=50.0)
        h = build_squeezed_frame_hamiltonian(p, 24)
        psi = spin_down_state(default_initial_state(), 24)
        out = JointState(evolve_joint_grid(h, psi, [1.0])[:, 0], 24)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestBandContraction:
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_band_moments_equal_dense_einsum(self, blocks):
        rng = np.random.default_rng(7)
        n_cut, n_t = 48, 5
        amps = rng.normal(size=(blocks * n_cut, n_t)) + 1j * rng.normal(size=(blocks * n_cut, n_t))
        amps /= np.linalg.norm(amps, axis=0)
        x = np.kron(np.eye(blocks), quadratures(n_cut)[0].real)
        mean, second = _x_moments(amps, n_cut)
        for got, op in ((mean, x), (second, x @ x)):
            dense = np.einsum("it,ij,jt->t", amps.conj(), op, amps).real
            assert np.abs(got - dense).max() < 1e-12 * np.abs(dense).max()


class TestAutoCutoff:
    def test_doubles_until_converged(self):
        calls = []

        def run(n):
            calls.append(n)
            return np.array([1.0 + 4.0 / n])

        # successive values differ by 2/n; rtol 1e-2 is first met at 512
        n_cut, values = auto_cutoff(run, start=8, rtol=1e-2)
        assert calls[0] == 8 and calls == sorted(calls)
        assert n_cut == 512
        assert values[0] == pytest.approx(1.0 + 4.0 / 512)

    def test_raises_when_never_converges(self):
        with pytest.raises(CutoffNotConverged):
            auto_cutoff(lambda n: np.array([np.log(n)]), start=8, max_cut=64, rtol=1e-12)

    def test_failure_names_the_last_leak_and_the_next_cutoff(self):
        def run(n):
            if n < 64:
                raise TruncationLeak(f"tail mass {1.0 / n:.3e} exceeds 1.0e-08")
            return np.array([2.0])

        # 8, 16 and 32 leak and 64 runs alone, so no two levels compare
        with pytest.raises(CutoffNotConverged) as err:
            auto_cutoff(run, start=8, max_cut=64)
        message = str(err.value)
        assert message.startswith("no two consecutive levels ran without a leak")
        assert "n_cut = 32 leaked (tail mass 3.125e-02" in message
        assert message.endswith("need n_cut = 128 next, above max_cut = 64")
        # a ladder that compares but never settles says so, naming its leak too
        def drifting(n):
            return run(64 if n > 8 else n) * np.log(n)

        with pytest.raises(CutoffNotConverged) as err:
            auto_cutoff(drifting, start=8, max_cut=64)
        message = str(err.value)
        assert message.startswith("observables still moving at n_cut = 64")
        assert "n_cut = 8 leaked (tail mass 1.250e-01" in message

    def test_leak_restarts_comparison(self):
        def run(n):
            if n < 32:
                raise TruncationLeak("too small")
            return np.array([2.0])

        n_cut, _ = auto_cutoff(run, start=8, rtol=1e-6)
        assert n_cut == 64  # 32 raises nothing; convergence checked at 64

    def test_doubling_changes_stay_below_tolerance_for_dynamics(self):
        # the accepted cutoff of a converged run is insensitive to doubling
        p = params(0.9)
        ts = np.linspace(0.0, 14.0, 9)
        series = quadrature_series(p, ts)
        bigger = quadrature_series(p, ts, n_cut=2 * series.n_cut)
        rel = np.abs(bigger.x_mean - series.x_mean).max() / np.abs(series.x_mean).max()
        assert rel < 1e-6


class TestQfiMethods:
    def test_overlap_zero_time(self):
        assert qfi_overlap(params(0.9), 0.0, dg=1e-4, n_cut=48) == 0.0

    def test_generator_zero_time(self):
        (value,), _ = generator_qfi_grid(params(0.9), [0.0], n_cut=48)
        assert value == pytest.approx(0.0, abs=1e-20)

    def test_methods_agree(self):
        p = params(0.9)
        for t in (1.0, 5.0, 12.0):
            (a,), _ = generator_qfi_grid(p, [t])
            b = qfi_overlap(p, t)
            assert b == pytest.approx(a, rel=1e-4)

    def test_overlap_step_halving_consistency(self):
        p = params(0.9)
        t = 5.0
        a = qfi_overlap(p, t, dg=2e-4, n_cut=96)
        b = qfi_overlap(p, t, dg=1e-4, n_cut=96)
        assert b == pytest.approx(a, rel=1e-3)

    def test_overlap_step_too_large(self):
        p = params(0.099, lam=-0.2475)
        with pytest.raises(StepTooLarge):
            qfi_overlap(p, 1000.0, dg=5e-3, n_cut=512)

    def test_generator_grid_matches_scalar(self):
        p = params(0.9)
        grid, _ = generator_qfi_grid(p, [2.0, 5.0], n_cut=96)
        for t, value in zip((2.0, 5.0), grid):
            (alone,), _ = generator_qfi_grid(p, [t], n_cut=96)
            assert value == pytest.approx(alone, rel=1e-12)

    def test_generator_grid_equals_per_time_dense_kernel(self):
        # reference: the dense operator's eigenbasis and the kernel
        # (exp(i*de*t) - 1)/(i*de), with t on near-degenerate pairs, one time at a time
        p = params(0.9, lam=0.05)
        n_cut = 96
        ts = [0.0, 0.7, 3.0, 11.0]
        frame = oscillator_frame(p)
        energies, vectors = np.linalg.eigh(build_effective_hamiltonian(p, n_cut).matrix)
        x, _ = quadratures(n_cut)
        h1 = vectors.T @ (0.5 * frame.omega_bar * (x @ x).real) @ vectors
        de = energies[:, None] - energies[None, :]
        near = np.abs(de) < 1e-12
        coeffs = vectors.T @ default_initial_state(n_cut).amplitudes
        reference = []
        for t in ts:
            kernel = np.where(near, t, (np.exp(1j * de * t) - 1.0) / (1j * np.where(near, 1.0, de)))
            gc = (h1 * kernel) @ coeffs
            var = np.vdot(gc, gc).real - np.vdot(coeffs, gc).real ** 2
            reference.append(frame.dstiffness_dg**2 * 4.0 * var)
        values, _ = generator_qfi_grid(p, ts, n_cut=n_cut)
        assert values[0] == 0.0
        assert np.abs(values - reference).max() < 1e-10 * max(reference)

    def test_generator_grid_reports_its_cutoff(self):
        p = params(0.9)
        ts = [2.0, 5.0]
        values, n_cut = generator_qfi_grid(p, ts)
        # the ladder (rtol 1e-6) stops at the first doubling that moves no value
        # beyond rtol, and the values it returns are those of that cutoff
        pinned, same = generator_qfi_grid(p, ts, n_cut=n_cut)
        assert same == n_cut
        assert np.array_equal(pinned, values)

        def moved(n):  # does doubling n // 2 -> n move a value beyond rtol?
            low, high = (generator_qfi_grid(p, ts, n_cut=m)[0] for m in (n // 2, n))
            return np.any(np.abs(high - low) > 1e-6 * np.maximum(high, low))

        assert n_cut == 128  # 32 -> 64 still moves at eps_g = 0.19
        assert moved(n_cut // 2) and not moved(n_cut)
        # an explicit cutoff comes back unchanged
        assert generator_qfi_grid(p, ts, n_cut=96)[1] == 96

    def test_generator_regime_guard(self):
        with pytest.raises(RegimeError):
            generator_qfi_grid(params(1.2), [1.0])

    def test_closed_form_is_asymptotic_to_generator(self):
        # residual shrinks with distance to criticality at fixed sqrt(eps)*t
        state = default_initial_state()
        rels = []
        for eps_g_target, n_cut in ((0.08, 256), (0.02, 1024)):
            g = np.sqrt(1 - eps_g_target)
            p = params(g)
            eff = effective_oscillator(p)
            t = np.pi / np.sqrt(eff.epsilon)
            (exact,), _ = generator_qfi_grid(p, [t], n_cut=n_cut)
            approx = qfi_g(p, t, var_n(state, p))
            rels.append(abs(approx - exact) / exact)
        assert rels[1] < rels[0]


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
        d_small = finite_frequency_point(p, 1e2).delta
        d_large = finite_frequency_point(p, 1e3).delta
        assert abs(d_large) < abs(d_small) < 1.0

    def test_eta_floor(self):
        with pytest.raises(InvalidParams):
            finite_frequency_point(params(0.9), 5.0)

    def test_full_model_tracks_closed_form_at_large_eta(self):
        # joint-space mean over the first period deviates by O(1/eta):
        # eta * deviation is a stable constant across a decade of eta
        p0 = params(0.9)
        tau1 = float(optimal_times(p0, 1)[0])
        ts = np.linspace(0.0, tau1, 13)
        closed = x_mean(p0, ts)
        rels = {}
        for eta in (1e3, 1e4):
            p = params(0.9, Omega=eta)
            series = quadrature_series(
                p, ts, builder=build_squeezed_frame_hamiltonian
            )
            rels[eta] = np.abs(series.x_mean - closed).max() / np.abs(closed).max()
        assert rels[1e3] < 0.1
        assert 7.0 < rels[1e3] / rels[1e4] < 14.0


class TestClosedFormAsymptoticAtLongTime:
    def test_ten_percent_agreement_near_criticality(self):
        # tuned weak-coupling point at the long-time scale of the QFI curves
        from cqm import var_n as _var_n

        p = params(0.099, lam=-0.2475)
        state = default_initial_state()
        (exact,), _ = generator_qfi_grid(p, [1000.0], rtol=2e-3)
        approx = qfi_g(p, 1000.0, _var_n(state, p))
        assert abs(approx - exact) / exact < 0.10
