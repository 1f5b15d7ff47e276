"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here and
nowhere else."""

from dataclasses import replace

import numpy as np

from cqm import (
    DecayRates,
    ModelParams,
    TruncationLeak,
    build_config,
    critical_coupling,
    fit_loglog_slope,
    generator_qfi_grid,
    ig_fg_ratio,
    integrate_moments,
    inverted_variance,
    inverted_variance_dissipative,
    inverted_variance_peak,
    lambda_for_target_critical,
    optimal_times,
    oscillator_frame,
    peak_time,
    qfi_g,
    qfi_overlap,
    quadrature_series,
    run,
    squeezed_frame_series,
    verify_reciprocal_relation,
    x_deriv_g,
    x_deriv_g_dissipative,
    x_mean,
    x_mean_dissipative,
    x_second_moment,
    x_variance,
    x_variance_dissipative,
)
from cqm.fock import _effective_level
from cqm.lindblad import NO_DECAY


def params(g, lam=0.0, omega=1.0, Omega=1e4):
    return ModelParams(omega=omega, Omega=Omega, g=g, lam=lam)


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_critical_point_regulation():
    p = params(0.1, lam=-0.2475)
    err_point = abs(critical_coupling(p) - 0.1)
    worst = 0.0
    for g in np.linspace(0.02, 2.0, 100):
        lam = lambda_for_target_critical(g, 1.0)
        worst = max(worst, abs(critical_coupling(params(0.0, lam=lam)) - g))
    ok = err_point <= 1e-12 and worst <= 1e-12
    report(1, ok, f"g_c(-0.2475) error {err_point:.2e}, worst round-trip {worst:.2e} (<= 1e-12)")


def test_criterion_2_variance_identity_on_grid():
    worst = 0.0
    lams = np.linspace(-0.24, 1.0, 50)
    fracs = np.linspace(0.02, 0.98, 50)
    ts = np.linspace(0.0, 60.0, 50)
    for lam in lams:
        gc = np.sqrt(1.0 + 4.0 * lam)
        for frac in fracs:
            p = params(frac * gc, lam=lam)
            direct = x_second_moment(p, ts) - x_mean(p, ts) ** 2
            printed = x_variance(p, ts)
            worst = max(worst, float(np.abs(direct / printed - 1.0).max()))
    ok = worst <= 1e-12
    report(2, ok, f"max relative defect {worst:.2e} on the 50^3 grid (<= 1e-12)")


def test_criterion_3_cross_engine_dynamics():
    results = []
    for g, lam in [(0.9, 0.0), (0.099, -0.2475)]:
        p = params(g, lam=lam)
        eps_g = oscillator_frame(p).epsilon_g
        tau2 = float(optimal_times(p, 2)[-1])
        ts = np.linspace(0.0, 2.0 * tau2, 160)
        series = quadrature_series(p, ts)  # automatic cutoff
        devs = {
            "x": np.abs(series.x_mean - x_mean(p, ts)).max() / np.abs(x_mean(p, ts)).max(),
            "var": np.abs(series.x_var - x_variance(p, ts)).max()
            / np.abs(x_variance(p, ts)).max(),
            "inv": np.abs(series.inv_var - inverted_variance(p, ts)).max()
            / np.abs(inverted_variance(p, ts)).max(),
        }
        results.append((eps_g, series.n_cut, devs))
    ok = all(max(d.values()) <= 1e-6 for _, _, d in results)
    detail = "; ".join(
        f"eps_g={e:.4g} (n_cut={n}) max dev {max(d.values()):.2e}" for e, n, d in results
    )
    report(3, ok, detail + " (<= 1e-6)")


def test_criterion_4_qfi_method_agreement_and_convergence():
    # two exact methods agree at eps_g = 0.19 for t <= 20
    p = params(0.9)
    worst = 0.0
    for t in np.linspace(2.0, 20.0, 7):
        _, (a,) = generator_qfi_grid(p, [float(t)])
        b = qfi_overlap(p, float(t))
        worst = max(worst, abs(a - b) / a)
    methods_ok = worst <= 1e-4

    # the closed form converges onto the generator value approaching
    # criticality, each value at the cutoff the ladder accepts, which moved it
    # by <= 1e-6 on the last doubling (the level below may leak: its rows
    # ride on the TruncationLeak)
    rels, moves, cuts = [], [], []
    for eps_g in (0.02, 0.01, 0.005):
        p = params(np.sqrt(1.0 - eps_g))
        t = np.pi / np.sqrt(oscillator_frame(p).epsilon)
        series, (exact,) = generator_qfi_grid(p, [t])
        try:
            below = _effective_level(p, np.array([t]), series.n_cut // 2)[3, 0]
        except TruncationLeak as leak:
            below = leak.rows[3, 0]
        moves.append(abs(exact - below) / max(abs(exact), abs(below)))
        cuts.append(series.n_cut)
        rels.append(abs(qfi_g(p, t) - exact) / exact)
    conv_ok = rels[0] > rels[1] > rels[2] and max(moves) <= 1e-6
    ok = methods_ok and conv_ok
    report(
        4,
        ok,
        f"method agreement {worst:.2e} (<= 1e-4); closed-vs-exact deviation "
        f"{rels[0]:.3f} > {rels[1]:.3f} > {rels[2]:.3f} shrinking toward criticality "
        f"(eps_g = 0.02, 0.01, 0.005 at n_cut {cuts}), largest move on the last "
        f"doubling {max(moves):.1e} (<= 1e-6)",
    )


def test_criterion_5_reciprocal_relation_residual():
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(10):
        lam = rng.uniform(-0.24, 0.5)
        gc = np.sqrt(1.0 + 4.0 * lam)
        g = rng.uniform(0.05, 0.9) * gc
        worst = max(worst, verify_reciprocal_relation(params(g, lam=lam), 60))
    ok = worst < 1e-9
    report(5, ok, f"worst interior-block residual {worst:.2e} over 10 random sets (< 1e-9)")


def test_criterion_6_peaks_and_ratio_scaling():
    # peak formula matches the curve value for n <= 50
    worst_peak = 0.0
    for p in (params(0.9), params(0.099, lam=-0.2475)):
        taus = optimal_times(p, 50)
        peaks = inverted_variance_peak(p, np.arange(1, 51))
        curve = inverted_variance(p, taus)
        worst_peak = max(worst_peak, float(np.abs(curve / peaks - 1.0).max()))
    peaks_ok = worst_peak <= 1e-10

    # numeric I/F against the analytic ratio at eps_g = 0.0199, n = 5..20
    p = params(0.099, lam=-0.2475)
    analytic = ig_fg_ratio(p)
    taus = optimal_times(p, 20)[4:]
    series, qfi = generator_qfi_grid(p, taus)
    numeric = series.inv_var / qfi
    ratio_dev = float(np.abs(numeric - analytic).max() / analytic)
    ratio_ok = ratio_dev <= 0.05

    # closed-form identity is exact, and the critical-state value is 0.4
    ident = max(
        abs(inverted_variance_peak(p, n) / qfi_g(p, taus[n - 5]) - analytic)
        / analytic
        for n in (5, 12, 20)
    )
    ident_ok = ident <= 1e-12
    near_critical = params(0.1 * np.sqrt(1 - 1e-9), lam=-0.2475)
    crit_value = ig_fg_ratio(near_critical)
    crit_ok = abs(crit_value - 0.4) / 0.4 <= 0.05

    ok = peaks_ok and ratio_ok and ident_ok and crit_ok
    report(
        6,
        ok,
        f"peak formula defect {worst_peak:.2e} (<= 1e-10); numeric/analytic ratio "
        f"deviation {ratio_dev:.3%} (<= 5%); closed-form identity {ident:.2e}; "
        f"critical value {crit_value:.4f} vs 0.4",
    )


def test_criterion_7_finite_frequency_scaling():
    etas = [1e2, 3e2, 1e3, 3e3, 1e4]
    slopes = {}
    deltas = {}
    for label, (g, lam) in {"plain": (0.9, 0.0), "tuned": (0.1, -0.247)}.items():
        p = params(g, lam=lam)
        tau, limit = peak_time(p, 1), inverted_variance_peak(p, 1)
        exact = [squeezed_frame_series(replace(p, Omega=eta * p.omega), [tau]).inv_var[0]
                 for eta in etas]
        ds = [(i - limit) / limit for i in exact]
        deltas[label] = np.abs(ds)
        fit = fit_loglog_slope((np.array(etas), np.abs(ds)))
        slopes[label] = fit.slope
    slope_ok = all(abs(s + 1.0) <= 0.15 for s in slopes.values())
    below_ok = bool(np.all(deltas["tuned"] < deltas["plain"]))
    ok = slope_ok and below_ok
    report(
        7,
        ok,
        f"slopes plain={slopes['plain']:.3f}, tuned={slopes['tuned']:.3f} "
        f"(within -1 +- 0.15); tuned |delta| below plain at every eta: {below_ok}",
    )


def test_criterion_8_decoherence():
    rates = DecayRates(gamma_plus=0.03, gamma_minus=0.01)
    tuned = params(0.1, lam=-0.247)
    plain = params(0.1, lam=0.0)

    # exactly propagated moments against all three printed solutions over [0, 10*tau_1]
    worst_ode = 0.0
    for p in (tuned, plain):
        tau1 = float(optimal_times(p, 1)[0])
        ts = np.linspace(0.0, 10.0 * tau1, 400)
        moments, _ = integrate_moments(p, rates, ts)
        ode_x, ode_var = moments[:, 0], moments[:, 2] - moments[:, 0] ** 2
        xm = x_mean_dissipative(p, rates, ts)
        xv = x_variance_dissipative(p, rates, ts)
        dx = x_deriv_g_dissipative(p, rates, ts)
        worst_ode = max(
            worst_ode,
            float(np.abs(ode_x - xm).max() / np.abs(xm).max()),
            float(np.abs(ode_var - xv).max() / np.abs(xv).max()),
        )
        # and the quotient built from the printed pieces stays consistent
        icl = inverted_variance_dissipative(p, rates, ts)
        quot = dx**2 / xv
        mask = quot > 0
        worst_ode = max(worst_ode, float(np.abs(icl[mask] / quot[mask] - 1.0).max()))
    ode_ok = worst_ode <= 1e-6

    # zero-rate reduction at 1e-12
    worst_red = 0.0
    for p in (tuned, plain):
        ts = np.linspace(0.0, 200.0, 200)
        pairs = [
            (x_mean_dissipative(p, NO_DECAY, ts), x_mean(p, ts)),
            (x_deriv_g_dissipative(p, NO_DECAY, ts), x_deriv_g(p, ts)),
            (x_variance_dissipative(p, NO_DECAY, ts), x_variance(p, ts)),
            (inverted_variance_dissipative(p, NO_DECAY, ts), inverted_variance(p, ts)),
        ]
        for got, want in pairs:
            scale = np.abs(want).max()
            worst_red = max(worst_red, float(np.abs(got - want).max() / scale))
    reduction_ok = worst_red <= 1e-12

    # the tuned dissipative peaks dominate the plain ones by >= 3 orders
    n_peaks = np.arange(1, 6)
    it = inverted_variance_dissipative(tuned, rates, optimal_times(tuned, 5))
    ip = inverted_variance_dissipative(plain, rates, optimal_times(plain, 5))
    gain = float((it / ip).min())
    gain_ok = gain >= 1e3

    ok = ode_ok and reduction_ok and gain_ok
    report(
        8,
        ok,
        f"ODE-vs-closed-form defect {worst_ode:.2e} (<= 1e-6); zero-rate reduction "
        f"{worst_red:.2e} (<= 1e-12); min peak gain x{gain:.0f} over peaks "
        f"n={n_peaks[0]}..{n_peaks[-1]} (>= 1e3)",
    )


def test_criterion_9_dataset_regeneration():
    names = [
        "qfi-evolution",
        "qfi-vs-g",
        "qfi-map",
        "inverted-variance",
        "ratio-scaling",
        "frequency-scaling",
        "decoherence",
    ]
    failures = {}
    row_counts = {}
    for name in names:
        cfg = build_config(name)
        ds = run(cfg)
        failures[name] = len(ds.metadata["failures"])
        row_counts[name] = len(ds.rows)
        statuses = set(ds.str_column("status"))
        assert statuses <= {"ok", "saturated"}, (name, statuses)
    # determinism: a repeated default run is row-identical
    again = run(build_config("qfi-evolution"))
    first = run(build_config("qfi-evolution"))
    deterministic = again.rows == first.rows
    ok = all(v == 0 for v in failures.values()) and deterministic
    detail = ", ".join(f"{n}:{row_counts[n]} rows" for n in names)
    report(9, ok, f"zero failed cells ({detail}); deterministic rows: {deterministic}")
