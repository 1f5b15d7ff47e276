import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cqm
from cqm import (
    ConfigError,
    Dataset,
    NonPositiveData,
    build_config,
    config_reference,
    critical_coupling,
    experiment_ids,
    fit_loglog_slope,
    run,
)
from cqm import cli, experiments
from cqm.cli import main as cli_main
from cqm.experiments import _REGISTRY, _batches, _rel_dev, _render
from cqm.model import ModelParams


class TestConfig:
    def test_defaults_resolve_for_every_experiment(self):
        for name in experiment_ids():
            cfg = build_config(name)
            assert cfg.experiment == name

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            build_config("nope")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_config("qfi-evolution", overrides=["bogus=1"])

    def test_grid_syntax(self):
        cfg = build_config("qfi-evolution", overrides=["t=0:10:5", "g=0.5"])
        assert np.allclose(cfg.values["t"], np.linspace(0, 10, 5))
        assert cfg.values["g"] == pytest.approx([0.5])

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            build_config("qfi-evolution", overrides=["t=1:2"])

    def test_engine_validation(self):
        with pytest.raises(ConfigError):
            build_config("qfi-map", engine="both")  # the map has no oracle

    @pytest.mark.parametrize("experiment", experiment_ids())
    def test_oracle_engine_is_gone(self, tmp_path, capsys, experiment):
        # 'both' writes every oracle value as <q>_oracle; the bare names hold
        # closed-form values, so no engine may put oracle values there
        with pytest.raises(ConfigError):
            build_config(experiment, engine="oracle")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main([experiment, "--engine", "oracle", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'oracle'" in capsys.readouterr().err
        assert not out.exists()

    def test_zipped_lengths_checked(self):
        for experiment in ("decoherence", "frequency-scaling"):
            with pytest.raises(ConfigError):
                build_config(experiment, overrides=["g=0.1", "lam=0,-0.247"])

    def test_unphysical_lambda_rejected(self):
        with pytest.raises(ConfigError):
            build_config("qfi-evolution", overrides=["lam=-0.3"])

    @pytest.mark.parametrize("experiment,override", [
        ("ratio-scaling", "n=1,0"),  # would label tau_1 as n=0
        ("ratio-scaling", "n=2.5"),  # would be written as n=2
        ("ratio-scaling", "n=1e19"),  # would overflow int64 and fail every cell
        ("ratio-scaling", "n=9007199254740993"),  # would be read as 2**53
        ("frequency-scaling", "n=0"),
        ("frequency-scaling", "n=1.5"),  # would be run and written as n=1
        ("qfi-evolution", "t=nan"),
        ("quadrature-vs-g", "g=0.1,inf"),
        ("decoherence", "gamma_minus=-0.01"),  # net heating
        ("decoherence", "gamma_plus=0.005"),  # gamma_minus above gamma_plus
        ("decoherence", "t_per=1,0.5,2"),  # the moment ODE needs increasing times
        ("decoherence", "t_per=-1,0,1"),
        ("frequency-scaling", "eta=5,20,30,40,50"),
        ("frequency-scaling", "eta=1e2,3e2,1e3,3e3,nan"),
        ("frequency-scaling", "eta=1e2,3e2"),  # too few points for the slope fit
        ("frequency-scaling", "eta=1e2,1e2,3e2,3e2,1e3"),  # five, but three distinct
        ("frequency-scaling", "g=0,0.1"),  # the g-stencil would go below 0
        ("frequency-scaling", "g=1e-7,0.1"),  # g - dg = -1.3e-23 failed every cell
        # five distinct eta whose logs a line cannot resolve: LinAlgError after every cell
        ("frequency-scaling", "eta=10,10.000000000000002,10.000000000000004,"
                              "10.000000000000005,10.000000000000007"),
        ("qfi-vs-g", "g=-0.5,0.5"),  # would fail its cell instead
        ("qfi-vs-g", "state_dim=6"),  # not a key: the reference state is fixed
        ("qfi-evolution", "Omega=50"),  # not a key: no dataset depends on Omega
        ("ratio-scaling", "engine=closed"),  # not a key: the engine comes from --engine
        ("qfi-evolution", "omega=1"),  # not a key: omega is the unit
        ("qfi-evolution", "omega=inf"),  # no omega value is a key, bad or not
        ("qfi-evolution", "omega=0"),
        ("qfi-evolution", "omega=-1"),
        ("qfi-evolution", "g"),  # no '='
        ("qfi-evolution", "g="),  # an empty grid
    ])
    def test_bad_values_rejected_up_front(self, experiment, override):
        with pytest.raises(ConfigError):
            build_config(experiment, overrides=[override])
        assert cli_main([experiment, "--set", override]) == 2

    @pytest.mark.parametrize("experiment, overrides, code, statuses", [
        ("quadrature-vs-g", ["g=1e308"], 2, None),
        ("quadrature-vs-g", ["lam=1e308", "g=0.5"], 2, None),
        ("quadrature-vs-g", ["lam=1e300", "g=0.5"], 0, ["ok"]),
        ("qfi-vs-g", ["lam=1e300"], 3, ["failed:RuntimeWarning"] * 200),
    ], ids=["overrides0-2", "overrides1-2", "overrides2-0", "qfi-vs-g-lam1e300-3"])
    def test_a_run_ends_alike_under_any_warning_filter(self, tmp_path, experiment, overrides,
                                                       code, statuses):
        # g = 1e308 wrote three ok rows under the default filter and three
        # failed:RuntimeWarning rows under error::RuntimeWarning, and lam =
        # 1e308 wrote failed:NonFinite: both are now refused before any cell.
        # lam = 1e300 overflowed only in the frame's unused past-g_c branch of
        # quadrature-vs-g; in qfi-vs-g var_n's omega_bar**6 overflows, which
        # wrote failed:NonFinite rows under the default filter and now fails
        # each cell with its RuntimeWarning under any filter
        outcomes = []
        for action in ("default", "error", "ignore"):
            out = tmp_path / f"{action}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                exit_code = cli_main([experiment, "--out", str(out)]
                                     + [a for o in overrides for a in ("--set", o)])
            outcomes.append((exit_code, _read_output(out).str_column("status")
                             if out.exists() else None))
        assert outcomes == [(code, statuses)] * 3

    def test_closed_engine_takes_any_time_grid(self):
        # only the moment ODE of the both engine needs increasing times
        cfg = build_config("decoherence", overrides=["t_per=1,0.5,2"], engine="closed")
        assert cfg.values["t_per"] == pytest.approx([1.0, 0.5, 2.0])

    def test_closed_engine_rejects_negative_times(self, tmp_path):
        # the damped closed forms run forward only: this run used to exit 0
        # with ok rows of negative variance
        with pytest.raises(ConfigError, match=">= 0"):
            build_config("decoherence", overrides=["t_per=-5:0:5"], engine="closed")
        assert cli_main(["decoherence", "--engine", "closed", "--set", "t_per=-5:0:5",
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_moment_ode_takes_a_grid_at_zero_alone(self, tmp_path):
        # the moment ODE starts at t = 0 whatever the grid, so t_per = 0 is a
        # grid for the both engine too: each cell's one row is the probe's
        out = tmp_path / "x.csv"
        assert cli_main(["decoherence", "--engine", "both", "--set", "t_per=0",
                         "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))  # past the metadata
        assert [(r["x_var_oracle"], r["status"]) for r in rows] == [("1", "ok")] * 2

    def test_reference_covers_all_experiments(self):
        text = config_reference()
        for name in experiment_ids():
            assert name in text
        assert "t_per" in config_reference("decoherence")
        assert not re.search(r"^ +omega ", text, re.MULTILINE)  # the unit, not a key

    def test_reference_refuses_an_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment 'nope'"):
            config_reference("nope")

    def test_deviation_of_an_all_zero_closed_curve_is_absolute(self):
        # a closed curve that is 0 everywhere has no scale: the deviation is
        # the oracle's own size
        oracle = np.array([0.0, 1e-3, -2e-3])
        assert np.array_equal(_rel_dev(np.zeros(3), oracle), np.abs(oracle))


class TestSlopeFit:
    def test_exact_power_law(self):
        eta = np.array([1e2, 3e2, 1e3, 3e3, 1e4])
        fit = fit_loglog_slope((eta, 7.3 / eta))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_needs_five_points(self):
        with pytest.raises(NonPositiveData):
            fit_loglog_slope((np.array([1., 2, 3, 4]), np.array([1., 2, 3, 4])))

    def test_rejects_nonpositive(self):
        x = np.array([1.0, 2, 3, 4, 5])
        with pytest.raises(NonPositiveData):
            fit_loglog_slope((x, np.array([1.0, -2, 3, 4, 5])))

    @pytest.mark.parametrize("x, y, what", [
        ([1.0, 2, 3, 4, 5], [1.0, 2, np.nan, 4, 5], "finite"),  # came back as SlopeFit(nan, nan)
        ([1.0, 2, 3, 4, np.inf], [1.0, 2, 3, 4, 5], "finite"),
        ([1.0, 2, 3, 4, 5], [1.0, 2, 3, 4, 5, 6], "one length"),  # numpy's LinAlgError
        ([3.0] * 5, [1.0, 2, 3, 4, 5], "distinct x"),  # a singular design: LinAlgError
        ([10.0, 10.000000000000002, 10.000000000000004, 10.000000000000005,
          10.000000000000007], [1.0, 2, 3, 4, 5], "rank 1"),  # LinAlgError
        ([1e2, 1e2, 3e2, 3e2, 1e3], [1.0, 2, 3, 4, 5], "distinct x"),  # was fit
    ], ids=["nan", "inf", "lengths", "one-x", "flat-logs", "three-x"])
    def test_rejects_data_it_cannot_fit(self, x, y, what):
        with pytest.raises(NonPositiveData, match=what):
            fit_loglog_slope((np.array(x), np.array(y)))

    def test_dataset_interface(self):
        ds = Dataset(
            columns=["eta", "abs_delta", "cell", "status"],
            rows=[[f"{e}", f"{5.0 / e}", "0", "ok"] for e in (1e1, 1e2, 1e3, 1e4, 1e5)],
            metadata={},
        )
        fit = fit_loglog_slope((ds.column("eta"), ds.column("abs_delta")))
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)


def tiny(name, engine=None, **over):
    sets = {
        "qfi-evolution": ["g=0.098,0.099", "t=0:50:6"],
        "qfi-vs-g": ["lam=0,-0.2", "g=0.3:1.1:9"],
        "qfi-map": ["lam=-0.2:0.1:7", "g=0.1:1.2:12"],
        "quadrature-vs-g": ["lam=0", "g=0.5:1.2:8", "t=20"],
        "inverted-variance": ["g=0.9,0.1", "lam=0,-0.247", "t_per=0:2:30"],
        "ratio-scaling": ["g=0.9", "lam=0", "n=1:5:5"],
        "frequency-scaling": ["g=0.9", "lam=0", "eta=1e2,3e2,1e3,3e3,1e4"],
        "decoherence": ["g=0.1,0.1", "lam=0,-0.247", "t_per=0:3:40"],
    }
    merged = sets[name] + [f"{k}={v}" for k, v in over.items()]
    return build_config(name, overrides=merged, engine=engine)


class TestRunner:
    def test_every_experiment_completes_on_tiny_grids(self):
        for name in experiment_ids():
            cfg = tiny(name)
            ds = run(cfg)
            assert len(ds.rows) > 0, name
            assert not ds.metadata["failures"], name
            statuses = set(ds.str_column("status"))
            assert statuses <= {"ok", "saturated"}, name

    def test_default_decoherence_rates_are_written_as_given(self):
        # the rates went through (gamma_a, gamma_h) and back, which wrote
        # gamma_minus as 0.010000000000000002
        ds = run(build_config("decoherence"))
        assert len(ds.rows) == 1200 and not ds.metadata["failures"]
        assert set(ds.str_column("gamma_minus")) == {"0.01"}
        assert set(ds.column("gamma_plus")) == {0.03}  # text 0.029999999999999999

    def test_decoherence_oracle_takes_its_own_g_derivative(self, monkeypatch):
        # inv_var_oracle was built from x_deriv_g_dissipative, the closed form
        # inv_var_closed comes from; the moment loop now carries d<X>/dg itself
        def refused(*args):
            raise AssertionError("the oracle read the closed-form derivative")

        monkeypatch.setattr("cqm.lindblad.x_deriv_g_dissipative", refused)
        ds = run(build_config("decoherence", overrides=["t_per=0:10:60"]))
        assert ds.metadata["failures"] == {}
        assert set(ds.str_column("status")) == {"ok"}
        assert ds.column("inv_var_rel_dev").max() <= 1e-12

    def test_determinism_two_fresh_runs(self):
        cfg = tiny("decoherence")
        a = run(cfg)
        b = run(cfg)
        assert a.rows == b.rows
        ma = {k: v for k, v in a.metadata.items() if k != "wall_time_s"}
        mb = {k: v for k, v in b.metadata.items() if k != "wall_time_s"}
        assert ma == mb

    def test_closed_runs_are_one_batch_at_any_jobs(self, monkeypatch):
        cfg = tiny("qfi-vs-g")  # 2 lam x 9 g
        assert _batches(cfg, 18) == [list(range(18))]
        assert _batches(cfg, 0) == []  # no empty batch
        assert _batches(tiny("qfi-map"), 3) == [[0, 1, 2]]
        both = tiny("quadrature-vs-g", engine="both")
        assert _batches(both, 3) == [[0], [1], [2]]
        batches = []
        run_batch = experiments._run_batch
        monkeypatch.setattr(experiments, "_run_batch", lambda cfg, indices, *rest: (
            batches.append(indices) or run_batch(cfg, indices, *rest)))
        run(cfg)
        assert batches == [list(range(18))]

    @pytest.mark.parametrize("name,over", [
        ("qfi-vs-g", {}),
        ("qfi-vs-g", {"lam": "0,0.75", "g": "0.5,1,1.5,2,2.5"}),  # exactly critical points
        ("quadrature-vs-g", {}),
        ("quadrature-vs-g", {"lam": "0,0.75", "g": "0.5,1,1.5,2,2.5"}),
        ("qfi-evolution", {}),
        ("inverted-variance", {"g": "0.9,0.1,0.9", "lam": "0,0,-0.247"}),  # one cell fails
        ("qfi-map", {}),
    ])
    def test_batches_give_the_rows_of_cells_run_alone(self, monkeypatch, name, over):
        cfg = tiny(name, **over)
        batched = run(cfg)
        monkeypatch.setattr("cqm.experiments._batches", lambda cfg, n: [[i] for i in range(n)])
        alone = run(cfg)
        assert batched.metadata["failures"] == alone.metadata["failures"]
        if name != "qfi-map":
            assert batched.rows == alone.rows
            return
        # a qfi-map batch pairs lam arrays with g, so var_n's omega_bar**6 runs
        # through np.power instead of libm pow, which can differ by 1 ulp
        assert batched.str_column("status") == alone.str_column("status")
        for column in ("lam", "g", "t", "log10_qfi", "cell"):
            np.testing.assert_allclose(batched.column(column), alone.column(column),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name,function", [
        ("qfi-vs-g", "qfi_g"),
        ("qfi-map", "qfi_g"),
        ("quadrature-vs-g", "x_mean"),
    ])
    def test_coupling_sweeps_take_one_call_per_run(self, monkeypatch, name, function):
        import cqm.closed_form as cf

        seen = []
        original = getattr(cf, function)

        def counted(*args, **kwargs):
            seen.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cf, function, counted)
        assert not run(build_config(name)).metadata["failures"]
        assert len(seen) == 1

    def test_critical_points_in_a_row_saturate(self):
        # g_c = 1 at lam = 0 and g_c = 2 at lam = 0.75, both exact in float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = run(build_config("qfi-map", overrides=["lam=0,0.75", "g=0.5,1,1.5,2,2.5"]))
            single = run(build_config("qfi-vs-g", overrides=["lam=0.75", "g=1.5,2,2.5"]))
        status = ds.str_column("status")
        assert status == ["ok", "saturated", "ok", "ok", "ok", "ok", "ok", "ok", "saturated", "ok"]
        assert [ds.str_column("log10_qfi")[i] for i in (1, 8)] == ["inf", "inf"]
        assert np.all(np.isfinite(np.delete(ds.column("log10_qfi"), [1, 8])))
        assert single.str_column("status") == ["ok", "saturated", "ok"]
        assert single.str_column("regime") == ["normal", "critical", "superradiant"]
        assert single.str_column("qfi")[1] == "inf"

    def test_qfi_vs_g_peaks_sit_at_the_critical_couplings(self):
        cfg = tiny("qfi-vs-g", lam="0,-0.10,-0.20", g="0.05:1.15:221")
        ds = run(cfg)
        lam = ds.column("lam")
        g = ds.column("g")
        q = ds.column("qfi")
        spacing = g[1] - g[0]
        for lam_val in np.unique(lam):
            mask = lam == lam_val
            peak = g[mask][np.argmax(q[mask])]
            gc = critical_coupling(ModelParams(1.0, 1e4, 0.0, lam_val))
            assert abs(peak - gc) <= spacing + 1e-12

    def test_map_ridge_follows_the_critical_line(self):
        cfg = tiny("qfi-map", lam="-0.21:0.0:8", g="0.05:1.2:40")
        ds = run(cfg)
        lam = ds.column("lam")
        g = ds.column("g")
        q = ds.column("log10_qfi")
        cell_width = g[1] - g[0]
        for lam_val in np.unique(lam):
            mask = lam == lam_val
            ridge = g[mask][np.argmax(q[mask])]
            gc = critical_coupling(ModelParams(1.0, 1e4, 0.0, lam_val))
            assert abs(ridge - gc) <= cell_width + 1e-12

    def test_ok_rows_set_every_column_for_every_engine(self):
        # a column an ok row leaves unset would be rendered as a nan fill
        for name, entry in _REGISTRY.items():
            for engine in entry.engines:
                cfg = tiny(name, engine=engine)
                columns = set(entry.columns(engine))
                for cell in entry.cells(cfg.values):
                    cols = entry.compute(cfg, [cell])
                    if np.any(np.asarray(cols.get("status", "ok")) == "ok"):
                        assert columns <= set(cols), (name, engine, columns - set(cols))

    def test_any_exception_fails_its_cell_alone(self, monkeypatch):
        entry = _REGISTRY["inverted-variance"]

        def compute(cfg, cells):
            if any(cell["g"] == 0.1 for cell in cells):
                raise np.linalg.LinAlgError("eigh did not converge")
            return entry.compute(cfg, cells)

        monkeypatch.setitem(_REGISTRY, "inverted-variance",
                            dataclasses.replace(entry, compute=compute))
        ds = run(tiny("inverted-variance"))
        assert list(ds.metadata["failures"]) == ["1"]
        statuses = ds.str_column("status")
        assert statuses.count("failed:LinAlgError") == 1
        assert statuses.count("ok") == len(statuses) - 1

    def test_non_finite_ok_row_fails_its_cell(self, monkeypatch):
        entry = _REGISTRY["qfi-vs-g"]

        def compute(cfg, cells):
            cols = entry.compute(cfg, cells)
            cols["qfi"] = np.where(cols["g"] == cfg.values["g"][0], np.nan, cols["qfi"])
            return cols

        monkeypatch.setitem(_REGISTRY, "qfi-vs-g", dataclasses.replace(entry, compute=compute))
        ds = run(tiny("qfi-vs-g"))
        statuses = ds.str_column("status")
        assert statuses.count("failed:NonFinite") == 2  # first g of each lam
        ok = [row for row in ds.rows if row[ds.columns.index("status")] == "ok"]
        assert ok and all("nan" not in row for row in ok)

    @pytest.mark.parametrize("fault,status", [
        ("raise", "failed:ArithmeticError"),
        ("nan", "failed:NonFinite"),
        ("short", "failed:ValueError"),
        ("short_text", "failed:ValueError"),
    ])
    def test_a_fault_inside_a_batch_fails_its_cell_alone(self, monkeypatch, fault, status):
        cfg = tiny("qfi-vs-g")  # one batch: cells 0-8 at lam = 0, cells 9-17 at lam = -0.2
        clean = run(cfg)
        _break_cell(monkeypatch, cfg, 4, fault)
        ds = run(cfg)
        assert list(ds.metadata["failures"]) == ["4"]
        assert ds.str_column("status")[4] == status
        assert ds.rows[:4] + ds.rows[5:] == clean.rows[:4] + clean.rows[5:]

    def test_both_engines_run_the_oracle_once_per_non_critical_cell(self, monkeypatch):
        from cqm import fock

        seen = []
        original = fock.quadrature_series

        def counted(params, *args, **kwargs):
            seen.append(params.g)
            return original(params, *args, **kwargs)

        monkeypatch.setattr(fock, "quadrature_series", counted)
        ds = run(tiny("quadrature-vs-g", engine="both", g="0.5,1,0.6"))  # g_c = 1 at lam = 0
        assert ds.str_column("status") == ["ok", "saturated", "ok"]
        assert seen == [0.5, 0.6]

    def test_cross_engine_columns_within_tolerance(self):
        cfg = tiny("decoherence")
        ds = run(cfg)
        for col in ("x_mean_rel_dev", "x_var_rel_dev", "inv_var_rel_dev"):
            assert ds.column(col).max() < 1e-6

    def test_frequency_scaling_records_slope(self):
        ds = run(tiny("frequency-scaling"))
        slopes = ds.metadata["loglog_slopes"]
        (case_key,) = slopes
        assert slopes[case_key]["slope"] == pytest.approx(-1.0, abs=0.15)

    def test_frequency_scaling_compares_the_oracle_with_the_closed_peak(self):
        # the runner takes tau_n and the limit from the closed forms and forms
        # delta itself; every written float reads back bit for bit
        ds = run(build_config("frequency-scaling"))
        assert len(ds.rows) == 10 and not ds.metadata["failures"]
        for row in ds.rows:
            r = dict(zip(ds.columns, row))
            p = ModelParams(omega=1.0, Omega=1e4, g=float(r["g"]), lam=float(r["lam"]))
            n = int(r["n"])
            exact, limit, delta = (float(r[c]) for c in ("inv_var_exact", "inv_var_limit",
                                                         "delta"))
            assert float(r["tau_n"]) == cqm.peak_time(p, n)
            assert limit == cqm.inverted_variance_peak(p, n)
            assert delta == (exact - limit) / limit
            assert float(r["abs_delta"]) == abs(delta)

    def test_every_closed_compute_returns_its_rows_in_cell_order(self):
        # the run writes each batch's rows as they come
        for name, entry in _REGISTRY.items():
            if "closed" not in entry.engines:
                continue
            cfg = tiny(name, engine="closed")
            cells = entry.cells(cfg.values)
            position = np.asarray(entry.compute(cfg, cells)["cell"])
            assert np.array_equal(np.unique(position), np.arange(len(cells))), name
            assert np.all(np.diff(position) >= 0), name

    def test_a_failed_cell_is_recorded(self):
        # beyond-critical case in a normal-regime-only experiment: cell fails
        ds = run(tiny("inverted-variance", g="0.9,0.9", lam="0,-0.247"))
        assert list(ds.metadata["failures"]) == ["1"]
        status = [s for s in ds.str_column("status") if s.startswith("failed")]
        assert status == ["failed:RegimeError"]
        assert ds.metadata["cells_computed"] == 2

    def test_peak_times_float64_cannot_resolve_fail_their_cells(self):
        # ratio-scaling at n = 1e15 used to write both rows as ok at n_cut
        # 4096, with ratio_numeric 0.124 and 0.025 from phases rounded by a
        # radian; each cell now fails at its first cutoff level
        ds = run(build_config("ratio-scaling", overrides=["n=1e15"]))
        assert list(ds.metadata["failures"]) == ["0", "1"]
        assert ds.str_column("status") == ["failed:InvalidParams"] * 2
        assert all(reason.startswith("InvalidParams: ts: float64 rounds the phases")
                   for reason in ds.metadata["failures"].values())

    def test_failed_row_keeps_config_scalars(self):
        # lam is a scalar of qfi-evolution, not part of its cells
        cfg = build_config("qfi-evolution", overrides=["g=0.5,1.0", "lam=0", "t=0:10:3"])
        ds = run(cfg)
        assert list(ds.metadata["failures"]) == ["1"]
        failed = [r for r in ds.rows if r[ds.columns.index("status")].startswith("failed")]
        assert len(failed) == 1
        row = dict(zip(ds.columns, failed[0]))
        assert (row["lam"], row["g"], row["status"]) == ("0", "1", "failed:RegimeError")

    def test_failure_reasons_in_metadata(self):
        ds = run(tiny("inverted-variance", g="0.9,0.9", lam="0,-0.247"))
        (reason,) = ds.metadata["failures"].values()
        assert list(ds.metadata["failures"]) == ["1"]
        assert reason.startswith("RegimeError: epsilon_g = ")
        assert run(tiny("inverted-variance")).metadata["failures"] == {}

    def test_column_units_agree_across_engines(self, tmp_path):
        deviations = {"rel_dev", "delta", "abs_delta"}
        written = _written_units(tmp_path)
        for name, by_engine in written.items():
            seen: dict[str, str] = {}
            for engine, units in by_engine.items():
                for c, unit in units.items():
                    if c in deviations or c.endswith("_rel_dev"):
                        assert unit == "1", (name, engine, c)
                        continue
                    q = c.removesuffix("_closed").removesuffix("_oracle")
                    if q != c:
                        assert unit, (name, engine, c)
                    assert seen.setdefault(q, unit) == unit, (name, engine, c)
        units = written["quadrature-vs-g"]["both"]
        assert units["x_mean_closed"] == units["x_mean_oracle"] == "1"

    def test_every_quantity_column_has_a_unit(self, tmp_path):
        # inv_var was "1" in inverted-variance but "" as frequency-scaling's
        # inv_var_exact and inv_var_limit, ratio-scaling's ratios had none, and
        # lam, an energy like the rates, was ""
        unitless = {"g", "eta", "n", "regime", "n_cut", "cell", "status"}
        dimensioned = {"t": "1/omega", "tau_n": "1/omega", "lam": "omega",
                       "gamma_minus": "omega", "gamma_plus": "omega"}
        seen = {}
        for name, by_engine in _written_units(tmp_path).items():
            for engine, units in by_engine.items():
                columns = _REGISTRY[name].columns(engine) + experiments._META_COLUMNS
                expected = {c: "" if c in unitless else dimensioned.get(c, "1") for c in columns}
                assert units == expected, (name, engine)
                seen.update(units)
        assert set(dimensioned) | unitless <= set(seen)

    def test_failed_rows_hold_what_their_cell_and_config_know(self):
        # a failed row took lam, g and eta alone, and wrote nan for the
        # config's gamma_minus, gamma_plus and n
        cases = [
            ("decoherence", ["g=0.1,1.2", "lam=0,0"], ["1"],
             {"lam": 0.0, "g": 1.2, "gamma_minus": 0.01, "gamma_plus": 0.03}),
            ("frequency-scaling", ["g=1.2", "lam=0"], ["0", "1", "2", "3", "4"],
             {"lam": 0.0, "g": 1.2, "n": 1.0}),
        ]
        for name, sets, failed, known in cases:
            ds = run(build_config(name, overrides=sets))
            assert list(ds.metadata["failures"]) == failed, name
            rows = [r for r in (dict(zip(ds.columns, row)) for row in ds.rows)
                    if r["cell"] in failed]
            assert [r["status"] for r in rows] == ["failed:RegimeError"] * len(failed), name
            computed = set(ds.columns) - set(known) - {"eta", "cell", "status"}
            for r in rows:
                assert {c: float(r[c]) for c in known} == known, name
                assert all(r[c] == "nan" for c in computed), (name, r)
        # each frequency-scaling cell holds its own eta
        assert [float(r["eta"]) for r in rows] == [1e2, 3e2, 1e3, 3e3, 1e4]

    def test_dataset_roundtrip_and_17_digits(self, tmp_path):
        ds = run(tiny("qfi-evolution"))
        path = tmp_path / "out.csv"
        ds.write_csv(str(path))
        text = path.read_text()
        assert text.startswith("# {")
        back = _read_output(path)
        assert back.rows == ds.rows
        assert back.metadata["config"] == ds.metadata["config"]
        # a full-precision float appears somewhere in the payload
        q = ds.column("qfi")
        rendered = format(q[-1], ".17g")
        assert rendered in text

    def test_header_keys_are_the_run_record(self, tmp_path):
        # the header lost config_hash, cell_rows and cells_failed_now with the
        # resume cache: the failed-cell count is len(failures); a run with a
        # regime column counts its rows past g_c and names their frame
        keys = {"cells_computed", "cells_total", "columns", "config", "engine", "experiment",
                "failures", "version", "wall_time_s"}
        for name in experiment_ids():
            path = tmp_path / f"{name}.csv"
            ds = run(tiny(name))
            ds.write_csv(str(path))
            header = json.loads(path.read_text().partition("\n")[0].removeprefix("# "))
            slopes = {"loglog_slopes"} if name == "frequency-scaling" else set()
            past_gc = {"past_gc"} if "regime" in ds.columns else set()
            assert set(header) == keys | slopes | past_gc, name
        for name, rows in (("qfi-vs-g", 325), ("quadrature-vs-g", 381)):
            ds = run(build_config(name, engine="closed"))
            assert ds.metadata["past_gc"]["rows"] == rows
            assert ds.str_column("regime").count("superradiant") == rows
            assert "displaced-frame oscillator" in ds.metadata["past_gc"]["frame"]

    def test_columns_render_as_17_digit_text(self):
        floats = [0.1, -0.0, 0.0, 1e-310, 2.0**60, np.inf, -np.inf, np.nan, 1 / 3, 0.0, -0.0]
        assert _render(np.array(floats), len(floats)) == [format(x, ".17g") for x in floats]
        assert _render(np.float64(0.1), 2) == ["0.10000000000000001"] * 2
        assert _render(np.array([3, -7, 2**60]), 3) == ["3", "-7", "1152921504606846976"]
        assert _render(4096, 1) == ["4096"]
        assert _render(np.array(["ok", "saturated"]), 2) == ["ok", "saturated"]

    def test_written_bytes_equal_csv_writer_output(self, tmp_path):
        # every kind of field the runner writes
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.1, 1e-310])
        n = len(floats)
        statuses = ["ok", "saturated", "failed:RegimeError", "ok", "ok", "saturated", "ok"]
        regimes = ["normal", "critical", "superradiant"] * 2 + ["normal"]
        columns = ["x", "regime", "n_cut", "cell", "status"]
        text = [_render(floats, n), _render(np.array(regimes), n),
                _render(np.array([64, 4096, 1, 0, 2, 3, 2**60]), n),
                _render(np.arange(n), n), _render(np.array(statuses), n)]
        rows = [list(row) for row in zip(*text)]
        assert {"nan", "inf", "-inf", "-0", "0"} <= set(text[0])
        ds = Dataset(columns, rows, {"experiment": "bytes"})
        path = tmp_path / "out.csv"
        ds.write_csv(str(path))
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([columns] + rows)
        header, body = path.read_bytes().split(b"\n", 1)
        assert header.startswith(b"# {")
        assert body == expected.getvalue().encode()
        assert _read_output(path).rows == rows

    @pytest.mark.parametrize("field", ["a,b", 'say "hi"', "two\nlines", "cr\r", None])
    def test_field_that_needs_quotes_fails_the_write(self, tmp_path, field):
        ds = run(tiny("qfi-evolution"))
        path = tmp_path / "out.csv"
        ds.write_csv(str(path))
        before = path.read_bytes()
        rows = [list(row) for row in ds.rows]
        if field is None:  # a row one field short whose last field holds the lost comma
            rows[1][-2:] = [",".join(rows[1][-2:])]
        else:
            rows[1][ds.columns.index("status")] = field
        with pytest.raises(ValueError):
            Dataset(ds.columns, rows, ds.metadata).write_csv(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("never called")

        ds = run(tiny("qfi-evolution"))
        path = tmp_path / "out.csv"
        ds.write_csv(str(path))
        before = path.read_bytes()
        # lines are joined text, so a field that is not text fails the write
        # with the temporary file open, and is never passed to str()
        broken = Dataset(ds.columns, ds.rows + [[Unprintable()] * len(ds.columns)],
                         ds.metadata)
        with pytest.raises(TypeError):
            broken.write_csv(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _break_cell(monkeypatch, cfg, index, fault):
    """Make the qfi-vs-g computation fail at the coupling of cell ``index``
    (of the first lam) by raising, by a NaN or by a float or text column one
    entry short."""
    entry = _REGISTRY["qfi-vs-g"]
    lam, g = (entry.cells(cfg.values)[index][k] for k in ("lam", "g"))

    def compute(cfg, cells):
        cols = entry.compute(cfg, cells)
        hit = (cols["g"] == g) & (cols["lam"] == lam)
        if hit.any() and fault == "raise":
            raise ArithmeticError(f"no value at g = {g}")
        if fault == "nan":
            cols["qfi"] = np.where(hit, np.nan, cols["qfi"])
        elif fault.startswith("short"):
            name = "regime" if fault == "short_text" else "qfi"
            cols[name] = cols[name][~hit]
        return cols

    monkeypatch.setitem(_REGISTRY, "qfi-vs-g", dataclasses.replace(entry, compute=compute))


def _written_units(tmp_path) -> dict[str, dict[str, dict[str, str]]]:
    """{experiment: {engine: the `columns` units of its written header}} on tiny grids."""
    out: dict[str, dict[str, dict[str, str]]] = {}
    for name, entry in _REGISTRY.items():
        for engine in entry.engines:
            path = tmp_path / f"{name}-{engine}.csv"
            run(tiny(name, engine=engine)).write_csv(str(path))
            header = json.loads(path.read_text().partition("\n")[0].removeprefix("# "))
            out.setdefault(name, {})[engine] = header["columns"]
    return out


def _read_output(path) -> Dataset:
    """A file as Dataset.write_csv writes it, read with the csv module."""
    with open(path, encoding="utf-8", newline="") as fh:
        metadata = json.loads(fh.readline().removeprefix("# "))
        columns, *rows = csv.reader(fh)
    del metadata["columns"]  # the units, which write_csv states from the column names
    return Dataset(columns, rows, metadata)


class TestCli:
    def test_output_of_another_version_is_recomputed(self, tmp_path, capsys):
        # another version may have written other values for the same config
        # (the decoherence rows changed); a run overwrites them all
        out = tmp_path / "ds.csv"
        argv = ["qfi-evolution", "--out", str(out), "--set", "g=0.098,0.099",
                "--set", "t=0:50:6"]
        assert cli_main(argv) == 0
        header, body = out.read_text().split("\n", 1)
        meta = json.loads(header[2:])
        meta["version"] = "0.0.1"
        out.write_text("# " + json.dumps(meta) + "\n" + body)
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert "(12 rows, 2 cells, 0 failed)" in capsys.readouterr().out
        again = out.read_text().split("\n", 1)
        assert json.loads(again[0][2:])["version"] == cqm.__version__
        assert again[1] == body

    @pytest.mark.parametrize("keep", ["header", "cut_row"])
    def test_truncated_output_is_recomputed(self, tmp_path, capsys, keep):
        # a truncated CSV (only its metadata line, or cut inside its last
        # row) is overwritten by a fresh run
        out = tmp_path / "ds.csv"
        argv = ["qfi-evolution", "--jobs", "1", "--out", str(out),
                "--set", "g=0.098,0.099", "--set", "t=0:50:6"]
        assert cli_main(argv) == 0
        text = out.read_text()
        full = text.splitlines()
        out.write_text(full[0] + "\n" if keep == "header" else text[:-20])
        assert cli_main(argv) == 0
        again = out.read_text().splitlines()
        assert again[1:] == full[1:]
        assert json.loads(again[0][2:])["cells_computed"] == 2

    @pytest.mark.parametrize("corrupt", ["changed_value", "non_integer_cell",
                                         "cell_out_of_range", "cell_out_of_order",
                                         "quoted_line_break", "header_not_an_object",
                                         "no_header", "deleted_row", "duplicated_row"])
    def test_corrupted_output_is_recomputed(self, tmp_path, capsys, corrupt):
        # a rerun computes every cell and writes a fresh run's body over any
        # file at --out; a well-formed file with one value changed used to
        # keep that value, as the rows of an older, wrong computation were kept
        out = tmp_path / "ds.csv"
        argv = ["qfi-evolution", "--jobs", "1", "--out", str(out),
                "--set", "g=0.098,0.099", "--set", "t=0:50:6"]
        assert cli_main(argv) == 0
        full = out.read_text().splitlines()
        lines = list(full)
        columns = lines[1].split(",")
        row = lines[-1].split(",")
        if corrupt == "changed_value":
            qfi = columns.index("qfi")
            row[qfi] = format(2 * float(row[qfi]), ".17g")
        elif corrupt == "non_integer_cell":
            row[columns.index("cell")] = "1.5"
        elif corrupt == "cell_out_of_range":
            row[columns.index("cell")] = "2"  # cells_total is 2
        elif corrupt == "quoted_line_break":
            row[columns.index("status")] = '"o\nk"'
        lines[-1] = ",".join(row)
        if corrupt == "cell_out_of_order":  # the first row of cell 0 claims cell 1
            lines[2] = re.sub(r",0,ok$", ",1,ok", lines[2])
        elif corrupt == "header_not_an_object":
            lines[0] = "# 5"
        elif corrupt == "no_header":
            del lines[0]
        elif corrupt == "deleted_row":  # a well-formed file, one row of cell 0 short
            del lines[3]
        elif corrupt == "duplicated_row":
            lines.insert(3, lines[3])
        out.write_text("\n".join(lines) + "\n")
        assert cli_main(argv) == 0
        again = out.read_text().splitlines()
        assert again[1:] == full[1:]
        assert json.loads(again[0][2:])["cells_computed"] == 2

    def test_bad_config_exit_code(self, capsys):
        assert cli_main(["qfi-evolution", "--set", "bogus=1"]) == 2

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_nonpositive_jobs_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "x.csv"
        assert cli_main(["qfi-evolution", "--jobs", str(jobs), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --jobs must be 1")
        assert not out.exists()

    def test_rejected_jobs_make_no_output_directory(self, tmp_path, capsys):
        # runs are serial: any --jobs but 1 is a bad config, found before any work
        for jobs in ("0", "-4", "2"):
            out = tmp_path / f"new_dir_{jobs}" / "x.csv"
            assert cli_main(["qfi-evolution", "--jobs", jobs, "--out", str(out)]) == 2, jobs
            assert capsys.readouterr().err.startswith("error: --jobs must be 1"), jobs
            assert not out.parent.exists(), jobs

    def test_config_file_option_is_gone(self, tmp_path, capsys):
        # a run is its experiment's defaults plus --set: there is no config file
        path, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        path.write_text("g = 0.3\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["qfi-evolution", "--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_uncreatable_output_directory_fails_before_any_cell(
            self, tmp_path, monkeypatch, capsys):
        entry = _REGISTRY["qfi-vs-g"]
        calls = []
        monkeypatch.setitem(_REGISTRY, "qfi-vs-g", dataclasses.replace(
            entry, compute=lambda cfg, cells: calls.append(cells)))
        blocker = tmp_path / "some_file"
        blocker.write_text("not a directory")
        out = blocker / "sub" / "x.csv"
        assert cli_main(["qfi-vs-g", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    def test_partial_failure_exit_code(self, tmp_path, capsys):
        argv = [
            "inverted-variance", "--jobs", "1", "--out", str(tmp_path / "x.csv"),
            "--set", "g=0.9,0.9", "--set", "lam=0,-0.247", "--set", "t_per=0:2:20",
        ]
        assert cli_main(argv) == 3
        assert "(21 rows, 2 cells, 1 failed)" in capsys.readouterr().out

    def test_parser_is_built_once_and_carries_nothing_between_calls(
            self, tmp_path, monkeypatch, capsys):
        seen = []

        def recorded(cfg):
            seen.append(cfg.values["g"].tolist())
            return run(cfg)

        monkeypatch.setattr(cli, "run", recorded)
        argv = ["qfi-evolution", "--out", str(tmp_path / "x.csv"),
                "--set", "t=0:10:4"]
        assert cli_main(argv + ["--set", "g=0.098"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli_main(["qfi-evolution", "--jobs", "two"])
        assert exc.value.code == 2
        assert cli_main(argv + ["--jobs", "0", "--set", "g=0.097"]) == 2
        assert cli_main(argv + ["--set", "g=0.099,0.096"]) == 0
        assert seen == [[0.098], [0.099, 0.096]]
        assert cli._build_parser() is cli._build_parser()

    def test_list_and_reference(self, capsys):
        assert cli_main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(listed) == set(experiment_ids())
        assert cli_main(["config-reference", "decoherence"]) == 0

    def test_reference_of_an_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["config-reference", "no-such-id"])
        assert exc.value.code == 2
        assert "invalid choice: 'no-such-id'" in capsys.readouterr().err

    def test_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CQM_OUT_DIR", str(tmp_path))
        argv = ["qfi-evolution", "--jobs", "1", "--set", "g=0.099", "--set", "t=0:10:4"]
        assert cli_main(argv) == 0
        assert (tmp_path / "qfi-evolution.csv").exists()

    def test_regenerate_script_runs_from_a_checkout(self, tmp_path):
        # a fresh interpreter outside the repo, with no PYTHONPATH: the script
        # itself must find the checkout's package
        script = Path(__file__).resolve().parents[1] / "scripts" / "regenerate_all.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(script), "--out-dir", str(tmp_path),
             "--experiments", "qfi-evolution"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "qfi-evolution.csv").exists()
        # each experiment's end-to-end numbers go to stderr
        assert re.search(r"^qfi-evolution: \d+\.\d\d s wall, peak RSS so far \d+\.\d MiB$",
                         done.stderr, re.MULTILINE), done.stderr

    def test_regenerate_script_refuses_an_unknown_experiment_up_front(self, tmp_path):
        # an unknown id used to reach cqm's own parser, after every run listed
        # before it, and fail there in cqm's words
        script = Path(__file__).resolve().parents[1] / "scripts" / "regenerate_all.py"
        done = subprocess.run(
            [sys.executable, str(script), "--out-dir", str(tmp_path / "out"),
             "--experiments", "nope", "qfi-vs-g"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "regenerate_all.py: error: argument --experiments: invalid choice: 'nope'" \
            in done.stderr
        assert not list(tmp_path.rglob("*.csv"))
