import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from cqm.cli import main as cli_main
from cqm.experiments import _REGISTRY, _column_units
from cqm.model import ModelParams


class TestConfig:
    def test_defaults_resolve_for_every_experiment(self):
        for name in experiment_ids():
            cfg = build_config(name)
            assert cfg.experiment == name
            assert cfg.hash()

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
            build_config("qfi-map", engine="oracle")

    def test_zipped_lengths_checked(self):
        for experiment in ("decoherence", "frequency-scaling"):
            with pytest.raises(ConfigError):
                build_config(experiment, overrides=["g=0.1", "lam=0,-0.247"])

    def test_unphysical_lambda_rejected(self):
        with pytest.raises(ConfigError):
            build_config("qfi-evolution", overrides=["lam=-0.3"])

    def test_config_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlam = -0.2  # inline\ng = 0.3,0.4\n")
        cfg = build_config("qfi-evolution", config_file=str(path), overrides=["g=0.5"])
        assert cfg.values["lam"] == pytest.approx(-0.2)
        assert cfg.values["g"] == pytest.approx([0.5])

    @pytest.mark.parametrize("experiment,override", [
        ("ratio-scaling", "n=1,0"),  # would label tau_1 as n=0
        ("ratio-scaling", "n=2.5"),  # would be written as n=2
        ("frequency-scaling", "n=0"),
        ("qfi-evolution", "omega=inf"),
        ("qfi-evolution", "t=nan"),
        ("quadrature-vs-g", "g=0.1,inf"),
        ("decoherence", "gamma_minus=-0.01"),  # net heating
        ("decoherence", "gamma_plus=0.005"),  # gamma_minus above gamma_plus
        ("decoherence", "t_per=1,0.5,2"),  # the moment ODE needs increasing times
        ("decoherence", "t_per=-1,0,1"),
        ("frequency-scaling", "eta=5,20,30,40,50"),
    ])
    def test_bad_values_rejected_up_front(self, experiment, override):
        with pytest.raises(ConfigError):
            build_config(experiment, overrides=[override])
        assert cli_main([experiment, "--set", override]) == 2

    def test_closed_engine_takes_any_time_grid(self):
        # only the moment ODE of the oracle engines needs increasing times
        cfg = build_config("decoherence", overrides=["t_per=1,0.5,2"], engine="closed")
        assert cfg.values["t_per"] == pytest.approx([1.0, 0.5, 2.0])

    def test_reference_covers_all_experiments(self):
        text = config_reference()
        for name in experiment_ids():
            assert name in text
        assert "t_per" in config_reference("decoherence")


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

    def test_dataset_interface(self):
        ds = Dataset(
            columns=["eta", "abs_delta", "cell", "status"],
            units={},
            rows=[[f"{e}", f"{5.0 / e}", "0", "ok"] for e in (1e1, 1e2, 1e3, 1e4, 1e5)],
            metadata={},
        )
        fit = fit_loglog_slope((ds.column("eta"), ds.column("abs_delta")))
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)


def tiny(name, **over):
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
    return build_config(name, overrides=merged)


class TestRunner:
    def test_every_experiment_completes_on_tiny_grids(self):
        for name in experiment_ids():
            cfg = tiny(name)
            ds = run(cfg, jobs=1)
            assert len(ds.rows) > 0, name
            assert not ds.failed_cells, name
            statuses = set(ds.str_column("status"))
            assert statuses <= {"ok", "saturated"}, name

    def test_determinism_two_fresh_runs(self):
        cfg = tiny("decoherence")
        a = run(cfg, jobs=1)
        b = run(cfg, jobs=1)
        assert a.rows == b.rows
        ma = {k: v for k, v in a.metadata.items() if k != "wall_time_s"}
        mb = {k: v for k, v in b.metadata.items() if k != "wall_time_s"}
        assert ma == mb

    def test_parallel_matches_serial(self):
        cfg = tiny("qfi-vs-g")
        assert run(cfg, jobs=1).rows == run(cfg, jobs=2).rows

    def test_qfi_vs_g_peaks_sit_at_the_critical_couplings(self):
        cfg = tiny("qfi-vs-g", lam="0,-0.10,-0.20", g="0.05:1.15:221")
        ds = run(cfg, jobs=1)
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
        ds = run(cfg, jobs=1)
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
                    for row in entry.compute(cfg, cell):
                        if "status" not in row:
                            assert columns <= set(row), (name, engine, columns - set(row))

    def test_any_exception_fails_its_cell_alone(self, monkeypatch):
        entry = _REGISTRY["inverted-variance"]

        def compute(cfg, cell):
            if cell["g"] == 0.1:
                raise np.linalg.LinAlgError("eigh did not converge")
            return entry.compute(cfg, cell)

        monkeypatch.setitem(_REGISTRY, "inverted-variance",
                            dataclasses.replace(entry, compute=compute))
        ds = run(tiny("inverted-variance"), jobs=1)
        assert ds.failed_cells == {1}
        statuses = ds.str_column("status")
        assert statuses.count("failed:LinAlgError") == 1
        assert statuses.count("ok") == len(statuses) - 1

    def test_non_finite_ok_row_fails_its_cell(self, monkeypatch):
        entry = _REGISTRY["qfi-vs-g"]

        def compute(cfg, cell):
            rows = entry.compute(cfg, cell)
            if cell["g"] == cfg.values["g"][0]:
                rows[0]["qfi"] = np.nan
            return rows

        monkeypatch.setitem(_REGISTRY, "qfi-vs-g", dataclasses.replace(entry, compute=compute))
        ds = run(tiny("qfi-vs-g"), jobs=1)
        statuses = ds.str_column("status")
        assert statuses.count("failed:NonFinite") == 2  # first g of each lam
        ok = [row for row in ds.rows if row[ds.columns.index("status")] == "ok"]
        assert ok and all("nan" not in row for row in ok)

    def test_cross_engine_columns_within_tolerance(self):
        cfg = tiny("decoherence")
        ds = run(cfg, jobs=1)
        for col in ("x_mean_rel_dev", "x_var_rel_dev", "inv_var_rel_dev"):
            assert ds.column(col).max() < 1e-6

    def test_frequency_scaling_records_slope(self):
        ds = run(tiny("frequency-scaling"), jobs=2)
        slopes = ds.metadata["loglog_slopes"]
        (case_key,) = slopes
        assert slopes[case_key]["slope"] == pytest.approx(-1.0, abs=0.15)

    def test_failed_cells_recorded_and_resumed(self, tmp_path):
        # beyond-critical case in a normal-regime-only experiment: cell fails
        cfg = tiny("inverted-variance", g="0.9,0.9", lam="0,-0.247")
        ds = run(cfg, jobs=1)
        assert ds.failed_cells == {1}
        status = [s for s in ds.str_column("status") if s.startswith("failed")]
        assert status == ["failed:RegimeError"]
        assert ds.metadata["cells_computed"] == 2
        # a resumed run recomputes only the failed cell
        again = run(cfg, jobs=1, resume=ds)
        assert again.metadata["cells_computed"] == 1
        assert again.rows == ds.rows

    def test_failed_row_keeps_config_scalars(self):
        # lam is a scalar of qfi-evolution, not part of its cells
        cfg = build_config("qfi-evolution", overrides=["g=0.5,1.0", "lam=0", "t=0:10:3"])
        ds = run(cfg, jobs=1)
        assert ds.failed_cells == {1}
        failed = [r for r in ds.rows if r[ds.columns.index("status")].startswith("failed")]
        assert len(failed) == 1
        row = dict(zip(ds.columns, failed[0]))
        assert (row["lam"], row["g"], row["status"]) == ("0", "1", "failed:RegimeError")

    def test_failure_reasons_in_metadata(self):
        cfg = tiny("inverted-variance", g="0.9,0.9", lam="0,-0.247")
        ds = run(cfg, jobs=1)
        (reason,) = ds.metadata["failures"].values()
        assert list(ds.metadata["failures"]) == ["1"]
        assert reason.startswith("RegimeError: epsilon_g = ")
        assert run(tiny("inverted-variance"), jobs=1).metadata["failures"] == {}
        # only cells that failed in this run are named; rows stay as they were
        again = run(cfg, jobs=1, resume=ds)
        assert again.metadata["failures"] == ds.metadata["failures"]
        assert again.rows == ds.rows

    def test_column_units_agree_across_engines(self):
        deviations = {"rel_dev", "delta", "abs_delta"}
        for name, entry in _REGISTRY.items():
            seen: dict[str, str] = {}
            for engine in entry.engines:
                columns = entry.columns(engine)
                units = _column_units(entry.units, columns)
                for c in columns:
                    if c in deviations or c.endswith("_rel_dev"):
                        assert units[c] == "1", (name, engine, c)
                        continue
                    q = c.removesuffix("_closed").removesuffix("_oracle")
                    if q != c:
                        assert units.get(c), (name, engine, c)
                    assert seen.setdefault(q, units.get(c, "")) == units.get(c, ""), (
                        name, engine, c)
        ds = run(tiny("quadrature-vs-g", engine="both", g="0.5,0.9"), jobs=1)
        assert ds.units == _column_units(_REGISTRY["quadrature-vs-g"].units, ds.columns)
        assert ds.units["x_mean_closed"] == ds.units["x_mean_oracle"] == "1"

    def test_resume_rejects_other_config(self):
        ds = run(tiny("qfi-evolution"), jobs=1)
        other = tiny("qfi-evolution", t="0:50:7")
        with pytest.raises(ConfigError):
            run(other, resume=ds)

    def test_dataset_roundtrip_and_17_digits(self, tmp_path):
        ds = run(tiny("qfi-evolution"), jobs=1)
        path = tmp_path / "out.csv"
        ds.write_csv(str(path))
        text = path.read_text()
        assert text.startswith("# {")
        back = Dataset.read_csv(str(path))
        assert back.rows == ds.rows
        assert back.metadata["config_hash"] == ds.metadata["config_hash"]
        # a full-precision float appears somewhere in the payload
        q = ds.column("qfi")
        rendered = format(q[-1], ".17g")
        assert rendered in text

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("disk full")

        ds = run(tiny("qfi-evolution"), jobs=1)
        path = tmp_path / "out.csv"
        ds.write_csv(str(path))
        before = path.read_bytes()
        broken = Dataset(ds.columns, ds.units, ds.rows + [[Unprintable()]], ds.metadata)
        with pytest.raises(RuntimeError):
            broken.write_csv(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestCli:
    def test_full_cycle_with_resume(self, tmp_path, capsys):
        out = tmp_path / "ds.csv"
        argv = [
            "qfi-evolution", "--jobs", "1", "--out", str(out),
            "--set", "g=0.098,0.099", "--set", "t=0:50:6",
        ]
        assert cli_main(argv) == 0
        first = out.read_text()
        assert cli_main(argv) == 0
        second = out.read_text()
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
        assert strip(first) == strip(second)
        meta = json.loads(second.splitlines()[0][2:])
        assert meta["cells_computed"] == 0  # resumed

    def test_bad_config_exit_code(self, capsys):
        assert cli_main(["qfi-evolution", "--set", "bogus=1"]) == 2

    def test_partial_failure_exit_code(self, tmp_path):
        argv = [
            "inverted-variance", "--jobs", "1", "--out", str(tmp_path / "x.csv"),
            "--set", "g=0.9,0.9", "--set", "lam=0,-0.247", "--set", "t_per=0:2:20",
        ]
        assert cli_main(argv) == 3

    def test_list_and_reference(self, capsys):
        assert cli_main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(listed) == set(experiment_ids())
        assert cli_main(["config-reference", "decoherence"]) == 0

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
            [sys.executable, str(script), "--out-dir", str(tmp_path), "--jobs", "1",
             "--experiments", "qfi-evolution"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "qfi-evolution.csv").exists()
