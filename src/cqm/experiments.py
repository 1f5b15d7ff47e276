"""Config-driven experiment runner.

Each experiment id carries a default parameter set that regenerates one of
the shipped reference datasets (QFI evolution and coupling sweeps, the
lambda-g QFI map, quadrature sensitivity curves, inverted-variance
evolutions, the peak-ratio and finite-frequency scaling runs, and the
decoherence run).
Configs are flat key=value text; command-line --set overrides win.  Outputs
are CSV files with a '#'-prefixed JSON metadata header carrying the full
resolved config, so a dataset can be regenerated bit-identically (the wall
time field is the only non-deterministic entry).

Every experiment is one entry of ``_REGISTRY``: its config keys, its
engines, how its config splits into cells, its output columns per engine,
their units, and the module-level function that computes one cell.  Adding
an experiment means adding one registry entry.

Cells (the unit of parallelism and of resume) fail independently: a failed
cell is recorded in its rows' status column and the run continues.  Re-running
onto an existing output with an identical config recomputes failed cells only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigError, NonFinite, NonPositiveData
from .model import ModelParams, Regime, effective_oscillator
from . import closed_form as cf
from . import fock
from . import lindblad as lb

_STATUS_OK = "ok"
_STATUS_SATURATED = "saturated"
_META_COLUMNS = ["cell", "status"]
_U_T = "1/omega"


# ----------------------------------------------------------------------
# config keys and parsing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Key:
    default: str
    kind: str  # "float" | "int" | "grid" (float array from a:b:n or comma list)
    doc: str


def _parse_value(text: str, kind: str):
    text = text.strip()
    if kind == "float":
        return float(text)
    if kind == "int":
        return int(text)
    if kind == "grid":
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ConfigError(f"grid '{text}' must be start:stop:num or a comma list")
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
            return np.linspace(start, stop, num)
        return np.array([float(p) for p in text.split(",") if p.strip() != ""])
    raise ConfigError(f"unknown key kind {kind}")


_COMMON = {
    "omega": _Key("1.0", "float", "boson frequency (sets the time/energy unit)"),
    "Omega": _Key("1e4", "float", "qubit frequency (oracle engines only)"),
    "state_dim": _Key("6", "int", "Fock dimension of the reference initial state"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment configuration."""

    experiment: str
    engine: str
    values: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        vals = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in sorted(self.values.items())
        }
        return {"experiment": self.experiment, "engine": self.engine, "values": vals}

    def hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# shared column and row layout
# ----------------------------------------------------------------------

def _compared(engine: str, quantities: list[str], n_cut: bool = True) -> list[str]:
    """Columns of quantities both engines compute: each name once for one
    engine; for 'both' a closed/oracle/deviation triplet per name, where a
    lone quantity's deviation column is plain rel_dev.  The accepted Fock
    cutoff follows whenever the oracle ran (unless ``n_cut`` is off)."""
    if engine != "both":
        cols = list(quantities)
    elif len(quantities) == 1:
        cols = [f"{quantities[0]}_closed", f"{quantities[0]}_oracle", "rel_dev"]
    else:
        cols = [f"{q}_{kind}" for q in quantities for kind in ("closed", "oracle", "rel_dev")]
    return cols + (["n_cut"] if n_cut and engine != "closed" else [])


def _rel_dev(closed: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """Deviation relative to the closed-form curve scale (sup-norm style)."""
    scale = np.abs(closed).max()
    if scale == 0.0:
        scale = 1.0
    return np.abs(oracle - closed) / scale


def _compared_rows(
    engine: str,
    base: dict,
    ts,
    closed: dict[str, np.ndarray],
    oracle: dict[str, np.ndarray] | None = None,
    n_cut: int | None = None,
) -> list[dict]:
    """One row per time, with the columns ``_compared`` names."""
    if engine == "both":
        series = []
        for q in closed:
            series += [closed[q], oracle[q], _rel_dev(closed[q], oracle[q])]
    else:
        series = list((closed if engine == "closed" else oracle).values())
    names = _compared(engine, list(closed), n_cut=False)
    extra = {} if n_cut is None else {"n_cut": n_cut}
    return [
        {**base, "t": t, **{name: s[i] for name, s in zip(names, series)}, **extra}
        for i, t in enumerate(ts)
    ]


# ----------------------------------------------------------------------
# per-experiment cell computation (module level: pool workers reach them
# through _REGISTRY by experiment id)
# ----------------------------------------------------------------------

def _params(v: dict, g: float, lam: float) -> ModelParams:
    return ModelParams(omega=v["omega"], Omega=v["Omega"], g=float(g), lam=float(lam))


def _qfi_row(v: dict, lam: float, g: float, state) -> dict:
    """Closed-form QFI at one (lam, g); saturated on the critical line."""
    params = _params(v, g, lam)
    regime = effective_oscillator(params).regime
    row = {"lam": lam, "g": g, "t": v["t"], "regime": regime.value}
    if regime is Regime.CRITICAL:
        return {**row, "qfi": np.inf, "status": _STATUS_SATURATED}
    row["qfi"] = cf.qfi_g(params, v["t"], cf.var_n(state, params))
    return row


def _qfi_evolution(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    v = cfg.values
    state = cf.default_initial_state(v["state_dim"])
    params = _params(v, cell["g"], v["lam"])
    base = {"lam": v["lam"], "g": cell["g"]}
    closed = {"qfi": cf.qfi_g(params, v["t"], cf.var_n(state, params))}
    if cfg.engine == "closed":
        return _compared_rows(cfg.engine, base, v["t"], closed)
    oracle, n_cut = fock.generator_qfi_grid(params, v["t"], psi0=state)
    return _compared_rows(cfg.engine, base, v["t"], closed, {"qfi": oracle}, n_cut)


def _qfi_vs_g(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    state = cf.default_initial_state(cfg.values["state_dim"])
    return [_qfi_row(cfg.values, cell["lam"], cell["g"], state)]


def _qfi_map(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    state = cf.default_initial_state(cfg.values["state_dim"])
    rows = [_qfi_row(cfg.values, cell["lam"], g, state) for g in cfg.values["g"]]
    for row in rows:
        row["log10_qfi"] = float(np.log10(row["qfi"]))
    return rows


def _quadrature_vs_g(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    v = cfg.values
    params = _params(v, cell["g"], cell["lam"])
    regime = effective_oscillator(params).regime
    base = {"lam": cell["lam"], "g": cell["g"], "regime": regime.value}
    if regime is Regime.CRITICAL:
        return [{**base, "t": v["t"], "status": _STATUS_SATURATED}]
    closed = {"x_mean": np.atleast_1d(cf.x_mean(params, v["t"]))}
    if cfg.engine == "closed":
        return _compared_rows(cfg.engine, base, [v["t"]], closed)
    state = cf.default_initial_state(v["state_dim"])
    series = fock.quadrature_series(params, [v["t"]], psi0=state)
    return _compared_rows(cfg.engine, base, [v["t"]], closed,
                          {"x_mean": series.x_mean}, series.n_cut)


def _inverted_variance(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    v = cfg.values
    params = _params(v, cell["g"], cell["lam"])
    ts = v["t_per"] * float(cf.optimal_times(params, 1)[0])
    base = {"lam": cell["lam"], "g": cell["g"]}
    closed = {
        "x_mean": np.atleast_1d(cf.x_mean(params, ts)),
        "x_deriv_g": np.atleast_1d(cf.x_deriv_g(params, ts)),
        "x_var": np.atleast_1d(cf.x_variance(params, ts)),
        "inv_var": np.atleast_1d(cf.inverted_variance(params, ts)),
    }
    if cfg.engine == "closed":
        return _compared_rows(cfg.engine, base, ts, closed)
    series = fock.quadrature_series(params, ts, psi0=cf.default_initial_state(v["state_dim"]))
    oracle = {q: getattr(series, q) for q in closed}  # QuadratureSeries names them alike
    return _compared_rows(cfg.engine, base, ts, closed, oracle, series.n_cut)


def _ratio_scaling(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    v = cfg.values
    state = cf.default_initial_state(v["state_dim"])
    params = _params(v, cell["g"], cell["lam"])
    ns = np.asarray(v["n"], dtype=int)  # validated integers >= 1
    taus = cf.optimal_times(params, int(ns.max()))[ns - 1]
    analytic = cf.ig_fg_ratio(state, params)
    rows = [{"lam": cell["lam"], "g": cell["g"], "n": int(n), "tau_n": tau,
             "ratio_analytic": analytic} for n, tau in zip(ns, taus)]
    if cfg.engine == "closed":
        return rows
    series = fock.quadrature_series(params, taus, psi0=state)
    qfis, _ = fock.generator_qfi_grid(params, taus, psi0=state)
    numeric = series.inv_var / qfis
    for row, ratio in zip(rows, numeric):
        row.update(ratio_numeric=ratio, rel_dev=abs(ratio - analytic) / analytic,
                   n_cut=series.n_cut)
    return rows


def _frequency_scaling(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    v = cfg.values
    params = _params(v, cell["g"], cell["lam"])
    point = fock.finite_frequency_point(params, cell["eta"], n=v["n"])
    return [{
        "lam": cell["lam"], "g": cell["g"], "eta": point.eta, "n": point.n,
        "tau_n": point.tau, "inv_var_exact": point.inv_var_exact,
        "inv_var_limit": point.inv_var_limit, "delta": point.delta,
        "abs_delta": abs(point.delta), "n_cut": point.n_cut,
    }]


def _decoherence(cfg: ExperimentConfig, cell: dict) -> list[dict]:
    v = cfg.values
    params = _params(v, cell["g"], cell["lam"])
    rates = lb.DecayRates.from_plus_minus(v["gamma_plus"], v["gamma_minus"])
    ts = v["t_per"] * float(cf.optimal_times(params, 1)[0])
    base = {"lam": cell["lam"], "g": cell["g"],
            "gamma_minus": rates.gamma_minus, "gamma_plus": rates.gamma_plus}
    closed = {
        "x_mean": np.atleast_1d(lb.x_mean_dissipative(params, rates, ts)),
        "x_var": np.atleast_1d(lb.x_variance_dissipative(params, rates, ts)),
        "inv_var": np.atleast_1d(lb.inverted_variance_dissipative(params, rates, ts)),
    }
    if cfg.engine == "closed":
        return _compared_rows(cfg.engine, base, ts, closed)
    # the ODE runs from t = 0; prepend it when the grid starts later
    ode_ts = ts if ts[0] == 0.0 else np.concatenate([[0.0], ts])
    skip = len(ode_ts) - len(ts)
    traj = lb.integrate_moments(lb.REFERENCE_STATE_MOMENTS, params, rates, ode_ts)
    dxdg = np.atleast_1d(lb.x_deriv_g_dissipative(params, rates, ts))
    oracle = {
        "x_mean": traj.moment("x")[skip:],
        "x_var": traj.x_variance()[skip:],
        "inv_var": dxdg**2 / traj.x_variance()[skip:],
    }
    return _compared_rows(cfg.engine, base, ts, closed, oracle)


# ----------------------------------------------------------------------
# the experiment registry
# ----------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class _Experiment:
    """Everything the runner knows about one experiment.

    ``engine`` is the default engine.  ``keys`` come on top of the keys
    every experiment has (``_COMMON``),
    ``cells(values)`` splits a resolved config into cells (dicts of the
    per-cell parameters), ``columns(engine)`` lists the physics columns, and
    ``compute(cfg, cell)`` returns that cell's rows (column -> value; a row
    without a "status" entry is ok).
    """

    doc: str
    engines: tuple[str, ...] = ("closed", "oracle", "both")
    engine: str = "closed"
    keys: dict[str, _Key]
    cells: Callable[[dict], list[dict]]
    columns: Callable[[str], list[str]]
    units: dict[str, str]
    compute: Callable[[ExperimentConfig, dict], list[dict]]


def _zipped_cells(v: dict) -> list[dict]:
    if np.size(v["g"]) != np.size(v["lam"]):
        raise ConfigError("g and lam are zipped case lists and must have equal length")
    return [{"g": g, "lam": lam} for g, lam in zip(v["g"], v["lam"])]


def _lam_g_cells(v: dict) -> list[dict]:
    return [{"lam": lam, "g": g} for lam in v["lam"] for g in v["g"]]


_REGISTRY: dict[str, _Experiment] = {
    "qfi-evolution": _Experiment(
        doc="QFI vs time for couplings near a tuned critical point",
        keys={
            "lam": _Key("-0.2475", "float", "quadratic-term strength"),
            "g": _Key("0.097,0.098,0.099", "grid", "couplings, one curve per value"),
            "t": _Key("0:1000:200", "grid", "time grid (units of 1/omega)"),
        },
        cells=lambda v: [{"g": g} for g in v["g"]],
        columns=lambda engine: ["lam", "g", "t"] + _compared(engine, ["qfi"]),
        units={"t": _U_T, "qfi": "1"},
        compute=_qfi_evolution,
    ),
    "qfi-vs-g": _Experiment(
        doc="QFI vs coupling at a fixed time for several lambda values",
        engines=("closed",),
        keys={
            "lam": _Key("0,-0.05,-0.10,-0.15,-0.20", "grid", "quadratic strengths"),
            "g": _Key("0.02:1.10:200", "grid", "coupling grid"),
            "t": _Key("1000", "float", "evaluation time"),
        },
        cells=_lam_g_cells,
        columns=lambda engine: ["lam", "g", "t", "regime", "qfi"],
        units={"t": _U_T, "qfi": "1"},
        compute=_qfi_vs_g,
    ),
    "qfi-map": _Experiment(
        doc="log10 QFI on a dense lambda-g grid at a fixed time",
        engines=("closed",),
        keys={
            "lam": _Key("-0.245:0.25:100", "grid", "lambda grid (rows)"),
            "g": _Key("0.02:1.40:139", "grid", "coupling grid (columns)"),
            "t": _Key("1000", "float", "evaluation time"),
        },
        cells=lambda v: [{"lam": lam} for lam in v["lam"]],
        columns=lambda engine: ["lam", "g", "t", "log10_qfi"],
        units={"t": _U_T, "log10_qfi": "1"},
        compute=_qfi_map,
    ),
    "quadrature-vs-g": _Experiment(
        doc="quadrature mean vs coupling at a fixed time",
        keys={
            "lam": _Key("0,-0.2,-0.247", "grid", "quadratic strengths"),
            "g": _Key("0.02:1.20:220", "grid", "coupling grid"),
            "t": _Key("75", "float", "evaluation time"),
        },
        cells=_lam_g_cells,
        columns=lambda engine: ["lam", "g", "t", "regime"] + _compared(engine, ["x_mean"]),
        units={"t": _U_T, "x_mean": "1"},
        compute=_quadrature_vs_g,
    ),
    "inverted-variance": _Experiment(
        doc="inverted-variance evolution for paired (g, lambda) cases",
        keys={
            "g": _Key("0.9,0.1,0.1", "grid", "couplings, zipped with lam"),
            "lam": _Key("0,0,-0.247", "grid", "quadratic strengths, zipped with g"),
            "t_per": _Key("0:5:400", "grid", "time grid in units of tau_1 per case"),
        },
        cells=_zipped_cells,
        columns=lambda engine: ["lam", "g", "t"] + _compared(
            engine, ["x_mean", "x_deriv_g", "x_var", "inv_var"]),
        units={"t": _U_T, "x_mean": "1", "x_deriv_g": "1", "x_var": "1", "inv_var": "1"},
        compute=_inverted_variance,
    ),
    "ratio-scaling": _Experiment(
        doc="peak inverted variance over QFI vs peak index",
        engine="both",
        keys={
            "g": _Key("0.9,0.1", "grid", "couplings, zipped with lam"),
            "lam": _Key("0,-0.247", "grid", "quadratic strengths, zipped with g"),
            "n": _Key("1:20:20", "grid", "peak indices"),
        },
        cells=_zipped_cells,
        columns=lambda engine: ["lam", "g", "n", "tau_n", "ratio_analytic"] + (
            [] if engine == "closed" else ["ratio_numeric", "rel_dev", "n_cut"]),
        units={"tau_n": _U_T},
        compute=_ratio_scaling,
    ),
    "frequency-scaling": _Experiment(
        doc="relative discrepancy of the inverted variance vs Omega/omega",
        engines=("both",),
        engine="both",
        keys={
            "g": _Key("0.9,0.1", "grid", "couplings, zipped with lam"),
            "lam": _Key("0,-0.247", "grid", "quadratic strengths, zipped with g"),
            "eta": _Key("1e2,3e2,1e3,3e3,1e4", "grid", "frequency ratios Omega/omega"),
            "n": _Key("1", "int", "peak index of the comparison time tau_n"),
        },
        cells=lambda v: [{**case, "eta": eta} for case in _zipped_cells(v) for eta in v["eta"]],
        columns=lambda engine: ["lam", "g", "eta", "n", "tau_n", "inv_var_exact",
                                "inv_var_limit", "delta", "abs_delta", "n_cut"],
        units={"tau_n": _U_T},
        compute=_frequency_scaling,
    ),
    "decoherence": _Experiment(
        doc="dissipative quadrature dynamics and inverted variance",
        engine="both",
        keys={
            "g": _Key("0.1,0.1", "grid", "couplings, zipped with lam"),
            "lam": _Key("0,-0.247", "grid", "quadratic strengths, zipped with g"),
            "gamma_minus": _Key("0.01", "float", "decay minus heating rate"),
            "gamma_plus": _Key("0.03", "float", "decay plus heating rate"),
            "t_per": _Key("0:10:600", "grid", "time grid in units of tau_1 per case"),
        },
        cells=_zipped_cells,
        columns=lambda engine: ["lam", "g", "gamma_minus", "gamma_plus", "t"] + _compared(
            engine, ["x_mean", "x_var", "inv_var"], n_cut=False),
        units={"t": _U_T, "gamma_minus": "omega", "gamma_plus": "omega",
               "x_mean": "1", "x_var": "1", "inv_var": "1"},
        compute=_decoherence,
    ),
}


def _column_units(units: dict[str, str], columns: list[str]) -> dict[str, str]:
    """Units of ``columns``: <q>_closed and <q>_oracle take the unit of <q>,
    and deviation columns are ratios ("1")."""
    return {c: "1" if c in ("rel_dev", "delta", "abs_delta") or c.endswith("_rel_dev")
            else units.get(c.removesuffix("_closed").removesuffix("_oracle"), "")
            for c in columns}


def experiment_ids() -> list[str]:
    return list(_REGISTRY)


def config_reference(experiment: str | None = None) -> str:
    """Human-readable reference of config keys, defaults, and output columns."""
    names = [experiment] if experiment else experiment_ids()
    out = io.StringIO()
    for name in names:
        if name not in _REGISTRY:
            raise ConfigError(f"unknown experiment '{name}'")
        entry = _REGISTRY[name]
        out.write(f"{name}: {entry.doc}\n")
        out.write(f"  engines: {', '.join(entry.engines)} (default {entry.engine})\n")
        for key, kd in {**_COMMON, **entry.keys}.items():
            out.write(f"  {key:<12} [{kd.kind:>5}] default={kd.default!r:<22} {kd.doc}\n")
        for engine in entry.engines:
            cols = entry.columns(engine) + _META_COLUMNS
            out.write(f"  columns ({engine}): {', '.join(cols)}\n")
        out.write("\n")
    return out.getvalue().rstrip("\n")


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value text; '#' starts a comment."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def build_config(
    experiment: str,
    config_file: str | None = None,
    overrides: list[str] | None = None,
    engine: str | None = None,
) -> ExperimentConfig:
    """Resolve defaults, an optional config file, and --set overrides."""
    if experiment not in _REGISTRY:
        raise ConfigError(
            f"unknown experiment '{experiment}'; choose from {', '.join(experiment_ids())}"
        )
    entry = _REGISTRY[experiment]
    keys = {**_COMMON, **entry.keys}
    raw = {k: kd.default for k, kd in keys.items()}
    chosen_engine = entry.engine
    file_values = read_config_file(config_file) if config_file else {}
    override_values = {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got '{item}'")
        key, _, value = item.partition("=")
        override_values[key.strip()] = value.strip()
    for source in (file_values, override_values):
        for key, value in source.items():
            if key == "engine":
                chosen_engine = value
                continue
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' for experiment '{experiment}'")
            raw[key] = value
    if engine is not None:
        chosen_engine = engine
    if chosen_engine not in entry.engines:
        raise ConfigError(
            f"engine '{chosen_engine}' not supported by '{experiment}' "
            f"(choose from {', '.join(entry.engines)})"
        )
    try:
        values = {k: _parse_value(raw[k], kd.kind) for k, kd in keys.items()}
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value in config for '{experiment}': {exc}") from exc
    cfg = ExperimentConfig(experiment, chosen_engine, values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    v = cfg.values
    for key, value in v.items():
        if np.size(value) == 0:
            raise ConfigError(f"grid '{key}' is empty")
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"'{key}' must be finite")
    if not v["omega"] > 0 or not v["Omega"] > 0:
        raise ConfigError("omega and Omega must be positive")
    if v.get("state_dim", 6) < 5:
        raise ConfigError("state_dim must be >= 5")
    if "n" in v:
        ns = np.atleast_1d(v["n"])
        if np.any(ns < 1) or np.any(ns != np.floor(ns)):
            raise ConfigError(f"peak indices n = {ns.tolist()} must be integers >= 1")
    if "gamma_minus" in v and not 0.0 <= v["gamma_minus"] <= v["gamma_plus"]:
        raise ConfigError("decay rates need 0 <= gamma_minus <= gamma_plus")
    if "gamma_minus" in v and cfg.engine != "closed":
        t = np.atleast_1d(v["t_per"])
        if np.any(t < 0) or np.any(np.diff(t) <= 0) or t[-1] == 0:
            raise ConfigError("the moment ODE needs a t_per grid that is >= 0, "
                              "strictly increasing and reaches past 0")
    if "eta" in v and np.any(np.atleast_1d(v["eta"]) < fock.ETA_MIN):
        raise ConfigError(f"eta must be >= {fock.ETA_MIN:g}")
    _REGISTRY[cfg.experiment].cells(v)  # raises ConfigError on unequal zipped lists
    for lam in np.atleast_1d(v["lam"]):
        if not 1.0 + 4.0 * lam / v["omega"] > 0:
            raise ConfigError(f"lam = {lam} violates 1 + 4*lam/omega > 0")


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@dataclass
class Dataset:
    """Columns with units, stringly-typed rows, and a metadata block."""

    columns: list[str]
    units: dict
    rows: list[list[str]]
    metadata: dict

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([float(r[idx]) for r in self.rows])

    def str_column(self, name: str) -> list[str]:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    @property
    def failed_cells(self) -> set[int]:
        c = self.columns.index("cell")
        s = self.columns.index("status")
        return {int(r[c]) for r in self.rows if r[s].startswith("failed")}

    def write_csv(self, path: str) -> None:
        """Write through a temporary file beside ``path`` and rename it into
        place, so a failed write leaves any earlier file at ``path`` intact."""
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                meta = dict(self.metadata)
                meta["columns"] = {c: self.units.get(c, "") for c in self.columns}
                fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(self.columns)
                writer.writerows(self.rows)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def read_csv(cls, path: str) -> "Dataset":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("# "):
                raise ConfigError(f"{path} lacks the JSON metadata header")
            metadata = json.loads(header[2:])
            reader = csv.reader(fh)
            columns = next(reader)
            rows = [row for row in reader if row]
        units = metadata.pop("columns", {})
        return cls(columns, units, rows, metadata)


def _run_cell(args: tuple) -> tuple[int, list[list[str]], str | None]:
    """Worker: compute one cell and render its rows as strings.

    Any exception fails this cell alone, as does a non-finite value in a
    row that would otherwise be marked ok.  A failed cell's row takes lam/g/eta
    from the cell, else from a scalar config value; "<Type>: <message>" is
    returned third (None for a cell that did not fail).
    """
    cfg, index, cell, columns = args
    failure = None
    try:
        rows = _REGISTRY[cfg.experiment].compute(cfg, cell)
        for row in rows:
            if "status" not in row and any(
                isinstance(x, float) and not math.isfinite(x) for x in row.values()
            ):
                raise NonFinite(f"non-finite value in an ok row of cell {index}")
    except Exception as exc:  # one bad cell must not abort the run
        failure = f"{type(exc).__name__}: {exc}"
        scalars = {k: x for k, x in cfg.values.items() if np.ndim(x) == 0}
        row = {k: cell.get(k, scalars.get(k, np.nan)) for k in ("lam", "g", "eta")}
        rows = [{**row, "status": f"failed:{type(exc).__name__}"}]
    rendered = []
    for row in rows:
        row.setdefault("status", _STATUS_OK)
        row["cell"] = index
        rendered.append([_fmt(row.get(c, np.nan)) for c in columns])
    return index, rendered, failure


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def run(
    cfg: ExperimentConfig,
    jobs: int | None = None,
    resume: Dataset | None = None,
) -> Dataset:
    """Execute every cell of ``cfg`` and assemble the Dataset.

    With ``resume`` (a previously written Dataset whose config hash matches),
    rows of cells that completed are reused verbatim and only failed cells
    are recomputed.
    """
    started = time.monotonic()
    entry = _REGISTRY[cfg.experiment]
    columns = entry.columns(cfg.engine) + _META_COLUMNS
    cells = entry.cells(cfg.values)
    reuse: dict[int, list[list[str]]] = {}
    if resume is not None:
        if resume.metadata.get("config_hash") != cfg.hash():
            raise ConfigError("resume dataset was produced by a different config")
        failed = resume.failed_cells
        cell_col = resume.columns.index("cell")
        for row in resume.rows:
            idx = int(row[cell_col])
            if idx not in failed:
                reuse.setdefault(idx, []).append(row)
    todo = [i for i in range(len(cells)) if i not in reuse]
    args = [(cfg, i, cells[i], columns) for i in todo]
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_cell, args, chunksize=8))
    else:
        done = [_run_cell(a) for a in args]
    results = {index: rendered for index, rendered, _ in done}
    failures = {str(index): failure for index, _, failure in done if failure is not None}
    rows: list[list[str]] = []
    for i in range(len(cells)):
        rows.extend(reuse.get(i, results.get(i, [])))
    status_idx = columns.index("status")
    n_failed = sum(1 for r in rows if r[status_idx].startswith("failed"))
    metadata = {
        "experiment": cfg.experiment,
        "engine": cfg.engine,
        "config": cfg.canonical()["values"],
        "config_hash": cfg.hash(),
        "version": __version__,
        "cells_total": len(cells),
        "cells_computed": len(todo),
        "cells_failed_now": n_failed,
        "failures": failures,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    dataset = Dataset(columns, _column_units(entry.units, columns), rows, metadata)
    if cfg.experiment == "frequency-scaling" and n_failed == 0:
        _attach_slopes(dataset)
    return dataset


def _attach_slopes(dataset: Dataset) -> None:
    lam = dataset.column("lam")
    g = dataset.column("g")
    eta = dataset.column("eta")
    delta = dataset.column("abs_delta")
    slopes = {}
    for case in sorted(set(zip(lam.tolist(), g.tolist()))):
        mask = (lam == case[0]) & (g == case[1])
        fit = fit_loglog_slope((eta[mask], delta[mask]))
        slopes[f"lam={_fmt(case[0])},g={_fmt(case[1])}"] = {
            "slope": fit.slope, "stderr": fit.stderr,
        }
    dataset.metadata["loglog_slopes"] = slopes


# ----------------------------------------------------------------------
# slope fitting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    intercept: float


def fit_loglog_slope(data: tuple) -> SlopeFit:
    """Least-squares slope of log(y) vs log(x) over an (x, y) pair, with its
    standard error."""
    x, y = (np.asarray(a, dtype=float) for a in data)
    if len(x) < 5:
        raise NonPositiveData(f"need >= 5 points, got {len(x)}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise NonPositiveData("log-log fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    design = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    residual = ly - design @ coef
    dof = max(1, len(x) - 2)
    sigma2 = float(residual @ residual) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return SlopeFit(slope=float(coef[1]), stderr=float(np.sqrt(cov[1, 1])),
                    intercept=float(coef[0]))
