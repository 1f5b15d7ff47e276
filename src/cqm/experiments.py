"""Config-driven experiment runner.

Each experiment id carries a default parameter set that regenerates one of
the shipped reference datasets (QFI evolution and coupling sweeps, the
lambda-g QFI map, quadrature sensitivity curves, inverted-variance
evolutions, the peak-ratio and finite-frequency scaling runs, and the
decoherence run).
A run is its experiment's defaults with any --set key=value overrides, in
units of the boson frequency omega (= 1).  Outputs are CSV files with a
'#'-prefixed JSON metadata header carrying the full resolved config, so a
dataset can be regenerated bit-identically (the wall time field is the only
non-deterministic entry).

Every experiment is one entry of ``_REGISTRY``: its config keys, its
engines, how its config splits into cells, its output columns per engine,
and the module-level function that computes a batch of cells.  Each column's
unit is stated once, in ``_UNITS``, for every experiment.  Adding an
experiment means adding one registry entry.

Cells are the unit of failure: a failed cell is recorded in its row's status
column and the run continues.  Every run computes every cell.  Batches are the
unit of work, run one after the other in this process: a closed-engine run is
one batch, computed as columns over arrays of its cells' parameters; in a
both-engine run each cell is a batch of its own.
"""

from __future__ import annotations

import io
import json
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigError, InvalidParams, NonFinite, NonPositiveData
from .model import REGIMES, ModelParams, Regime, _regime_index, oscillator_frame
from .model import effective_oscillator  # noqa: F401 (perfbench/selftest.py traces it here)
from . import closed_form as cf
from . import fock
from . import lindblad as lb

_STATUS_OK = "ok"
_STATUS_SATURATED = "saturated"
_META_COLUMNS = ["cell", "status"]
# each column's unit: times in 1/omega, the energies lam and gamma_* in omega, other
# parameters, labels and counts none; every other column is dimensionless, "1"
_UNITS = {"t": "1/omega", "tau_n": "1/omega",
          **dict.fromkeys(["lam", "gamma_minus", "gamma_plus"], "omega"),
          **dict.fromkeys(["g", "eta", "n", "regime", "n_cut", *_META_COLUMNS], "")}
_REGIME_LABELS = np.array([r.value for r in REGIMES])


# ----------------------------------------------------------------------
# config keys and parsing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Key:
    default: str
    kind: str  # "float" | "grid" (float array from a:b:n or comma list)
    doc: str


def _parse_value(text: str, kind: str):
    text = text.strip()
    if kind == "float":
        return float(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid '{text}' must be start:stop:num or a comma list")
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        return np.linspace(start, stop, num)
    return np.array([float(p) for p in text.split(",") if p.strip() != ""])


# The qubit frequency of every run, built at omega = 1: H/omega depends only on
# lam/omega, g, Omega/omega, omega*t and gamma/omega, so omega is the unit the t
# and gamma columns name.  No dataset reads Omega: the closed forms and the
# effective oscillator lack it, and frequency-scaling sets Omega = eta.
_OMEGA_QUBIT = 1e4
#: Smallest Omega/omega at which frequency-scaling compares the engines.
ETA_MIN = 10.0


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment configuration."""

    experiment: str
    engine: str
    values: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared column layout
# ----------------------------------------------------------------------

def _compared(engine: str, quantities: list[str], n_cut: bool = True) -> list[str]:
    """Columns of quantities the closed forms and an oracle both compute: each
    name once for 'closed'; for 'both' a closed/oracle/deviation triplet per
    name, where a lone quantity's deviation column is plain rel_dev, then the
    accepted Fock cutoff (unless ``n_cut`` is off)."""
    if engine == "closed":
        return list(quantities)
    cols = [f"{q}_{kind}" for q in quantities for kind in ("closed", "oracle", "rel_dev")]
    if len(quantities) == 1:
        cols[2] = "rel_dev"
    return cols + (["n_cut"] if n_cut else [])


def _rel_dev(closed: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """Deviation relative to the closed-form curve scale (sup-norm style)."""
    scale = np.abs(closed).max()
    if scale == 0.0:
        scale = 1.0
    return np.abs(oracle - closed) / scale


def _compared_columns(closed: dict, oracle: dict, n_cut: int | None = None) -> dict:
    """The columns ``_compared`` names for 'both', one entry per time."""
    series = [s for q in closed for s in (closed[q], oracle[q], _rel_dev(closed[q], oracle[q]))]
    names = _compared("both", list(closed), n_cut=False)
    return {**dict(zip(names, series)), **({} if n_cut is None else {"n_cut": n_cut})}


# ----------------------------------------------------------------------
# per-experiment batch computation
# ----------------------------------------------------------------------

def _params(g, lam) -> ModelParams:
    """Parameters at ``lam`` and ``g``: numbers, or arrays of (lam, g) pairs."""
    return ModelParams(omega=1.0, Omega=_OMEGA_QUBIT, g=g if np.ndim(g) else float(g),
                       lam=lam if np.ndim(lam) else float(lam))


def _lam_g(cells: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """The (lam, g) pairs of ``cells`` as two arrays."""
    return np.array([cell["lam"] for cell in cells]), np.array([cell["g"] for cell in cells])


def _each_cell(one: Callable[[ExperimentConfig, dict], dict]) -> Callable:
    """The batch computation of ``one``, which gives one cell's columns: the
    cells' rows one after the other."""
    def compute(cfg: ExperimentConfig, cells: list[dict]) -> dict:
        parts = [one(cfg, cell) for cell in cells]
        sizes = [max((np.size(x) for x in p.values() if np.ndim(x)), default=1) for p in parts]
        if len(parts) > 1:  # a lone cell keeps the values its rows share as scalars
            parts = [{k: np.concatenate([np.broadcast_to(p[k], n) for p, n in zip(parts, sizes)])
                      for k in parts[0]}]
        return {**parts[0], "cell": np.repeat(np.arange(len(cells)), sizes)}
    return compute


def _along_g(v: dict, lam: np.ndarray, gs: np.ndarray, fill: float,
             f) -> tuple[dict, np.ndarray]:
    """Columns at the (lam, g) pairs of ``lam`` and ``gs``, and ``f(params)``
    in one array call over the pairs off the critical line; pairs on it are
    saturated, with the value ``fill``."""
    params = _params(gs, lam)
    regime = _REGIME_LABELS[_regime_index(oscillator_frame(params, *REGIMES).epsilon_g)]
    critical = regime == Regime.CRITICAL.value
    values = np.full(len(gs), fill)
    if not critical.all():
        off = ~critical
        values[off] = f(_params(gs[off], lam[off]) if critical.any() else params)
    return {"lam": lam, "g": gs, "t": v["t"], "regime": regime,
            "status": np.where(critical, _STATUS_SATURATED, _STATUS_OK)}, values


def _qfi(v: dict, lam: np.ndarray, gs: np.ndarray) -> tuple[dict, np.ndarray]:
    """Closed-form QFI at (lam, g) pairs, infinite on the critical line."""
    return _along_g(v, lam, gs, np.inf, lambda p: cf.qfi_g(p, v["t"]))


def _qfi_evolution(cfg: ExperimentConfig, cell: dict) -> dict:
    v = cfg.values
    params = _params(cell["g"], v["lam"])
    base = {"lam": v["lam"], "g": cell["g"], "t": v["t"]}
    closed = {"qfi": cf.qfi_g(params, v["t"])}
    if cfg.engine == "closed":
        return {**base, **closed}
    series, oracle = fock.generator_qfi_grid(params, v["t"])
    return {**base, **_compared_columns(closed, {"qfi": oracle}, series.n_cut)}


def _qfi_vs_g(cfg: ExperimentConfig, cells: list[dict]) -> dict:
    cols, qfi = _qfi(cfg.values, *_lam_g(cells))
    return {**cols, "qfi": qfi, "cell": np.arange(len(cells))}


def _qfi_map(cfg: ExperimentConfig, cells: list[dict]) -> dict:
    """Each cell is a row of lam: its pairs with every coupling of the grid."""
    gs, rows = cfg.values["g"], len(cells)
    lam = np.repeat([cell["lam"] for cell in cells], len(gs))
    cols, qfi = _qfi(cfg.values, lam, np.tile(gs, rows))
    return {**cols, "log10_qfi": np.log10(qfi), "cell": np.repeat(np.arange(rows), len(gs))}


def _quadrature_vs_g(cfg: ExperimentConfig, cells: list[dict]) -> dict:
    v = cfg.values
    lam, gs = _lam_g(cells)
    cols, x_mean = _along_g(v, lam, gs, np.nan, lambda p: cf.x_mean(p, v["t"]))
    cols["cell"] = np.arange(len(cells))
    if cfg.engine == "closed":
        return {**cols, "x_mean": x_mean}
    if cols["status"][0] == _STATUS_SATURATED:  # the both engine runs one cell a batch
        return cols
    series = fock.quadrature_series(_params(gs[0], lam[0]), [v["t"]])
    return {**cols, **_compared_columns({"x_mean": x_mean}, {"x_mean": series.x_mean},
                                        series.n_cut)}


def _inverted_variance(cfg: ExperimentConfig, cell: dict) -> dict:
    v = cfg.values
    params = _params(cell["g"], cell["lam"])
    ts = v["t_per"] * cf.peak_time(params, 1)
    base = {"lam": cell["lam"], "g": cell["g"], "t": ts}
    closed = {"x_mean": cf.x_mean(params, ts), "x_deriv_g": cf.x_deriv_g(params, ts),
              "x_var": cf.x_variance(params, ts), "inv_var": cf.inverted_variance(params, ts)}
    if cfg.engine == "closed":
        return {**base, **closed}
    series = fock.quadrature_series(params, ts)
    oracle = {q: getattr(series, q) for q in closed}  # QuadratureSeries names them alike
    return {**base, **_compared_columns(closed, oracle, series.n_cut)}


def _ratio_scaling(cfg: ExperimentConfig, cell: dict) -> dict:
    v = cfg.values
    params = _params(cell["g"], cell["lam"])
    ns = cf.peak_indices(v["n"])
    taus = cf.peak_time(params, ns)
    analytic = cf.ig_fg_ratio(params)
    cols = {"lam": cell["lam"], "g": cell["g"], "n": ns, "tau_n": taus,
            "ratio_analytic": analytic}
    if cfg.engine == "closed":
        return cols
    series, qfi = fock.generator_qfi_grid(params, taus)  # taus > 0: peak_indices takes n >= 1
    numeric = series.inv_var / qfi
    return {**cols, "ratio_numeric": numeric, "rel_dev": np.abs(numeric - analytic) / analytic,
            "n_cut": series.n_cut}


def _frequency_scaling(cfg: ExperimentConfig, cell: dict) -> dict:
    """The squeezed-frame oracle at Omega = eta*omega against the
    low-frequency peak at tau_n: delta = (I_exact - I_limit) / I_limit."""
    v = cfg.values
    params, n = _params(cell["g"], cell["lam"]), int(v["n"])
    tau_n = cf.peak_time(params, n)
    inv_var_limit = cf.inverted_variance_peak(params, n)
    series = fock.squeezed_frame_series(replace(params, Omega=cell["eta"]), [tau_n])
    inv_var_exact = float(series.inv_var[0])
    delta = (inv_var_exact - inv_var_limit) / inv_var_limit
    return {"lam": cell["lam"], "g": cell["g"], "eta": cell["eta"], "n": n, "tau_n": tau_n,
            "inv_var_exact": inv_var_exact, "inv_var_limit": inv_var_limit, "delta": delta,
            "abs_delta": abs(delta), "n_cut": series.n_cut}


def _decoherence(cfg: ExperimentConfig, cell: dict) -> dict:
    v = cfg.values
    params = _params(cell["g"], cell["lam"])
    rates = lb.DecayRates(gamma_plus=v["gamma_plus"], gamma_minus=v["gamma_minus"])
    ts = v["t_per"] * cf.peak_time(params, 1)
    base = {"lam": cell["lam"], "g": cell["g"],
            "gamma_minus": rates.gamma_minus, "gamma_plus": rates.gamma_plus, "t": ts}
    closed = {"x_mean": lb.x_mean_dissipative(params, rates, ts),
              "x_var": lb.x_variance_dissipative(params, rates, ts),
              "inv_var": lb.inverted_variance_dissipative(params, rates, ts)}
    if cfg.engine == "closed":
        return {**base, **closed}
    moments, dmoments = lb.integrate_moments(params, rates, ts)
    x, x_var = moments[:, 0], moments[:, 2] - moments[:, 0] ** 2
    oracle = {"x_mean": x, "x_var": x_var, "inv_var": dmoments[:, 0]**2 / x_var}
    return {**base, **_compared_columns(closed, oracle)}


# ----------------------------------------------------------------------
# the experiment registry
# ----------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class _Experiment:
    """Everything the runner knows about one experiment.

    ``engines`` lists "closed" (the closed forms alone) and/or "both" (each
    oracle value beside its closed form and their deviation); ``engine`` is
    the default.  ``keys`` are its config keys, ``cells(values)``
    splits a resolved config into cells (dicts of the per-cell parameters),
    ``columns(engine)`` lists the physics columns, and ``compute(cfg,
    cells)`` computes one batch of cells and returns its columns: column ->
    a scalar shared by every row, or a 1-D array with one entry per row.  The
    "cell" column gives each row's position in ``cells``; the rows come in
    cell order, as the run writes them.  Without a "status" column every row
    is ok.  The columns' units come from ``_UNITS``, not from the entry.
    """

    doc: str
    engines: tuple[str, ...] = ("closed", "both")
    engine: str = "closed"
    keys: dict[str, _Key]
    cells: Callable[[dict], list[dict]]
    columns: Callable[[str], list[str]]
    compute: Callable[[ExperimentConfig, list[dict]], dict]


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
        compute=_each_cell(_qfi_evolution),
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
        compute=_each_cell(_inverted_variance),
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
        compute=_each_cell(_ratio_scaling),
    ),
    "frequency-scaling": _Experiment(
        doc="relative discrepancy of the inverted variance vs Omega/omega",
        engines=("both",),
        engine="both",
        keys={
            "g": _Key("0.9,0.1", "grid", "couplings, zipped with lam"),
            "lam": _Key("0,-0.247", "grid", "quadratic strengths, zipped with g"),
            "eta": _Key("1e2,3e2,1e3,3e3,1e4", "grid", "frequency ratios Omega/omega"),
            "n": _Key("1", "float", "peak index of the comparison time tau_n"),
        },
        cells=lambda v: [{**case, "eta": eta} for case in _zipped_cells(v) for eta in v["eta"]],
        columns=lambda engine: ["lam", "g", "eta", "n", "tau_n", "inv_var_exact",
                                "inv_var_limit", "delta", "abs_delta", "n_cut"],
        compute=_each_cell(_frequency_scaling),
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
        compute=_each_cell(_decoherence),
    ),
}


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
        for key, kd in entry.keys.items():
            out.write(f"  {key:<12} [{kd.kind:>5}] default={kd.default!r:<22} {kd.doc}\n")
        for engine in entry.engines:
            cols = entry.columns(engine) + _META_COLUMNS
            out.write(f"  columns ({engine}): {', '.join(cols)}\n")
        out.write("\n")
    return out.getvalue().rstrip("\n")


def build_config(
    experiment: str,
    overrides: list[str] | None = None,
    engine: str | None = None,
) -> ExperimentConfig:
    """Resolve the experiment's defaults and its --set key=value overrides."""
    if experiment not in _REGISTRY:
        raise ConfigError(
            f"unknown experiment '{experiment}'; choose from {', '.join(experiment_ids())}"
        )
    entry = _REGISTRY[experiment]
    raw = {k: kd.default for k, kd in entry.keys.items()}
    for item in overrides or []:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"--set needs key=value, got '{item}'")
        if key not in raw:
            raise ConfigError(f"unknown key '{key}' for experiment '{experiment}'")
        raw[key] = value
    chosen_engine = entry.engine if engine is None else engine
    if chosen_engine not in entry.engines:
        raise ConfigError(
            f"engine '{chosen_engine}' not supported by '{experiment}' "
            f"(choose from {', '.join(entry.engines)})"
        )
    try:
        values = {k: _parse_value(raw[k], kd.kind) for k, kd in entry.keys.items()}
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
    if "eta" in v and np.any(v["eta"] < ETA_MIN):
        raise ConfigError(f"eta must be >= {ETA_MIN:g}")
    # ModelParams checks arrays through their extremes, so these stand for every cell
    g, lam = (np.array([np.min(v[k]), np.max(v[k])]) for k in ("g", "lam"))
    try:  # ModelParams, DecayRates, the g-stencil and the slope fit own their rules
        _params(g, lam)
        if "n" in v:
            cf.peak_indices(v["n"])
        if "gamma_minus" in v:
            lb.DecayRates(gamma_plus=v["gamma_plus"], gamma_minus=v["gamma_minus"])
        if "eta" in v:  # each (lam, g) case is fit over the whole eta grid
            fock.check_g_stencil(v["g"])
            fit_loglog_slope((v["eta"], v["eta"]))
    except (InvalidParams, NonPositiveData) as exc:
        raise ConfigError(str(exc)) from exc
    if "gamma_minus" in v and v["gamma_minus"] < 0:
        raise ConfigError("the closed forms need gamma_minus >= 0")
    if "gamma_minus" in v:
        t = np.atleast_1d(v["t_per"])
        if np.any(t < 0):
            raise ConfigError("the damped dynamics need a t_per grid that is >= 0")
        if cfg.engine != "closed" and np.any(np.diff(t) <= 0):
            raise ConfigError("the moment ODE needs a t_per grid that is strictly increasing")
    _REGISTRY[cfg.experiment].cells(v)  # raises ConfigError on unequal zipped lists


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

@dataclass
class Dataset:
    """Columns, stringly-typed rows, and a metadata block."""

    columns: list[str]
    rows: list[list[str]]
    metadata: dict

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([float(r[idx]) for r in self.rows])

    def str_column(self, name: str) -> list[str]:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    def write_csv(self, path: str) -> None:
        """Write through a temporary file beside ``path`` and rename it into
        place, so a failed write leaves any earlier file at ``path`` intact.

        The column line and the rows are written as their fields joined by
        commas: the bytes csv.writer writes for fields that need no quoting.
        A field that would need it (one holding ',', '"', '\\r' or '\\n') is
        a ValueError, as is a row of the wrong length; a field that is not
        text is a TypeError."""
        tmp = f"{path}.tmp"
        lines, width = [self.columns, *self.rows], len(self.columns)
        try:
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                meta = dict(self.metadata)
                meta["columns"] = {c: _UNITS.get(c, "1") for c in self.columns}
                fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
                text = "\n".join(map(",".join, lines)) + "\n"
                # lines of one width hold width - 1 commas and one newline each,
                # so a surplus comes from a field
                if (set(map(len, lines)) != {width} or '"' in text or "\r" in text
                        or text.count(",") != len(lines) * (width - 1)
                        or text.count("\n") != len(lines)):
                    raise ValueError("a row has the wrong length, or a field holds a "
                                     "comma, a quote or a line break")
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


def _render(column, n: int) -> list[str]:
    """``n`` rows of a column, or of one value all rows share, as text, each
    distinct value formatted once: floats to 17 digits (printf-style,
    format(value, ".17g") in half the time) and told apart by bit pattern,
    so -0.0 stays "-0", integers in full, and text as is.  Text and integer
    columns go through np.unique so that rows share one string per value."""
    values = np.asarray(column)
    kind = values.dtype.kind
    fmt = "%.17g".__mod__ if kind == "f" else str
    if values.ndim == 0:
        return [fmt(values.item())] * n
    if kind == "f":
        bits, inverse = np.unique(values.astype(float).view(np.uint64), return_inverse=True)
        distinct = bits.view(float)
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(list(map(fmt, distinct.tolist())), dtype=object)[inverse].tolist()


def _joined(parts: list[tuple[list[list[str]], dict]]) -> tuple[list[list[str]], dict]:
    """The rows and failures of batches run one after the other."""
    return ([row for rows, _ in parts for row in rows],
            dict(item for _, failed in parts for item in failed.items()))


def _run_batch(cfg: ExperimentConfig, indices: list[int], cells: list[dict],
               columns: list[str]) -> tuple[list[list[str]], dict[str, str]]:
    """Compute the batch of cells ``cells`` (with indices ``indices``) and
    render its rows as strings, with its failures as {cell index:
    "<Type>: <message>"}.

    Any exception fails the batch (a RuntimeWarning too, under any warning
    filter), as do a column of the wrong length and a non-finite value in a
    row marked ok.  A failed batch of several cells
    runs again one cell a batch, so each failure lands on its own cell.  A
    failed cell's row takes every cell value and scalar config value that
    names a column, and nan in the rest."""
    try:
        with warnings.catch_warnings():  # the filter must not decide a row's status
            warnings.simplefilter("error", RuntimeWarning)
            cols = dict(_REGISTRY[cfg.experiment].compute(cfg, cells))
        position = np.asarray(cols.pop("cell"))  # of each row's cell in ``cells``
        n = len(position)
        ok = np.broadcast_to(np.asarray(cols.setdefault("status", _STATUS_OK)) == _STATUS_OK, n)
        for name, column in cols.items():
            values = np.asarray(column)
            if values.ndim and values.shape != (n,):
                raise ValueError(f"column {name} has shape {values.shape} for {n} rows")
            if values.dtype.kind == "f" and not np.isfinite(np.broadcast_to(values, n)[ok]).all():
                raise NonFinite(f"non-finite value in an ok row of cell {indices[0]}")
        cols["cell"] = np.asarray(indices)[position]
        text = [_render(cols.get(c, np.nan), n) for c in columns]
    except Exception as exc:  # one bad cell must not abort the run
        if len(cells) > 1:
            return _joined([_run_batch(cfg, [i], [one], columns)
                            for i, one in zip(indices, cells)])
        scalars = {k: x for k, x in cfg.values.items() if np.ndim(x) == 0}
        row = {**scalars, **cells[0], "status": f"failed:{type(exc).__name__}",
               "cell": indices[0]}
        return ([[_render(row.get(c, np.nan), 1)[0] for c in columns]],
                {str(indices[0]): f"{type(exc).__name__}: {exc}"})
    return list(map(list, zip(*text))), {}


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def _batches(cfg: ExperimentConfig, n: int) -> list[list[int]]:
    """The indices of ``n`` cells in batches: all in one in a closed-engine
    run (none if there are none), each cell on its own in a both-engine run."""
    if cfg.engine != "closed" or not n:
        return [[i] for i in range(n)]
    return [list(range(n))]


def run(cfg: ExperimentConfig) -> Dataset:
    """Execute every cell of ``cfg`` and assemble the Dataset: the rows of its
    batches one after the other, and metadata with the resolved config and
    each failed cell's reason."""
    started = time.monotonic()
    entry = _REGISTRY[cfg.experiment]
    columns = entry.columns(cfg.engine) + _META_COLUMNS
    cells = entry.cells(cfg.values)
    rows, failures = _joined([_run_batch(cfg, b, [cells[i] for i in b], columns)
                              for b in _batches(cfg, len(cells))])
    metadata = {
        "experiment": cfg.experiment,
        "engine": cfg.engine,
        "config": {k: np.asarray(v).tolist() for k, v in cfg.values.items()},
        "version": __version__,
        "cells_total": len(cells),
        "cells_computed": len(cells),
        "failures": failures,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    dataset = Dataset(columns, rows, metadata)
    if cfg.experiment == "frequency-scaling" and not failures:
        _attach_slopes(dataset)
    return dataset


def _attach_slopes(dataset: Dataset) -> None:
    lam, g, eta, delta = (dataset.column(c) for c in ("lam", "g", "eta", "abs_delta"))
    slopes = {}
    for case in sorted(set(zip(lam.tolist(), g.tolist()))):
        mask = (lam == case[0]) & (g == case[1])
        fit = fit_loglog_slope((eta[mask], delta[mask]))
        slopes["lam=%.17g,g=%.17g" % case] = {"slope": fit.slope, "stderr": fit.stderr}
    dataset.metadata["loglog_slopes"] = slopes


# ----------------------------------------------------------------------
# slope fitting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float


def fit_loglog_slope(data: tuple) -> SlopeFit:
    """Least-squares slope of log(y) vs log(x) over an (x, y) pair, with its
    standard error.  NonPositiveData unless x and y are 1-D, of one length,
    finite and > 0, with >= 5 distinct x whose logs np.linalg.lstsq resolves:
    the design [1, log(x)] must have rank 2."""
    x, y = (np.asarray(a, dtype=float) for a in data)
    if x.ndim != 1 or x.shape != y.shape:
        raise NonPositiveData(f"need x and y of one length, got shapes {x.shape} and {y.shape}")
    if not (np.all((x > 0) & (x < np.inf)) and np.all((y > 0) & (y < np.inf))):  # NaN fails
        raise NonPositiveData("log-log fit needs finite, strictly positive data")
    if np.unique(x).size < 5:
        raise NonPositiveData(f"log-log fit needs >= 5 distinct x, got {np.unique(x).size}")
    lx, ly = np.log(x), np.log(y)
    design = np.vstack([np.ones_like(lx), lx]).T
    coef, _, rank, _ = np.linalg.lstsq(design, ly, rcond=None)
    if rank < 2:
        raise NonPositiveData(f"log-log fit needs distinct log(x): the design has rank {rank}")
    residual = ly - design @ coef
    dof = max(1, len(x) - 2)
    sigma2 = float(residual @ residual) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return SlopeFit(slope=float(coef[1]), stderr=float(np.sqrt(cov[1, 1])))
