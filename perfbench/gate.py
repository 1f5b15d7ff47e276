"""Correctness gate: checks the CSVs a workload wrote.

Three kinds of check, each counted once per output file:

* every row has status `ok` or `saturated`;
* every column matches the reference values recorded at the seed
  (reference/<stem>.csv.gz), within the tolerances below;
* the acceptance suite's tolerance for each oracle quantity that has one.

Tolerances.  Values are compared against a scale that is the larger of the
reference value and the largest |value| in the same cell, the sup-norm
scale the datasets' own `rel_dev` columns use, so curves that cross zero are
judged against their size.

* Closed-form columns: 1e-12, the acceptance suite's closed-form tolerance
  (criteria 1, 2 and 6).
* Oracle columns: 1e-6, the acceptance suite's cross-engine tolerance
  (criteria 3 and 8).  The oracle's own reproducibility sets the floor: with
  one BLAS thread instead of two, the joint-space `frequency-scaling` values
  at eta = 1e4 move by 2e-7 at the same cutoff.
* Oracle columns in a row whose accepted cutoff moved one doubling away from
  the reference: 1e-5.  The cutoff ladder stops once x, x^2 and dx/dg change
  by less than 1e-6 of their scale, and quotients of them (inv_var, the I/F
  ratio) amplify that a few times; the same BLAS change moved one
  `frequency-scaling` cutoff from 256 to 512 and its value by 2.6e-6.  The
  acceptance tolerances on those quantities are 5% (criterion 6) and a
  +-0.15 slope (criterion 7).
* Columns that are already relative deviations (`rel_dev`, `delta`) move by
  about (1 + their size) times the oracle's relative movement, so they get
  the oracle tolerance times (1 + scale).
* Labels and statuses must match exactly; `n_cut` must match or differ by
  one doubling.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

CLOSED_RTOL = 1e-12
ORACLE_RTOL = 1e-6
MOVED_CUTOFF_RTOL = 1e-5
EXACT = {"cell", "status", "regime", "n"}
ORACLE = {"ratio_numeric", "inv_var_exact"}
RELATIVE = {"rel_dev", "delta", "abs_delta"}
GOOD_STATUS = {"ok", "saturated"}


@dataclass
class Output:
    """One CSV as the CLI wrote it: metadata header, body text, parsed rows."""

    metadata: dict
    body: str  # column line and rows, as written
    columns: list[str]
    rows: list[list[str]]

    @classmethod
    def read(cls, path: str) -> "Output":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            body = fh.read()
        if not header.startswith("# "):
            raise ValueError(f"{path} lacks the JSON metadata header")
        columns, rows = _parse(body)
        return cls(json.loads(header[2:]), body, columns, rows)

    def column(self, name: str) -> list[str]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def failed_cells(self) -> int:
        return len({c for c, s in zip(self.column("cell"), self.column("status"))
                    if s.startswith("failed")})


def _parse(body: str) -> tuple[list[str], list[list[str]]]:
    rows = [r for r in csv.reader(io.StringIO(body)) if r]
    return rows[0], rows[1:]


def reference_path(stem: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{stem}.csv.gz")


def read_reference(stem: str) -> str:
    with gzip.open(reference_path(stem), "rt", encoding="utf-8") as fh:
        return fh.read()


def _tolerance_kind(column: str) -> str:
    if column in EXACT:
        return "exact"
    if column == "n_cut":
        return "cutoff"
    if column in RELATIVE or column.endswith("_rel_dev"):
        return "relative"
    if column in ORACLE or column.endswith("_oracle"):
        return "oracle"
    return "closed"


def compare(body: str, reference: str) -> list[str]:
    """Problems found comparing a CSV body against its reference body."""
    got_columns, got = _parse(body)
    columns, want = _parse(reference)
    if got_columns != columns:
        return [f"columns {got_columns} != reference {columns}"]
    if len(got) != len(want):
        return [f"{len(got)} rows != reference {len(want)}"]
    cells = np.array([int(r[columns.index("cell")]) for r in want])
    oracle_rtol = np.full(len(want), ORACLE_RTOL)
    if "n_cut" in columns:
        j = columns.index("n_cut")
        moved = np.array([a[j] != b[j] for a, b in zip(got, want)])
        oracle_rtol[moved] = MOVED_CUTOFF_RTOL
    problems = []
    for j, column in enumerate(columns):
        kind = _tolerance_kind(column)
        g = [r[j] for r in got]
        w = [r[j] for r in want]
        if kind == "exact":
            bad = sum(a != b for a, b in zip(g, w))
        elif kind == "cutoff":
            bad = sum(a != b and float(a) not in (2 * float(b), 0.5 * float(b))
                      for a, b in zip(g, w))
        else:
            gv, wv = np.array(g, dtype=float), np.array(w, dtype=float)
            finite = np.where(np.isfinite(wv), np.abs(wv), 0.0)
            cell_scale = np.zeros(cells.max() + 1)
            np.maximum.at(cell_scale, cells, finite)
            scale = np.maximum(finite, cell_scale[cells])
            if kind == "relative":
                tol = oracle_rtol * (1.0 + scale)
            elif kind == "oracle":
                tol = oracle_rtol * scale
            else:
                tol = CLOSED_RTOL * scale
            with np.errstate(invalid="ignore"):
                ok = (gv == wv) | (np.abs(gv - wv) <= tol) | (np.isnan(gv) & np.isnan(wv))
            bad = int((~ok).sum())
        if bad:
            problems.append(f"column {column}: {bad} values off the reference ({kind})")
    return problems


# ----------------------------------------------------------------------
# acceptance-suite tolerances per oracle quantity
# ----------------------------------------------------------------------

def _near_critical_ratio(outputs: dict[str, Output]) -> list[str]:
    # criterion 6: numeric I/F within 5% of the analytic ratio at n = 5..20
    worst = max(float(v) for v in outputs["ratio-scaling-near-critical"].column("rel_dev"))
    return [] if worst <= 0.05 else [f"ratio deviation {worst:.3%} > 5% (criterion 6)"]


def _frequency_slopes(outputs: dict[str, Output]) -> list[str]:
    # criterion 7: log-log slopes within -1 +- 0.15, tuned |delta| below plain
    out = outputs["frequency-scaling"]
    slopes = out.metadata.get("loglog_slopes", {})
    problems = [f"slope {case} = {s['slope']:.4f} outside -1 +- 0.15 (criterion 7)"
                for case, s in slopes.items() if not abs(s["slope"] + 1.0) <= 0.15]
    if len(slopes) != 2:
        problems.append(f"{len(slopes)} log-log slopes in the metadata, expected 2")
    lam = [float(v) for v in out.column("lam")]
    delta = [abs(float(v)) for v in out.column("delta")]
    tuned = [d for lv, d in zip(lam, delta) if lv != 0.0]
    plain = [d for lv, d in zip(lam, delta) if lv == 0.0]
    if not (len(tuned) == len(plain) and all(t < p for t, p in zip(tuned, plain))):
        problems.append("tuned |delta| not below plain at every eta (criterion 7)")
    return problems


def _decoherence_rel_dev(outputs: dict[str, Output]) -> list[str]:
    # criterion 8: the moment ODE against the printed solutions within 1e-6
    out = outputs["decoherence"]
    idx = [i for i, c in enumerate(out.columns) if c.endswith("_rel_dev")]
    worst = max(float(r[i]) for r in out.rows for i in idx)
    return [] if worst <= 1e-6 else [f"decoherence rel_dev {worst:.2e} > 1e-6 (criterion 8)"]


ACCEPTANCE = {
    "near-critical-oracle": (_near_critical_ratio,),
    "closed-datasets": (),
    "oracle-datasets": (_frequency_slopes, _decoherence_rel_dev),
}


@dataclass
class Verdict:
    """Cells and checks of one repetition, and what went wrong."""

    cells: int = 0
    failed_cells: int = 0
    checks: int = 0
    failed_checks: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, label: str, problems: list[str]) -> None:
        self.checks += 1
        if problems:
            self.failed_checks += 1
            self.problems += [f"{label}: {p}" for p in problems]


def check(workload: str, outputs: dict[str, Output], verdict: Verdict) -> None:
    """Run every check on one repetition's outputs, adding to ``verdict``."""
    for stem, out in outputs.items():
        verdict.cells += int(out.metadata["cells_total"])
        verdict.failed_cells += out.failed_cells()
        statuses = set(out.column("status"))
        verdict.add(f"{stem} status", [f"statuses {sorted(statuses - GOOD_STATUS)}"]
                    if not statuses <= GOOD_STATUS else [])
        try:
            problems = compare(out.body, read_reference(stem))
        except ValueError as exc:  # a value that does not parse as a number
            problems = [f"unreadable: {exc}"]
        verdict.add(f"{stem} reference", problems)
    for rule in ACCEPTANCE[workload]:
        try:
            problems = rule(outputs)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"could not evaluate: {exc!r}"]
        verdict.add(f"acceptance {rule.__name__.lstrip('_')}", problems)
