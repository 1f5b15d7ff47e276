"""Outside-in tracer for the cqm modules.

`Tracer.install` replaces every public function of the traced modules, in
every cqm module namespace that holds it, with a wrapper that records a
span (name, start, end, parent); it also wraps the methods
`HermitianOperator.eig` and `Dataset.write_csv`.  `Tracer.uninstall` puts
every original back.  Nothing under src/ is edited.

Calls the wrappers cannot see land on the nearest visible caller:
`quadrature_series` binds its Hamiltonian builder as a default argument, so
the builder matmuls and the einsum contraction are `quadrature_series` self
time, and the generator kernel is a closure handed to `auto_cutoff`, so its
time is `auto_cutoff` self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("fock", "closed_form", "lindblad", "model", "experiments", "cli")
METHODS = (("fock", "HermitianOperator", "eig"), ("experiments", "Dataset", "write_csv"))

LADDERS = {"quadrature_series", "auto_cutoff"}
EVOLVE = {"evolve_grid", "evolve_joint_grid"}
BUILD = {"destroy", "quadratures", "build_effective_hamiltonian",
         "build_full_hamiltonian", "build_squeezed_frame_hamiltonian"}

#: Every metric `Tracer.metrics` returns; a layer the workload does not
#: exercise reads 0.
METRICS = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
    + ["fock.quadrature_series.self_s", "fock.auto_cutoff.self_s",
       "fock.propagate.self_s", "fock.build.s",
       "fock.eig.s", "fock.eig.calls", "fock.eig.n3_sum",
       "fock.ladder.levels", "fock.ladder.leaks", "fock.n_cut_max",
       "fock.ladder.useful_ratio",
       "lindblad.integrate_moments.s",
       "experiments.run.self_s", "experiments.write_csv.s",
       "experiments.cells", "experiments.rows", "experiments.csv_bytes",
       "trace.wall_s", "trace.spans", "trace.unattributed_s"]
)

# span fields
_LAYER, _NAME, _START, _END, _PARENT, _ERROR, _INFO = range(7)


def _before_eig(args, kwargs):
    # dim of a decomposition actually computed; 0 when the cached one is reused
    op = args[0]
    return op.dim if getattr(op, "_eig", None) is None else 0


def _note_eig(args, kwargs, result, before):
    return before


def _note_ladder(args, kwargs, result, before):
    # accepted cutoff: QuadratureSeries.n_cut, or auto_cutoff's (n_cut, values)
    return getattr(result, "n_cut", None) or result[0]


def _note_run(args, kwargs, result, before):
    return (result.metadata["cells_computed"], len(result.rows))


def _note_write_csv(args, kwargs, result, before):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


_NOTES = {
    ("fock", "auto_cutoff"): (None, _note_ladder),
    ("fock", "quadrature_series"): (None, _note_ladder),
    ("fock", "eig"): (_before_eig, _note_eig),
    ("experiments", "run"): (None, _note_run),
    ("experiments", "write_csv"): (None, _note_write_csv),
}


class Tracer:
    """Spans kept in memory; metrics are derived after the run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = _NOTES.get((layer, name), (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            pre = before(args, kwargs) if before else None
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if after:
                span[_INFO] = after(args, kwargs, result, pre)
            return result

        wrapper.perfbench_traced = True
        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"cqm.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
        for module in _cqm_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(original):
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped name holds its original again and no
        wrapper is left anywhere in the cqm modules or the two classes."""
        if any(vars(owner).get(attr) is not original
               for owner, attr, original in self._patches):
            return False
        owners = list(_cqm_modules()) + [owner for owner, _, _ in self._patches
                                         if isinstance(owner, type)]
        return not any(getattr(value, "perfbench_traced", False)
                       for owner in owners for value in vars(owner).values())

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers; ``wall_s`` is the traced wall time.

        Each layer's self time is its spans' durations minus their child
        spans' durations; the layers' self times plus trace.unattributed_s
        add up to ``wall_s``.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]

        m = dict.fromkeys(METRICS, 0.0)
        top_level = 0.0
        for i, span in enumerate(spans):
            layer, name = span[_LAYER], span[_NAME]
            dur = span[_END] - span[_START]
            self_s = dur - child_time[i]
            m[f"{layer}.self_s"] += self_s
            m[f"{layer}.calls"] += 1
            parent = spans[span[_PARENT]] if span[_PARENT] >= 0 else None
            if parent is None:
                top_level += dur
            if layer == "fock":
                if name in LADDERS:
                    m[f"fock.{name}.self_s"] += self_s
                elif name in EVOLVE:
                    m["fock.propagate.self_s"] += self_s
                elif name in BUILD and not (parent and parent[_NAME] in BUILD):
                    m["fock.build.s"] += dur
                elif name == "eig" and span[_INFO]:
                    m["fock.eig.s"] += dur
                    m["fock.eig.calls"] += 1
                    m["fock.eig.n3_sum"] += float(span[_INFO]) ** 3
            elif layer == "lindblad" and name == "integrate_moments":
                m["lindblad.integrate_moments.s"] += dur
            elif layer == "experiments":
                if name == "run":
                    m["experiments.run.self_s"] += self_s
                    if span[_INFO]:
                        m["experiments.cells"] += span[_INFO][0]
                        m["experiments.rows"] += span[_INFO][1]
                elif name == "write_csv":
                    m["experiments.write_csv.s"] += dur
                    m["experiments.csv_bytes"] += span[_INFO] or 0
        m.update(self._ladder_metrics())
        m["trace.wall_s"] = wall_s
        m["trace.spans"] = len(spans)
        m["trace.unattributed_s"] = wall_s - top_level
        return m

    def _ladder_metrics(self) -> dict[str, float]:
        """Cutoff-ladder counts from the eig spans under each ladder span.

        A level is one cutoff at which a ladder diagonalized; the useful
        share is the dim^3 spent at the cutoff the ladder accepted.
        """
        spans = self.spans
        levels: dict[int, set[int]] = defaultdict(set)
        n3_total = n3_useful = 0.0
        for span in spans:
            if span[_NAME] != "eig" or not span[_INFO]:
                continue
            dim = span[_INFO]
            parent = spans[span[_PARENT]] if span[_PARENT] >= 0 else None
            n_cut = dim // 2 if parent and parent[_NAME] == "evolve_joint_grid" else dim
            ladder = span[_PARENT]
            while ladder >= 0 and spans[ladder][_NAME] not in LADDERS:
                ladder = spans[ladder][_PARENT]
            if ladder < 0:
                continue
            levels[ladder].add(n_cut)
            n3_total += float(dim) ** 3
            if spans[ladder][_INFO] == n_cut:
                n3_useful += float(dim) ** 3
        accepted = [s[_INFO] for s in spans if s[_NAME] in LADDERS and s[_INFO]]
        return {
            "fock.ladder.levels": sum(len(v) for v in levels.values()),
            "fock.ladder.leaks": sum(1 for s in spans if s[_NAME] in EVOLVE
                                     and s[_ERROR] == "TruncationLeak"),
            "fock.n_cut_max": max(accepted, default=0),
            "fock.ladder.useful_ratio": n3_useful / n3_total if n3_total else 0.0,
        }


def _cqm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cqm" or name.startswith("cqm."))]
