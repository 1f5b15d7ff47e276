"""Benchmark of the cqm dataset pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh Python process (rep.py) that imports cqm from
./src and runs the workload's CLI calls.  Repetitions repeat while the next
one should end within S seconds (at least one runs), and every repetition's
CSVs go through the correctness gate (gate.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it holds the machine facts and every sample.

--trace 0 reports the end-to-end metrics, each a median over repetitions:
  wall_s       first CLI call to last CSV written
  setup_s      `import cqm` plus config resolution, median of at least
               SETUP_SAMPLES fresh processes
  peak_rss_mb  larger of the process's and its pool workers' ru_maxrss
  ok_frac      1 - failed/attempted (see NOTES.md for why not failed_frac)
--trace 1 repeats the workload at --jobs 1 untraced, then once traced, and
reports the per-layer metrics of tracer.py plus trace.overhead_s.

Workloads are fixed by the paper's parameters; --seed is recorded and
changes nothing.  The benchmark pins no CPU and touches no machine setting;
its own environment is left as found.  The one variable it sets is the BLAS
thread count in the environment of the repetition processes of a workload
that fixes one (workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from gate import Output, Verdict, check
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def rep_env(workload: str) -> dict[str, str] | None:
    """Environment of a workload's repetition processes; None: inherit ours."""
    threads = WORKLOADS[workload].blas_threads
    if threads is None:
        return None
    return dict(os.environ, **{k: str(threads) for k in BLAS_THREAD_VARS})


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


class Bench:
    """Repetitions of one workload inside a scratch directory of the checkout."""

    def __init__(self, root: str, workload: str, work: str):
        self.root, self.workload, self.work = root, workload, work
        self.verdict = Verdict()
        self._count = 0

    def rep(self, mode: str) -> tuple[dict, dict[str, Output]]:
        """Run one fresh process; return its result and the CSVs it wrote."""
        self._count += 1
        out_dir = os.path.join(self.work, f"rep{self._count}")
        os.mkdir(out_dir)
        result_path = os.path.join(out_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--root", self.root,
               "--workload", self.workload, "--out-dir", out_dir,
               "--result", result_path, "--mode", mode]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=rep_env(self.workload))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"{mode} repetition exited with {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        outputs = {}
        if mode != "setup":
            outputs = {call.stem: Output.read(os.path.join(out_dir, f"{call.stem}.csv"))
                       for call in WORKLOADS[self.workload].calls}
            check(self.workload, outputs, self.verdict)
            self.verdict.add("cli exit status", [f"statuses {result['statuses']}"]
                             if any(result["statuses"]) else [])
        shutil.rmtree(out_dir)
        return result, outputs


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_ratio") or metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def _spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "max": max(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "cqm", "cli.py")):
        print(f"error: no cqm sources under {root}/src", file=sys.stderr)
        return 2

    # a terminated run still kills its repetition and removes its directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Bench(root, args.workload, work)
        bench.rep("setup")  # warm-up: byte-compiles the sources, fills the file cache
        # the traced run is at --jobs 1, so its untraced baseline is too
        untraced = "serial" if args.trace else "run"
        samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
        first = None
        started = time.perf_counter()
        rep_s = 0.0
        # start another repetition only if it should end within the run length
        while not first or time.perf_counter() - started + rep_s <= args.seconds:
            rep_started = time.perf_counter()
            result, outputs = bench.rep(untraced)
            rep_s = time.perf_counter() - rep_started
            for key, values in samples.items():
                values.append(result[key])
            first = first or (result, outputs)
        while len(samples["setup_s"]) < SETUP_SAMPLES:
            samples["setup_s"].append(bench.rep("setup")[0]["setup_s"])
        wall = statistics.median(samples["wall_s"])

        if args.trace:
            traced, outputs = bench.rep("trace")
            bench.verdict.add("tracer restored every wrapped name",
                              [] if traced["restored"] else ["wrappers left behind"])
            for stem, out in outputs.items():
                bench.verdict.add(f"{stem} traced rows",
                                  [] if out.body == first[1][stem].body
                                  else ["differ from the untraced run's rows"])
            values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - wall})
        else:
            values = {"wall_s": wall,
                      "setup_s": statistics.median(samples["setup_s"]),
                      "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    v = bench.verdict
    attempted = max(1, v.cells)
    failed = min(attempted, v.failed_cells + v.failed_checks)
    if not args.trace:
        values["ok_frac"] = 1.0 - failed / attempted
    for problem in v.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": _machine(), "jobs": first[0]["jobs"],
        "rep_blas_threads": WORKLOADS[args.workload].blas_threads,
        "checks": v.checks, "failed_checks": v.failed_checks,
        "cells": v.cells, "failed_cells": v.failed_cells,
        "samples": {k: _spread(vals) for k, vals in samples.items()},
    }))
    print(json.dumps({
        "correct": v.failed_cells == 0 and v.failed_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": val, "unit": _unit(k)} for k, val in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
