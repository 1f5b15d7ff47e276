"""Self-test of the benchmark on the closed-datasets workload.

    python3 perfbench/selftest.py

Checks that
  * the tracer wraps a function in every cqm namespace that imports it and
    leaves every name exactly as it found it after uninstall;
  * a traced run (--jobs 1) writes CSV rows byte-identical to an untraced
    run at the CLI's default --jobs, and both pass the gate;
  * a corrupted reference value, or a corrupted status, makes the gate fail;
  * the metric names the benchmark prints are the ones BENCHMARK.json lists.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import gate
from run import HERE, Bench
from tracer import METRICS, Tracer

ROOT = os.path.dirname(HERE)
WORKLOAD = "closed-datasets"


def _snapshot() -> dict:
    owners = [m for n, m in sys.modules.items() if n == "cqm" or n.startswith("cqm.")]
    owners += [sys.modules["cqm.fock"].HermitianOperator, sys.modules["cqm.experiments"].Dataset]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def tracer_restores() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cqm
    import cqm.cli  # noqa: F401

    params = cqm.ModelParams(1.0, 1e4, 0.5)
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        holders = [cqm, cqm.model, cqm.fock, cqm.closed_form, cqm.lindblad, cqm.experiments]
        problems = [f"{m.__name__}.effective_oscillator not wrapped" for m in holders
                    if not getattr(m.effective_oscillator, "perfbench_traced", False)]
        if not getattr(cqm.fock.HermitianOperator.eig, "perfbench_traced", False):
            problems.append("HermitianOperator.eig not wrapped")
        cqm.effective_oscillator(params)
        if [s[1] for s in tracer.spans] != ["effective_oscillator"]:
            problems.append(f"unexpected spans {tracer.spans}")
    finally:
        tracer.uninstall()
    after = _snapshot()
    if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
        problems.append("names differ from before install")
    if not tracer.restored():
        problems.append("Tracer.restored() is False")
    return problems


def traced_rows_and_gate() -> list[str]:
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(ROOT, WORKLOAD, work)
        _, untraced = bench.rep("run")
        traced_result, traced = bench.rep("trace")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = list(bench.verdict.problems)
    problems += [f"{stem}: traced rows differ" for stem in untraced
                 if traced[stem].body != untraced[stem].body]
    if not traced_result["restored"]:
        problems.append("traced process reports wrappers left behind")

    # corruption: one value one part in 1e9 off, and one status flipped
    reference = gate.read_reference("qfi-map")
    header, first, rest = reference.split("\n", 2)
    fields = first.split(",")
    col = header.split(",").index("log10_qfi")
    fields[col] = repr(float(fields[col]) * (1 + 1e-9))
    bad_value = "\n".join([header, ",".join(fields), rest])
    bad_status = reference.replace(",ok\n", ",failed:Corrupt\n", 1)
    if gate.compare(untraced["qfi-map"].body, reference):
        problems.append("gate rejects the true reference")
    for label, text in (("value", bad_value), ("status", bad_status)):
        if not gate.compare(untraced["qfi-map"].body, text):
            problems.append(f"gate passes a corrupted reference {label}")
    original = gate.read_reference
    gate.read_reference = lambda stem: bad_value if stem == "qfi-map" else original(stem)
    try:
        verdict = gate.Verdict()
        gate.check(WORKLOAD, untraced, verdict)
        if verdict.failed_checks != 1:
            problems.append("check() does not count the corrupted reference as one failure")
    finally:
        gate.read_reference = original
    return problems


def metric_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [m["name"] for m in spec["per_layer"]] != list(METRICS) + ["trace.overhead_s"]:
        problems.append("per_layer names differ from tracer.METRICS + trace.overhead_s")
    if [m["name"] for m in spec["end_to_end"]] != ["wall_s", "setup_s", "peak_rss_mb", "ok_frac"]:
        problems.append("end_to_end names differ from what run.py prints")
    return problems


def main() -> int:
    failed = 0
    for test in (tracer_restores, traced_rows_and_gate, metric_names):
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {test.__name__}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
