"""One repetition of a workload in a fresh Python process.

    python3 perfbench/rep.py --root DIR --workload NAME --out-dir DIR
                             --result FILE [--mode run|serial|trace|setup]

Imports cqm from DIR/src, resolves the configs of the workload's CLI calls
(set-up), then runs every call through `cqm.cli.main` (wall time).  With
--mode serial the calls run at --jobs 1; with --mode trace they run at
--jobs 1 under the outside-in tracer, which is removed again before the
process reports.  With --mode setup only the set-up
is timed.  The result is a JSON object written to --result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children, in MiB.

    This process's own figure is VmHWM, because Linux carries ru_maxrss
    across fork and exec: it would report the size of the benchmark process
    that started this one whenever that is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("run", "serial", "trace", "setup"), default="run")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    src = os.path.join(os.path.abspath(args.root), "src")
    jobs = 1 if args.mode in ("serial", "trace") else None
    argvs = [call.argv(os.path.join(args.out_dir, f"{call.stem}.csv"), jobs=jobs)
             for call in workload.calls]

    started = time.perf_counter()
    sys.path.insert(0, src)
    import cqm.cli
    from cqm.experiments import build_config

    for call in workload.calls:
        build_config(call.experiment, overrides=list(call.sets), engine=call.engine)
    setup_s = time.perf_counter() - started
    if not os.path.abspath(cqm.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported cqm from {cqm.__file__}, not from {src}")

    result = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        started = time.perf_counter()
        try:
            statuses = [cqm.cli.main(argv) for argv in argvs]
            wall_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(wall_s=wall_s, peak_rss_mb=_peak_rss_mb(), statuses=statuses,
                      jobs=[int(a[a.index("--jobs") + 1]) if "--jobs" in a
                            else os.cpu_count() or 1 for a in argvs])
        if tracer is not None:
            result.update(restored=tracer.restored(), layers=tracer.metrics(wall_s))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
