#!/usr/bin/env python3
"""Regenerate every shipped dataset at default configuration.

Writes one CSV per experiment into --out-dir (default: ./datasets, or
$CQM_OUT_DIR when set), and prints each experiment's wall time and the
peak RSS so far to stderr.  Exit status is the worst CLI status across
runs, so a partial failure anywhere surfaces as a nonzero exit.
"""

import argparse
import os
import resource
import sys
import time

# the checkout's package first, as pytest's `pythonpath` does for the tests
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from cqm.cli import main as cqm_main  # noqa: E402
from cqm.experiments import experiment_ids  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS so far of this process, in MiB: VmHWM, since Linux carries
    ru_maxrss across exec, else ru_maxrss."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", default=os.environ.get("CQM_OUT_DIR", "datasets"),
        help="directory for the CSV outputs",
    )
    parser.add_argument(
        "--experiments", nargs="*", default=experiment_ids(), choices=experiment_ids(),
        help="subset of experiment ids (default: all)",
    )
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    worst = 0
    for name in args.experiments:
        argv = [name, "--out", os.path.join(args.out_dir, f"{name}.csv")]
        started = time.perf_counter()
        status = cqm_main(argv)
        wall_s = time.perf_counter() - started
        print(f"{name}: {wall_s:.2f} s wall, peak RSS so far {peak_rss_mb():.1f} MiB",
              file=sys.stderr)
        worst = max(worst, status)
    return worst


if __name__ == "__main__":
    sys.exit(main())
