"""Record the gate's reference values: run every workload once and store the
body (column line and rows) of each CSV as reference/<stem>.csv.gz.

    python3 perfbench/record_reference.py

Run it only on a commit whose datasets are accepted as correct; the stored
files are what every later benchmark run is checked against.
"""

from __future__ import annotations

import gzip
import os
import subprocess
import sys
import tempfile

from gate import REFERENCE_DIR, Output, reference_path
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.path.dirname(HERE)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        for name, workload in WORKLOADS.items():
            subprocess.run([sys.executable, os.path.join(HERE, "rep.py"), "--root", root,
                            "--workload", name, "--out-dir", work,
                            "--result", os.path.join(work, "result.json")],
                           cwd=root, check=True, stdout=subprocess.DEVNULL)
            for call in workload.calls:
                out = Output.read(os.path.join(work, f"{call.stem}.csv"))
                # mtime=0 keeps the archive bytes a function of the rows alone
                with open(reference_path(call.stem), "wb") as raw, \
                        gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                    fh.write(out.body.encode("utf-8"))
                print(f"{name}: {call.stem} ({out.body.count(chr(10)) - 1} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
