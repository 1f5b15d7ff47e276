"""The benchmark's workloads: which `cqm` CLI calls each one makes.

Every parameter comes from the paper's default datasets or from the
acceptance suite, so a workload is deterministic and takes no seed.  Why each
workload exists is written down in NOTES.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One `cqm <experiment> ...` invocation and the CSV it writes."""

    stem: str  # output file name without '.csv'; also the reference name
    experiment: str
    engine: str | None = None
    sets: tuple[str, ...] = ()
    jobs: int | None = None  # None: the CLI default (one worker per CPU)

    def argv(self, out_path: str, jobs: int | None = None) -> list[str]:
        """CLI arguments; ``jobs`` overrides the call's own --jobs."""
        args = [self.experiment]
        if self.engine is not None:
            args += ["--engine", self.engine]
        for item in self.sets:
            args += ["--set", item]
        jobs = jobs if jobs is not None else self.jobs
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        return args + ["--out", out_path]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # BLAS threads of the repetition processes; None: the BLAS default
    blas_threads: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # criterion 6's oracle case: eps_g = 0.0199, cutoff ladder up to 2048
        Workload("near-critical-oracle", (
            Call("ratio-scaling-near-critical", "ratio-scaling", engine="both",
                 sets=("g=0.099", "lam=-0.2475", "n=5:20:16")),
        )),
        # the closed-engine defaults, at the CLI's default --jobs
        Workload("closed-datasets", tuple(
            Call(name, name)
            for name in ("qfi-evolution", "qfi-vs-g", "qfi-map",
                         "quadrature-vs-g", "inverted-variance")
        )),
        # the both-engine defaults at --jobs 1 and one BLAS thread: neither
        # the default --jobs nor two BLAS threads is steady on these mid-size
        # eigh calls; NOTES.md records both as defects
        Workload("oracle-datasets", tuple(
            Call(name, name, jobs=1)
            for name in ("ratio-scaling", "frequency-scaling", "decoherence")
        ), blas_threads=1),
    )
}
