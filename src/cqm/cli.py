"""Command-line entry point.

    cqm <experiment-id> [--engine closed|both] [--jobs 1] [--out PATH] [--set key=value ...]
    cqm config-reference [experiment-id]
    cqm list

A run is its experiment's defaults with each --set override applied, in units
of the boson frequency omega.  --engine both writes each oracle value beside
its closed form and their deviation.  Every run is one serial pass in this
process that computes every cell and overwrites the output; --jobs accepts only 1.
Exit codes: 0 success, 2 invalid configuration, 3 completed with failed cells.
CQM_OUT_DIR (default '.') is the output root when --out is not given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ConfigError
from .experiments import build_config, config_reference, experiment_ids, run

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_PARTIAL_FAILURE = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged
    (--set appends to a fresh copy of its default list)."""
    parser = argparse.ArgumentParser(
        prog="cqm",
        description="Regenerate the critical-metrology experiment datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub.add_parser("list", help="list experiment ids")

    ref = sub.add_parser("config-reference", help="print every config key with defaults")
    ref.add_argument("experiment", nargs="?", choices=experiment_ids())

    for name in experiment_ids():
        exp = sub.add_parser(name, help=f"run the {name} experiment")
        exp.add_argument("--engine", choices=("closed", "both"))
        exp.add_argument("--jobs", type=int, default=1,
                         help="runs are serial: only 1 is accepted (default: 1)")
        exp.add_argument("--out", help="output CSV path")
        exp.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE", help="override one config key (repeatable)")
    return parser


def _default_out(experiment: str) -> str:
    root = os.environ.get("CQM_OUT_DIR", ".")
    return os.path.join(root, f"{experiment}.csv")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        print("\n".join(experiment_ids()))
        return EXIT_OK
    if args.command == "config-reference":  # argparse admits only known ids
        print(config_reference(args.experiment))
        return EXIT_OK

    try:
        cfg = build_config(args.command, overrides=args.overrides, engine=args.engine)
        if args.jobs != 1:  # before the output directory is made
            raise ConfigError(f"--jobs must be 1 (runs are serial), got {args.jobs}")
        out_path = args.out or _default_out(cfg.experiment)
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        dataset = run(cfg)
        dataset.write_csv(out_path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    failed = len(dataset.metadata["failures"])
    print(
        f"{cfg.experiment}: wrote {out_path} ({len(dataset.rows)} rows, "
        f"{dataset.metadata['cells_total']} cells, {failed} failed)"
    )
    if failed:
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
