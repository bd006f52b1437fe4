"""Command-line entry point.

Subcommands mirror the pipeline stages, one per entry of
:data:`.experiments.STAGES`, which declares each stage's command and help
text; ``pipeline`` runs ``run_pipeline``, which loops over them all. Every
command takes one config file plus a few overrides and talks to the rest of
the package only through that config, so a run is reproducible from the
config alone.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 numeric or training failure.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import decimal, load_config
from .errors import ConfigError, DataError, DomainError, StageError, TrainingError
from .ingest import VALID_INTERVALS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this project reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bikecast",
                     description="Forecast station demand and optimize starting inventory.")
    sub = parser.add_subparsers(dest="command", required=True)
    stages = [(stage.command, stage.help) for stage in experiments.STAGES.values()]
    for name, help_text in stages + [("pipeline", "run every stage in order")]:
        cmd = sub.add_parser(name, help=help_text, parents=[], add_help=True)
        cmd.add_argument("--config", required=True, help="path to the run config YAML")
        cmd.add_argument("--seed", type=decimal, default=None,
                         help="override the config seed")
        cmd.add_argument("--interval", type=decimal, choices=VALID_INTERVALS, default=None,
                         help="override interval_minutes")
        cmd.add_argument("--out", default=None, help="override the output directory")
    return parser


_COMMANDS = {stage.command: getattr(experiments, f"stage_{name}")
             for name, stage in experiments.STAGES.items()}
_COMMANDS["pipeline"] = experiments.run_pipeline


def _exit_code_for(error: Exception) -> int:
    if isinstance(error, StageError):
        return _exit_code_for(error.__cause__) if error.__cause__ else EXIT_DATA
    if isinstance(error, (TrainingError, DomainError)):
        return EXIT_NUMERIC
    if isinstance(error, ConfigError):
        return EXIT_USAGE
    return EXIT_DATA


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        "seed": args.seed,
        "interval_minutes": args.interval,
        "out_dir": args.out,
    }
    try:
        config = load_config(args.config, overrides)
    except FileNotFoundError:
        print(f"bikecast: config file not found: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"bikecast: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        _COMMANDS[args.command](config)
    except (StageError, ConfigError, DataError, TrainingError, DomainError, OSError) as e:
        print(f"bikecast: {e}", file=sys.stderr)
        return _exit_code_for(e)
    print(f"{args.command}: ok (config {config.hash()}, out {config.out_dir})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
