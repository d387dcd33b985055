"""Command-line interface.

Subcommands: constants (print the derived parameter table), simulate
(one run to an output directory), analyze (recompute observables from
stored snapshots), sweep-kappa (growth rate vs helix pitch), selfcheck
(cross-validation battery).  Progress goes through the "spintex"
logger, which main sends to stdout: simulate and analyze print one line
per observed time (one formatter for both), sweep-kappa the lines of its
runs plus one per pitch, selfcheck its report.  Errors go to stderr.
Exit codes: 0 success, 1 validation or usage error, 2 numerical failure.
"""

import argparse
import logging
import sys

from .dipole import KERNEL_MODES
from .errors import InvalidParameter, NumericalFailure, SpintexError
from .io_text import RunConfig, load_config, parse_config


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(sub, seedable=True):
    sub.add_argument("--config", metavar="<path>",
                     help="key = value config file; missing keys take "
                          "the defaults")
    if seedable:
        sub.add_argument("--seed", type=int, metavar="N",
                         help="override rng_seed")
        sub.add_argument("--out", metavar="<dir>",
                         help="override output directory")
        sub.add_argument("--dipoles", choices=KERNEL_MODES,
                         help="override dipolar kernel mode")
        sub.add_argument("--cancel-pulses", type=float, metavar="<rate_khz>",
                         help="override cancellation pulse rate (kHz)")


def _build_config(args, seedable=True) -> RunConfig:
    cfg = load_config(args.config) if args.config else parse_config("")
    if seedable:
        if args.seed is not None:
            cfg.rng_seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.dipoles is not None:
            cfg.kernel_mode = args.dipoles
        if args.cancel_pulses is not None:
            cfg.cancel_pulse_rate_khz = args.cancel_pulses
        cfg.validate()
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="spintex",
                     description="Quasi-2D spin-1 condensate magnetization "
                                 "dynamics with dipolar interactions")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("constants",
                          help="print the derived parameter table")
    _add_config_flags(sub, seedable=False)

    sub = subs.add_parser("simulate",
                          help="run one simulation to an output directory")
    _add_config_flags(sub)

    sub = subs.add_parser("analyze",
                          help="recompute observables from stored snapshots")
    sub.add_argument("run_dir", metavar="<run-dir>",
                     help="directory written by simulate")

    sub = subs.add_parser("sweep-kappa",
                          help="growth rate vs helix pitch, one run each")
    _add_config_flags(sub)
    sub.add_argument("--pitches", required=True, metavar="50,60,100,150",
                     help="comma-separated helix pitches in um")

    subs.add_parser("selfcheck",
                    help="run the cross-validation battery")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = logging.getLogger("spintex")
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        if args.command == "constants":
            from .params import derived_table
            cfg = _build_config(args, seedable=False)
            print(derived_table(cfg))
        elif args.command == "simulate":
            from .runner import run_simulate
            cfg = _build_config(args)
            result = run_simulate(cfg)
            print(f"run complete: {result.run_dir} "
                  f"(config {result.cfg_hash})")
        elif args.command == "analyze":
            from .runner import analyze_run
            analyze_run(args.run_dir)
            print(f"analysis written to {args.run_dir}/analysis.csv")
        elif args.command == "sweep-kappa":
            from .runner import run_sweep_kappa
            cfg = _build_config(args)
            try:
                pitches = [float(p) for p in args.pitches.split(",") if p]
            except ValueError:
                raise InvalidParameter(
                    f"cannot parse --pitches {args.pitches!r}") from None
            run_sweep_kappa(cfg, pitches)
            print(f"sweep complete: {cfg.out_dir}/gamma.csv")
        elif args.command == "selfcheck":
            from .selfcheck import run_selfcheck
            if not run_selfcheck():
                return 1
        return 0
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SpintexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
