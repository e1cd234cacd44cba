"""Command-line entry point.

Subcommands: ``simulate`` runs a scenario, ``calibrate`` runs a scenario
and requires its calibration block, ``fuse`` runs the sensor-fusion demo,
``validate`` checks a config without writing anything, ``version`` prints
the package version.  Exit codes: 0 success, 1 validation/usage error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .errors import ConfigError, NumericalDivergenceError
from .harness import resolve_out_dir, run_fusion_demo, run_scenario, write_fusion_csv
from .scenario import load_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


# built once: a parser is all reference cycles, and parse_args does not change it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsynapse",
        description="hybrid classical-quantum electrical-synapse simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    add_common(sub.add_parser("simulate", help="run a scenario and emit artifacts"))
    add_common(sub.add_parser("calibrate", help="run a scenario with its calibration block"))
    add_common(sub.add_parser("fuse", help="run the sensor-fusion demo"))

    validate = sub.add_parser("validate", help="validate a config; write nothing")
    validate.add_argument("--config", required=True, help="scenario JSON file")
    validate.add_argument("--quiet", action="store_true")

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; --help exits 0
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    if args.command == "version":
        print(__version__)
        return EXIT_OK

    try:
        config = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        if not args.quiet:
            print(f"ok: {args.config} (sha256 {config.sha256[:12]})")
        return EXIT_OK

    if args.command == "calibrate" and config.calibration is None:
        print("config error: calibrate requires an enabled calibration block", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "fuse":
            if config.fusion is None:
                print("config error: fuse requires a fusion block", file=sys.stderr)
                return EXIT_CONFIG
            fus = config.fusion
            seed = config.seed if args.seed is None else args.seed
            report = run_fusion_demo(
                fus.scenario,
                fus.circuit,
                fus.shots,
                seed,
                window_ms=fus.window_ms,
                dt_ms=fus.dt_ms,
                settle_ms=fus.settle_ms,
                params=fus.params,
            )
            out = resolve_out_dir(config.output.dir, args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_fusion_csv(report, out / "fusion.csv")
            if not args.quiet:
                status = "degenerate" if report.degenerate else f"tv={report.tv_distance:.4f}"
                print(f"fusion: {status} -> {out / 'fusion.csv'}")
            return EXIT_RUNTIME if report.degenerate else EXIT_OK

        run_scenario(config, out_dir=args.out, seed_override=args.seed, quiet=args.quiet)
        return EXIT_OK
    except NumericalDivergenceError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, RuntimeError, OSError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
