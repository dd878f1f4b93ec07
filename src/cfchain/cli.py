"""Command-line entry point.

Subcommands:
  run <config>      execute the experiment described by an INI config
                    (or a previously written manifest.json)
  preset <name>     run a built-in scenario: fig2|fig3|fig4|fig5|bitrate
  validate <config> parse and validate only; writes nothing
  selftest          run the built-in invariant suite

Exit codes: 0 success, 1 run/selftest failure, 2 usage error,
3 configuration error, 4 output I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import ConfigError
from .harness import RunFailedError, run_experiment
from .presets import PRESETS
from .quantizer import InsufficientSamplesError
from .runio import RunManifest, build_config, emit_results, parse_config

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_run_flags(p):
    p.add_argument("--out", default="results", metavar="DIR",
                   help="output directory (default: ./results)")
    p.add_argument("--seed", default=None,
                   help="the run's seed: same as --override seed=N")
    p.add_argument("--workers", type=positive_int, default=1,
                   help="worker processes, not placements: each runs "
                        "tasks of whole placements (default 1)")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config/plan key")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cfchain",
        description="Link-level simulator of sequential uplink signal "
                    "estimation over a quantized AP daisy chain.")
    ap.add_argument("--version", action="version",
                    version=f"cfchain {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config", help="INI config or manifest.json")
    _add_run_flags(p_run)

    p_pre = sub.add_parser("preset", help="run a built-in scenario")
    p_pre.add_argument("name", choices=sorted(PRESETS))
    _add_run_flags(p_pre)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    p_val.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")

    sub.add_parser("selftest", help="run the invariant suite")
    return ap


def _overrides(args) -> list[str]:
    """--override values, then --seed as a seed override."""
    return args.override + ([] if args.seed is None else [f"seed={args.seed}"])


def _execute(cfg, plan, args) -> int:
    manifest = RunManifest.create(cfg, plan, args.out)
    try:
        result = run_experiment(plan, cfg, workers=args.workers)
    except (RunFailedError, InsufficientSamplesError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    try:
        paths = emit_results(result, manifest, args.out)
    except OSError as e:
        print(f"cannot write results: {e}", file=sys.stderr)
        return EXIT_IO
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg, plan = parse_config(args.config, overrides=_overrides(args))
    return _execute(cfg, plan, args)


def _cmd_preset(args) -> int:
    cfg, plan = build_config({}, PRESETS[args.name], _overrides(args))
    return _execute(cfg, plan, args)


def _cmd_validate(args) -> int:
    cfg, plan = parse_config(args.config, overrides=args.override)
    print(f"config ok: L={cfg.L} N={cfg.N} K={cfg.K} "
          f"kind={plan.kind} options={[o.value for o in plan.options]}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return run_selftest()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handler = {
        "run": _cmd_run,
        "preset": _cmd_preset,
        "validate": _cmd_validate,
        "selftest": _cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
