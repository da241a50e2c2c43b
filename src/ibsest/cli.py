"""Command-line front end: validate, estimate, verify."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import verify as verify_mod
from .belief import validate_ibs
from .estimator import EstimatorConfig, alpha_sweep
from .intervalprob import check_alpha
from .io import (
    ObservationParseError,
    file_digest,
    parse_observation_file,
    render_report,
    render_table,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _parse_alphas(text: str) -> list[float]:
    try:
        alphas = [check_alpha(float(a)) for a in text.split(",") if a.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}: {exc}")
    if not alphas:
        raise argparse.ArgumentTypeError("alphas must be a non-empty list")
    return alphas


def _int_from(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibsest",
        description="Estimate interval probabilities from belief-structure observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check an observation file")
    p_val.add_argument("file", type=Path)

    p_est = sub.add_parser("estimate", help="run the estimator on an observation file")
    p_est.add_argument("file", type=Path)
    p_est.add_argument("--alpha", type=_parse_alphas, default=[1.0, 2.0, 3.0, 4.0, 5.0],
                       help="comma-separated alpha values (default 1,2,3,4,5)")
    p_est.add_argument("--seed", type=_int_from(0), default=42)
    p_est.add_argument("--restarts", type=_int_from(1), default=64)
    p_est.add_argument("--out", type=Path, default=None,
                       help="write the structured report to this file")

    p_ver = sub.add_parser("verify", help="reproduce the reference tables")
    p_ver.add_argument("--fixtures", type=Path, default=None)
    p_ver.add_argument("--seed", type=_int_from(0), default=42)
    p_ver.add_argument("--restarts", type=_int_from(1), default=64)
    return parser


def cmd_validate(args) -> int:
    observations = parse_observation_file(args.file)
    all_ok = True
    for obs in observations.observations:
        report = validate_ibs(obs)
        status = "ok" if report.ok else "INVALID"
        print(f"observation {obs.label}: {status}")
        for v in report.violations:
            print(f"  violation: {v}")
        for w in report.warnings:
            print(f"  warning: {w}")
        all_ok = all_ok and report.ok
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_estimate(args) -> int:
    observations = parse_observation_file(args.file)
    cfg = EstimatorConfig(seed=args.seed, restarts=args.restarts)
    results = alpha_sweep(observations, args.alpha, cfg)
    print(render_table(results))
    if args.out is not None:
        report = render_report(results, file_digest(args.file), args.seed)
        args.out.write_text(report, encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_mod.run_all(
        fixtures=args.fixtures, seed=args.seed, restarts=args.restarts
    )
    all_ok = True
    start = time.perf_counter()
    for check in results:  # each check runs as the loop asks for its result
        elapsed = time.perf_counter() - start
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail} ({elapsed:.2f} s)", flush=True)
        all_ok = all_ok and check.passed
        start = time.perf_counter()
    return EXIT_OK if all_ok else EXIT_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "estimate":
            return cmd_estimate(args)
        return cmd_verify(args)
    except ObservationParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing or unreadable input, an unwritable report
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
