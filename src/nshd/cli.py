"""Command line interface.

Subcommands: run, sweep, scale-check, exponents, verify.  Exit codes for
run/sweep follow the harness taxonomy: 0 completed, 1 invalid config or
arguments, 2 diverged, 3 resolution loss, 4 unwritable output.  `main` is
the one place that turns a usage error, a config error or an unwritable
output into an exit code; a usage error exits 1 (not argparse's 2, which
would read as "diverged").
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from .config import ConfigError, load_config
from .harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OUTPUT,
    OutputError,
    run_config,
    scale_check,
    sweep,
)
from .scaling import lions_exponent, solvability_margin
from .verify import run_verification


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nshd",
        description="Pseudo-spectral hyperdissipative Navier-Stokes toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run one config across several alphas")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--alphas", required=True,
                         help="comma-separated list, e.g. 0.8,1.0,1.25")
    p_sweep.add_argument("--out", required=True)

    p_scale = sub.add_parser("scale-check",
                             help="solution-map commutation and energy scaling")
    p_scale.add_argument("--config", required=True)
    p_scale.add_argument("--q", required=True, type=int)

    p_exp = sub.add_parser("exponents", help="print the solvability exponent calculus")
    p_exp.add_argument("--n", required=True, type=int)
    p_exp.add_argument("--alpha", default=None,
                       help="dissipation exponent, float or rational like 5/4")

    p_verify = sub.add_parser("verify", help="run the property verification suite")
    p_verify.add_argument("--filter", default=None)
    p_verify.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_run(args) -> int:
    record = run_config(load_config(args.config), args.out)
    print(f"status: {record.status}")
    print(f"final t = {record.final_time:g}, steps = {record.final_step}, "
          f"energy = {record.final_energy:.12g}")
    print(f"diagnostics: {record.csv_path}")
    print(f"checkpoint:  {record.checkpoint_path}")
    return record.exit_code


def _cmd_sweep(args) -> int:
    try:
        alphas = [float(x) for x in args.alphas.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError("alphas", f"not a comma-separated list of numbers: "
                                    f"{args.alphas!r}") from exc
    summary = sweep(load_config(args.config), alphas, args.out)
    print(f"alpha_L({summary.n}) = {summary.alpha_lions:g}")
    for row in summary.rows:
        marker = "  <-- alpha_L" if row.is_lions_exponent else ""
        print(f"alpha={row.alpha:g} status={row.status} "
              f"E_ratio={row.energy_ratio:.6g}{marker}")
    return summary.exit_code


def _cmd_scale_check(args) -> int:
    report = scale_check(load_config(args.config), args.q)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK if report.passed else 1


def _parse_rational(text: str):
    if "/" in text:
        return Fraction(text)
    if "." in text or "e" in text or "E" in text:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {text!r}")
        return value
    return int(text)


def _cmd_exponents(args) -> int:
    try:
        a_lions = lions_exponent(args.n)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    print(f"n = {args.n}")
    print(f"alpha_L = {a_lions} (= {float(a_lions):g})")
    if args.alpha is not None:
        try:
            alpha = _parse_rational(args.alpha)
        except (ValueError, ZeroDivisionError):
            print(f"invalid --alpha {args.alpha!r}", file=sys.stderr)
            return EXIT_CONFIG
        margin, label = solvability_margin(args.n, alpha)
        print(f"alpha = {alpha}")
        print(f"margin = {margin} (= {float(margin):g})")
        print(f"classification = {label}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_verification(args.filter)
    if args.as_json:
        print(json.dumps([r.__dict__ for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            extra = f"  [{r.detail}]" if r.detail else ""
            print(f"{status} {r.name}: metric={r.metric:.3e} "
                  f"threshold={r.threshold:.3e}{extra}")
    failed = [r for r in results if not r.passed]
    if not results:
        print("no properties matched the filter", file=sys.stderr)
        return EXIT_CONFIG
    if failed and not args.as_json:
        print(f"{len(failed)}/{len(results)} properties failed", file=sys.stderr)
    return EXIT_OK if not failed else 1


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "scale-check": _cmd_scale_check,
    "exponents": _cmd_exponents,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
