"""Batch driver: parse a run config, execute checks, emit reports.

Usage:

    paralift verify CONFIG.json [--seed N] [--samples N]
                    [--tol-override NAME=VALUE ...] [--out PATH]
    paralift presets

Exit status: 0 when every requested check passes, 1 when a check fails,
2 on configuration or domain errors.  The report is a JSON document that is
byte-stable for a fixed config and seed; the only volatile fields live in
its isolated "timing" object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from . import __version__
from .config import FIELDS, build_structure, parse_config, read_flag
from .coefficients import SCALAR_PRESETS
from .errors import (
    ChartDomainError,
    ConfigError,
    ContractError,
    DegenerateCoefficient,
    RangeError,
)
from .verify import DEFAULT_TOLERANCES, run_check, sample_points

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def execute_checks(config):
    """Run every requested check; returns (reports, all_passed).  The
    checks share one sample, whose stepped point the first check that
    differentiates the chart builds; a run of algebraic checks builds none."""
    ls = build_structure(config)
    t_max = config.coefficients["t_max"]
    sample = sample_points(
        ls.m,
        config.sampling["count"],
        config.sampling["seed"],
        p_max=config.sampling["p_max"],
        t_max=t_max,
    )
    reports = [
        run_check(name, ls, sample, tol=config.tolerances.get(name))
        for name in config.checks
    ]
    return reports, all(r.passed for r in reports)


def build_report_document(config, reports, all_passed, wall_time_seconds):
    """Assemble the report JSON; volatile fields go into "timing" only."""
    return {
        "library_version": __version__,
        "config": config.echo(),
        "checks": [r.to_dict() for r in reports],
        "all_passed": bool(all_passed),
        "timing": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_seconds": wall_time_seconds,
        },
    }


def emit_report(document, path):
    """Write the report document as canonical JSON (sorted keys, no NaN)."""
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    try:
        path.write_text(text + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def run(config):
    """Execute a validated config end to end; returns the exit status.
    The report goes to ``config.output`` or report.json, a summary to stdout."""
    start = time.perf_counter()
    reports, all_passed = execute_checks(config)
    wall = time.perf_counter() - start
    document = build_report_document(config, reports, all_passed, wall)
    out_path = config.output or "report.json"
    emit_report(document, out_path)
    for r in reports:
        print(f"{r.check_name}: {r.verdict.upper()}  "
              f"max_residual={r.max_residual:.3e}  tolerance={r.tolerance:.1e}")
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    print(f"report: {out_path}")
    return EXIT_PASS if all_passed else EXIT_CHECK_FAILED


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="paralift",
        description="Build lifted structures on cotangent bundles of space "
                    "forms and verify their defining identities numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the checks described by a config")
    pv.add_argument("config", help="path to a JSON run config")
    pv.add_argument("--seed", type=int, help="override sampling.seed")
    pv.add_argument("--samples", type=int, help="override sampling.count")
    pv.add_argument("--tol-override", action="append", default=[],
                    metavar="NAME=VALUE",
                    help="override one check tolerance (repeatable)")
    pv.add_argument("--out", help="override the report output path")

    sub.add_parser("presets", help="list coefficient presets and the shipped "
                                   "example configs")

    args = parser.parse_args(argv)
    if args.command == "presets":
        return _presets()
    return _verify(args)


def _verify(args):
    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        config = _load_config(document, args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        return run(config)
    except (ChartDomainError, ContractError, DegenerateCoefficient,
            RangeError, OSError) as exc:
        kind = "" if isinstance(exc, OSError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def _load_config(document, args):
    """The config with the command line's overrides applied.

    One :class:`ConfigError` lists every problem: those of --tol-override,
    then the file's, then those of --seed, --samples and --out.
    """
    problems = []
    tolerances = _parse_tol_overrides(args.tol_override, problems)
    try:
        config = parse_config(document)
    except ConfigError as exc:
        problems.extend(exc.problems)
    sampling = {name: read_flag("sampling", name, value, flag, problems)
                for name, flag, value in (("seed", "--seed", args.seed),
                                          ("count", "--samples", args.samples))
                if value is not None}
    if args.out is not None:
        read_flag("", "output", args.out, "--out", problems)
    if problems:
        raise ConfigError(problems)
    return replace(config, sampling={**config.sampling, **sampling},
                   tolerances={**config.tolerances, **tolerances},
                   output=config.output if args.out is None else args.out)


def _parse_tol_overrides(entries, problems):
    out = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            problems.append(f"--tol-override {entry!r}: expected NAME=VALUE")
        elif name not in DEFAULT_TOLERANCES:
            problems.append(f"--tol-override {name!r}: unknown check name")
        else:
            try:
                value = float(value)
            except ValueError:
                pass  # the tolerance rule reports it as not a number
            out[name] = read_flag("tolerances", name, value,
                                  f"--tol-override {name}", problems)
    return out


def _presets():
    print("scalar presets (usable for a1, b1, lambda, mu, family.u):")
    for name in sorted(SCALAR_PRESETS):
        print(f"  {name}: params {[f.name for f in FIELDS[name]]}")
    print()
    print("coefficient families:")
    print("  rational: params ['alpha', 'beta', 'u'];"
          " a1 = 1/beta, b1 = u/(alpha beta), a2 = beta,"
          " b2 = -u beta/(alpha + 2 t u)")
    print()
    print("checks:", ", ".join(sorted(DEFAULT_TOLERANCES)))
    print()
    print("example configs (run with: paralift verify PATH):")
    base = resources.files("paralift") / "presets"
    for item in sorted(base.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            doc = json.loads(item.read_text())
            print(f"  {item}  checks={doc.get('checks')}")
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
