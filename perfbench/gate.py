"""Correctness gate: expectation tables, report schema, determinism, digits."""

from __future__ import annotations

import json
import math

from paralift.errors import (
    ChartDomainError,
    ConfigError,
    ContractError,
    DegenerateCoefficient,
    RangeError,
)

from workloads import EXIT_FAIL, EXIT_PASS, FAIL, PASS

# The errors for which the CLI exits with status 2 (config or domain error).
REJECTIONS = (ConfigError, ChartDomainError, ContractError,
              DegenerateCoefficient, RangeError)

DOUBLE_EPS = 2.2e-16


class Tally:
    """Expectation entries compared, and those the program got wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = []

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def _entry(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(message)

    def score(self, case, path, exit_code, reports):
        """Compare one outcome of ``case`` (exit status plus report dicts)."""
        self._entry(exit_code == case.expect_exit,
                    f"{path} {case.name}: exit {exit_code}, "
                    f"expected {case.expect_exit}")
        verdicts = {r["check_name"]: r["verdict"] for r in reports}
        for check, want in case.expect.items():
            got = verdicts.get(check)
            self._entry(got == want, f"{path} {case.name}: {check} {got}, "
                                     f"expected {want}")

    def crashed(self, case, path, exc):
        """An unexpected exception: every entry of the case counts as wrong."""
        for _ in range(1 + len(case.expect)):
            self._entry(False, f"{path} {case.name}: unexpected "
                               f"{type(exc).__name__}: {exc}")


def exit_status(reports):
    """The CLI's exit status for reports that an in-process run produced."""
    return EXIT_PASS if all(r["verdict"] == PASS for r in reports) else EXIT_FAIL


def schema_problems(validator, document):
    return [f"report schema: {e.message}" for e in validator.iter_errors(document)]


def stable_text(document):
    """The report without its volatile ``timing`` object, canonically dumped."""
    body = {k: v for k, v in document.items() if k != "timing"}
    return json.dumps(body, sort_keys=True, allow_nan=False)


def headroom_digits(cases, reports_by_case):
    """Minimum over expected-PASS checks with tol > 0 of log10(tol / residual)."""
    values = [math.log10(r["tolerance"] / max(r["max_residual"], DOUBLE_EPS))
              for case, r in _expected(cases, reports_by_case, PASS)
              if r["tolerance"] > 0 and r["max_residual"] is not None]
    return min(values) if values else None


def fail_margin_digits(cases, reports_by_case):
    """Minimum over expected-FAIL checks of log10(residual / tol)."""
    values = [math.log10(max(r["max_residual"], DOUBLE_EPS)
                         / max(r["tolerance"], DOUBLE_EPS))
              for case, r in _expected(cases, reports_by_case, FAIL)
              if r["max_residual"] is not None]
    return min(values) if values else None


def _expected(cases, reports_by_case, verdict):
    for case in cases:
        for r in reports_by_case.get(case.name, ()):
            if case.expect.get(r["check_name"]) == verdict:
                yield case, r
