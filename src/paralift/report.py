"""Residual reports produced by the property checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one property check over a sample of points.

    ``passed`` is true exactly when ``max_residual <= tolerance`` and the
    residual is finite.  The witnesses are the worst offending points,
    sorted by descending residual, at most three of them, each a dict of its
    "point" and the "residual" measured there.
    """

    check_name: str
    points_sampled: int
    max_residual: float
    tolerance: float
    passed: bool
    witnesses: tuple = ()
    seed: int | None = None
    details: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def verdict(self):
        return "pass" if self.passed else "fail"

    def to_dict(self):
        return {
            "check_name": self.check_name,
            "points_sampled": self.points_sampled,
            "max_residual": _finite_or_none(self.max_residual),
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "witnesses": [{**w, "residual": _finite_or_none(w["residual"])}
                          for w in self.witnesses],
            "seed": self.seed,
            "details": {k: _finite_or_none(v) for k, v in sorted(self.details.items())},
            "notes": list(self.notes),
        }


def make_report(check_name, residuals, rows, tolerance, *, seed=None,
                details=None, notes=()):
    """Assemble a :class:`CheckReport` from per-point residuals.

    ``rows`` names the arrays whose i-th row belongs to point i, such as
    ``{"q": batch.q, "p": batch.p}``; a witness's "point" maps each name to
    that row of its point as a list.  Non-finite residuals can never pass
    and are called out in the notes, so NaN or Inf anywhere turns into an
    explicit failure rather than leaking into downstream comparisons.
    """
    residuals = np.asarray(residuals, dtype=float).tolist()
    notes = list(notes)
    if all(map(math.isfinite, residuals)):
        max_residual = max(residuals) if residuals else 0.0
        passed = max_residual <= tolerance
    else:
        notes.append("non-finite residual encountered; check forced to fail")
        max_residual = math.nan
        passed = False
    order = sorted(range(len(residuals)),
                   key=lambda i: -_sort_key(residuals[i]))
    witnesses = tuple({"point": {name: np.asarray(row[i], dtype=float).tolist()
                                 for name, row in rows.items()},
                       "residual": residuals[i]} for i in order[:3])
    return CheckReport(
        check_name=check_name,
        points_sampled=len(residuals),
        max_residual=max_residual,
        tolerance=float(tolerance),
        passed=passed,
        witnesses=witnesses,
        seed=seed,
        details=dict(details or {}),
        notes=tuple(notes),
    )


def _sort_key(r):
    if math.isnan(r):
        return math.inf  # non-finite residuals float to the top of witnesses
    return r


def _finite_or_none(x):
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    return x
