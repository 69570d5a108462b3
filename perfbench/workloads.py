"""Workloads of the paralift benchmark: run configs plus expectation tables.

Each workload is a list of cases.  A case is one run config (a JSON document
in the format of ``schemas/config.schema.json``) together with the exit status
the CLI must return for it and the verdict each requested check must reach.
Every sampling seed is derived from the benchmark's own ``--seed``, so the
same seed gives the same inputs on every run.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

PASS, FAIL = "pass", "fail"
EXIT_PASS, EXIT_FAIL, EXIT_ERROR = 0, 1, 2

PRESET_NAMES = ("rational_para_hermitian", "rational_para_kahler",
                "rational_product", "unit_coefficients")

# Point counts.  At the seed one n = 8 point costs ~270 ms over the seven
# checks (closure_agreement alone ~160 ms), so six points keep a round of the
# high-dimensional workload near 4 s and a run holds several rounds.
HIGH_DIM_POINTS = 6
NEGATIVE_POINTS = 30

_ONE = {"preset": "constant", "params": {"value": 1.0}}
_LAMBDA_1_PLUS_T = {"preset": "affine", "params": {"intercept": 1.0,
                                                   "slope": 1.0}}


@dataclass(frozen=True)
class Case:
    """One config of a workload and what the program must answer for it.

    ``preset`` names a shipped preset file; the CLI then runs that file as
    shipped and receives the sampling seed through ``--seed``.
    """

    name: str
    document: dict
    expect_exit: int
    expect: dict = field(default_factory=dict)
    preset: str | None = None

    @property
    def seed(self):
        return self.document["sampling"]["seed"]


def derive_seed(seed, name):
    """Sampling seed of one case, a fixed function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31)


def _doc(n, c, coefficients, checks, count, model="conformal_ball", **extra):
    return {
        "manifold": {"model": model, "n": n, "c": c, **extra},
        "coefficients": coefficients,
        "sampling": {"count": count, "seed": 0, "p_max": 2.0},
        "checks": list(checks),
    }


def _presets(root):
    cases = []
    for name in PRESET_NAMES:
        path = Path(root) / "src" / "paralift" / "presets" / f"{name}.json"
        document = json.loads(path.read_text())
        cases.append(Case(name=name, document=document, expect_exit=EXIT_PASS,
                          expect={c: PASS for c in document["checks"]},
                          preset=str(path)))
    return cases


def _high_dim():
    checks = ("space_form", "almost_product", "integrability", "compatibility",
              "metric_signature", "closure", "closure_agreement")
    document = _doc(8, 1.0, {"a1": _ONE, "lambda": _LAMBDA_1_PLUS_T}, checks,
                    HIGH_DIM_POINTS)
    return [Case(name="para_kahler_n8", document=document,
                 expect_exit=EXIT_PASS, expect={c: PASS for c in checks})]


def _negative_controls():
    k = NEGATIVE_POINTS
    return [
        Case(name="perturbed_conformal",
             document=_doc(4, 1.0, {"a1": _ONE, "lambda": _LAMBDA_1_PLUS_T},
                           ("space_form", "integrability", "closure"), k,
                           model="perturbed_conformal", strength=0.1),
             expect_exit=EXIT_FAIL,
             expect={"space_form": FAIL, "integrability": FAIL,
                     "closure": PASS}),
        Case(name="mismatched_curvature",
             document=_doc(4, -1.0,
                           {"a1": _ONE, "curvature": 1.0,
                            "allow_mismatched_c": True,
                            "lambda": _LAMBDA_1_PLUS_T},
                           ("integrability", "para_kahler"), k),
             expect_exit=EXIT_FAIL,
             expect={"integrability": FAIL, "para_kahler": FAIL}),
        Case(name="mu_not_lambda_prime",
             document=_doc(4, 1.0,
                           {"a1": _ONE, "lambda": _LAMBDA_1_PLUS_T,
                            "mu": {"preset": "constant",
                                   "params": {"value": 0.5}}},
                           ("closure", "closure_agreement"), k),
             expect_exit=EXIT_FAIL,
             expect={"closure": FAIL, "closure_agreement": PASS}),
        # a1 = (t - 0.5)^2 vanishes inside [0, t_max]; build_structure must
        # reject it.  It currently accepts it (a known defect): the mismatch
        # is counted, never re-expected.
        Case(name="degenerate_a1",
             document=_doc(4, 1.0,
                           {"a1": {"preset": "polynomial",
                                   "params": {"coeffs": [0.25, -1.0, 1.0]}},
                            "b1": {"preset": "constant",
                                   "params": {"value": 0.0}},
                            "derive": {"integrability": False,
                                       "metric_proportionality": False}},
                           ("almost_product",), k),
             expect_exit=EXIT_ERROR),
    ]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "presets_cli": _presets,
    "high_dim_para_kahler": lambda root: _high_dim(),
    "negative_controls": lambda root: _negative_controls(),
}


def build_workload(name, seed, root):
    """The cases of workload ``name``, sampling seeds derived from ``seed``."""
    cases = []
    for case in WORKLOADS[name](root):
        document = copy.deepcopy(case.document)
        document["sampling"]["seed"] = derive_seed(seed, case.name)
        cases.append(replace(case, document=document))
    return tuple(cases)
