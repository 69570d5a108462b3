"""Compare the CLI reports of two checkouts, entry by entry.

    python3 tools/report_diff.py OLD_CHECKOUT NEW_CHECKOUT

Runs ``paralift verify`` from each checkout's ``src/`` on the four shipped
presets, as they are, with ``--seed 7`` and with ``--samples 5
--tol-override para_kahler=1e-5``; on refused runs of one preset, so the
order of their problem lines is compared: with an unknown field and
``--seed -1 --tol-override almost_product=nan``, with an unknown and a
negative tolerance beside an unknown and a non-boolean derive flag, with
``output: ""``, and with ``--out "" --samples 0``; on four refused
documents of one mistake each, so that no cross-field rule judges a value
its row refused: the model "perturbed" beside a strength, the kind
"cruceanu-p", derive.integrability 3 beside the family, and c "x" beside
a curvature of 2 with a1 = 1 in place of the family; on every config of
NEW_CHECKOUT's ``perfbench/workloads.py`` at benchmark seeds 1-3; and on the
structures neither builds (``STRUCTURE_JOBS``): ``cruceanu_p`` and
``cruceanu_q`` on each chart model at n = 3 and on the c = +1 ball at n = 8,
with the space_form, almost_product and integrability checks; one
epsilon = +1 natural diagonal spec with almost_product, integrability,
compatibility and metric_signature; and the unit natural diagonal spec with
a1 = 1e300 on the flat model, whose G blocks are 1e300 and 1e-300 apart in
scale, with space_form, almost_product, integrability, compatibility,
metric_signature and para_kahler; and (``REGION_JOBS``) the unit
integrable spec, a1 = 1 with every rule derived, on five configs a sampler
that rejected draws past t_max could not fill: the c = 1e4 unit ball, the
c = +1 ball of radius 1e20, and on the c = +1 unit ball ``t_max: 1e-9``,
``p_max: 1e200`` and n = 32, each with the space_form, almost_product,
compatibility, metric_signature and integrability checks.  Prints each
report entry that differs
outside ``timing`` as ``old -> new``, and any differing exit status or
stderr.  The witness entries of a check that passes on both sides are the
top points of rounding noise, so they are only counted, one line per run.
The last line gives the count of differences, printed and counted.  The
exit status is 1 if any difference was printed, 0 if none was or only
witness entries of passing checks were counted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


MODELS = {
    "ball+1": {"model": "conformal_ball", "c": 1.0},
    "ball-1": {"model": "conformal_ball", "c": -1.0},
    "flat": {"model": "flat", "c": 0.0},
    "perturbed": {"model": "perturbed_conformal", "c": 1.0, "strength": 0.1},
}
SAMPLING = {"count": 20, "seed": 7}
# a1 = 1.5 exp(0.1 t) and lambda = 1 + t: Riemannian and locally product
EPSILON_PLUS = {
    "manifold": {**MODELS["ball+1"], "n": 3},
    "coefficients": {
        "epsilon": 1,
        "a1": {"preset": "exponential",
               "params": {"amplitude": 1.5, "rate": 0.1}},
        "lambda": {"preset": "affine",
                   "params": {"intercept": 1.0, "slope": 1.0}}},
    "sampling": SAMPLING,
    "checks": ["almost_product", "integrability", "compatibility",
               "metric_signature"],
}
# lambda = 1, mu derived, eps = -1: G's second block has scale 1e-300
HUGE_A1 = {
    "manifold": {**MODELS["flat"], "n": 3},
    "coefficients": {
        "a1": {"preset": "constant", "params": {"value": 1e300}},
        "lambda": {"preset": "constant", "params": {"value": 1.0}}},
    "sampling": SAMPLING,
    "checks": ["space_form", "almost_product", "integrability",
               "compatibility", "metric_signature", "para_kahler"],
}
STRUCTURE_JOBS = [
    (f"{kind} {model} n={n}", {
        "manifold": {**MODELS[model], "n": n}, "coefficients": {"kind": kind},
        "sampling": SAMPLING,
        "checks": ["space_form", "almost_product", "integrability"]}, [])
    for kind in ("cruceanu_p", "cruceanu_q")
    for model, n in [*((model, 3) for model in MODELS), ("ball+1", 8)]
] + [("natural_diagonal epsilon=+1 n=3", EPSILON_PLUS, []),
       ("natural_diagonal a1=1e300 flat n=3", HUGE_A1, [])]
UNIT_INTEGRABLE = {
    "a1": {"preset": "constant", "params": {"value": 1.0}},
    "derive": {"product_completion": True, "integrability": True,
               "metric_proportionality": True}}
REGION_JOBS = [
    (f"unit integrable {label}", {
        "manifold": {**MODELS["ball+1"], "n": 3, **manifold},
        "coefficients": {**UNIT_INTEGRABLE, **coefficients},
        "sampling": {**SAMPLING, **sampling},
        "checks": ["space_form", "almost_product", "compatibility",
                   "metric_signature", "integrability"]}, [])
    for label, manifold, coefficients, sampling in (
        ("c=1e4", {"c": 1e4}, {}, {}),
        ("ball+1 radius=1e20", {"chart_radius": 1e20}, {}, {}),
        ("ball+1 t_max=1e-9", {}, {"t_max": 1e-9}, {}),
        ("ball+1 p_max=1e200", {}, {}, {"p_max": 1e200}),
        ("ball+1 n=32", {"n": 32}, {}, {}))]


def jobs(new_root):
    """(label, preset name or config document, extra CLI arguments)."""
    sys.path.insert(0, str(new_root / "perfbench"))
    from workloads import PRESET_NAMES, WORKLOADS, build_workload

    flag_sets = ([], ["--seed", "7"],
                 ["--samples", "5", "--tol-override", "para_kahler=1e-5"])
    out = [(" ".join([name, *flags]), name, flags)
           for name in PRESET_NAMES for flags in flag_sets]
    first = PRESET_NAMES[0]
    preset = new_root / "src" / "paralift" / "presets" / f"{first}.json"
    doc = json.loads(preset.read_text())
    refused = ["--seed", "-1", "--tol-override", "almost_product=nan"]
    out += [(" ".join([f"{first}+extra", *refused]), {**doc, "extra": 1},
             refused),
            (f"{first}+bad tolerances and derive", {
                **doc, "tolerances": {"zzz": 1, "closure": -1},
                "coefficients": {**doc["coefficients"], "derive": {
                    "bogus": True, "integrability": 3}}}, []),
            (f'{first}+output ""', {**doc, "output": ""}, []),
            (f'{first} --out "" --samples 0', first,
             ["--out", "", "--samples", "0"])]
    manifold, one = doc["manifold"], {"preset": "constant",
                                      "params": {"value": 1.0}}
    out += [(f"{first}+{label}", {**doc, **edit}, []) for label, edit in (
        ('model "perturbed" with strength', {"manifold": {
            **manifold, "model": "perturbed", "strength": 0.2}}),
        ('kind "cruceanu-p"', {"coefficients": {"kind": "cruceanu-p"}}),
        ("family with derive.integrability 3", {"coefficients": {
            **doc["coefficients"], "derive": {"integrability": 3}}}),
        ('c "x" with curvature 2', {"manifold": {**manifold, "c": "x"},
                                    "coefficients": {"a1": one,
                                                     "curvature": 2.0}}))]
    return out + [(f"{workload}/{case.name} bench-seed={seed}",
                   case.document, [])
                  for workload in WORKLOADS for seed in (1, 2, 3)
                  for case in build_workload(workload, seed, new_root)
                  ] + STRUCTURE_JOBS + REGION_JOBS


def run(root, config, flags):
    """(exit status, stderr, report or None) of one CLI run from ``root``."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        if isinstance(config, str):  # a shipped preset, from this checkout
            path = root / "src" / "paralift" / "presets" / f"{config}.json"
        else:
            path.write_text(json.dumps(config))
        cmd = [sys.executable, "-m", "paralift.cli", "verify", str(path),
               "--out", "report.json", *flags]
        proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")))
        report = Path(work) / "report.json"
        return (proc.returncode, proc.stderr.strip(),
                json.loads(report.read_text()) if report.exists() else None)


def diff(old, new, path=""):
    """(path, old, new) of each differing entry, a list of numbers being
    one entry; the top-level timing is skipped."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if path or key != "timing":
                yield from diff(old.get(key), new.get(key), f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
          and any(isinstance(x, (dict, list)) for x in old)):
        for i, (a, b) in enumerate(zip(old, new)):
            name = a.get("check_name", i) if isinstance(a, dict) else i
            yield from diff(a, b, f"{path}[{name}]")
    elif old != new:
        yield path, old, new


def passing(report):
    """Names of the checks that pass in ``report``; none without a report."""
    return {c["check_name"] for c in (report or {}).get("checks", ())
            if c.get("verdict") == "pass"}


def main(old_root, new_root):
    old_root, new_root = Path(old_root).resolve(), Path(new_root).resolve()
    todo, printed, counted = jobs(new_root), 0, 0
    for label, config, flags in todo:
        old, new = (run(root, config, flags) for root in (old_root, new_root))
        quiet = tuple(f".checks[{name}].witnesses"
                      for name in passing(old[2]) & passing(new[2]))
        lines = list(diff(old[2], new[2]))
        lines += [(f".{what}", a, b) for what, a, b in
                  zip(("exit", "stderr"), old, new) if a != b]
        noise = sum(path.startswith(quiet) for path, _, _ in lines)
        for path, a, b in lines:
            if not path.startswith(quiet):
                print(f"{label}: {path[1:]}: {a!r} -> {b!r}")
        if noise:
            print(f"{label}: {noise} witness entries of passing checks differ")
        printed += len(lines) - noise
        counted += noise
    print(f"{printed + counted} differing entries over {len(todo)} runs: "
          f"{printed} printed, {counted} witness entries of passing checks "
          "counted")
    return 1 if printed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
