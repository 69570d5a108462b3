"""Per-check times of two checkouts on one benchmark workload, interleaved.

    python3 tools/check_ab.py OLD_CHECKOUT NEW_CHECKOUT WORKLOAD

Imports both checkouts' ``src/paralift`` in one process, under two names.
On WORKLOAD's cases at benchmark seed 1 (NEW's ``perfbench``), times
``run_check`` on each 2-point chunk, OLD and NEW back to back, the first
alternating.  Prints median ms per chunk of each check, and points/s as
``check_points_per_s`` counts them.  Cases either side refuses are skipped.
"""

from __future__ import annotations

import importlib
import importlib.util
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROUNDS = 15
CHUNK_POINTS = 2  # as perfbench/measure.py
SIDES = ("old", "new")
REFUSALS = ("ConfigError", "ChartDomainError", "ContractError",
            "DegenerateCoefficient", "RangeError")


def load(root, name):
    """(config, errors, verify) of ``root``'s package, imported as ``name``."""
    src = Path(root) / "src" / "paralift"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return [importlib.import_module(f"{name}.{part}")
            for part in ("config", "errors", "verify")]


def build(modules, document):
    """(config, structure, 2-point samples) of one config document."""
    config_mod, _, verify = modules
    config = config_mod.parse_config(document)
    ls = config_mod.build_structure(config)
    s = config.sampling
    sample = verify.sample_points(ls.m, s["count"], s["seed"], p_max=s["p_max"],
                                  t_max=config.coefficients["t_max"])
    pts = sample.points
    return config, ls, [verify.PhaseSample(pts[i:i + CHUNK_POINTS], sample.seed)
                        for i in range(0, len(pts), CHUNK_POINTS)]


def main(old_root, new_root, workload):
    pkgs = dict(zip(SIDES, (load(old_root, "paralift_old"),
                            load(new_root, "paralift_new"))))
    refusals = tuple(getattr(errors, name) for _, errors, _ in pkgs.values()
                     for name in REFUSALS)
    sys.path.insert(0, str(Path(new_root) / "perfbench"))
    from workloads import build_workload

    jobs = []  # (check name, points, {side: (run_check, ls, chunk, tol)})
    for case in build_workload(workload, 1, new_root):
        try:
            built = {side: build(pkgs[side], case.document) for side in SIDES}
        except refusals as exc:
            print(f"skipped {case.name}: {type(exc).__name__}: {exc}")
            continue
        for name in built["new"][0].checks:
            for i, chunk in enumerate(built["new"][2]):
                jobs.append((name, len(chunk.points), {
                    side: (pkgs[side][2].run_check, ls, chunks[i],
                           config.tolerances.get(name))
                    for side, (config, ls, chunks) in built.items()}))
    times = defaultdict(list)  # (job index, side) -> seconds
    for r in range(ROUNDS):
        for j, (name, _, calls) in enumerate(jobs):
            for side in SIDES if (r + j) % 2 == 0 else SIDES[::-1]:
                run_check, ls, chunk, tol = calls[side]
                start = time.perf_counter()
                run_check(name, ls, chunk, tol)
                times[(j, side)].append(time.perf_counter() - start)
    median = {key: statistics.median(v) for key, v in times.items()}
    for check in sorted({name for name, _, _ in jobs}):
        old, new = (1e3 * statistics.mean(median[(j, side)] for j, job in
                                          enumerate(jobs) if job[0] == check)
                    for side in SIDES)
        print(f"{check:18s} ms/chunk old {old:8.3f}  new {new:8.3f}  "
              f"new/old {new / old:.3f}")
    points = sum(n for _, n, _ in jobs)
    old, new = (points / sum(median[(j, side)] for j in range(len(jobs)))
                for side in SIDES)
    print(f"points/s old {old:.0f}  new {new:.0f}  new/old {new / old:.3f}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
