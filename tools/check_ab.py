"""Per-check times of two checkouts on one workload or config, interleaved.

    python3 tools/check_ab.py OLD_CHECKOUT NEW_CHECKOUT WORKLOAD
    python3 tools/check_ab.py OLD_CHECKOUT NEW_CHECKOUT CONFIG.json

Imports both checkouts' ``src/paralift`` in one process, under two names.
On WORKLOAD's cases at benchmark seed 1 (NEW's ``perfbench``), or on the one
run config in the file CONFIG.json at its own ``sampling.seed``, times
``run_check`` on each 2-point chunk, OLD and NEW back to back, the first
alternating.  A side's time for a chunk in a round is the least of
``REPEATS`` back-to-back calls, which drops the calls a shared host slowed,
so a per-check median resolves a band of a few percent.  Prints median ms
per chunk of each check, and points/s as ``check_points_per_s`` counts
them.  Each round is one pair of runs, so for each check and overall it
also prints in how many rounds NEW took less time than OLD over the same
chunks: a gain holds when NEW wins nearly every pair, not only in the
median.  Cases either side refuses are skipped.

Construction is timed the same way: per case and round, ``parse_config``
plus ``build_structure`` as the least of ``BUILD_REPEATS`` calls, OLD and
NEW alternating, printed as one ``build`` line of ms per case.  A build
takes a few ms, so it gets more calls than a chunk.  ``sample_points``, as
``build()`` calls it on the built structure, is timed the same way and
printed as a ``sample`` line, so work that a change moves from the checks
into the sample shows beside the per-check ratios.

Both checkouts share this one process, and so one heap: the allocator
state that one side's calls leave behind (its trim threshold, its free
memory) is what the other side's calls meet.  At n >= 16, where a check's
stepped temporaries take megabytes, that can bias the per-check ratios
either way, so confirm large-n readings with each side in processes of its
own.

The answers are compared too, so a speed A/B cannot hide a changed one: per
check, whether every chunk's verdict agrees, and the largest relative change
of a chunk's ``max_residual``.  The exit status is 1 if any verdict differs.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROUNDS = 15
REPEATS = 3  # calls per side, chunk and round; the least one counts
BUILD_REPEATS = 3 * REPEATS  # calls per side, case and round
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
    sample = draw(modules, config, ls)
    pts = sample.points
    return config, ls, [verify.PhaseSample(pts[i:i + CHUNK_POINTS], sample.seed)
                        for i in range(0, len(pts), CHUNK_POINTS)]


def draw(modules, config, ls):
    """The sample of ``config`` on the structure's chart, as the CLI draws it."""
    s = config.sampling
    return modules[2].sample_points(ls.m, s["count"], s["seed"],
                                    p_max=s["p_max"],
                                    t_max=config.coefficients["t_max"])


def cases(new_root, workload):
    """(name, document) of each case: a workload's, or a config file's one."""
    if Path(workload).is_file():
        return [(Path(workload).stem, json.loads(Path(workload).read_text()))]
    sys.path.insert(0, str(Path(new_root) / "perfbench"))
    from workloads import build_workload
    return [(case.name, case.document)
            for case in build_workload(workload, 1, new_root)]


def main(old_root, new_root, workload):
    pkgs = dict(zip(SIDES, (load(old_root, "paralift_old"),
                            load(new_root, "paralift_new"))))
    refusals = tuple(getattr(errors, name) for _, errors, _ in pkgs.values()
                     for name in REFUSALS)

    jobs = []  # (check name, points, {side: (run_check, ls, chunk, tol)})
    documents = []  # of the cases both sides build
    structures = []  # per such case, {side: (config, ls)}
    for case, document in cases(new_root, workload):
        try:
            built = {side: build(pkgs[side], document) for side in SIDES}
        except refusals as exc:
            print(f"skipped {case}: {type(exc).__name__}: {exc}")
            continue
        documents.append(document)
        structures.append({side: (config, ls)
                           for side, (config, ls, _) in built.items()})
        for name in built["new"][0].checks:
            for i, chunk in enumerate(built["new"][2]):
                jobs.append((name, len(chunk.points), {
                    side: (pkgs[side][2].run_check, ls, chunks[i],
                           config.tolerances.get(name))
                    for side, (config, ls, chunks) in built.items()}))
    times = defaultdict(list)  # (job index, side) -> seconds
    builds = defaultdict(list)  # (case index, side) -> seconds
    samples = defaultdict(list)  # (case index, side) -> seconds
    reports = {}  # (job index, side) -> the report of the first round
    for r in range(ROUNDS):
        for k, document in enumerate(documents):
            for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                config_mod = pkgs[side][0]
                best, _ = least(lambda: config_mod.build_structure(
                    config_mod.parse_config(document)), BUILD_REPEATS)
                builds[(k, side)].append(best)
            for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                best, _ = least(lambda: draw(pkgs[side], *structures[k][side]),
                                BUILD_REPEATS)
                samples[(k, side)].append(best)
        for j, (name, _, calls) in enumerate(jobs):
            for side in SIDES if (r + j) % 2 == 0 else SIDES[::-1]:
                run_check, ls, chunk, tol = calls[side]
                best, report = least(lambda: run_check(name, ls, chunk, tol))
                times[(j, side)].append(best)
                reports.setdefault((j, side), report)
    median = {key: statistics.median(v) for key, v in times.items()}
    mismatches = 0
    for check in sorted({name for name, _, _ in jobs}):
        mine = [j for j, job in enumerate(jobs) if job[0] == check]
        old, new = (1e3 * statistics.mean(median[(j, side)] for j in mine)
                    for side in SIDES)
        differ = sum(reports[(j, "old")].passed != reports[(j, "new")].passed
                     for j in mine)
        mismatches += differ
        moved = max(relative_change(reports[(j, "old")].max_residual,
                                    reports[(j, "new")].max_residual)
                    for j in mine)
        verdicts = f"{differ} VERDICTS DIFFER" if differ else "verdicts agree"
        print(f"{check:18s} ms/chunk old {old:8.3f}  new {new:8.3f}  "
              f"new/old {new / old:.3f}  new won {wins(times, mine)}  "
              f"{verdicts}  max_residual moved {moved:.2g}")
    points = sum(n for _, n, _ in jobs)
    old, new = (points / sum(median[(j, side)] for j in range(len(jobs)))
                for side in SIDES)
    print(f"points/s old {old:.0f}  new {new:.0f}  new/old {new / old:.3f}  "
          f"new won {wins(times, range(len(jobs)))}")
    for name, spent in (("build", builds), ("sample", samples)):
        old, new = (1e3 * statistics.mean(statistics.median(spent[(k, side)])
                                          for k in range(len(documents)))
                    for side in SIDES)
        print(f"{name} ms/case old {old:.3f}  new {new:.3f}  new/old "
              f"{new / old:.3f}  new won {wins(spent, range(len(documents)))}")
    return 1 if mismatches else 0


def least(call, repeats=REPEATS):
    """(least wall time in seconds, last result) of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def relative_change(old, new):
    """|new - old| / |old|; 0 when both are equal, inf from an exact 0."""
    if new == old:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def wins(times, jobs):
    """"k of ROUNDS": the rounds in which NEW's summed time over ``jobs``
    was below OLD's."""
    won = sum(sum(times[(j, "new")][r] for j in jobs)
              < sum(times[(j, "old")][r] for j in jobs) for r in range(ROUNDS))
    return f"{won} of {ROUNDS}"


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
