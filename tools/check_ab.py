"""Per-check times of two checkouts on one workload or config, interleaved.

    python3 tools/check_ab.py OLD_CHECKOUT NEW_CHECKOUT WORKLOAD
    python3 tools/check_ab.py OLD_CHECKOUT NEW_CHECKOUT CONFIG.json

Each checkout runs in processes of its own: in every round a fresh one per
side, started in alternating order, imports that checkout's
``src/paralift``, builds every case and then answers this process's timing
requests over a pipe until the round ends.  So neither side's calls meet
the heap that the other side's leave behind: at n >= 16, where a check's
stepped temporaries take megabytes, the allocator's state (its trim
threshold, its free memory) decides whether a call faults its memory in
again, and a shared heap could bias a per-check ratio either way.  A
process also carries a speed of its own (its address layout, its pages),
which one process per side kept for all rounds turns into a bias of a few
percent between two equal checkouts; a new pair per round turns it into
noise between rounds.  Both processes keep their BLAS pools at one
thread, as the benchmark does: a pool left to spin in the waiting side
would take the CPU from the timed one.

Every round also starts a third process on OLD's checkout, OLD', timed in
the same interleaved order: an A/A control.  Two processes of one tree
still differ by a few percent (negative_controls once read 0.981 between
equal trees), and one NEW/OLD ratio cannot tell that from a gain.  So
beside each NEW/OLD ratio and its rounds won, both tables and the build
and sample lines print OLD'/OLD and the rounds OLD' won: a NEW/OLD ratio
means something only where it lies outside what OLD' reads.

On WORKLOAD's cases at benchmark seed 1 (NEW's ``perfbench``), or on the
one run config in the file CONFIG.json at its own ``sampling.seed``, each
side times ``run_check`` on each 2-point chunk.  In each round every chunk
is timed on the three sides back to back, their order stepping through the
six orders of three from chunk to chunk and from round to round.  A side's time for a chunk in a round is
the least of ``REPEATS`` back-to-back calls, which drops the calls a shared
host slowed, so a per-check median resolves a band of a few percent.
Prints median ms per chunk of each check, and points/s as
``check_points_per_s`` counts them.  Each round holds one pair of runs, so
for each check and overall it also prints in how many rounds NEW took less
time than OLD over the same chunks: a gain holds when NEW wins nearly every
pair, not only in the median.  Cases either side refuses are skipped.

The same processes then time ``run_check`` on each case's whole sample, as
``execute_checks`` runs it: the sample the CLI draws, its stepped point
read before any check (a tree that steps the sample with its draw has no
``stepped`` to read), timed as the chunks are.  A second table prints
median ms per sample of each check, points/s over the whole samples and
the rounds NEW won.  The chunks time the fixed cost per call that the
benchmark's 2-point chunks pay; the whole samples time what a CLI run
checks, where a block of points, not a call, sets the cost.

Construction is timed the same way: per case and round, ``parse_config``
plus ``build_structure`` as the least of ``BUILD_REPEATS`` calls, printed
as one ``build`` line of ms per case.  A build takes a few ms, so it gets
more calls than a chunk.  ``sample_points``, as ``build()`` calls it on the
built structure, and a read of the new sample's stepped point are timed the
same way and printed as a ``sample`` line: a checkout that steps the sample
with its draw and one that steps it on the first read pay the same work
there.  So work that a change moves between the checks and the sample
shows beside the per-check ratios, where the least of ``REPEATS`` calls
would hide a step taken in a chunk's first call.

The answers are compared too, so a speed A/B cannot hide a changed one: per
check, whether every chunk's and every whole sample's verdict agrees, and
the largest relative change of their ``max_residual``.  The exit status is
1 if any verdict differs.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROUNDS = 15
REPEATS = 3  # calls per side, chunk and round; the least one counts
BUILD_REPEATS = 3 * REPEATS  # calls per side, case and round
CHUNK_POINTS = 2  # as perfbench/measure.py
SIDES = ("old", "new", "old'")  # old' runs OLD's checkout again: an A/A
ORDERS = list(itertools.permutations(SIDES))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REFUSALS = ("ConfigError", "ChartDomainError", "ContractError",
            "DegenerateCoefficient", "RangeError")


def build(config_mod, verify, document):
    """(config, structure, whole sample, its 2-point samples) of one config
    document; the whole sample's stepped point is read here."""
    config = config_mod.parse_config(document)
    ls = config_mod.build_structure(config)
    sample = draw(verify, config, ls)
    pts = sample.points
    return config, ls, sample, [
        verify.PhaseSample(pts[i:i + CHUNK_POINTS], sample.seed)
        for i in range(0, len(pts), CHUNK_POINTS)]


def draw(verify, config, ls):
    """The sample of ``config`` on the structure's chart, as the CLI draws
    it, with its stepped point read (a tree that steps with the draw has no
    ``stepped``)."""
    s = config.sampling
    sample = verify.sample_points(ls.m, s["count"], s["seed"],
                                  p_max=s["p_max"],
                                  t_max=config.coefficients["t_max"])
    getattr(sample, "stepped", None)
    return sample


def cases(new_root, workload):
    """(name, document) of each case: a workload's, or a config file's one."""
    if Path(workload).is_file():
        return [(Path(workload).stem, json.loads(Path(workload).read_text()))]
    sys.path.insert(0, str(Path(new_root) / "perfbench"))
    from workloads import build_workload
    return [(case.name, case.document)
            for case in build_workload(workload, 1, new_root)]


def serve(root, documents, conn):
    """One side for one round, in a process of its own: import ``root``'s
    package, build every case, and send per case its refusal or its
    (checks, chunk sizes).  Then receive the jobs (case, check, chunk),
    chunk None for the whole sample, and answer each request: for a case k,
    its (build, sample) seconds; for a job j, its seconds and its report's
    (passed, max_residual); for None, stop."""
    sys.path.insert(0, str(Path(root) / "src"))
    from paralift import config as config_mod
    from paralift import verify

    built = []
    for document in documents:
        try:
            built.append(build(config_mod, verify, document))
        except Exception as exc:
            if type(exc).__name__ not in REFUSALS:
                raise
            built.append(f"{type(exc).__name__}: {exc}")
    conn.send([b if isinstance(b, str) else
               (b[0].checks, [len(chunk.points) for chunk in b[3]])
               for b in built])
    jobs = conn.recv()
    while (request := conn.recv()) is not None:
        what, i = request
        if what == "case":
            config, ls, _, _ = built[i]
            document = documents[i]
            conn.send((least(lambda: config_mod.build_structure(
                           config_mod.parse_config(document)),
                             BUILD_REPEATS)[0],
                       least(lambda: draw(verify, config, ls),
                             BUILD_REPEATS)[0]))
            continue
        k, name, c = jobs[i]
        config, ls, sample, chunks = built[k]
        best, report = least(lambda: verify.run_check(
            name, ls, sample if c is None else chunks[c],
            config.tolerances.get(name)))
        conn.send((best, (report.passed, report.max_residual)))


def main(old_root, new_root, workload):
    named = cases(new_root, workload)
    documents = [document for _, document in named]
    roots = dict(zip(SIDES, (old_root, new_root, old_root)))
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # the sides inherit it
    spawn = multiprocessing.get_context("spawn")
    times = defaultdict(list)  # (job index, side) -> seconds
    builds = defaultdict(list)  # (kept case index, side) -> seconds
    samples = defaultdict(list)  # (kept case index, side) -> seconds
    answers = {}  # (job index, side) -> (passed, max_residual), first round
    for r in range(ROUNDS):
        conns, procs = {}, []
        for side in ORDERS[r % len(ORDERS)]:
            conns[side], child = spawn.Pipe()
            procs.append(spawn.Process(target=serve, daemon=True,
                                       args=(roots[side], documents, child)))
            procs[-1].start()
        built = {side: conns[side].recv() for side in SIDES}
        if not r:
            kept, jobs = plan(named, built)
        for side in SIDES:
            conns[side].send(jobs)
        for c, k in enumerate(kept):
            for side in ORDERS[(r + c) % len(ORDERS)]:
                build_s, sample_s = ask(conns[side], ("case", k))
                builds[(c, side)].append(build_s)
                samples[(c, side)].append(sample_s)
        for j in range(len(jobs)):
            for side in ORDERS[(r + j) % len(ORDERS)]:
                best, answer = ask(conns[side], ("job", j))
                times[(j, side)].append(best)
                answers.setdefault((j, side), answer)
        for side, proc in zip(conns, procs):
            conns[side].send(None)
            proc.join()
    points = [sum(sizes) if i is None else sizes[i] for k, _, i in jobs
              for sizes in [built["new"][k][1]]]
    return compare(jobs, points, len(kept), times, builds, samples, answers)


def plan(named, built):
    """(kept cases, jobs (case, check, chunk)) from each side's first message:
    the cases no side refused, and NEW's checks and chunks of each, then
    each case's checks on its whole sample (chunk None)."""
    kept = []
    for k, (case, _) in enumerate(named):
        refused = [b[k] for b in built.values() if isinstance(b[k], str)]
        if refused:
            print(f"skipped {case}: {refused[0]}")
        else:
            kept.append(k)
    return kept, [(k, name, i) for whole in (False, True) for k in kept
                  for name in built["new"][k][0]
                  for i in ([None] if whole
                            else range(len(built["new"][k][1])))]


def ask(conn, request):
    """One side's answer to ``request``."""
    conn.send(request)
    return conn.recv()


def compare(jobs, points, cases, times, builds, samples, answers):
    """Print the comparison; the exit status."""
    median = {key: statistics.median(v) for key, v in times.items()}
    mismatches = 0
    for unit, whole in (("chunk", False), ("sample", True)):
        print("on whole samples, stepped point read" if whole
              else f"on {CHUNK_POINTS}-point chunks")
        part = [j for j, job in enumerate(jobs) if (job[2] is None) == whole]
        for check in sorted({jobs[j][1] for j in part}):
            mine = [j for j in part if jobs[j][1] == check]
            old, new, again = (1e3 * statistics.mean(median[(j, side)]
                                                     for j in mine)
                               for side in SIDES)
            differ = sum(answers[(j, "old")][0] != answers[(j, "new")][0]
                         for j in mine)
            mismatches += differ
            moved = max(relative_change(answers[(j, "old")][1],
                                        answers[(j, "new")][1]) for j in mine)
            verdicts = (f"{differ} VERDICTS DIFFER" if differ
                        else "verdicts agree")
            print(f"{check:18s} ms/{unit:6s} old {old:8.3f}  new {new:8.3f}  "
                  f"{ratios(old, new, again, times, mine)}  "
                  f"{verdicts}  max_residual moved {moved:.2g}")
        old, new, again = (sum(points[j] for j in part)
                           / sum(median[(j, side)] for j in part)
                           for side in SIDES)
        print(f"points/s old {old:.0f}  new {new:.0f}  "
              f"{ratios(old, new, again, times, part)}")
    for name, spent in (("build", builds), ("sample", samples)):
        old, new, again = (1e3 * statistics.mean(
            statistics.median(spent[(c, side)]) for c in range(cases))
            for side in SIDES)
        print(f"{name} ms/case old {old:.3f}  new {new:.3f}  "
              f"{ratios(old, new, again, spent, range(cases))}")
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


def ratios(old, new, again, times, jobs):
    """NEW/OLD and the rounds NEW won, then the A/A control's OLD'/OLD and
    the rounds OLD' won, of one line's figures (ms or points/s) and jobs."""
    return (f"new/old {new / old:.3f}  new won {wins(times, jobs, 'new')}  "
            f"old'/old {again / old:.3f}  old' won "
            f"{wins(times, jobs, SIDES[2])}")


def wins(times, jobs, side):
    """"k of ROUNDS": the rounds in which ``side``'s summed time over
    ``jobs`` was below OLD's."""
    won = sum(sum(times[(j, side)][r] for j in jobs)
              < sum(times[(j, "old")][r] for j in jobs) for r in range(ROUNDS))
    return f"{won} of {ROUNDS}"


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
