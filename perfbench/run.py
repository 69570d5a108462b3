"""The paralift benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``; BENCHMARK.json at the root lists
them with the reason each was chosen, and names every metric with its unit.
The run imports paralift from ``src/`` of the checkout, measures for
``--seconds`` seconds, checks every output against the workload's
expectation table, the report schema and determinism, and prints:

* an environment block and a table of every metric, for people;
* as the last line, one JSON object with the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
  end-to-end ones, measured without tracing; with ``--trace 1`` they are the
  per-layer ones from a separate traced pass and the dimension sweep.

Timings are scaled to a reference speed of the host (``hostspeed.py``), since
a shared host's own speed drifts by more than the bounds; the raw wall times
are printed beside them.  The run and its children are pinned to one CPU, the
one the reference kernel reads.

``attempted`` counts the expectation entries compared (an exit status or a
check verdict, on the CLI and on the in-process path) and ``failed`` those
the program got wrong, so their ratio is the verdict error rate.  Exit status
0 after a correct run; 1 when the gate finds a schema, determinism or digits
breach, or a child process fails; 2 when the checkout holds no sources.
Scratch files, reports, every timing sample and the span dump go to
``.perfbench_work/``.

Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path

# One closed loop with no threads: BLAS pools stay at one thread here and in
# every child, which inherits this environment.  Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Shown for people only.  The fail margin is defined only where a workload
# has expected-FAIL checks; the error rate is 0 by design and travels as
# failed / attempted in the result line; the raw wall times and the reference
# kernel's own time show what the scaling to the reference speed did.
EXTRA_UNITS = {"fail_margin_digits": "digits", "verdict_error_rate": "1",
               "setup_wall_s": "s", "verdict_wall_s": "s",
               "check_points_per_wall_s": "1/s", "reference_kernel_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    # One CPU for this process and every child it starts: the reference
    # kernel then reads the speed of the CPU the children run on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if not (SRC / "paralift" / "__init__.py").is_file():
        print(f"error: no paralift sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    # Imported only now: these modules import paralift from SRC.
    import jsonschema
    import measure
    import probes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = (ROOT / ".perfbench_work"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    validator = jsonschema.Draft202012Validator(
        json.loads((ROOT / "schemas" / "report.schema.json").read_text()))
    cases = workloads.build_workload(args.workload, args.seed, ROOT)
    environment = describe_environment(args, load_at_start, nproc, cpu)

    run = measure.WorkloadRun(cases, workdir, env, validator)
    try:
        run.warm_up()
        rel_err = probes.digits_check(cases, run.prepared)
        if rel_err > probes.FD_REL_TOL:
            run.problems.append(f"forward-mode jacobian differs from the FD "
                                f"oracle by {rel_err:.3g} relative")
        elapsed = run.run_for(args.seconds)
        computed = run.end_to_end()
        (workdir / "samples.json").write_text(json.dumps(run.samples()))
        if args.trace:
            traced, traced_cpps = probes.traced_pass(cases, run.prepared,
                                                     workdir, args.seed)
            untraced_cpps = computed["check_points_per_wall_s"]
            computed, counts = traced.layer_metrics()
            computed["cli.import_s"] = statistics.median(run.import_s)
            computed["verify.fd_oracle.rel_err_max"] = rel_err
            computed["trace.overhead_ratio"] = untraced_cpps / traced_cpps
            (workdir / "trace.json").write_text(json.dumps(
                {"environment": environment, "probe_samples": counts,
                 "metrics": computed, "spans": traced.tracer.dump()}))
    except measure.ChildFailed:
        traceback.print_exc()
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = computed.get(entry["name"])
        if value is None:
            run.problems.append(f"metric {entry['name']} was not measured")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print_summary(run, environment, metrics, computed, elapsed, args)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.tally.attempted,
                      "failed": run.tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def describe_environment(args, load_at_start, nproc, cpu):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": nproc,
        "pinned_cpu": cpu,
        "loadavg_at_start": load_at_start,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref[5:]


def source_digest():
    """SHA-256 over the package sources, which identifies a checkout too."""
    digest = hashlib.sha256()
    base = SRC / "paralift"
    for path in sorted(base.rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(base)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def print_summary(run, environment, metrics, computed, elapsed, args):
    print(f"paralift benchmark: workload {args.workload}, seed {args.seed}, "
          f"{run.rounds} rounds in {elapsed:.1f} s")
    print("environment: " + json.dumps(environment))
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not args.trace:
        rows += [(name, computed[name], unit)
                 for name, unit in EXTRA_UNITS.items()]
    for name, value, unit in rows:
        shown = "n/a (no expected-FAIL check)" if value is None else \
            f"{value:.6g} {unit}"
        print(f"  {name:<48} {shown}")
    print(f"  verdict entries: {run.tally.failed} wrong of "
          f"{run.tally.attempted}")
    for miss in sorted(set(run.tally.misses)):
        print(f"  miss: {miss}")
    for problem in sorted(set(run.problems)):
        print(f"  PROBLEM: {problem}")


if __name__ == "__main__":
    sys.exit(main())
