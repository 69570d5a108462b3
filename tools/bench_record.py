"""Record the benchmark of one revision as a BENCH_<k>.json file.

    python3 tools/bench_record.py --out BENCH_<k>.json [--rev HEAD]

Exports ``--rev`` with ``git archive`` into a fresh temporary directory and
runs ``perfbench/run.py`` there, one run at a time, for the export's
BENCHMARK.json ``run_seconds``: every workload at seeds 1-3, once with
``--trace 0`` for the end-to-end metrics and once with ``--trace 1`` for
the per-layer table.  About 15 minutes on a 2-core host.

The file holds the revision and the git trees of its ``src/`` and
``perfbench/`` (compare ``git rev-parse HEAD:src``), the environment
(Python, numpy, nproc, BLAS, the bytecode-cache state) and, per workload,
every metric per seed with its median and interquartile range.  The
end-to-end metrics come scaled to the reference speed, as the benchmark
gates them, and raw (``*_wall_*``), with ``reference_kernel_ms`` that
relates the two.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# A row of the run's metric table: two spaces, name, value, unit.
ROW = re.compile(r"^  ([a-z_.0-9]+) +(\S+) (\S+)$")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """``git archive`` of ``rev`` unpacked into the directory ``into``."""
    archive = Path(into) / "export.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                       stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(Path(into) / "tree", filter="data")
    archive.unlink()
    return Path(into) / "tree"


def run_once(tree, workload, seed, seconds, trace):
    """The result line, metric table and environment of one benchmark run;
    the gated metrics at the result line's full precision."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    out = {"exit": proc.returncode, "table": {}, "environment": None,
           "result": None}
    for line in lines:
        if line.startswith("environment: "):
            out["environment"] = json.loads(line[len("environment: "):])
        elif (match := ROW.match(line)) and match[2] != "n/a":
            out["table"][match[1]] = (float(match[2]), match[3])
    if lines and lines[-1].startswith("{"):
        out["result"] = json.loads(lines[-1])
        out["table"].update((name, (m["value"], m["unit"])) for name, m
                            in out["result"]["metrics"].items())
    if proc.returncode:
        out["stderr"] = proc.stderr.strip().splitlines()[-5:]
    return out


def summary(per_seed, unit):
    """A metric's values per seed with their median and interquartile range."""
    values = [v for v in per_seed.values() if v is not None]
    entry = {"unit": unit, "per_seed": per_seed}
    if values:
        entry["median"] = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry["iqr"] = q3 - q1
    return entry


def record(tree, spec, seeds, seconds):
    workloads, environment = {}, None
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = {"runs": {}}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            table = {}
            for seed in seeds:
                print(f"{workload} seed {seed} trace {trace}", file=sys.stderr)
                run = run_once(tree, workload, seed, seconds, trace)
                environment = environment or run["environment"]
                result = run.pop("result") or {}
                entry["runs"][f"seed{seed}-trace{trace}"] = {
                    "exit": run["exit"], "stderr": run.get("stderr"),
                    **{k: result.get(k) for k in
                       ("correct", "attempted", "failed")}}
                for name, (value, unit) in run["table"].items():
                    table.setdefault(name, (unit, {}))[1][str(seed)] = value
            wanted = {m["name"] for m in spec[key]}
            entry[key] = {name: summary(values, unit)
                          for name, (unit, values) in table.items()
                          if name in wanted}
            if trace == 0:
                entry["raw"] = {name: summary(values, unit)
                                for name, (unit, values) in table.items()
                                if name not in wanted}
        workloads[workload] = entry
    return workloads, environment


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--rev", default="HEAD")
    args = parser.parse_args(argv)
    revision = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    with tempfile.TemporaryDirectory() as work:
        tree = export(revision, work)
        spec = json.loads((tree / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        cache = tree / "src" / "paralift" / "__pycache__"
        cache_before = cache.exists()
        workloads, environment = record(tree, spec, SEEDS, seconds)
        cache_after = cache.exists()
    environment = {key: (environment or {}).get(key) for key in
                   ("python", "numpy", "blas", "blas_threads", "nproc",
                    "source_sha256")}
    environment["bytecode_cache"] = {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "src_pycache_before": cache_before, "src_pycache_after": cache_after}
    document = {
        "revision": revision,
        "trees": {path: git("rev-parse", f"{revision}:{path}")
                  for path in ("src", "perfbench")},
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "seeds": SEEDS,
        "environment": environment,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    failed = [f"{w}/{run}" for w, entry in workloads.items()
              for run, r in entry["runs"].items()
              if r["exit"] or not r["correct"]]
    for name in failed:
        print(f"run failed: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
