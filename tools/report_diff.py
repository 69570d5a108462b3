"""Compare the CLI reports of two checkouts, entry by entry.

    python3 tools/report_diff.py OLD_CHECKOUT NEW_CHECKOUT

Runs ``paralift verify`` from each checkout's ``src/`` on the four shipped
presets, at their own seed and at ``--seed 7``, and on every config of
NEW_CHECKOUT's ``perfbench/workloads.py`` at benchmark seeds 1-3.  Prints
each report entry that differs outside ``timing`` as ``old -> new``, and any
differing exit status or stderr.  Witness entries of a check that passes on
both sides are the top points of rounding noise, so they are only counted,
one line per run.  The last line gives the count of differences, printed and
counted.  The exit status is 1 if any difference was printed, 0 if none
was or only witness entries of passing checks were counted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def jobs(new_root):
    """(label, preset name or config document, --seed value or None)."""
    sys.path.insert(0, str(new_root / "perfbench"))
    from workloads import PRESET_NAMES, WORKLOADS, build_workload

    out = [(f"{name} seed={seed}", name, seed)
           for name in PRESET_NAMES for seed in (None, 7)]
    return out + [(f"{workload}/{case.name} bench-seed={seed}",
                   case.document, None)
                  for workload in WORKLOADS for seed in (1, 2, 3)
                  for case in build_workload(workload, seed, new_root)]


def run(root, config, seed):
    """(exit status, stderr, report or None) of one CLI run from ``root``."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        if isinstance(config, str):  # a shipped preset, from this checkout
            path = root / "src" / "paralift" / "presets" / f"{config}.json"
        else:
            path.write_text(json.dumps(config))
        cmd = [sys.executable, "-m", "paralift.cli", "verify", str(path),
               "--out", "report.json"] + (["--seed", str(seed)] if seed else [])
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
    for label, config, seed in todo:
        old, new = (run(root, config, seed) for root in (old_root, new_root))
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
