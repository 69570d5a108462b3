"""Timed rounds of one workload: fresh set-up processes, CLI runs, warm checks.

Everything runs as a closed loop from one process with no threads: one child
at a time, configs one after another.  Rounds interleave the three kinds of
measurement so that a slow spell of the machine falls on all of them alike.

The host is shared and its speed drifts, so every timed sample is scaled by
a reference kernel read beside it (see ``hostspeed.py``), and every timing
metric is a median over many samples spread over the whole run.  The
in-process checks are timed on chunks of a few points each, so that one
sample is short; the chunk reports are merged and must agree exactly with the
CLI report of the full sample.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from paralift.cli import execute_checks
from paralift.config import parse_config
from paralift.verify import PhaseSample, run_check

import gate
from hostspeed import HostSpeed
from probes import prepare
from workloads import EXIT_ERROR, FAIL, PASS

_HERE = Path(__file__).resolve().parent

MIN_ROUNDS = 3
# The in-process pass costs about as much as the CLI runs of a round; running
# it every other round leaves more CLI samples per config.
IN_PROCESS_EVERY = 2
CHUNK_POINTS = 2
CHILD_TIMEOUT_S = 60.0


class ChildFailed(RuntimeError):
    """A child process timed out or could not report its result."""


def spawn(cmd, env, log_path):
    """Run ``cmd`` to completion; returns (exit status, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not exited:
        raise ChildFailed(f"{cmd[1:3]} did not finish in {CHILD_TIMEOUT_S} s")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class WorkloadRun:
    """Measures one workload and tallies every outcome against expectations."""

    def __init__(self, cases, workdir, env, validator):
        self.cases = cases
        self.workdir = workdir
        self.env = env
        self.validator = validator
        self.tally = gate.Tally()
        self.problems = []
        self.host = HostSpeed()
        # Timed samples as (raw wall s, index of the sample for self.host).
        self.setup_wall = []
        self.import_s = []
        self.cli_wall = defaultdict(list)
        self.round_rss = []
        self.check_wall = defaultdict(list)
        self.cli_text = {}
        self.cli_checks = {}
        self.in_process_checks = {}
        self.prepared = {}
        self.chunks = {}
        self.rounds = 0
        self.cases_path = workdir / "cases.json"
        self.cases_path.write_text(json.dumps(
            [c.document for c in cases]))
        self.config_paths = {}
        for case in cases:
            path = workdir / f"{case.name}.config.json"
            path.write_text(json.dumps(case.document))
            self.config_paths[case.name] = case.preset or str(path)

    # -- warm-up -----------------------------------------------------------

    def warm_up(self):
        """Untimed: one set-up child, execute_checks on every case, prepare."""
        self._setup_child()
        for case in self.cases:
            try:
                reports, _ = execute_checks(parse_config(case.document))
            except gate.REJECTIONS:
                self.tally.score(case, "execute_checks", EXIT_ERROR, [])
            except Exception as exc:
                self.tally.crashed(case, "execute_checks", exc)
            else:
                dicts = [r.to_dict() for r in reports]
                self.tally.score(case, "execute_checks",
                                 gate.exit_status(dicts), dicts)
            try:
                self.prepared[case.name] = prepare(case.document)
            except Exception:
                continue  # the rounds score an unprepared case as rejected
            sample = self.prepared[case.name][2]
            self.chunks[case.name] = [
                PhaseSample(points=sample.points[i:i + CHUNK_POINTS],
                            seed=sample.seed)
                for i in range(0, len(sample.points), CHUNK_POINTS)]
        self.host.mark()

    # -- one round ---------------------------------------------------------

    def _in_process_round(self):
        return self.rounds % IN_PROCESS_EVERY == 0

    def run_round(self):
        index = self.host.current
        wall, import_s = self._setup_child()
        self.host.mark()
        self.setup_wall.append((wall, index))
        self.import_s.append(import_s)
        rss = [self._cli(case) for case in self.cases]
        self.round_rss.append(max(rss))
        if self._in_process_round():
            for case in self.cases:
                self._in_process(case)
        self.rounds += 1

    def run_for(self, seconds):
        """Rounds until the next one would overrun ``seconds``, at least three.

        The next round is predicted by the last one of its kind, with or
        without the in-process pass.
        """
        start = time.perf_counter()
        last = {True: 0.0, False: 0.0}
        while (self.rounds < MIN_ROUNDS
               or time.perf_counter() - start
               + last[self._in_process_round()] <= seconds):
            kind = self._in_process_round()
            began = time.perf_counter()
            self.run_round()
            last[kind] = time.perf_counter() - began
        return time.perf_counter() - start

    def _setup_child(self):
        """One fresh set-up process; returns its wall time and import time."""
        cmd = [sys.executable, str(_HERE / "setup_child.py"),
               str(self.cases_path)]
        log = self.workdir / "setup.log"
        code, wall, _ = spawn(cmd, self.env, log)
        lines = log.read_text().strip().splitlines()
        if code != 0 or not lines:
            raise ChildFailed(f"set-up process exited {code}: "
                              f"{' | '.join(lines[-3:])}")
        return wall, json.loads(lines[-1])["import_s"]

    def _cli(self, case):
        out = self.workdir / f"{case.name}.report.json"
        if out.exists():
            out.unlink()
        cmd = [sys.executable, "-m", "paralift.cli", "verify",
               self.config_paths[case.name], "--seed", str(case.seed),
               "--out", str(out)]
        index = self.host.current
        code, wall, rss = spawn(cmd, self.env,
                                self.workdir / f"{case.name}.cli.log")
        self.host.mark()
        self.cli_wall[case.name].append((wall, index))
        checks = []
        if out.exists():
            document = json.loads(out.read_text())
            self.problems.extend(gate.schema_problems(self.validator,
                                                      document))
            text = gate.stable_text(document)
            first = self.cli_text.setdefault(case.name, text)
            if text != first:
                self.problems.append(f"CLI report of {case.name} differs "
                                     "between runs outside timing")
            checks = document["checks"]
            self.cli_checks[case.name] = checks
        self.tally.score(case, "cli", code, checks)
        return rss

    def _in_process(self, case):
        """Every requested check, timed chunk by chunk, merged and scored."""
        if case.name not in self.prepared:
            self.tally.score(case, "in-process", EXIT_ERROR, [])
            return
        config, ls, _ = self.prepared[case.name]
        merged = []
        try:
            for name in config.checks:
                parts = []
                for chunk_index, chunk in enumerate(self.chunks[case.name]):
                    index = self.host.current
                    start = time.perf_counter()
                    parts.append(run_check(name, ls, chunk,
                                           tol=config.tolerances.get(name)))
                    self.check_wall[(case.name, name, chunk_index)].append(
                        (time.perf_counter() - start, index))
                    self.host.mark_if_due()
                merged.append(merge_chunks(name, parts))
        except gate.REJECTIONS:
            self.tally.score(case, "in-process", EXIT_ERROR, [])
            return
        except Exception as exc:
            self.tally.crashed(case, "in-process", exc)
            return
        self.tally.score(case, "in-process", gate.exit_status(merged),
                         merged)
        first = self.in_process_checks.setdefault(case.name, merged)
        if merged != first:
            self.problems.append(f"in-process reports of {case.name} differ "
                                 "between runs")
        cli_checks = self.cli_checks.get(case.name)
        if cli_checks is not None and merged != [
                {k: r[k] for k in MERGED_KEYS} for r in cli_checks]:
            self.problems.append(f"in-process reports of {case.name} differ "
                                 "from the CLI report")

    # -- results -----------------------------------------------------------

    def median_s(self, samples, scaled=True):
        """Median of (wall, index) samples, scaled to the reference speed."""
        if not scaled:
            return statistics.median(wall for wall, _ in samples)
        return statistics.median(self.host.scale(wall, index)
                                 for wall, index in samples)

    def check_points_per_s(self, scaled=True):
        """Points x checks over the summed median run_check time of each chunk."""
        points = sum(len(self.chunks[case][index].points)
                     for case, _, index in self.check_wall)
        return points / sum(self.median_s(v, scaled)
                            for v in self.check_wall.values())

    def verdict_s(self, scaled=True):
        return sum(self.median_s(self.cli_wall[c.name], scaled)
                   for c in self.cases)

    def end_to_end(self):
        """End-to-end metrics, plus extras that are shown but not gated.

        The gated times are scaled to the reference speed; the raw wall times
        of the same samples are the ``*_wall*`` extras.
        """
        cases = self.cases
        return {
            "setup_s": self.median_s(self.setup_wall),
            "verdict_s": self.verdict_s(),
            "check_points_per_s": self.check_points_per_s(),
            "peak_rss_mb": statistics.median(self.round_rss),
            "headroom_digits": gate.headroom_digits(cases, self.cli_checks),
            "fail_margin_digits": gate.fail_margin_digits(cases,
                                                          self.cli_checks),
            "verdict_error_rate": self.tally.error_rate,
            "setup_wall_s": self.median_s(self.setup_wall, scaled=False),
            "verdict_wall_s": self.verdict_s(scaled=False),
            "check_points_per_wall_s": self.check_points_per_s(scaled=False),
            "reference_kernel_ms": 1e3 * statistics.median(
                self.host.readings),
        }

    def samples(self):
        """Every timing sample of the run as (wall s, index), and the readings."""
        return {
            "setup": self.setup_wall,
            "import_s": self.import_s,
            "cli": dict(self.cli_wall),
            "check": {"/".join(map(str, key)): v
                      for key, v in self.check_wall.items()},
            "reference_kernel_s": self.host.readings,
            "reference_kernel_at": self.host.times,
        }


# The fields of a check report that chunk reports determine exactly.
MERGED_KEYS = ("check_name", "max_residual", "verdict")


def merge_chunks(name, parts):
    """The verdict and max residual of a check from the reports of its chunks.

    Every check reduces per-point residuals by max, so the merged fields
    equal those of one report over the whole sample.
    """
    residuals = [r.max_residual for r in parts]
    nan = any(x != x for x in residuals)
    return {"check_name": name,
            "max_residual": None if nan else max(residuals),
            "verdict": PASS if all(r.passed for r in parts) else FAIL}
