"""Calls into each layer's public functions on a workload's own points.

The traced pass times every call with a span; the dimension sweep runs the
same kernel probes on the n-dimensional conformal ball for several n; the
digits check compares forward-mode jacobians with the finite-difference
oracle.  None of this reaches inside the package: a refactor of inner layers
is measured without editing the benchmark.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from paralift import ad, cli
from paralift.config import build_structure, parse_config
from paralift.lifted import (
    G_adapted,
    Omega_coordinate,
    P_adapted,
    P_coordinate_function,
)
from paralift.phase import make_point
from paralift.spaceform import christoffel_at, curvature_at, space_form_residual
from paralift.verify import (
    CHECK_NAMES,
    analytic_dOmega,
    exterior_derivative_2form,
    fd_oracle,
    nijenhuis_at,
    run_check,
    sample_points,
)

from spans import Tracer, self_times, tail_percentile
from workloads import EXIT_ERROR, derive_seed

LAYERS = ("ad", "spaceform", "phase", "coefficients", "lifted", "verify",
          "config", "report", "cli")

# Probe calls timed at every point, reported as p50 and tail; the same calls
# make up the dimension sweep.
KERNELS = ("phase.make_point", "spaceform.christoffel_at",
           "spaceform.curvature_at", "ad.jacobian_P", "verify.nijenhuis_at",
           "ad.jacobian_Omega", "verify.exterior_derivative_2form",
           "verify.analytic_dOmega")
P50_ONLY = ("coefficients.eval", "lifted.P_adapted", "lifted.G_adapted")
# Check residuals not already given by a probe maximum (metric_signature
# counts misclassified points and is left out with its time).
CHECK_MAXIMA = ("almost_product", "compatibility", "para_kahler")
TIMED_CHECKS = tuple(c for c in CHECK_NAMES if c != "metric_signature")
# Calls made once per config, reported as their sum over the workload.
ONE_SHOT = ("config.parse_config", "config.build_structure", "report.to_dict",
            "cli.emit_report")

SWEEP_DIMS = (2, 3, 4, 6, 8)
SWEEP_POINTS = 6
PROBE_POINTS = 40
FD_POINTS = 2
FD_REL_TOL = 1e-6

_METRIC_CHECKS = ("compatibility", "metric_signature")
_FORM_CHECKS = ("closure", "closure_agreement", "para_kahler")


def prepare(document):
    """(config, structure, sample) of a config document, as the CLI builds them."""
    config = parse_config(document)
    ls = build_structure(config)
    sample = sample_points(ls.m, config.sampling["count"],
                           config.sampling["seed"],
                           p_max=config.sampling["p_max"],
                           t_max=config.coefficients["t_max"])
    return config, ls, sample


def _has_metric(ls):
    return ls.spec is not None and ls.spec.has_metric


def _has_form(ls):
    return ls.spec is not None and ls.spec.is_para_hermitian


def applicable_checks(ls):
    """Every check the structure supports, requested or not."""
    skip = set()
    if not _has_metric(ls):
        skip.update(_METRIC_CHECKS)
    if not _has_form(ls):
        skip.update(_FORM_CHECKS)
    return [c for c in CHECK_NAMES if c not in skip]


def jacobian_rel_err(f, z):
    """max |J_ad - J_fd| / max(1, max |J_fd|) for ``f`` at ``z``."""
    _, jac = ad.jacobian(f, z)
    ref = fd_oracle(f, z)
    return float(np.max(np.abs(jac - ref)) / max(1.0, np.max(np.abs(ref))))


def digits_check(cases, prepared):
    """Largest relative jacobian error against the FD oracle, P and Omega.

    Cases that build_structure must reject are left out: their coefficients
    have poles on the sampled range, where central differences themselves
    lose the digits under test.  Their wrong acceptance is counted as a verdict
    error instead.
    """
    worst = 0.0
    for case in cases:
        if case.expect_exit == EXIT_ERROR or case.name not in prepared:
            continue
        _, ls, sample = prepared[case.name]
        for pt in sample.points[1:1 + FD_POINTS]:
            z = pt.z()
            worst = max(worst, jacobian_rel_err(P_coordinate_function(ls), z))
            if _has_form(ls):
                worst = max(worst, jacobian_rel_err(Omega_coordinate(ls), z))
    return worst


class TracedRun:
    """Spans plus the residual maxima the probes saw."""

    def __init__(self):
        self.tracer = Tracer()
        self.maxima = defaultdict(float)
        self.check_points = defaultdict(int)
        self.sampled = 0

    def call(self, name, run_id, fn, *args, **kwargs):
        """One traced call; a raise is recorded on the span and swallowed."""
        try:
            with self.tracer.span(name, run_id):
                return fn(*args, **kwargs)
        except Exception:
            return None

    def note_max(self, name, value):
        if value is not None:
            self.maxima[name] = max(self.maxima[name], float(value))

    def probe_point(self, ls, pt, run_id, suffix=""):
        """Every kernel probe at one phase point; sweep probes get ``suffix``."""
        m, call = ls.m, self.call
        call("phase.make_point", run_id, make_point, m, pt.q, pt.p)
        call("spaceform.christoffel_at", run_id, christoffel_at, m, pt.q)
        call("spaceform.curvature_at", run_id, curvature_at, m, pt.q)
        self.note_max(f"spaceform.space_form_residual.max{suffix}",
                      call("spaceform.space_form_residual", run_id,
                           space_form_residual, m, pt.q))
        if not suffix:
            spec = ls.spec
            families = [f for f in (spec.a1, spec.b1, spec.a2, spec.b2,
                                    spec.c1, spec.d1, spec.c2, spec.d2)
                        if f is not None]
            call("coefficients.eval", run_id,
                 lambda: [f(pt.t) for f in families])
            call("lifted.P_adapted", run_id, P_adapted, ls, pt)
            if _has_metric(ls):
                call("lifted.G_adapted", run_id, G_adapted, ls, pt)
        z = pt.z()
        call("ad.jacobian_P", run_id, ad.jacobian, P_coordinate_function(ls), z)
        self.note_max(f"verify.nijenhuis_at.max{suffix}",
                      _max_abs(call("verify.nijenhuis_at", run_id,
                                    nijenhuis_at, ls, pt)))
        if not _has_form(ls):
            return
        omega = Omega_coordinate(ls)
        call("ad.jacobian_Omega", run_id, ad.jacobian, omega, z)
        numeric = call("verify.exterior_derivative_2form", run_id,
                       exterior_derivative_2form, omega, pt)
        analytic = call("verify.analytic_dOmega", run_id, analytic_dOmega,
                        ls, pt)
        self.note_max(f"verify.exterior_derivative_2form.max{suffix}",
                      _max_abs(numeric))
        if numeric is not None and analytic is not None:
            self.note_max(f"verify.closure_agreement.max{suffix}",
                          _max_abs(numeric - analytic))

    def run_case(self, case, workdir):
        """Parse, build, sample, run every applicable check, emit, probe.

        Returns the wall time of each requested check, keyed by check name.
        """
        run_id = f"case:{case.name}"
        call = self.call
        with self.tracer.span("bench.case", run_id):
            config = call("config.parse_config", run_id, parse_config,
                          case.document)
            ls = config and call("config.build_structure", run_id,
                                 build_structure, config)
            sample = ls and call(
                "verify.sample_points", run_id, sample_points, ls.m,
                config.sampling["count"], config.sampling["seed"],
                p_max=config.sampling["p_max"],
                t_max=config.coefficients["t_max"])
            if sample is None:
                return {}
            self.sampled += len(sample.points)
            reports = []
            for name in applicable_checks(ls):
                report = call(f"verify.check.{name}", run_id, run_check, name,
                              ls, sample, config.tolerances.get(name))
                if report is None:
                    continue
                reports.append(report)
                self.check_points[name] += report.points_sampled
                call("report.to_dict", run_id, report.to_dict)
                if name in CHECK_MAXIMA:
                    self.note_max(f"verify.check.{name}.max_residual",
                                  report.max_residual)
            document = cli.build_report_document(
                config, reports, all(r.passed for r in reports), 0.0)
            call("cli.emit_report", run_id, cli.emit_report, document,
                 workdir / f"traced-{case.name}.json")
            for pt in sample.points[:PROBE_POINTS]:
                self.probe_point(ls, pt, run_id)
        return {s.name[len("verify.check."):]: s.end - s.start
                for s in self.tracer.spans
                if s.run_id == run_id and s.name.startswith("verify.check.")
                and s.name[len("verify.check."):] in config.checks}

    def sweep(self, seed):
        """Kernel probes on the conformal ball (c = 1) for each n in the sweep."""
        for n in SWEEP_DIMS:
            run_id = f"sweep:n{n}"
            document = {
                "manifold": {"model": "conformal_ball", "n": n, "c": 1.0},
                "coefficients": {
                    "a1": {"preset": "constant", "params": {"value": 1.0}},
                    "lambda": {"preset": "affine",
                               "params": {"intercept": 1.0, "slope": 1.0}}},
                "sampling": {"count": SWEEP_POINTS,
                             "seed": derive_seed(seed, f"sweep_n{n}")},
                "checks": ["para_kahler"],
            }
            _, ls, sample = prepare(document)
            with self.tracer.span("bench.sweep", run_id):
                for pt in sample.points:
                    self.probe_point(ls, pt, run_id, suffix=f".n{n}")

    def layer_metrics(self):
        """Per-layer values by metric name, and the sample count per probe."""
        spans = self.tracer.spans
        durations = defaultdict(list)
        calls, raised, busy = (defaultdict(int), defaultdict(int),
                               defaultdict(float))
        for s, own in zip(spans, self_times(spans)):
            ms = 1e3 * (s.end - s.start)
            if s.run_id.startswith("sweep:"):
                if s.name in KERNELS:
                    dim = s.run_id[len("sweep:"):]
                    durations[f"{s.name}.ms_p50.{dim}"].append(ms)
                continue
            durations[s.name].append(ms)
            calls[s.layer] += 1
            raised[s.layer] += s.raised
            busy[s.layer] += 1e3 * own
        out = dict(self.maxima)
        for name, values in durations.items():
            if ".ms_p50.n" in name:
                out[name] = float(np.median(values))
            elif name in KERNELS:
                out[f"{name}.ms_p50"] = float(np.median(values))
                out[f"{name}.ms_tail"] = float(np.percentile(
                    values, tail_percentile(len(values))))
            elif name in P50_ONLY:
                out[f"{name}.ms_p50"] = float(np.median(values))
            elif name in ONE_SHOT:
                out[f"{name}.ms"] = sum(values)
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.raised"] = raised[layer]
            out[f"{layer}.self_ms"] = busy[layer]
        if self.sampled:
            out["verify.sample_points.ms_per_point"] = (
                sum(durations["verify.sample_points"]) / self.sampled)
        for name in TIMED_CHECKS:
            count = self.check_points.get(name)
            if count:
                out[f"verify.check.{name}.ms_per_point"] = (
                    sum(durations[f"verify.check.{name}"]) / count)
        counts = {name: len(durations[name]) for name in KERNELS}
        return out, counts


def _max_abs(array):
    return None if array is None else float(np.max(np.abs(array)))


def traced_pass(cases, prepared, workdir, seed):
    """Traced pass over the workload's cases, then the dimension sweep.

    Returns the :class:`TracedRun` and the traced check throughput over the
    same (case, check) pairs that the untraced rounds time.
    """
    traced = TracedRun()
    check_points = total = 0.0
    for case in cases:
        times = traced.run_case(case, workdir)
        if case.name in prepared:
            check_points += len(prepared[case.name][2].points) * len(times)
            total += sum(times.values())
    traced.sweep(seed)
    return traced, check_points / total
