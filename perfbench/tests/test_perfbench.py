"""Tests of the benchmark's own machinery, at a tiny size."""

import dataclasses
import json
import os

import jsonschema
import pytest

import measure
from hostspeed import REFERENCE_S, HostSpeed
from spans import Span, Tracer, self_times, tail_percentile
from workloads import EXIT_PASS, FAIL, PASS, Case

ROOT = measure._HERE.parent


def _tiny_case(expect):
    document = {
        "manifold": {"model": "flat", "n": 3, "c": 0.0},
        "coefficients": {"a1": {"preset": "constant",
                                "params": {"value": 1.0}}},
        "sampling": {"count": 3, "seed": 7},
        "checks": ["almost_product", "compatibility"],
    }
    return Case(name="tiny", document=document, expect_exit=EXIT_PASS,
                expect=expect)


def _one_round(case, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    validator = jsonschema.Draft202012Validator(json.loads(
        (ROOT / "schemas" / "report.schema.json").read_text()))
    run = measure.WorkloadRun((case,), tmp_path,
                              env, validator)
    run.warm_up()
    run.run_round()
    assert run.problems == []
    return run.tally


def test_right_expectations_give_zero_error_rate(tmp_path):
    tally = _one_round(_tiny_case({"almost_product": PASS,
                                   "compatibility": PASS}), tmp_path)
    assert tally.attempted == 9  # execute_checks, CLI, in-process: 3 each
    assert tally.error_rate == 0.0


def test_wrong_expectation_entry_raises_error_rate(tmp_path):
    case = _tiny_case({"almost_product": PASS, "compatibility": FAIL})
    tally = _one_round(case, tmp_path)
    assert tally.failed == 3  # the one wrong entry, on each of the 3 paths
    assert tally.error_rate == pytest.approx(3 / 9)
    wrong_exit = dataclasses.replace(case, expect_exit=2,
                                     expect={"almost_product": PASS})
    assert _one_round(wrong_exit, tmp_path).error_rate == pytest.approx(3 / 6)


def test_chunked_in_process_reports_merge_to_the_cli_report(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(measure, "CHUNK_POINTS", 1)
    tally = _one_round(_tiny_case({"almost_product": PASS,
                                   "compatibility": PASS}), tmp_path)
    assert tally.error_rate == 0.0


def test_samples_scale_by_the_median_of_nearby_readings():
    readings = iter([0.010, 0.020, 0.012, 0.030, 0.012, 0.050])
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    host = HostSpeed(read=lambda: next(readings), clock=lambda: next(clock))
    host.WINDOW_S = 1.0
    for _ in range(6):
        host.mark()
    # Sample 2 runs from t = 2 to t = 3: readings from t = 1 to 4 count.
    assert host.scale(1.0, 2) == pytest.approx(REFERENCE_S / 0.016)
    assert host.scale(1.0, 0) == pytest.approx(REFERENCE_S / 0.012)
    # Sample 3 (t = 3 to 4) leaves out the readings at t = 0, 1 and 10.
    assert host.scale(2.0, 3) == pytest.approx(2 * REFERENCE_S / 0.012)
    # The last reading has no later one; its own time bounds the window.
    assert host.scale(1.0, 5) == pytest.approx(REFERENCE_S / 0.050)


def test_short_samples_share_a_reading():
    now = [0.0]
    host = HostSpeed(read=lambda: 0.01, clock=lambda: now[0])
    host.mark()
    for now[0] in (0.05, 0.1, 0.15, 0.25, 0.3):
        host.mark_if_due()
    assert host.times == [0.0, 0.25]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("bench.root", 0.0, 10.0, None, "r"),
        Span("verify.a", 1.0, 4.0, 0, "r"),
        Span("verify.b", 3.0, 6.0, 0, "r"),   # overlaps a
        Span("ad.leaf", 2.0, 3.0, 1, "r"),    # grandchild: covers a only
        Span("phase.c", 8.0, 12.0, 0, "r"),   # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_records_parents_and_raises():
    tracer = Tracer()
    with tracer.span("bench.case", "case:x"):
        with tracer.span("config.parse_config", "case:x"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("config.build_structure", "case:x"):
                raise ValueError("rejected")
    parents = [s.parent for s in tracer.spans]
    assert parents == [None, 0, 0]
    assert [s.raised for s in tracer.spans] == [False, False, True]
    assert all(s.end >= s.start for s in tracer.spans)
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(
        (tracer.spans[0].end - tracer.spans[0].start)
        - sum(s.end - s.start for s in tracer.spans[1:]))


@pytest.mark.parametrize("count, pct", [(0, 50.0), (15, 50.0), (20, 50.0),
                                        (40, 75.0), (100, 90.0)])
def test_tail_percentile_keeps_ten_samples_beyond(count, pct):
    assert tail_percentile(count) == pct
