"""Config parsing, the batch driver, report emission, exit codes."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from paralift.cli import emit_report, main, run
from paralift.config import (
    PARSER_ONLY,
    build_structure,
    parse_config,
    read_flag,
)
from paralift.errors import ConfigError, DegenerateCoefficient

MINIMAL = {
    "manifold": {"model": "conformal_ball", "n": 3, "c": 1.0},
    "coefficients": {
        "a1": {"preset": "constant", "params": {"value": 1.0}},
        "derive": {"product_completion": True, "integrability": True,
                   "metric_proportionality": True},
    },
    "checks": ["para_kahler"],
}


def small(config=None, count=10, seed=3, checks=None):
    doc = json.loads(json.dumps(config or MINIMAL))
    doc["sampling"] = {"count": count, "seed": seed}
    if checks:
        doc["checks"] = checks
    return doc


def test_minimal_config_is_valid():
    cfg = parse_config(MINIMAL)
    assert cfg.checks == ("para_kahler",)
    assert cfg.sampling["count"] == 100 and cfg.sampling["seed"] == 0
    assert cfg.coefficients["lambda"] is not None  # defaulted to constant 1
    assert cfg.coefficients["mu"] == "derived"


def test_mismatched_curvature_needs_flag():
    doc = small()
    doc["coefficients"]["curvature"] = -1.0
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert any("allow_mismatched_c" in p for p in exc.value.problems)
    doc["coefficients"]["allow_mismatched_c"] = True
    assert parse_config(doc).coefficients["curvature"] == -1.0


def test_unknown_preset_names_the_field():
    doc = small()
    doc["coefficients"]["a1"] = {"preset": "gauss", "params": {}}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert any(p.startswith("coefficients.a1.preset") for p in exc.value.problems)


def test_all_problems_reported_at_once():
    doc = {
        "manifold": {"model": "torus", "n": 1, "c": "x"},
        "coefficients": {"epsilon": 3},
        "checks": ["nope"],
        "tolerances": {"space_form": -1},
        "mystery": 1,
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    paths = "\n".join(exc.value.problems)
    for needle in ("manifold.model", "manifold.n", "manifold.c",
                   "coefficients.a1", "coefficients.epsilon", "checks[0]",
                   "tolerances.space_form", "mystery"):
        assert needle in paths, f"missing {needle} in:\n{paths}"


def test_neutral_checks_need_negative_epsilon():
    doc = small(checks=["closure"])
    doc["coefficients"]["epsilon"] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert any("epsilon" in p for p in exc.value.problems)


def test_metric_checks_need_proportionality():
    doc = small(checks=["compatibility"])
    doc["coefficients"]["derive"]["metric_proportionality"] = False
    with pytest.raises(ConfigError):
        parse_config(doc)


_METRIC_NAMES = ["para_kahler", "closure_agreement", "closure",
                 "metric_signature", "compatibility"]


@pytest.mark.parametrize("rule,defect,refused", [
    ("kind", {"kind": "cruceanu_p"}, _METRIC_NAMES),
    ("proportional", {"derive": {"product_completion": True,
                                 "integrability": True,
                                 "metric_proportionality": False}},
     _METRIC_NAMES),
    ("neutral", {"epsilon": 1}, _METRIC_NAMES[:3]),
])
def test_a_check_the_spec_cannot_serve_is_one_line_each(
        rule, defect, refused, tmp_path, capsys):
    """Each check the spec lacks the metric part or eps = -1 for is refused
    on a line of its own, in the config's order, and nothing else is."""
    from paralift.config import PARSER_ONLY
    from paralift.verify import CHECK_NAMES

    doc = small(checks=list(reversed(CHECK_NAMES)))
    if rule == "kind":
        doc["coefficients"] = defect
    else:
        doc["coefficients"].update(defect)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: " + PARSER_ONLY[rule].format(name) for name in refused]


def test_cruceanu_kind_limits_checks():
    doc = small(checks=["compatibility"])
    doc["coefficients"] = {"kind": "cruceanu_p"}
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc2 = small(checks=["almost_product", "integrability"])
    doc2["coefficients"] = {"kind": "cruceanu_p"}
    cfg = parse_config(doc2)
    ls = build_structure(cfg)
    assert ls.spec is None


@pytest.mark.parametrize("kind", ["cruceanu_p", "cruceanu_q"])
def test_cruceanu_kinds_refuse_what_they_would_not_build(kind):
    # a Cruceanu structure is built from none of these, so the report must
    # not echo them as if they were
    from paralift.config import PARSER_ONLY

    doc = small(checks=["almost_product"])
    doc["coefficients"] = {"kind": kind}
    echo = parse_config(doc).echo()["coefficients"]
    assert echo["derive"] == {"product_completion": True,
                              "integrability": False,
                              "metric_proportionality": False}
    assert echo["family"] is echo["a1"] is echo["b1"] is None
    off = {"integrability": False, "metric_proportionality": False}
    doc["coefficients"]["derive"] = off
    parse_config(doc)
    doc["coefficients"].update(
        family={"name": "rational",
                "u": {"preset": "constant", "params": {"value": 0.5}}},
        a1={"preset": "constant", "params": {"value": 5.0}},
        b1={"preset": "constant", "params": {"value": 0.3}},
        derive={key: True for key in off})
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert info.value.problems == [
        PARSER_ONLY["cruceanu"].format(key) for key in
        ("family", "a1", "b1", "derive.integrability",
         "derive.metric_proportionality")]


CHART_MODELS = {
    "ball+1": {"model": "conformal_ball", "c": 1.0},
    "ball-1": {"model": "conformal_ball", "c": -1.0},
    "flat": {"model": "flat", "c": 0.0},
    "perturbed": {"model": "perturbed_conformal", "c": 1.0, "strength": 0.1},
}


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("model", sorted(CHART_MODELS))
def test_cruceanu_q_is_the_unit_natural_diagonal(model, n):
    # kind cruceanu_q names the spec a1 = 1, b1 = 0 (P1 = g, P2 = g^-1)
    from paralift.cli import execute_checks

    def checks(coefficients):
        doc = small(count=6, seed=11, checks=["space_form", "almost_product",
                                               "integrability"])
        doc["manifold"] = {**CHART_MODELS[model], "n": n}
        doc["coefficients"] = coefficients
        return [r.to_dict() for r in execute_checks(parse_config(doc))[0]]

    one, zero = ({"preset": "constant", "params": {"value": v}}
                 for v in (1.0, 0.0))
    assert checks({"kind": "cruceanu_q"}) == checks({
        "a1": one, "b1": zero,
        "derive": {"integrability": False, "metric_proportionality": False}})


def test_family_and_a1_conflict():
    doc = small()
    doc["coefficients"]["family"] = {
        "name": "rational", "alpha": 1.0, "beta": 2.0,
        "u": {"preset": "constant", "params": {"value": 4.0}}}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert any("not allowed together" in p for p in exc.value.problems)


def test_builders_produce_working_structure():
    cfg = parse_config(small(count=5))
    ls = build_structure(cfg)
    assert ls.spec.is_para_hermitian
    assert "integrable" in ls.spec.flags


def test_run_passes_and_writes_report(tmp_path, capsys):
    cfg = parse_config(small(count=10))
    out = tmp_path / "report.json"
    status = run(replace(cfg, output=str(out)))
    assert status == 0
    text = capsys.readouterr().out
    assert "para_kahler: PASS" in text and "overall: PASS" in text
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert doc["checks"][0]["verdict"] == "pass"
    assert doc["config"]["sampling"]["seed"] == 3


def test_run_fail_exit_code(tmp_path):
    doc = small(count=10)
    doc["coefficients"]["mu"] = {"preset": "constant", "params": {"value": 0.5}}
    cfg = parse_config(doc)
    status = run(replace(cfg, output=str(tmp_path / "r.json")))
    assert status == 1
    rep = json.loads((tmp_path / "r.json").read_text())
    by_name = {c["check_name"]: c for c in rep["checks"]}
    assert by_name["para_kahler"]["verdict"] == "fail"
    assert by_name["para_kahler"]["details"]["closure_residual"] > 1e-6


def test_run_perturbed_base_fails_integrability(tmp_path):
    doc = {
        "manifold": {"model": "perturbed_conformal", "n": 3, "c": 1.0,
                     "strength": 0.1},
        "coefficients": MINIMAL["coefficients"],
        "checks": ["integrability"],
        "sampling": {"count": 10, "seed": 5},
    }
    cfg = parse_config(doc)
    assert run(replace(cfg, output=str(tmp_path / "r.json"))) == 1


def test_reports_byte_stable(tmp_path):
    cfg = parse_config(small(count=8, checks=["almost_product", "closure"]))
    path = tmp_path / "r.json"
    cfg = replace(cfg, output=str(path))
    run(cfg)
    da = json.loads(path.read_text())
    run(cfg)
    db = json.loads(path.read_text())
    da.pop("timing")
    db.pop("timing")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_report_round_trips_residuals(tmp_path):
    cfg = parse_config(small(count=8, checks=["integrability"]))
    from paralift.cli import build_report_document, execute_checks
    reports, ok = execute_checks(cfg)
    document = build_report_document(cfg, reports, ok, 0.0)
    emit_report(document, tmp_path / "r.json")
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded["checks"][0]["max_residual"] == reports[0].max_residual
    for w_loaded, w_obj in zip(loaded["checks"][0]["witnesses"],
                               reports[0].witnesses):
        assert w_loaded["residual"] == w_obj["residual"]
    assert len(loaded["checks"][0]["witnesses"]) <= 3


def test_report_numbers_all_finite(tmp_path):
    cfg = parse_config(small(count=8))
    run(replace(cfg, output=str(tmp_path / "r.json")))

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        elif isinstance(x, float):
            assert math.isfinite(x)

    walk(json.loads((tmp_path / "r.json").read_text()))


def test_main_verify_and_overrides(tmp_path, capsys):
    # each flag replaces one field of the file; an override merges into the
    # file's tolerances, and the report echoes the path it was written to
    path = tmp_path / "cfg.json"
    doc = small(count=30)
    doc.update(tolerances={"para_kahler": 1e-7, "almost_product": 1e-9},
               output=str(tmp_path / "file.json"))
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    status = main(["verify", str(path), "--samples", "6", "--seed", "9",
                   "--out", str(out), "--tol-override", "para_kahler=1e-5"])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["sampling"]["count"] == 6
    assert doc["config"]["sampling"]["seed"] == 9
    assert doc["config"]["tolerances"] == {"para_kahler": 1e-5,
                                           "almost_product": 1e-9}
    assert doc["config"]["output"] == str(out)
    assert doc["checks"][0]["seed"] == 9
    assert not (tmp_path / "file.json").exists()


def test_main_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    bad = small()
    bad["coefficients"]["curvature"] = -1.0
    path.write_text(json.dumps(bad))
    assert main(["verify", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_domain_error_exit_2(tmp_path, capsys):
    # integrability derivation for c = -1 with a1 = 1 degenerates inside
    # the default t range; surfaces as a diagnostic, not a crash
    path = tmp_path / "cfg.json"
    doc = {
        "manifold": {"model": "conformal_ball", "n": 3, "c": -1.0},
        "coefficients": MINIMAL["coefficients"],
        "checks": ["integrability"],
        "sampling": {"count": 5, "seed": 1},
    }
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "DegenerateCoefficient" in capsys.readouterr().err


def test_starved_sampler_exit_2(tmp_path, capsys):
    # no draw but the first, at p = 0, has t <= 1e-9; this used to end in a
    # RuntimeError traceback and exit status 1, which means a failed check
    doc = small(count=5, checks=["almost_product"])
    doc["coefficients"]["t_max"] = 1e-9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RangeError: sampler starved: 1 of 5 points")
    assert err.count("\n") == 1
    assert not out.exists()


def test_double_root_coefficient_exit_2(tmp_path, capsys):
    # a1 = (t - 0.5)^2 touches zero between two validation grid points
    doc = small(checks=["almost_product"])
    doc["coefficients"] = {
        "a1": {"preset": "polynomial", "params": {"coeffs": [0.25, -1.0, 1.0]}},
        "b1": {"preset": "constant", "params": {"value": 0.0}},
        "derive": {"integrability": False, "metric_proportionality": False},
    }
    with pytest.raises(DegenerateCoefficient, match="a1 vanishes near t = 0.5"):
        build_structure(parse_config(doc))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "DegenerateCoefficient" in capsys.readouterr().err


def test_infinite_coefficient_exit_2(tmp_path, capsys):
    # a1 = exp(400 t) overflows for t >= 1.78; samples with |p| <= 1 stay
    # below that, so only the grid guard can see it
    doc = small(checks=["almost_product"])
    doc["sampling"]["p_max"] = 1.0
    doc["coefficients"] = {
        "a1": {"preset": "exponential",
               "params": {"amplitude": 1.0, "rate": 400.0}},
        "b1": {"preset": "constant", "params": {"value": 0.0}},
        "derive": {"integrability": False, "metric_proportionality": False},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    # the one-line error and nothing else: no numpy overflow warning ahead
    # of it (tier-1 also turns any RuntimeWarning into an error)
    assert capsys.readouterr().err == (
        "error: DegenerateCoefficient: a1 is not finite at t = 1.77778\n")


def test_underflowing_alpha_beta_exit_2(tmp_path, capsys):
    # alpha beta = -1e-600 rounds to -0.0, so b1 = u/(alpha beta) used to
    # end the run in a ZeroDivisionError traceback with exit 1
    doc = small(checks=["almost_product"])
    doc["coefficients"] = {"family": {
        "name": "rational", "alpha": -1e-300, "beta": 1e-300,
        "u": {"preset": "constant", "params": {"value": 4.0}}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: DegenerateCoefficient: alpha beta = -1e-300 * 1e-300 "
        "underflows to 0\n")
    assert not out.exists()


def test_huge_coefficient_passes_quietly(tmp_path, capsys):
    # a1 = 1e300 on the flat model: the guard's sign test multiplied
    # neighbouring grid values, which overflowed and warned on a correct
    # PASS (tier-1 turns that RuntimeWarning into an error)
    doc = small(checks=["space_form", "almost_product", "integrability",
                        "compatibility", "para_kahler"])
    doc["manifold"] = {"model": "flat", "n": 3, "c": 0.0}
    doc["coefficients"]["a1"]["params"]["value"] = 1e300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(path), "--out", str(out)]) == 0
    assert not caught and capsys.readouterr().err == ""
    assert {c["max_residual"] for c in json.loads(out.read_text())["checks"]
            } == {0.0}


def test_huge_coefficient_has_its_signature(tmp_path, capsys):
    # a1 = 1e300 scales G's second block by 1e-300; the census compared its
    # eigenvalues with an absolute 1e-10, found no sign and failed
    # metric_signature at every point of this neutral metric
    checks = ["space_form", "almost_product", "integrability",
              "compatibility", "metric_signature", "para_kahler"]
    doc = small(seed=1, checks=checks)
    doc["manifold"] = {"model": "flat", "n": 3, "c": 0.0}
    doc["coefficients"]["a1"]["params"]["value"] = 1e300
    doc["coefficients"]["lambda"] = {"preset": "constant",
                                     "params": {"value": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(path), "--out", str(out)]) == 0
    assert not caught and capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert [(c["check_name"], c["verdict"]) for c in report["checks"]] == [
        (name, "pass") for name in checks]


def test_main_missing_file_exit_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    assert main(["verify", __file__]) == 2  # not JSON


def test_main_bad_tol_override(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small()))
    assert main(["verify", str(path), "--tol-override", "bogus"]) == 2
    assert main(["verify", str(path), "--tol-override", "nope=1"]) == 2


@pytest.mark.parametrize("section,key,value", [
    ("sampling", "p_max", math.nan),
    ("tolerances", "almost_product", math.nan),
    ("manifold", "chart_radius", math.inf),
    ("coefficients", "t_max", math.inf),
    ("manifold", "c", -10 ** 400),  # an integer no float can hold
], ids=["p_max_nan", "tolerance_nan", "chart_radius_inf", "t_max_inf",
        "c_huge_integer"])
def test_non_finite_config_number_exit_2(tmp_path, capsys, section, key, value):
    # json.loads reads NaN and Infinity; the parser must refuse them before
    # any check runs (a NaN once reached the report writer and crashed it)
    doc = small(checks=["almost_product"])
    doc.setdefault(section, {})[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {section}.{key}: must be finite\n")
    assert not out.exists()


@pytest.mark.parametrize("text,problem", [
    ("-1", "expected a nonnegative number"),
    ("nan", "must be finite"),
    ("inf", "must be finite"),
    ("1e-x", "expected a number"),
], ids=["negative", "nan", "inf", "not_a_number"])
def test_tolerance_rule_is_shared_by_file_and_override(tmp_path, capsys, text,
                                                       problem):
    path = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    path.write_text(json.dumps(small(checks=["almost_product"])))
    argv = ["verify", str(path), "--out", str(out)]
    assert main(argv + ["--tol-override", f"almost_product={text}"]) == 2
    assert capsys.readouterr().err == (
        f"config error: --tol-override almost_product: {problem}\n")
    doc = small(checks=["almost_product"])
    try:
        doc["tolerances"] = {"almost_product": float(text)}
    except ValueError:
        doc["tolerances"] = {"almost_product": text}
    path.write_text(json.dumps(doc))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: tolerances.almost_product: {problem}\n")
    assert not out.exists()


@pytest.mark.parametrize("manifold,rule", [
    ({"c": 1.0, "chart_radius": 1e200}, "overflow"),
    ({"c": -1.0, "chart_radius": 1e200}, "overflow"),
    ({"model": "perturbed_conformal", "c": 1.0, "strength": -2.0},
     "perturbed"),
], ids=["sphere_radius_1e200", "hyperbolic_radius_1e200",
        "perturbed_factor_vanishes"])
def test_singular_or_overflowing_chart_exit_2(tmp_path, capsys, manifold,
                                              rule):
    # refused when the config is read, whatever the seed: a radius whose
    # square overflows once raised OverflowError (exit 1), and a factor
    # 1 + strength x_0 vanishing at x_0 = 0.5 failed only the seeds whose
    # sample reached it
    doc = small(count=5, checks=["almost_product"])
    doc["manifold"].update(manifold)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for seed in range(1, 11):
        assert main(["verify", str(path), "--seed", str(seed),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {PARSER_ONLY[rule]}\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("radius", [1e100, 1e80])
def test_chart_where_inverse_phi_overflows_exit_2(tmp_path, capsys, radius):
    # at c = +1, phi = 1/(1 + |x|^2/4)^2 underflows far out on such a ball:
    # the p = 0 draw once had t = 0 inf = NaN, which the sampler's test
    # t > t_max let through, and every check failed at nan (exit 1) after
    # numpy's divide warnings
    doc = small(checks=["almost_product", "compatibility", "integrability"])
    doc["manifold"]["chart_radius"] = radius
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for count in (1, 5):
            for seed in range(1, 6):
                assert main(["verify", str(path), "--seed", str(seed),
                             "--samples", str(count),
                             "--out", str(tmp_path / "r.json")]) == 2
                assert capsys.readouterr().err == (
                    f"config error: {PARSER_ONLY['factor']}\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "r.json").exists()


def test_overflowing_energy_density_is_rejected_quietly(tmp_path, capsys):
    # with p_max = 1e200 every draw past the first (p = 0) has a t that
    # overflows: past t_max, with no numpy overflow warning
    doc = small(count=5, checks=["almost_product"])
    doc["sampling"]["p_max"] = 1e200
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(path), "--out",
                     str(tmp_path / "r.json")]) == 2
        assert "sampler starved: 1 of 5 points" in capsys.readouterr().err
        assert main(["verify", str(path), "--samples", "1", "--out",
                     str(tmp_path / "r.json")]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_boolean_epsilon_exit_2(tmp_path, capsys):
    # True == 1 in Python, but a JSON boolean is not the number +1
    doc = small(checks=["almost_product"])
    doc["coefficients"]["epsilon"] = True
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "coefficients.epsilon: must be -1 or +1" in capsys.readouterr().err


@pytest.mark.parametrize("a1,problem", [
    ({"preset": "constant", "params": {"value": "1.5"}},
     "params.value: expected a number"),
    ({"preset": "constant", "params": {"value": True}},
     "params.value: expected a number"),
    ({"preset": "constant", "params": {"value": 10 ** 400}},
     "params.value: must be finite"),
    ({"preset": "polynomial", "params": {"coeffs": "12"}},
     "params.coeffs: expected a nonempty list of numbers"),
    ({"preset": "constant", "params": {"value": 1.0, "valu": 2}},
     "params.valu: unknown parameter for preset 'constant' (takes ['value'])"),
], ids=["string", "boolean", "huge_integer", "coeffs_string", "unknown"])
def test_preset_parameters_follow_the_number_rule(tmp_path, capsys, a1,
                                                  problem):
    # each used to run and echo the value, silently read "12" as 1 + 2t,
    # die with an OverflowError, or add a second line for the unknown key
    preset = (Path(__file__).resolve().parent.parent / "src" / "paralift"
              / "presets" / "unit_coefficients.json")
    doc = json.loads(preset.read_text())
    doc["coefficients"]["a1"] = a1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: coefficients.a1.{problem}\n")
    assert not out.exists()


def test_unknown_key_of_a_scalar_preset_exit_2(tmp_path, capsys):
    # a key beside "preset" and "params" used to be ignored silently
    doc = small(checks=["almost_product"])
    doc["coefficients"]["a1"]["x"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: coefficients.a1.x: unknown field\n")
    assert not out.exists()


def test_unhashable_preset_name_is_a_config_error():
    # a list as the preset name used to raise TypeError out of the parser
    doc = small()
    doc["coefficients"]["a1"] = {"preset": [], "params": {}}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.problems == [
        "coefficients.a1.preset: unknown preset []; valid: "
        "['affine', 'constant', 'exponential', 'polynomial']"]


# A scalar preset given as a1, and the problems that follow "coefficients.a1":
# the parameters are read by their FIELDS rows in table order, then unknown
# names sorted.
SCALAR_PROBLEMS = {
    "coeffs_items": ({"preset": "polynomial",
                      "params": {"coeffs": [1.0, "x", math.inf]}},
                     [".params.coeffs[1]: expected a number",
                      ".params.coeffs[2]: must be finite"]),
    "coeffs_empty": ({"preset": "polynomial", "params": {"coeffs": []}},
                     [".params.coeffs: expected a nonempty list of numbers"]),
    "missing": ({"preset": "affine", "params": {"slope": 1.0}},
                [".params.intercept: required parameter"]),
    "missing_and_unknown": ({"preset": "constant", "params": {"valu": 1.0}},
                            [".params.value: required parameter",
                             ".params.valu: unknown parameter for preset "
                             "'constant' (takes ['value'])"]),
    "table_order": ({"preset": "affine", "params": {
        "z": 1, "slope": "x", "intercept": None, "b": 2}},
        [".params.intercept: expected a number",
         ".params.slope: expected a number",
         ".params.b: unknown parameter for preset 'affine' (takes "
         "['intercept', 'slope'])",
         ".params.z: unknown parameter for preset 'affine' (takes "
         "['intercept', 'slope'])"]),
    "exponential_defaults_unfilled": ({"preset": "exponential",
                                       "params": {"rate": True}},
                                      [".params.rate: expected a number"]),
    "not_an_object": (5.0, [": expected an object with 'preset' and "
                            "'params'"]),
    "params_null": ({"preset": "constant", "params": None},
                    [".params: expected an object"]),
    "preset_unknown": ({"preset": "gauss", "params": {"value": 1.0}, "x": 1},
                       [".preset: unknown preset 'gauss'; valid: ['affine', "
                        "'constant', 'exponential', 'polynomial']",
                        ".x: unknown field"]),
}


@pytest.mark.parametrize("name", sorted(SCALAR_PROBLEMS))
def test_preset_parameter_problems(name):
    scalar, problems = SCALAR_PROBLEMS[name]
    doc = small()
    doc["coefficients"]["a1"] = scalar
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.problems == [f"coefficients.a1{p}" for p in problems]


def test_parsing_builds_no_scalar_family(monkeypatch):
    """The parser reads a preset's parameters by its FIELDS rows alone: with
    every factory refusing to run, each shipped preset still parses, echoing
    its params as given, and each scalar problem reads the same lines."""
    from paralift import coefficients

    def refuse(**params):
        raise AssertionError("the parser built a scalar family")

    for name in coefficients.SCALAR_PRESETS:
        monkeypatch.setitem(coefficients.SCALAR_PRESETS, name, refuse)
    base = Path(__file__).resolve().parent.parent / "src" / "paralift"
    for path in sorted((base / "presets").glob("*.json")):
        doc = json.loads(path.read_text())
        echo = parse_config(doc).echo()["coefficients"]
        for key in ("a1", "lambda", "mu"):
            assert echo[key] == doc["coefficients"].get(key, echo[key])
    doc = small()
    doc["coefficients"]["a1"] = {"preset": "exponential", "params": {}}
    assert parse_config(doc).coefficients["a1"]["params"] == {}
    for scalar, problems in SCALAR_PROBLEMS.values():
        doc["coefficients"]["a1"] = scalar
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.problems == [f"coefficients.a1{p}" for p in problems]


def test_manifold_dimension_is_bounded(tmp_path, capsys):
    # a huge n used to reach the sampler and die with a numpy traceback
    doc = small(checks=["almost_product"])
    doc["manifold"]["n"] = 10 ** 30
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: manifold.n: must be at most 32\n")
    assert not out.exists()
    doc["manifold"]["n"] = 32
    assert parse_config(doc).manifold["n"] == 32


def test_sample_count_is_bounded():
    # a huge count used to reach the sampler, which drew until memory ran
    # out; the file and the --samples flag are refused as they are parsed
    doc = small()
    doc["sampling"]["count"] = 10 ** 30
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.problems == ["sampling.count: must be at most 10000"]
    problems = []
    assert read_flag("sampling", "count", 10 ** 30, "--samples",
                     problems) == 100
    assert problems == ["--samples: must be at most 10000"]
    doc["sampling"]["count"] = 10_000
    assert parse_config(doc).sampling["count"] == 10_000
    assert read_flag("sampling", "count", 10_000, "--samples",
                     problems) == 10_000


def _drop_manifold_defaults(doc):
    doc["manifold"] = {}


def _a1_params(preset, params):
    def edit(doc):
        doc["coefficients"]["a1"] = {"preset": preset, "params": params}
    return edit


def _family(**fields):
    def edit(doc):
        coefficients = doc["coefficients"]
        del coefficients["a1"]
        coefficients["derive"].pop("integrability")
        coefficients["family"] = {
            "name": "rational",
            "u": {"preset": "constant", "params": {"value": 0.5}}, **fields}
    return edit


@pytest.mark.parametrize("edit,accepted", [
    (lambda doc: None, True),
    (lambda doc: doc["coefficients"].update(epsilon=True), False),
    (lambda doc: doc["coefficients"].update(epsilon=1), True),
    (_drop_manifold_defaults, True),
    (lambda doc: doc["manifold"].pop("c"), True),
    (lambda doc: doc.update(tolerances={"almost_product": 1e-9}), True),
    (lambda doc: doc.update(tolerances={"nope": 1e-9}), False),
    (lambda doc: doc.update(tolerances={"closure": -1}), False),
    (lambda doc: doc.update(sampling=None), True),
    (lambda doc: doc.update(tolerances=None), True),
    (lambda doc: doc.update(output=None), True),
    (lambda doc: doc["manifold"].update(n=32), True),
    (lambda doc: doc["manifold"].update(n=33), False),
    (_a1_params("constant", {"value": "1.5"}), False),
    (_a1_params("constant", {"value": 1.0, "valu": 2}), False),
    (_a1_params("affine", {"slope": 1.0}), False),
    (_a1_params("polynomial", {"coeffs": "12"}), False),
    (_a1_params("polynomial", {"coeffs": []}), False),
    (_a1_params("polynomial", {"coeffs": [1.0, "x"]}), False),
    (_a1_params("polynomial", {"coeffs": [1.0, 0.5]}), True),
    (_a1_params("exponential", {}), True),
    (_a1_params("exponential", {"rate": "1"}), False),
    (_family(alpha=2.0), True),
    (_family(alpha=0), False),
    (_family(beta=0.0), False),
    (lambda doc: doc["coefficients"]["a1"].update(x=1), False),
    (lambda doc: doc["coefficients"].update(family=None), True),
    (lambda doc: doc.update(coefficients={"kind": "cruceanu_p",
                                          "a1": "garbage", "b1": 5}), False),
], ids=["as_is", "epsilon_true", "epsilon_one", "manifold_defaults",
        "manifold_without_c", "tolerance", "tolerance_unknown_check",
        "tolerance_negative", "sampling_null", "tolerances_null",
        "output_null", "n_32", "n_33", "param_string", "param_unknown",
        "param_missing", "coeffs_string", "coeffs_empty", "coeffs_item",
        "coeffs", "exponential_defaults", "exponential_string",
        "family", "family_alpha_zero", "family_beta_zero",
        "scalar_unknown_key", "family_null", "cruceanu_garbage_a1_b1"])
def test_parser_and_schema_agree(edit, accepted):
    import jsonschema

    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "schemas"
         / "config.schema.json").read_text())
    doc = small(checks=["almost_product"])
    edit(doc)
    try:
        parse_config(doc)
        parsed = True
    except ConfigError:
        parsed = False
    assert parsed is accepted
    assert jsonschema.Draft202012Validator(schema).is_valid(doc) is accepted


@pytest.mark.parametrize("name", ["config", "report"])
def test_schemas_are_valid_draft_2020_12(name):
    import jsonschema

    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "schemas"
         / f"{name}.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)


def test_presets_subcommand(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:5] == [
        "scalar presets (usable for a1, b1, lambda, mu, family.u):",
        "  affine: params ['intercept', 'slope']",
        "  constant: params ['value']",
        "  exponential: params ['amplitude', 'rate']",
        "  polynomial: params ['coeffs']"]
    assert "rational" in out
    assert out.count(".json") >= 4


def test_shipped_presets_run_green(tmp_path, capsys):
    from importlib import resources

    base = resources.files("paralift") / "presets"
    for item in sorted(base.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".json"):
            continue
        cfg_path = tmp_path / item.name
        cfg_path.write_text(item.read_text())
        out = tmp_path / (item.name + ".report.json")
        status = main(["verify", str(cfg_path), "--samples", "10",
                       "--out", str(out)])
        assert status == 0, f"{item.name} failed"
        assert json.loads(out.read_text())["all_passed"] is True


def test_shipped_preset_configs_parse_and_validate_schema():
    import jsonschema
    from importlib import resources

    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "schemas"
         / "config.schema.json").read_text())
    base = resources.files("paralift") / "presets"
    names = [item.name for item in base.iterdir() if item.name.endswith(".json")]
    assert len(names) == 4
    for name in names:
        doc = json.loads((base / name).read_text())
        jsonschema.validate(doc, schema)
        parse_config(doc)


def test_emitted_report_validates_schema(tmp_path):
    import jsonschema

    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "schemas"
         / "report.schema.json").read_text())
    cfg = parse_config(small(count=6, checks=["almost_product",
                                              "metric_signature"]))
    run(replace(cfg, output=str(tmp_path / "r.json")))
    jsonschema.validate(json.loads((tmp_path / "r.json").read_text()), schema)


@pytest.mark.parametrize("flag,value,key,problem", [
    ("--samples", "0", "count", "must be at least 1"),
    ("--samples", "-3", "count", "must be at least 1"),
    ("--seed", "-1", "seed", "must be at least 0"),
], ids=["samples_zero", "samples_negative", "seed_negative"])
def test_sampling_rules_are_shared_by_file_and_flags(tmp_path, capsys, flag,
                                                     value, key, problem):
    # rational_para_hermitian has no space_form check, which alone used to
    # refuse an empty sample: --samples 0 passed vacuously
    preset = (Path(__file__).resolve().parent.parent / "src" / "paralift"
              / "presets" / "rational_para_hermitian.json")
    out = tmp_path / "r.json"
    assert main(["verify", str(preset), "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"config error: {flag}: {problem}\n"
    doc = json.loads(preset.read_text())
    doc["sampling"][key] = int(value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: sampling.{key}: {problem}\n")
    assert not out.exists()


def test_config_problems_of_every_stage_are_reported_together(tmp_path, capsys):
    # the override, the file and the --seed problems all print, in that
    # order, and no check runs (each stage used to hide the ones after it)
    preset = (Path(__file__).resolve().parent.parent / "src" / "paralift"
              / "presets" / "rational_product.json")
    doc = json.loads(preset.read_text())
    doc["extra"] = 1
    doc["sampling"]["count"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out), "--tol-override",
                 "almost_product=-1", "--samples", "0", "--seed", "-2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: --tol-override almost_product: expected a nonnegative number",
        "config error: extra: unknown top-level field",
        "config error: sampling.count: must be at least 1",
        "config error: --seed: must be at least 0",
        "config error: --samples: must be at least 1",
    ]
    assert not out.exists()


def test_section_problems_follow_the_table_then_unknown_keys_sorted():
    # every section reads its rows in table order, then its unknown keys
    # sorted, whatever the document's order
    doc = small()
    doc["coefficients"]["derive"] = {"zzz": True, "metric_proportionality": 1,
                                     "bogus": True, "integrability": 3}
    doc["tolerances"] = {"zzz": 1, "para_kahler": -1, "closure": "x",
                         "aaa": 0}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    flag = ("unknown flag; valid: ['integrability', 'metric_proportionality',"
            " 'product_completion']")
    assert exc.value.problems == [
        "coefficients.derive.integrability: expected a boolean",
        "coefficients.derive.metric_proportionality: expected a boolean",
        f"coefficients.derive.bogus: {flag}",
        f"coefficients.derive.zzz: {flag}",
        "tolerances.closure: expected a number",
        "tolerances.para_kahler: expected a nonnegative number",
        "tolerances.aaa: unknown check name",
        "tolerances.zzz: unknown check name",
    ]


@pytest.mark.parametrize("output,flags,err", [
    ("", [], "config error: output: expected a nonempty path\n"),
    (None, ["--seed", "-1", "--out", ""],
     "config error: --seed: must be at least 0\n"
     "config error: --out: expected a nonempty path\n"),
], ids=["file", "flag"])
def test_empty_report_path_exit_2(tmp_path, monkeypatch, capsys, output,
                                  flags, err):
    # an empty path used to write report.json while the report echoed ""
    monkeypatch.chdir(tmp_path)
    doc = small(checks=["almost_product"])
    doc["output"] = output
    Path("cfg.json").write_text(json.dumps(doc))
    assert main(["verify", "cfg.json", *flags]) == 2
    assert capsys.readouterr().err == err
    assert [item.name for item in tmp_path.iterdir()] == ["cfg.json"]


def test_missing_parameter_is_reported_beside_an_invalid_one(tmp_path, capsys):
    # the missing intercept used to go unreported while slope was invalid;
    # each parameter is named by its path, in the preset's table order
    doc = small(checks=["almost_product"])
    doc["coefficients"]["a1"] = {"preset": "affine", "params": {"slope": "x"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: coefficients.a1.params.intercept: required parameter\n"
        "config error: coefficients.a1.params.slope: expected a number\n")
    assert not out.exists()


def test_checks_in_turn_report_as_fresh_runs():
    # A, B, A share the cached constants of n = 3; each run's reports equal
    # those of a run that built every constant anew
    from paralift import ad
    from paralift.cli import execute_checks

    presets = (Path(__file__).resolve().parent.parent / "src" / "paralift"
               / "presets")
    docs = {}
    for name in ("rational_para_kahler", "unit_coefficients"):
        docs[name] = json.loads((presets / f"{name}.json").read_text())
        docs[name]["sampling"]["count"] = 12

    def reports(name):
        reps, _ = execute_checks(parse_config(docs[name]))
        return [r.to_dict() for r in reps]

    fresh = {}
    for name in docs:
        ad.constant.cache_clear()
        fresh[name] = reports(name)
    for name in ("rational_para_kahler", "unit_coefficients",
                 "rational_para_kahler"):
        assert reports(name) == fresh[name], name
