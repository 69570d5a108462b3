"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; n = 3 throughout and the whole module runs
in well under a minute.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import json
from dataclasses import replace

import numpy as np

from paralift import (
    LiftedStructure,
    ad,
    affine,
    conformal_ball,
    constant,
    fd_oracle,
    flat_space,
    integrable_spec,
    perturbed_conformal,
    polynomial,
    rational_spec,
    run_check,
    sample_points,
    with_metric,
)
from paralift.cli import execute_checks, run
from paralift.config import parse_config
from paralift.lifted import (
    G_adapted,
    Omega_coordinate,
    P_adapted,
    P_coordinate_function,
)
from paralift.verify import (
    analytic_dOmega,
    exterior_derivative_2form,
    nijenhuis_at,
)

FD_STEP = 1e-5
FD_RTOL = 1e-6


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _base(c, n=3):
    return flat_space(n) if c == 0.0 else conformal_ball(n, c)


def _max_p_square_residual(ls, sample):
    eye = np.eye(2 * ls.m.n)
    return max(float(np.max(np.abs(P_adapted(ls, pt) @ P_adapted(ls, pt) - eye)))
               for pt in sample.points)


def test_criterion_1_almost_product():
    # rational family, alpha=1, beta=2, u(t)=t, over c in {-1, 0, 1}
    worst = 0.0
    for c in (-1.0, 0.0, 1.0):
        m = conformal_ball(3, c) if c != 0.0 else conformal_ball(3, 0.0)
        spec = rational_spec(1.0, 2.0, polynomial([0.0, 1.0]))
        ls = LiftedStructure(m=m, spec=spec)
        worst = max(worst, _max_p_square_residual(ls, sample_points(m, 100, 101)))
    ok = worst <= 1e-11

    m = conformal_ball(3, 1.0)
    spec = rational_spec(1.0, 2.0, polynomial([0.0, 1.0]))
    bad = LiftedStructure(m=m, spec=replace(spec, b2=spec.b2 * 1.1))
    neg = _max_p_square_residual(bad, sample_points(m, 100, 101))
    ok = ok and neg > 1e-6
    _verdict(1, ok, f"P^2 = I residual {worst:.2e} <= 1e-11; "
                    f"+10% b2 residual {neg:.2e} > 1e-6")


def test_criterion_2_integrability():
    worst = 0.0
    for c, t_max in ((-1.0, 0.4), (1.0, 2.0), (0.0, 2.0)):
        m = _base(c)
        spec = integrable_spec(constant(1.0), curvature=c, t_max=t_max)
        ls = LiftedStructure(m=m, spec=spec)
        sample = sample_points(m, 30, 202, t_max=t_max)
        rep = run_check("integrability", ls, sample, 1e-8)
        worst = max(worst, rep.max_residual)
    ok = worst <= 1e-8

    m = conformal_ball(3, 1.0)
    spec = integrable_spec(constant(1.0), curvature=1.0)
    sample = sample_points(m, 10, 202)

    perturbed = LiftedStructure(m=m, spec=replace(spec, b1=spec.b1 * 1.1))
    r_perturbed = run_check("integrability", perturbed, sample,
                            1e-6).max_residual

    m_neg = conformal_ball(3, -1.0)
    mismatched = LiftedStructure(m=m_neg, spec=spec)
    r_mismatch = run_check("integrability", mismatched,
                           sample_points(m_neg, 10, 202), 1e-6).max_residual

    m_pert = perturbed_conformal(3, 1.0, 0.1)
    bad_base = LiftedStructure(m=m_pert, spec=spec)
    r_base = run_check("integrability", bad_base,
                       sample_points(m_pert, 10, 202), 1e-6).max_residual

    ok = ok and min(r_perturbed, r_mismatch, r_base) > 1e-6
    _verdict(2, ok, f"N_P residual {worst:.2e} <= 1e-8; necessity residuals "
                    f"(b1 {r_perturbed:.2e}, wrong c {r_mismatch:.2e}, "
                    f"perturbed base {r_base:.2e}) all > 1e-6")


def test_criterion_3_cruceanu_preset():
    flat = flat_space(3)
    ls_flat = LiftedStructure(m=flat)
    r_flat = max(float(np.max(np.abs(nijenhuis_at(ls_flat, pt))))
                 for pt in sample_points(flat, 30, 303).points)
    curved = conformal_ball(3, 1.0)
    ls_curved = LiftedStructure(m=curved)
    r_curved = max(float(np.max(np.abs(nijenhuis_at(ls_curved, pt))))
                   for pt in sample_points(curved, 30, 303).points)
    ok = r_flat <= 1e-11 and r_curved > 1e-3
    _verdict(3, ok, f"sign-split preset: N = {r_flat:.2e} on the flat base, "
                    f"{r_curved:.2e} > 1e-3 on curvature 1")


def test_criterion_4_compatibility():
    m = conformal_ball(3, 1.0)
    sample = sample_points(m, 100, 404)

    spec_neg = with_metric(rational_spec(1.0, 2.0, polynomial([0.0, 1.0])),
                           constant(1.0), constant(0.0))
    ls_neg = LiftedStructure(m=m, spec=spec_neg)
    r_neg = run_check("compatibility", ls_neg, sample, 1e-11).max_residual

    spec_pos = with_metric(integrable_spec(constant(1.0), curvature=1.0,
                                           epsilon=1),
                           constant(1.0), constant(0.0))
    ls_pos = LiftedStructure(m=m, spec=spec_pos)
    r_pos = run_check("compatibility", ls_pos, sample, 1e-11).max_residual

    signature_ok = all(
        (int(np.sum(np.linalg.eigvalsh(G_adapted(ls_neg, pt)) > 0)),
         int(np.sum(np.linalg.eigvalsh(G_adapted(ls_neg, pt)) < 0))) == (3, 3)
        for pt in sample.points)

    broken = LiftedStructure(
        m=m, spec=replace(spec_neg, c1=spec_neg.c1 * 1.1))
    r_broken = run_check("compatibility", broken, sample, 1e-6).max_residual

    ok = (max(r_neg, r_pos) <= 1e-11 and signature_ok and r_broken > 1e-6)
    _verdict(4, ok, f"P^T G P = eps G residual {max(r_neg, r_pos):.2e} <= "
                    f"1e-11 for eps = +-1; neutral signature at all 100 "
                    f"points: {signature_ok}; broken chain residual "
                    f"{r_broken:.2e} > 1e-6")


def test_criterion_5_d_omega():
    agree_worst = 0.0
    closed_worst = 0.0
    open_floor = np.inf
    for c in (1.0, -1.0):
        m = conformal_ball(3, c)
        sample = sample_points(m, 20, 505)

        # mu = lambda': both routes must vanish
        spec_closed = with_metric(
            rational_spec(1.0, 2.0, polynomial([0.0, 1.0])),
            affine(1.0, 1.0))
        ls_closed = LiftedStructure(m=m, spec=spec_closed)
        omega = Omega_coordinate(ls_closed)
        for pt in sample.points:
            closed_worst = max(
                closed_worst,
                float(np.max(np.abs(exterior_derivative_2form(omega, pt)))),
                float(np.max(np.abs(analytic_dOmega(ls_closed, pt)))))
        agree_worst = max(agree_worst, run_check(
            "closure_agreement", ls_closed, sample, 1e-8).max_residual)

        # mu = 0 with lambda = 1 + t: nonzero and still in agreement
        spec_open = with_metric(
            rational_spec(1.0, 2.0, polynomial([0.0, 1.0])),
            affine(1.0, 1.0), constant(0.0))
        ls_open = LiftedStructure(m=m, spec=spec_open)
        agree_worst = max(agree_worst, run_check(
            "closure_agreement", ls_open, sample, 1e-8).max_residual)
        open_floor = min(open_floor, run_check("closure", ls_open, sample,
                                               1e-8).max_residual)

    ok = agree_worst <= 1e-8 and closed_worst <= 1e-8 and open_floor > 1e-8
    _verdict(5, ok, f"d Omega by complex step vs closed form agree to "
                    f"{agree_worst:.2e} <= 1e-8; mu = lambda' vanishes to "
                    f"{closed_worst:.2e}; mu = 0 stays nonzero "
                    f"({open_floor:.2e})")


def test_criterion_6_para_kahler_composite():
    m = conformal_ball(3, 1.0)
    sample = sample_points(m, 30, 606)

    spec_a = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                         affine(1.0, 1.0))  # mu derived = 1 = lambda'
    rep_a = run_check("para_kahler", LiftedStructure(m=m, spec=spec_a),
                      sample, 1e-8)

    spec_b = with_metric(rational_spec(1.0, 2.0, constant(4.0)),
                         constant(1.0), constant(0.0))  # u = c alpha beta^2
    rep_b = run_check("para_kahler", LiftedStructure(m=m, spec=spec_b),
                      sample, 1e-8)

    ok = rep_a.passed and rep_b.passed
    _verdict(6, ok, f"composite check residuals {rep_a.max_residual:.2e} and "
                    f"{rep_b.max_residual:.2e} <= 1e-8 for both para-Kahler "
                    "configurations")


def test_criterion_7_ad_vs_fd():
    from paralift.spaceform import christoffel_at
    from dense_metric import metric_at

    worst = 0.0
    m = conformal_ball(3, 1.0)
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0), constant(0.5))
    ls = LiftedStructure(m=m, spec=spec)
    p_fn = P_coordinate_function(ls)
    o_fn = Omega_coordinate(ls)
    sample = sample_points(m, 10, 707)

    def rel(ad_jac, fd_jac):
        scale = max(1.0, float(np.max(np.abs(ad_jac))))
        return float(np.max(np.abs(ad_jac - fd_jac))) / scale

    for pt in sample.points:
        q, z = pt.q, pt.z()
        _, jac = ad.jacobian(lambda y: metric_at(m, y), q)
        worst = max(worst, rel(jac, fd_oracle(lambda y: metric_at(m, y), q,
                                              FD_STEP)))
        _, jac = ad.jacobian(lambda y: christoffel_at(m, y), q)
        worst = max(worst, rel(jac, fd_oracle(lambda y: christoffel_at(m, y),
                                              q, FD_STEP)))
        _, jac = ad.jacobian(p_fn, z)
        worst = max(worst, rel(jac, fd_oracle(p_fn, z, FD_STEP)))
        _, jac = ad.jacobian(o_fn, z)
        worst = max(worst, rel(jac, fd_oracle(o_fn, z, FD_STEP)))

    fams = {"a1": spec.a1, "b1": spec.b1, "a2": spec.a2, "b2": spec.b2,
            "c1": spec.c1, "d1": spec.d1, "c2": spec.c2, "d2": spec.d2,
            "lambda": spec.lam, "mu": spec.mu}
    rng = np.random.default_rng(707)
    for name, fam in fams.items():
        for t in rng.uniform(0.05, 1.9, size=10):
            ad_d = float(fam.derivative()(t))
            fd_d = (float(fam(t + FD_STEP)) - float(fam(t - FD_STEP))) \
                / (2 * FD_STEP)
            worst = max(worst, abs(ad_d - fd_d) / max(1.0, abs(ad_d)))

    ok = worst <= FD_RTOL
    _verdict(7, ok, f"worst complex-step or derivative-tree vs "
                    f"central-difference relative error {worst:.2e} <= 1e-6 "
                    "across metric, Christoffel, P entries, Omega entries, "
                    "and all coefficient families")


def test_criterion_8_determinism(tmp_path):
    doc = {
        "manifold": {"model": "conformal_ball", "n": 3, "c": 1.0},
        "coefficients": {
            "a1": {"preset": "constant", "params": {"value": 1.0}},
            "lambda": {"preset": "affine",
                       "params": {"intercept": 1.0, "slope": 1.0}},
        },
        "sampling": {"count": 20, "seed": 808},
        "checks": ["almost_product", "compatibility", "closure"],
    }
    path = tmp_path / "r.json"
    cfg = replace(parse_config(doc), output=str(path))
    run(cfg)
    da = json.loads(path.read_text())
    run(cfg)
    db = json.loads(path.read_text())
    da.pop("timing")
    db.pop("timing")
    stable = (json.dumps(da, sort_keys=True).encode()
              == json.dumps(db, sort_keys=True).encode())

    verdict_sets = set()
    for seed in (1, 2, 3, 4, 5):
        cfg_seeded = parse_config({**doc, "sampling": {"count": 20,
                                                       "seed": seed}})
        reports, _ = execute_checks(cfg_seeded)
        verdict_sets.add(tuple(r.verdict for r in reports))
    invariant = len(verdict_sets) == 1

    ok = stable and invariant
    _verdict(8, ok, f"reports byte-identical modulo timing: {stable}; "
                    f"verdicts identical across 5 seeds: {invariant}")
