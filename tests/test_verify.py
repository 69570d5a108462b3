"""Theorem checkers: positive and negative directions, oracles, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from paralift import (
    ChartDomainError,
    ContractError,
    LiftedStructure,
    RangeError,
    StructureSpec,
    affine,
    almost_product_spec,
    conformal_ball,
    constant,
    energy_density,
    exponential,
    fd_oracle,
    flat_space,
    integrable_spec,
    make_point,
    perturbed_conformal,
    polynomial,
    rational_spec,
    sample_points,
    with_metric,
)
from paralift import ad, lifted
from paralift.lifted import (
    G_adapted,
    Omega_coordinate,
    P_coordinate_function,
    _adapted_blocks,
)
from paralift.phase import chart_point, stack_points
from paralift.report import make_report
from paralift.spaceform import christoffel_at, curvature_at
from paralift.verify import (
    CHECK_NAMES,
    CHECKS,
    PhaseSample,
    _closure_max,
    _nijenhuis_max,
    analytic_dOmega,
    exterior_derivative_2form,
    nijenhuis_at,
    run_check,
)
from chart_sampling import random_chart_points
from curvature_reference import generic_curvature
from frame_reference import frame_matrices



def rational_ls(m, lam=None, mu=None, with_g=True):
    spec = rational_spec(1.0, 2.0, polynomial([0.0, 1.0]))
    if with_g:
        spec = with_metric(spec, lam or constant(1.0),
                           mu if mu is not None else constant(0.0))
    return LiftedStructure(m=m, spec=spec)


def para_kahler_ls(m, curvature=None):
    spec = integrable_spec(constant(1.0), curvature=m.c if curvature is None
                           else curvature)
    spec = with_metric(spec, affine(1.0, 1.0))  # mu derived as lambda' = 1
    return LiftedStructure(m=m, spec=spec)


# ----------------------------------------------------------------- sampler


def test_sampler_is_deterministic_and_in_bounds():
    m = conformal_ball(3, 1.0)
    s1 = sample_points(m, 30, 42, t_max=2.0)
    s2 = sample_points(m, 30, 42, t_max=2.0)
    assert s1.seed == 42
    for a, b in zip(s1.points, s2.points):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
    assert np.array_equal(s1.points[0].p, np.zeros(3))  # t = 0 covered
    for pt in s1.points:
        assert np.linalg.norm(pt.q) <= 0.8 * m.chart_radius + 1e-12
        assert np.linalg.norm(pt.p) <= 2.0 + 1e-12
        assert pt.t <= 2.0


def test_sampler_starvation_reported():
    m = flat_space(3)
    with pytest.raises(RangeError, match="sampler starved"):
        sample_points(m, 10, 1, p_max=2.0, t_max=1e-12)


# ------------------------------------------------- almost product (squares)


def test_almost_product_passes_for_rational_spec():
    m = conformal_ball(3, 1.0)
    ls = rational_ls(m, with_g=False)
    rep = run_check("almost_product", ls, sample_points(m, 100, 1), 1e-11)
    assert rep.passed and rep.points_sampled == 100
    assert rep.seed == 1 and len(rep.witnesses) == 3


def test_almost_product_detects_perturbed_b2():
    m = conformal_ball(3, 1.0)
    ls = rational_ls(m, with_g=False)
    bad = replace(ls.spec, b2=ls.spec.b2 * 1.1)  # bypasses validation
    rep = run_check("almost_product", LiftedStructure(m=m, spec=bad),
                    sample_points(m, 100, 1), 1e-6)
    assert not rep.passed
    assert rep.max_residual > 1e-6


def test_almost_product_cruceanu_p_exact():
    m = conformal_ball(3, 1.0)
    ls = LiftedStructure(m=m)
    rep = run_check("almost_product", ls, sample_points(m, 10, 1), 0.0)
    assert rep.passed and rep.max_residual == 0.0


# ----------------------------------------------------- Nijenhuis / integrability


def test_nijenhuis_cruceanu_p_vanishes_iff_flat():
    flat = flat_space(3)
    ls_flat = LiftedStructure(m=flat)
    for pt in sample_points(flat, 5, 3).points:
        assert np.max(np.abs(nijenhuis_at(ls_flat, pt))) < 1e-11
    curved = conformal_ball(3, 1.0)
    ls_curved = LiftedStructure(m=curved)
    worst = max(np.max(np.abs(nijenhuis_at(ls_curved, pt)))
                for pt in sample_points(curved, 10, 3).points)
    assert worst > 1e-3


def test_nijenhuis_antisymmetry_is_exact():
    m = conformal_ball(3, -1.0)
    ls = rational_ls(m, with_g=False)
    pt = sample_points(m, 3, 5).points[-1]
    nij = nijenhuis_at(ls, pt)
    assert np.array_equal(nij, -np.transpose(nij, (0, 2, 1)))
    # and on a batch at n = 8, in the [c, a, b] layout
    ls = para_kahler_ls(conformal_ball(8, -1.0), curvature=1.0)
    nij = nijenhuis_at(ls, sample_points(ls.m, 3, 5).batch)
    assert nij.shape == (3, 16, 16, 16) and np.max(np.abs(nij)) > 1e-3
    assert np.array_equal(nij, -np.swapaxes(nij, -1, -2))


def four_contraction_nijenhuis(ls, pt):
    """N by the four contractions of its definition, one einsum each: the
    reference for the two-product kernel of nijenhuis_at."""
    pmat, dp = ad.jacobian(P_coordinate_function(ls), pt.z())
    t1 = np.einsum("...da,...cbd->...cab", pmat, dp)
    t2 = np.einsum("...db,...cad->...cab", pmat, dp)
    t3 = np.einsum("...cd,...dba->...cab", pmat, dp)
    t4 = np.einsum("...cd,...dab->...cab", pmat, dp)
    return (t1 - t2) - (t3 - t4)


@pytest.mark.parametrize("case", ["rational", "integrable", "mismatched",
                                  "perturbed", "cruceanu_p", "cruceanu_q"])
def test_nijenhuis_equals_the_four_contractions(case):
    ball = conformal_ball(4, -1.0)
    ls = {
        "rational": lambda: rational_ls(ball, with_g=False),
        "integrable": lambda: para_kahler_ls(conformal_ball(4, 1.0)),
        "mismatched": lambda: para_kahler_ls(ball, curvature=1.0),
        "perturbed": lambda: para_kahler_ls(perturbed_conformal(4, 1.0, 0.1)),
        "cruceanu_p": lambda: LiftedStructure(m=ball),
        "cruceanu_q": lambda: LiftedStructure(  # a1 = 1, b1 = 0
            m=ball, spec=almost_product_spec(constant(1.0))),
    }[case]()
    points = sample_points(ls.m, 6, 23).points
    for pt in points + (stack_points(points),):
        ref = four_contraction_nijenhuis(ls, pt)
        got = nijenhuis_at(ls, pt)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_integrability_sufficiency_and_necessity():
    m = conformal_ball(3, 1.0)
    ls = para_kahler_ls(m)
    sample = sample_points(m, 30, 7)
    rep = run_check("integrability", ls, sample, 1e-8)
    assert rep.passed

    # same coefficients over a non-space-form base
    mp = perturbed_conformal(3, 1.0, 0.1)
    ls_bad_base = LiftedStructure(m=mp, spec=ls.spec)
    rep = run_check("integrability", ls_bad_base, sample_points(mp, 10, 7),
                    1e-6)
    assert not rep.passed and rep.max_residual > 1e-6

    # coefficients derived for the wrong curvature
    m_neg = conformal_ball(3, -1.0)
    ls_mismatch = LiftedStructure(m=m_neg, spec=ls.spec)
    rep = run_check("integrability", ls_mismatch,
                    sample_points(m_neg, 10, 7), 1e-6)
    assert not rep.passed and rep.max_residual > 1e-6


def test_integrability_n2_note():
    m = conformal_ball(2, 1.0)
    spec = integrable_spec(constant(1.0), curvature=1.0)
    ls = LiftedStructure(m=m, spec=spec)
    rep = run_check("integrability", ls, sample_points(m, 3, 1), 1e-8)
    assert any("dimension 2" in note for note in rep.notes)


# ------------------------------------------------------------- compatibility


def test_compatibility_negative_epsilon():
    m = conformal_ball(3, 1.0)
    ls = rational_ls(m)
    rep = run_check("compatibility", ls, sample_points(m, 100, 11), 1e-11)
    assert rep.passed


def test_compatibility_positive_epsilon():
    m = conformal_ball(3, 1.0)
    spec = integrable_spec(constant(1.0), curvature=1.0, epsilon=1)
    spec = with_metric(spec, constant(1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    rep = run_check("compatibility", ls, sample_points(m, 100, 11), 1e-11)
    assert rep.passed


def test_compatibility_detects_broken_chain():
    m = conformal_ball(3, 1.0)
    ls = rational_ls(m)
    bad = replace(ls.spec, c1=ls.spec.c1 * 1.1)  # breaks the first chain only
    rep = run_check("compatibility", LiftedStructure(m=m, spec=bad),
                    sample_points(m, 50, 11), 1e-6)
    assert not rep.passed and rep.max_residual > 1e-6


def test_metric_signature_neutral_and_positive():
    m = conformal_ball(3, 1.0)
    rep = run_check("metric_signature", rational_ls(m),
                    sample_points(m, 20, 13))
    assert rep.passed and rep.details["expected_positive"] == 3

    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0, epsilon=1),
                       constant(1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    rep = run_check("metric_signature", ls, sample_points(m, 20, 13))
    assert rep.passed and rep.details["expected_positive"] == 6


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_metric_signature_census_is_relative_to_each_block(scale):
    # on the flat model at p = e1 (t = 1/2), G1 = scale (I + d p(x)p) has
    # the eigenvalues scale and scale (1 + d): a ratio 1e-12 to the block's
    # largest has no sign, so the neutral (3, 3) is missed, while 1e-8 has
    # one at every scale; a spec built directly skips the positivity guard
    m = flat_space(3)
    sample = PhaseSample((make_point(m, [0.1, 0.0, 0.0], [1.0, 0.0, 0.0]),))
    for ratio, passed in ((1e-12, False), (1e-8, True)):
        spec = StructureSpec(
            constant(1.0), constant(0.0), constant(1.0), constant(0.0),
            c1=constant(scale), d1=constant(scale * (ratio - 1.0)),
            c2=constant(-1.0), d2=constant(0.0),
            lam=constant(1.0), mu=constant(0.0),
            flags=frozenset({"almost_product"}))
        rep = run_check("metric_signature", LiftedStructure(m=m, spec=spec),
                        sample)
        assert rep.passed is passed, (scale, ratio)


# ------------------------------------------------------------ d Omega checks


@pytest.mark.parametrize("epsilon", [-1, 1])
def test_block_eigenvalue_census_equals_the_full_matrix(epsilon):
    m = conformal_ball(3, 1.0)
    spec = with_metric(rational_spec(1.0, 2.0, polynomial([0.0, 1.0]),
                                     epsilon=epsilon),
                       affine(1.0, 0.5), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    batch = stack_points(sample_points(m, 40, 13).points)
    full = np.linalg.eigvalsh(G_adapted(ls, batch))
    blocks = np.concatenate([np.linalg.eigvalsh(g)
                             for g in _adapted_blocks(ls, batch, "G")], axis=-1)
    assert np.allclose(np.sort(blocks, axis=-1), full, rtol=1e-13, atol=1e-14)
    for sign in (1.0, -1.0):
        assert np.array_equal(np.sum(sign * full > 1e-10, axis=-1),
                              np.sum(sign * blocks > 1e-10, axis=-1))
    # the one eigvalsh over the (G1, G2) stack is each block's own, bitwise,
    # on the batch and on a single point
    for pt in (batch, sample_points(m, 2, 13).points[1]):
        stack = _adapted_blocks(ls, pt, "G")
        stacked = np.linalg.eigvalsh(stack)
        for g, eigs in zip(stack, stacked):
            alone = np.linalg.eigvalsh(g.copy())
            assert (eigs.shape, eigs.tobytes()) == (alone.shape, alone.tobytes())


def test_exterior_derivative_of_constant_form_is_zero():
    const = np.zeros((4, 4))
    const[0, 2] = 1.0
    const[2, 0] = -1.0

    def omega(z):
        return const + 0.0 * ad.outer(z, z)  # constant but z-typed

    m = flat_space(2)
    pt = make_point(m, [0.1, 0.2], [0.5, -0.5])
    d = exterior_derivative_2form(omega, pt)
    assert np.max(np.abs(d)) == 0.0


def test_canonical_form_is_closed():
    m = flat_space(3)
    spec = with_metric(integrable_spec(constant(1.0), curvature=0.0),
                       constant(1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    omega = Omega_coordinate(ls)
    for pt in sample_points(m, 5, 17).points:
        assert np.max(np.abs(exterior_derivative_2form(omega, pt))) < 1e-12


def test_d_omega_fully_antisymmetric():
    m = conformal_ball(3, 1.0)
    ls = rational_ls(m, lam=affine(1.0, 1.0), mu=constant(0.0))
    omega = Omega_coordinate(ls)
    pt = sample_points(m, 4, 19).points[-1]
    d = exterior_derivative_2form(omega, pt)
    for perm, sign in [((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), 1), ((2, 0, 1), 1)]:
        assert np.max(np.abs(np.transpose(d, perm) - sign * d)) < 1e-12


def test_analytic_d_omega_flat_frozen_pattern():
    # lambda = 1 + t, mu = 0, flat base, p = (1, 0): the only independent
    # component is d Omega[p1, p2, q2] = mu - lambda' = -1
    m = flat_space(2)
    spec = with_metric(integrable_spec(constant(1.0), curvature=0.0),
                       affine(1.0, 1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    pt = make_point(m, [0.0, 0.0], [1.0, 0.0])
    d = analytic_dOmega(ls, pt)
    assert np.isclose(d[2, 3, 1], -1.0, atol=1e-14)
    assert np.isclose(d[3, 2, 1], 1.0, atol=1e-14)
    assert np.isclose(d[2, 3, 0], 0.0, atol=1e-14)
    numeric = exterior_derivative_2form(Omega_coordinate(ls), pt)
    assert np.max(np.abs(numeric - d)) < 1e-12


def test_derived_mu_closes_omega():
    for c in (1.0, -1.0):
        m = conformal_ball(3, c)
        spec = with_metric(rational_spec(1.0, 2.0, polynomial([0.0, 1.0])),
                           affine(1.0, 1.0))  # mu derived as lambda' = 1
        ls = LiftedStructure(m=m, spec=spec)
        sample = sample_points(m, 10, 23)
        for pt in sample.points:
            assert np.max(np.abs(analytic_dOmega(ls, pt))) < 1e-14
        rep = run_check("closure", ls, sample, 1e-8)
        assert rep.passed


def test_numeric_and_analytic_d_omega_agree():
    for c in (1.0, -1.0):
        m = conformal_ball(3, c)
        spec = with_metric(rational_spec(1.0, 2.0, polynomial([0.0, 1.0])),
                           affine(1.0, 1.0), constant(0.0))
        ls = LiftedStructure(m=m, spec=spec)
        sample = sample_points(m, 20, 29)
        rep = run_check("closure_agreement", ls, sample, 1e-8)
        assert rep.passed
        # and the form is genuinely non-closed here (mu != lambda')
        rep = run_check("closure", ls, sample, 1e-8)
        assert not rep.passed


@pytest.mark.parametrize("n", [2, 3, 8])
def test_closure_agreement_is_the_difference_of_the_two_sides(n):
    """The check's one cyclic sum of the stepped jacobian minus the closed
    form agrees with max |exterior_derivative_2form - analytic_dOmega| within
    4 ulp of the larger of the two terms, point by point."""
    eps = np.finfo(float).eps
    for mu in (None, constant(0.0), constant(0.5)):
        for m in (flat_space(n), conformal_ball(n, 1.0),
                  perturbed_conformal(n, 1.0, 0.1)):
            ls = LiftedStructure(m=m, spec=with_metric(
                integrable_spec(constant(1.0), curvature=1.0),
                affine(1.0, 1.0), mu))
            omega = Omega_coordinate(ls)
            for pt in sample_points(m, 4, 67).points:
                one = run_check("closure_agreement", ls,
                                PhaseSample((pt,))).max_residual
                numeric = exterior_derivative_2form(omega, pt)
                analytic = analytic_dOmega(ls, pt)
                two = np.max(np.abs(numeric - analytic))
                size = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)))
                assert abs(one - two) <= 4 * eps * size


def test_closure_agreement_reads_a_foreign_point_on_its_own_chart():
    """A point built on any chart model gives the residual of the same (q, p)
    built on the structure's chart, bit for bit: both sides read ls.m."""
    m = conformal_ball(3, 1.0)
    ls = LiftedStructure(m=m, spec=with_metric(
        integrable_spec(constant(1.0), curvature=1.0), affine(1.0, 1.0),
        constant(0.5)))
    q, p = [0.1, 0.2, -0.1], [0.3, -0.2, 0.5]
    own = run_check("closure_agreement", ls,
                    PhaseSample((make_point(m, q, p),))).max_residual
    assert own < 1e-15
    for other in (conformal_ball(3, -1.0), flat_space(3),
                  perturbed_conformal(3, 1.0, 0.1)):
        pt = make_point(other, q, p)
        assert run_check("closure_agreement", ls,
                         PhaseSample((pt,))).max_residual == own, other
        assert np.array_equal(analytic_dOmega(ls, pt),
                              analytic_dOmega(ls, make_point(m, q, p)))
    sample = sample_points(conformal_ball(3, -1.0), 20, 3, p_max=1.0)
    own = run_check("closure_agreement", ls, PhaseSample(tuple(
        make_point(m, pt.q, pt.p) for pt in sample.points)))
    assert run_check("closure_agreement", ls,
                     sample).max_residual == own.max_residual
    assert own.passed


@pytest.mark.parametrize("other",
                         ["ball-1", "flat", "perturbed", "wide", "mixed"])
def test_a_sample_of_another_chart_reports_as_one_of_the_structures(other):
    """A sample built on another chart model, or on two (its batch then has
    no chart), gives for every check the report of the same (q, p) built on
    the structure's chart, bit for bit: the check rebuilds it on ls.m."""
    m = conformal_ball(3, 1.0)
    ls = para_kahler_ls(m)
    chart = {"ball-1": conformal_ball(3, -1.0), "flat": flat_space(3),
             "perturbed": perturbed_conformal(3, 1.0, 0.1),
             "wide": conformal_ball(3, 1.0, chart_radius=1.2),
             "mixed": conformal_ball(3, -1.0)}[other]
    sample = sample_points(chart, 20, 3, p_max=1.0)
    if other == "mixed":
        sample = PhaseSample(points=tuple(
            make_point(flat_space(3), pt.q, pt.p) if i % 2 else pt
            for i, pt in enumerate(sample.points)), seed=sample.seed)
        assert sample.batch.m is None and sample.stepped is None
    else:
        assert sample.stepped.m is chart
    own = PhaseSample(points=tuple(make_point(m, pt.q, pt.p)
                                   for pt in sample.points), seed=sample.seed)
    for name in CHECK_NAMES:
        assert run_check(name, ls, sample) == run_check(name, ls, own), name


def wedge_loop_dOmega(ls, pt):
    """Reference for analytic_dOmega: the per-index wedge accumulation."""
    perms = (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
             ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0))
    n = ls.m.n
    factor = 0.5 * (float(ls.spec.mu(pt.t)) - float(ls.spec.lam.derivative()(pt.t)))
    mixed = np.zeros((2 * n, 2 * n, 2 * n))
    for h in range(n):
        for j in range(n):
            for i in range(n):
                coeff = factor * (pt.g0[h] * (i == j) - pt.g0[j] * (i == h))
                idx = (n + h, n + j, i)
                for perm, sign in perms:
                    mixed[idx[perm[0]], idx[perm[1]], idx[perm[2]]] += sign * coeff
    binv = np.block([[np.eye(n), np.zeros((n, n))], [-pt.Gamma0, np.eye(n)]])
    return np.einsum("abc,aA,bB,cC->ABC", mixed, binv, binv, binv)


@pytest.mark.parametrize("m", [
    pytest.param(conformal_ball(2, 1.0), id="2"),
    pytest.param(conformal_ball(3, 1.0), id="3"),
    pytest.param(conformal_ball(8, 1.0), id="8"),
    pytest.param(conformal_ball(3, -1.0), id="ball-1"),
    pytest.param(perturbed_conformal(3, 1.0, 0.1), id="perturbed"),
    pytest.param(flat_space(3), id="flat"),
])
def test_analytic_d_omega_matches_wedge_loop(m):
    ls = rational_ls(m, lam=affine(1.0, 1.0), mu=constant(0.0))  # d Omega != 0
    points = sample_points(m, 4, 31).points
    assert np.all(analytic_dOmega(ls, points[0]) == 0.0)  # p = 0, so theta = 0
    for pt in points[1:]:
        ref = wedge_loop_dOmega(ls, pt)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(analytic_dOmega(ls, pt) - ref)) < 1e-14 * max(
            1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------- composite


def test_para_kahler_composite_passes():
    m = conformal_ball(3, 1.0)
    ls = para_kahler_ls(m)
    rep = run_check("para_kahler", ls, sample_points(m, 30, 31), 1e-8)
    assert rep.passed
    assert set(rep.details) == {"compatibility_residual",
                                "integrability_residual", "closure_residual"}


def test_para_kahler_fails_only_through_closure_when_mu_is_off():
    m = conformal_ball(3, 1.0)
    spec = integrable_spec(constant(1.0), curvature=1.0)
    spec = with_metric(spec, affine(1.0, 1.0), constant(0.0))  # mu != lambda'
    ls = LiftedStructure(m=m, spec=spec)
    sample = sample_points(m, 20, 31)
    rep = run_check("para_kahler", ls, sample, 1e-8)
    assert not rep.passed
    assert rep.details["closure_residual"] > 1e-8
    assert rep.details["compatibility_residual"] <= 1e-8
    assert rep.details["integrability_residual"] <= 1e-8


@pytest.mark.parametrize("case", ["passes", "mu_off", "mismatched", "n2"])
def test_para_kahler_sub_residuals_equal_the_standalone_checks(case):
    if case == "mu_off":
        m = conformal_ball(3, 1.0)
        ls = LiftedStructure(m=m, spec=with_metric(
            integrable_spec(constant(1.0), curvature=1.0), affine(1.0, 1.0),
            constant(0.0)))
    else:
        m = conformal_ball(2 if case == "n2" else 4,
                           -1.0 if case == "mismatched" else 1.0)
        ls = para_kahler_ls(m, curvature=1.0)
    sample = sample_points(m, 12, 41)
    tol = 1e-9
    rep = run_check("para_kahler", ls, sample, tol)
    for name in ("compatibility", "integrability", "closure"):
        alone = run_check(name, ls, sample, tol)
        assert rep.details[f"{name}_residual"] == alone.max_residual, name
        if alone.max_residual == rep.max_residual:
            assert rep.witnesses == alone.witnesses
    # per point, the derivative residuals on the sample's stepped point are
    # bitwise those of the public evaluators
    batch = stack_points(sample.points)
    omega = Omega_coordinate(ls)
    assert np.array_equal(_nijenhuis_max(ls, None, sample.stepped), np.max(
        np.abs(nijenhuis_at(ls, batch)), axis=(-3, -2, -1)))
    assert np.array_equal(_closure_max(ls, None, sample.stepped), np.max(
        np.abs(exterior_derivative_2form(omega, batch)), axis=(-3, -2, -1)))


def test_para_kahler_reports_a_non_finite_part():
    # mu = nan leaves compatibility and integrability finite; the closure
    # residuals are nan, and that part ranks worst
    m = conformal_ball(3, 1.0)
    spec = replace(para_kahler_ls(m).spec, mu=constant(math.nan))
    ls = LiftedStructure(m=m, spec=spec)
    sample = sample_points(m, 6, 0)
    rep = run_check("para_kahler", ls, sample)
    d = rep.to_dict()
    assert d["verdict"] == "fail" and d["max_residual"] is None
    assert any("non-finite" in note for note in rep.notes)
    assert d["details"]["closure_residual"] is None
    assert d["details"]["compatibility_residual"] <= 1e-8
    assert [w["residual"] for w in d["witnesses"]] == [None] * 3
    alone = run_check("closure", ls, sample).to_dict()
    assert d["witnesses"] == alone["witnesses"]


def test_para_kahler_needs_a_para_hermitian_spec():
    # compatibility runs for eps = +1; closure, the 2-form's part, does not
    m = conformal_ball(3, 1.0)
    spec = with_metric(almost_product_spec(constant(1.0), constant(0.0),
                                           epsilon=1),
                       constant(1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    assert run_check("compatibility", ls, sample_points(m, 4, 1)).passed
    with pytest.raises(ContractError, match="epsilon = -1"):
        run_check("para_kahler", ls, sample_points(m, 4, 1))


def test_the_metric_check_sets_name_the_checks_that_refuse():
    """The checks whose row needs a "metric" or "para_hermitian" spec are
    those that refuse a structure without a metric part, Cruceanu's
    included, and those that need "para_hermitian" the ones that refuse an
    eps = +1 one: the column the config parser reads."""
    metric = {name for name in CHECK_NAMES if CHECKS[name].spec}
    para = {name for name in CHECK_NAMES
            if CHECKS[name].spec == "para_hermitian"}
    m = conformal_ball(3, 1.0)
    plus = with_metric(almost_product_spec(constant(1.0), constant(0.0),
                                           epsilon=1),
                       constant(1.0), constant(0.0))
    sample = sample_points(m, 4, 1)
    for ls, refused in (
            (LiftedStructure(m=m), metric),
            (LiftedStructure(m=m, spec=integrable_spec(
                constant(1.0), curvature=1.0)), metric),
            (LiftedStructure(m=m, spec=plus), para)):
        raised = set()
        for name in CHECK_NAMES:
            try:
                run_check(name, ls, sample)
            except ContractError:
                raised.add(name)
        assert raised == refused
    assert para == {"closure", "closure_agreement", "para_kahler"}
    assert metric == para | {"compatibility", "metric_signature"}


def test_the_benchmark_skips_the_checks_the_table_marks(monkeypatch):
    """The benchmark's probes keep their own tuples of the checks that need
    a metric and an eps = -1 spec; they name the checks of each ``spec``
    column value, so a benchmark case skips what the CLI refuses."""
    import importlib
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    probes = importlib.import_module("probes")
    for names, spec in ((probes._METRIC_CHECKS, "metric"),
                        (probes._FORM_CHECKS, "para_hermitian")):
        assert sorted(names) == sorted(
            name for name in CHECK_NAMES if CHECKS[name].spec == spec)


ORBIT_MODELS = {
    "ball+1": lambda n: conformal_ball(n, 1.0),
    "ball-1": lambda n: conformal_ball(n, -1.0),
    "flat": flat_space,
}


def _residual_norms(ls, q, p):
    """Frobenius norms per point of N, d Omega and the deviation of R from
    constant curvature c + 1 (off by one, so not rounding noise) at the
    points (q, p) of ``ls.m``."""
    m = ls.m
    pt = make_point(m, q, p)
    eye = np.eye(m.n)
    target = (m.c + 1.0) * pt.phi[:, None, None, None, None] * (
        np.einsum("hi,kj->hkij", eye, eye) - np.einsum("hj,ki->hkij", eye, eye))
    tensors = (nijenhuis_at(ls, pt),
               exterior_derivative_2form(Omega_coordinate(ls), pt),
               curvature_at(m, q) - target)
    return np.array([np.sqrt((x * x).reshape(len(q), -1).sum(-1))
                     for x in tensors])


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("model", [*ORBIT_MODELS, "perturbed"])
def test_residual_norms_are_invariant_under_rotations(model, n, rng):
    """The chart metric of the ball and of the flat model is invariant under
    O(n), and the cotangent lift (q, p) -> (Rq, Rp) of a rotation R is
    orthogonal on phase coordinates; so the Frobenius norms of N, d Omega
    and the curvature deviation at (q, p) and (Rq, Rp) agree to rounding,
    for a spec off the integrability and closure rules.  The perturbed base
    is invariant only about e0, and the symmetry breaks there."""
    c = {"ball+1": 1.0, "ball-1": -1.0}.get(model, 0.0)
    m = (perturbed_conformal(n, 1.0, 0.1) if model == "perturbed"
         else ORBIT_MODELS[model](n))
    spec = with_metric(almost_product_spec(exponential(1.5, 0.1),
                                           constant(0.3)),
                       affine(1.0, 1.0), constant(0.5))
    ls = LiftedStructure(m=m, spec=spec)
    # t_max leaves room for the perturbed base, where a rotation moves t
    batch = sample_points(m, 6, 90 + n, t_max=1.5).batch
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    before = _residual_norms(ls, batch.q, batch.p)[:, 1:]  # p != 0
    after = _residual_norms(ls, batch.q @ rotation.T, batch.p @ rotation.T)
    assert np.all(before > 1e-3)  # off the rules
    gap = np.abs(after[:, 1:] - before) / before
    if model == "perturbed":  # each of the three, by 3-14% on these draws
        assert np.all(gap.max(axis=1) > 1e-2)
    else:
        assert gap.max() < 1e-13


CENTRE_DIMS = (2, 3, 4, 8, 16, 32)
CENTRE_TS = np.array([0.05, 0.6, 0.95])


def _centre_sweep(m, spec):
    """The structure of ``spec`` on ``m`` and the batch q = 0, p = sqrt(2t)
    e1 at each t of CENTRE_TS; at the chart centre phi = 1 and h = 0, so the
    coordinate frame is g^S-orthonormal there."""
    p = np.zeros((len(CENTRE_TS), m.n))
    p[:, 0] = np.sqrt(2.0 * CENTRE_TS)
    return LiftedStructure(m=m, spec=spec), make_point(m, np.zeros_like(p), p)


def _squared_norms(x):
    return (x * x).reshape(len(CENTRE_TS), -1).sum(-1)


# a1 = 1.5 exp(0.1 t) on [0, 1], where the c = -1 rule still builds
@pytest.mark.parametrize("model", ORBIT_MODELS)
def test_d_omega_closed_form_at_the_chart_centre(model):
    """|d Omega|_F^2 = 12 (n - 1) t (mu - lambda')^2 at the chart centre of
    each space form, from the complex step and from the closed form."""
    for n in CENTRE_DIMS:
        m = ORBIT_MODELS[model](n)
        rule = integrable_spec(exponential(1.5, 0.1), curvature=m.c,
                               t_max=1.0)
        ls, pt = _centre_sweep(m, with_metric(rule, affine(1.0, 1.0),
                                              constant(0.5)))
        want = 12.0 * (n - 1) * pt.t * (0.5 - 1.0) ** 2
        for d_omega in (analytic_dOmega(ls, pt), exterior_derivative_2form(
                Omega_coordinate(ls), pt)):
            assert np.allclose(_squared_norms(d_omega), want, rtol=1e-14,
                               atol=0.0), n


@pytest.mark.parametrize("model", ORBIT_MODELS)
def test_nijenhuis_norm_grows_as_n_minus_one_at_the_chart_centre(model):
    """Off the integrability rule (b1 = rule + 0.3), |N|_F^2 / (n - 1) at
    the chart centre of each space form is the same at every n."""
    per_dim = []
    for n in CENTRE_DIMS:
        m = ORBIT_MODELS[model](n)
        a1 = exponential(1.5, 0.1)
        rule = integrable_spec(a1, curvature=m.c, t_max=1.0)
        ls, pt = _centre_sweep(m, almost_product_spec(
            a1, rule.b1 + constant(0.3), t_max=1.0))
        per_dim.append(_squared_norms(nijenhuis_at(ls, pt)) / (n - 1))
    per_dim = np.array(per_dim)
    assert np.all(per_dim > 1e-3)  # off the rule
    assert np.abs(per_dim / per_dim[1] - 1.0).max() <= 1e-14


FRAME_TS = (0.05, 0.6, 0.95)
# (base, c of the integrability rule the spec is built on)
FRAME_CASES = {
    "ball+1": (conformal_ball(3, 1.0), 1.0),
    "ball-1": (conformal_ball(3, -1.0), -1.0),
    "flat": (flat_space(3), 0.0),
    "c+1 spec on ball-1": (conformal_ball(3, -1.0), 1.0),
    "perturbed": (perturbed_conformal(3, 1.0, 0.1), 1.0),
}


def _frame_nijenhuis_norms(ls, rng, count=6):
    """|N|_F in the g^S-orthonormal adapted frame F = B D, D = diag(phi^-1/2
    I, phi^1/2 I), that is (F^-1)^c_d N^d_ef F^e_a F^f_b, at ``count``
    points of each t of FRAME_TS (one row per t): |q| <= 0.8 R, and p of a
    random direction scaled to that t."""
    m, rows = ls.m, []
    for t in FRAME_TS:
        q = np.array(random_chart_points(rng, m, count))
        p = rng.standard_normal(q.shape)
        p *= np.sqrt(t / make_point(m, q, p).t)[:, None]
        pt = make_point(m, q, p)
        b, binv = frame_matrices(pt.Gamma0)
        root = np.sqrt(pt.phi)[:, None] * np.ones(m.n)
        d = np.concatenate([1.0 / root, root], axis=-1)  # the diagonal of D
        f, finv = b * d[:, None, :], binv / d[:, :, None]
        frame = np.einsum("...cd,...def,...ea,...fb->...cab", finv,
                          nijenhuis_at(ls, pt), f, f)
        rows.append(np.sqrt((frame * frame).sum(axis=(-3, -2, -1))))
    return np.array(rows)


@pytest.mark.parametrize("case", FRAME_CASES)
def test_nijenhuis_frame_norm_is_a_function_of_t(case, rng):
    """The isometries of a space form act transitively on each level set of
    t in T*M, and their cotangent lifts preserve N and the frame F; so off
    the integrability rule (b1 = rule + 0.3) |N|_F in F agrees at points of
    equal t, whatever their q and the direction of p.  The perturbed base
    has no such symmetry and spreads."""
    m, c = FRAME_CASES[case]
    a1 = exponential(1.5, 0.1)
    rule = integrable_spec(a1, curvature=c, t_max=1.0)
    ls = LiftedStructure(m=m, spec=almost_product_spec(
        a1, rule.b1 + constant(0.3), t_max=1.0))
    norms = _frame_nijenhuis_norms(ls, rng)
    assert np.all(norms > 1e-3)  # off the rule
    spread = (norms.max(axis=1) - norms.min(axis=1)) / norms.min(axis=1)
    if case == "perturbed":
        assert np.all(spread > 1e-2)
    else:
        assert spread.max() <= 1e-13


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_refuses_an_empty_sample(name):
    ls = para_kahler_ls(conformal_ball(3, 1.0))
    with pytest.raises(ValueError, match="sample must be nonempty"):
        run_check(name, ls, PhaseSample(points=(), seed=1))


def test_para_kahler_constant_lambda_rational_spec():
    # u = c alpha beta^2 makes the rational family integrable; lambda = 1,
    # mu = 0 = lambda' then closes the 2-form
    m = conformal_ball(3, 1.0)
    spec = with_metric(rational_spec(1.0, 2.0, constant(4.0)),
                       constant(1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    rep = run_check("para_kahler", ls, sample_points(m, 30, 37), 1e-8)
    assert rep.passed


# --------------------------------------------------------- oracle agreement


def test_fd_oracle_energy_gradient():
    m = flat_space(2)

    def t_of_p(p):
        return 0.5 * float(p @ p)

    grad = fd_oracle(t_of_p, np.array([1.0, 2.0]))
    assert np.allclose(grad, [1.0, 2.0], rtol=1e-8)


def test_p_coordinate_entries_ad_vs_fd(rng):
    m = conformal_ball(3, 1.0)
    ls = para_kahler_ls(m)
    fn = P_coordinate_function(ls)
    for pt in sample_points(m, 10, 41).points:
        z = pt.z()
        _, jac = ad.jacobian(fn, z)
        fd = fd_oracle(fn, z)
        scale = max(1.0, float(np.max(np.abs(jac))))
        assert np.max(np.abs(jac - fd)) < 1e-6 * scale


def test_omega_entries_ad_vs_fd(rng):
    m = conformal_ball(3, -1.0)
    spec = with_metric(rational_spec(1.0, 2.0, polynomial([0.0, 1.0])),
                       affine(1.0, 0.5))
    ls = LiftedStructure(m=m, spec=spec)
    fn = Omega_coordinate(ls)
    for pt in sample_points(m, 5, 43).points:
        z = pt.z()
        _, jac = ad.jacobian(fn, z)
        fd = fd_oracle(fn, z)
        scale = max(1.0, float(np.max(np.abs(jac))))
        assert np.max(np.abs(jac - fd)) < 1e-6 * scale


def test_fd_oracle_steps_past_t_max_at_a_boundary_point(monkeypatch):
    # central differences at a point with t = t_max step t past t_max, which
    # the functions fd_oracle differences admit by lifted._T_SLACK; without
    # it the oracle raises where perfbench's digits check calls it
    m = conformal_ball(3, 1.0)
    q, p = np.array([0.3, -0.2, 0.1]), np.array([0.5, 0.4, -0.6])
    p = p * math.sqrt(2.0 / energy_density(m, q, p))
    pt = make_point(m, q, p)
    spec = integrable_spec(constant(1.0), curvature=1.0, t_max=float(pt.t))
    ls = LiftedStructure(m=m, spec=with_metric(spec, affine(1.0, 1.0)))
    assert ls.spec.t_max == pt.t and abs(pt.t - 2.0) < 1e-12
    for fn in (P_coordinate_function(ls), Omega_coordinate(ls)):
        _, jac = ad.jacobian(fn, pt.z())
        fd = fd_oracle(fn, pt.z())
        assert np.max(np.abs(jac - fd)) < 1e-6 * np.max(np.abs(jac))
        with monkeypatch.context() as patch:
            patch.setattr(lifted, "_T_SLACK", 0.0)
            with pytest.raises(RangeError, match="exceeds validated t_max"):
                fd_oracle(fn, pt.z())


def test_every_coefficient_check_refuses_t_past_t_max_alike():
    # _T_SLACK is the oracle's alone: at t = t_max + 5e-4, inside it, the
    # checks that differentiate refuse the point as the algebraic ones do
    ls = para_kahler_ls(conformal_ball(3, 1.0))
    q, p = np.array([0.3, -0.2, 0.1]), np.array([0.5, 0.4, -0.6])
    p = p * math.sqrt(2.0005 / energy_density(ls.m, q, p))
    sample = PhaseSample((make_point(ls.m, q, p),))
    assert ls.spec.t_max == 2.0 and abs(sample.points[0].t - 2.0005) < 1e-12
    readers = [name for name in CHECK_NAMES if name != "space_form"]
    assert len(readers) == 7
    lines = set()
    for name in readers:
        with pytest.raises(RangeError) as exc:
            run_check(name, ls, sample)
        lines.add(str(exc.value))
    assert lines == {"energy density t = 2.0005 exceeds validated t_max = 2"}


def test_a_nan_point_is_off_the_domain():
    # NaN fails every comparison, so the chart and t_max guards refuse what
    # is not within bound; space_form reads q alone and passes
    ls = para_kahler_ls(conformal_ball(3, 1.0))
    with pytest.raises(ChartDomainError, match="nan exceeds chart bound 1$"):
        make_point(ls.m, [math.nan, 0.0, 0.0], [0.5, 0.4, -0.6])
    sample = PhaseSample((make_point(ls.m, [0.3, -0.2, 0.1],
                                     [math.nan, 0.4, -0.6]),))
    for name in CHECK_NAMES:
        if name == "space_form":
            assert run_check(name, ls, sample).passed
            continue
        with pytest.raises(RangeError) as exc:
            run_check(name, ls, sample)
        assert str(exc.value) == (
            "energy density t = nan exceeds validated t_max = 2")


def test_kernels_ad_vs_fd_at_n8():
    m = conformal_ball(8, 1.0)
    ls = para_kahler_ls(m)

    def rel(jac, fd):
        return np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(fd)))

    for pt in sample_points(m, 3, 53).points[1:]:
        q, z = pt.q, pt.z()
        _, dgam = ad.jacobian(lambda y: christoffel_at(m, y), q)
        fd_dgam = fd_oracle(lambda y: christoffel_at(m, y), q)  # [k, i, j, a]
        assert rel(dgam, fd_dgam) < 1e-6
        assert rel(curvature_at(m, q), generic_curvature(m, q, fd_oracle)) < 1e-6
        for fn in (P_coordinate_function(ls), Omega_coordinate(ls)):
            _, jac = ad.jacobian(fn, z)
            assert rel(jac, fd_oracle(fn, z)) < 1e-6


def test_evaluators_return_float_jacobians():
    # on complex steps every evaluator gives complex128 arrays, and its
    # jacobian float64 ones
    m = conformal_ball(3, 1.0)
    ls = para_kahler_ls(m)
    pt = sample_points(m, 2, 59).points[1]
    n = m.n
    evaluators = [
        (pt.q, [lambda y: christoffel_at(m, y),
                lambda y: chart_point(m, y, pt.p).Gamma0,
                lambda y: energy_density(m, y, pt.p)]),
        (pt.z(), [lambda z: chart_point(m, z[..., :n], z[..., n:]).Gamma0,
                  P_coordinate_function(ls), Omega_coordinate(ls)]),
    ]
    for x, fns in evaluators:
        for fn in fns:
            stepped = fn(x + 1j * ad.STEP * np.eye(len(x)))
            assert stepped.dtype == np.complex128
            for part in ad.jacobian(fn, x):
                assert np.asarray(part).dtype == np.float64


# ---------------------------------------------------- biconditional battery


@pytest.mark.parametrize("field,name", [
    ("b2", "almost_product"),
    ("b1", "integrability"),
    ("c1", "compatibility"),
    ("mu", "closure"),
])
def test_biconditional_battery(field, name):
    # each identity passes tight for derived coefficients and fails loose when
    # exactly one coefficient family is scaled by 1.1, on the same sample
    m = conformal_ball(3, 1.0)
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))  # mu derived, so closure holds too
    ls = LiftedStructure(m=m, spec=spec)
    sample = sample_points(m, 15, 47)
    assert run_check(name, ls, sample).passed

    perturbed = replace(spec, **{field: getattr(spec, field) * 1.1})
    bad = LiftedStructure(m=m, spec=perturbed)
    rep = run_check(name, bad, sample, 1e-6)
    assert not rep.passed and rep.max_residual > 1e-6


# ------------------------------------------------------- verdict invariance


def test_verdicts_stable_across_seeds():
    m = conformal_ball(3, 1.0)
    good = para_kahler_ls(m)
    bad = LiftedStructure(m=m, spec=replace(good.spec, b1=good.spec.b1 * 1.1))
    for seed in (1, 2, 3, 4, 5):
        sample = sample_points(m, 10, seed)
        assert run_check("integrability", good, sample, 1e-8).passed
        assert not run_check("integrability", bad, sample, 1e-6).passed


# ----------------------------------------------------------- report plumbing


def test_make_report_handles_nan():
    rows = {"q": np.array([[0.0], [1.0]])}
    rep = make_report("demo", [0.5, math.nan], rows, 1e3)
    assert not rep.passed
    assert any("non-finite" in n for n in rep.notes)
    d = rep.to_dict()
    assert d["max_residual"] is None
    assert d["witnesses"][0]["residual"] is None  # nan witness sorts first


def test_make_report_witness_order():
    rows = {"q": np.arange(5.0)[:, None], "p": -np.arange(10.0).reshape(5, 2)}
    rep = make_report("demo", [0.1, 0.5, 0.3, 0.2, 0.4], rows, 1.0)
    assert rep.passed
    resids = [w["residual"] for w in rep.witnesses]
    assert resids == sorted(resids, reverse=True)
    assert len(rep.witnesses) == 3
    # each witness names the rows in the order given, as lists of floats
    assert rep.witnesses[0]["point"] == {"q": [1.0], "p": [-2.0, -3.0]}
    assert list(rep.witnesses[0]["point"]) == ["q", "p"]
