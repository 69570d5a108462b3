"""Charts: the one chart formula, metric, Christoffel, curvature, and the
space-form shape test."""

import math

import numpy as np
import pytest

from paralift import (
    ad,
    ChartDomainError,
    LiftedStructure,
    PhaseSample,
    SpaceForm,
    conformal_ball,
    flat_space,
    make_point,
    perturbed_conformal,
    run_check,
)
from paralift.phase import stepped_point
from paralift.spaceform import (
    _DOMAIN_SLACK,
    christoffel_at,
    conformal_fields,
    curvature_at,
)
from paralift.verify import fd_oracle
from chart_sampling import random_chart_points
from curvature_reference import generic_curvature
from dense_metric import metric_at, phi_at

ALL_MODELS = [
    flat_space(3),
    conformal_ball(3, 1.0),
    conformal_ball(3, -1.0),
    perturbed_conformal(3, 1.0, 0.1),
]


def conformal_christoffel(m, x):
    """Independent closed form for g = I / (1 + (c/4)|x|^2)^2.

    With s = 1/(1 + (c/4)|x|^2) the symbols are
    Gamma^k_ij = -(c/2) s (x_i d_jk + x_j d_ik - x_k d_ij).
    """
    n = len(x)
    s = 1.0 / (1.0 + 0.25 * m.c * np.dot(x, x))
    out = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[k, i, j] = -0.5 * m.c * s * (
                    x[i] * (j == k) + x[j] * (i == k) - x[k] * (i == j))
    return out


def test_flat_metric_is_identity_on_its_chart():
    # the flat chart is tested against its radius like every other chart
    for radius in (1.0, 6.0):
        m = flat_space(3, radius)
        for x in ([0.0, 0.0, 0.0], [0.2, -0.5, 0.6], [0.0, 0.0, radius]):
            assert np.array_equal(metric_at(m, np.array(x)), np.eye(3))
    with pytest.raises(ChartDomainError):
        metric_at(flat_space(3), np.array([0.2, -1.0, 5.0]))


def test_conformal_ball_identity_at_origin():
    m = conformal_ball(3, 1.0)
    assert np.allclose(metric_at(m, np.zeros(3)), np.eye(3))
    assert np.allclose(np.linalg.inv(metric_at(m, np.zeros(3))), np.eye(3))
    assert make_point(m, np.zeros(3), np.ones(3)).phi == 1.0


def test_chart_domain_error_at_singularity():
    m = conformal_ball(2, -1.0, chart_radius=1.9)
    x = np.array([2.0, 0.0])  # |x|^2 = 4 hits the conformal singularity
    with pytest.raises(ChartDomainError):
        metric_at(m, x)


def test_chart_radius_bound_enforced():
    m = conformal_ball(2, 1.0, chart_radius=0.5)
    with pytest.raises(ChartDomainError):
        metric_at(m, np.array([0.6, 0.0]))


def test_invalid_space_forms_rejected():
    with pytest.raises(ValueError):
        SpaceForm(1, 0.0)
    with pytest.raises(ValueError):
        conformal_ball(3, -1.0, chart_radius=2.0)


def _edge(radius):
    """The largest |x|^2 a chart of this radius admits, as it rounds there."""
    return radius ** 2 * (1.0 + _DOMAIN_SLACK)


def _first_radius_reaching(edge):
    """The least radius whose closed chart ball reaches |x|^2 = ``edge``."""
    r = math.sqrt(edge / (1.0 + _DOMAIN_SLACK))
    while _edge(r) >= edge:
        r = math.nextafter(r, 0.0)
    while _edge(r) < edge:
        r = math.nextafter(r, math.inf)
    return r


def _least_edge_of_overflowing_inverse_phi():
    """The least |x|^2 at which 1/phi of the c = +1 ball overflows, in
    numpy's arithmetic: a bisection over the bits of positive floats, which
    order as their values do."""
    def overflows(bits):
        r2 = np.int64(bits).view(np.float64)
        with np.errstate(over="ignore", divide="ignore"):
            s = 1.0 / (1.0 + 0.25 * r2)
            return 1.0 / (s * s) == np.inf

    lo, hi = (int(np.float64(x).view(np.int64)) for x in (1.0, 1e300))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if overflows(mid) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


def _boundary_charts():
    """(accepted, refused) charts on either side of the rules that keep the
    conformal denominator and the perturbation factor positive and 1/phi
    finite."""
    at = _first_radius_reaching(4.0)  # c = -1: -4/c = 4, exact in floats
    huge = _first_radius_reaching(_least_edge_of_overflowing_inverse_phi())
    third = math.sqrt(4.0 / 3.0 * (1.0 - 1e-14) / (1.0 + _DOMAIN_SLACK))
    x0 = math.sqrt(1.0 + _DOMAIN_SLACK)  # the closed ball's reach at R = 1
    pairs = [
        (conformal_ball(3, -1.0, math.nextafter(at, 0.0)),
         lambda: conformal_ball(3, -1.0, at)),
        (conformal_ball(3, -3.0, third),
         lambda: conformal_ball(3, -3.0, _first_radius_reaching(4.0 / 3.0))),
        (conformal_ball(3, 1.0, math.nextafter(huge, 0.0)),
         lambda: conformal_ball(3, 1.0, huge)),
        # the perturbation factor near 0 takes 1/phi past the float range
        (perturbed_conformal(3, 1.0, 0.5e-77, chart_radius=1e77),
         lambda: perturbed_conformal(3, 1.0, (1.0 - 1e-12) / 1e77 / x0,
                                     chart_radius=1e77)),
    ]
    for sign in (1.0, -1.0):
        pairs += [
            (perturbed_conformal(3, 1.0, sign * (1.0 - 1e-12) / x0),
             lambda sign=sign: perturbed_conformal(3, 1.0, sign)),
            (perturbed_conformal(3, 1.0, sign * (1.0 - 1e-12) / x0 / 2.0,
                                 chart_radius=2.0),
             lambda sign=sign: perturbed_conformal(3, 1.0, sign * 0.5,
                                                   chart_radius=2.0)),
        ]
    return pairs


def test_chart_domain_is_refused_on_the_far_side_of_each_rule():
    for _, refused in _boundary_charts():
        with pytest.raises(ValueError):
            refused()
    # the closed ball reaches -4/c though R^2 alone falls short of it
    assert _first_radius_reaching(4.0) ** 2 < 4.0
    flat_space(3, 1.3e154)  # R^2 (1 + slack) is a float
    assert 2.3e77 < _boundary_charts()[2][0].chart_radius < 2.4e77
    for radius in (math.nan, math.inf, 1.5e154):
        for make in (flat_space, lambda n, r: conformal_ball(n, -1.0, r)):
            with pytest.raises(ValueError):
                make(3, radius)
    for c, strength in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan)):
        with pytest.raises(ValueError):
            perturbed_conformal(3, c, strength)


def test_points_on_the_closed_ball_of_an_edge_chart_are_regular():
    # what lets a point be tested against the radius alone: on a chart just
    # inside each rule, the points at the radius and at the far edge of the
    # closed ball, on both sides of 0 along x_0, have a finite positive phi
    # (so a positive denominator and perturbation factor) and a finite h,
    # on their stepped lanes too
    for m, _ in _boundary_charts():
        reach = math.sqrt(_edge(m.chart_radius))
        while reach * reach > _edge(m.chart_radius):
            reach = math.nextafter(reach, 0.0)
        for r in (m.chart_radius, reach):
            for x0 in (r, -r):
                q = np.array([x0, 0.0, 0.0])
                pt = make_point(m, q, np.array([0.1, 0.2, -0.3]))
                lanes = stepped_point(m, pt)
                for phi, h in ((pt.phi, pt.h), (lanes.phi.real, lanes.h)):
                    assert np.all(np.isfinite(phi)) and np.all(phi > 0.0)
                    assert np.all(np.isfinite(h))


def test_perturbed_with_zero_strength_matches_conformal(rng):
    mp = perturbed_conformal(3, 1.0, 0.0)
    mc = conformal_ball(3, 1.0)
    for x in random_chart_points(rng, mc, 5):
        assert np.array_equal(metric_at(mp, x), metric_at(mc, x))


def test_inverse_metric_against_direct_inversion(rng):
    for m in ALL_MODELS:
        for x in random_chart_points(rng, m, 5):
            g = metric_at(m, x)
            p = np.linspace(-1.0, 1.5, m.n)
            pt = make_point(m, x, p)
            gi = np.linalg.inv(g)
            assert np.array_equal(g, pt.phi * np.eye(m.n))
            assert np.max(np.abs(pt.g0 - gi @ p)) < 1e-13
            assert abs(pt.t - 0.5 * p @ gi @ p) < 1e-13
            assert np.array_equal(g, g.T)


def test_christoffel_flat_and_origin_vanish():
    assert np.array_equal(christoffel_at(flat_space(3), np.ones(3) * 0.3),
                          np.zeros((3, 3, 3)))
    assert np.allclose(christoffel_at(conformal_ball(3, 1.0), np.zeros(3)),
                       np.zeros((3, 3, 3)), atol=1e-15)


def test_christoffel_frozen_values():
    # independently derived conformal closed form at c=1, n=2, x=(0.3, 0.1)
    m = conformal_ball(2, 1.0)
    x = np.array([0.3, 0.1])
    gam = christoffel_at(m, x)
    assert np.allclose(gam, conformal_christoffel(m, x), atol=1e-14)
    assert np.isclose(gam[0, 0, 0], -0.14634146341463414, atol=1e-15)
    assert np.isclose(gam[0, 0, 1], -0.04878048780487805, atol=1e-15)
    assert np.isclose(gam[1, 0, 0], +0.04878048780487805, atol=1e-15)
    assert np.isclose(gam[1, 1, 1], -0.04878048780487805, atol=1e-15)


def test_christoffel_against_fd_oracle(rng):
    m = conformal_ball(2, 1.0)
    x = np.array([0.3, 0.1])
    gam = christoffel_at(m, x)
    dg = fd_oracle(lambda y: metric_at(m, y), x)  # dg[j, l, i] = d_i g_jl
    gi = np.linalg.inv(metric_at(m, x))
    oracle = np.zeros_like(gam)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                oracle[k, i, j] = 0.5 * sum(
                    gi[k, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l])
                    for l in range(2))
    assert np.allclose(gam, oracle, rtol=1e-6, atol=1e-9)


def test_christoffel_symmetric_lower_indices(rng):
    for m in ALL_MODELS:
        for x in random_chart_points(rng, m, 3):
            gam = christoffel_at(m, x)
            assert np.array_equal(gam, np.transpose(gam, (0, 2, 1)))


def test_metric_and_christoffel_ad_vs_fd_all_models(rng):
    # every first derivative used downstream agrees with central differences
    for m in ALL_MODELS:
        for x in random_chart_points(rng, m, 10):
            fd_g = fd_oracle(lambda y: metric_at(m, y), x)
            _, ad_g = ad.jacobian(lambda y: metric_at(m, y), x)
            scale = max(1.0, np.max(np.abs(ad_g)))
            assert np.max(np.abs(ad_g - fd_g)) < 1e-6 * scale
            fd_gam = fd_oracle(lambda y: christoffel_at(m, y), x)
            _, ad_gam = ad.jacobian(lambda y: christoffel_at(m, y), x)
            scale = max(1.0, np.max(np.abs(ad_gam)))
            assert np.max(np.abs(ad_gam - fd_gam)) < 1e-6 * scale


def test_curvature_flat_zero_and_origin_shape():
    assert np.array_equal(curvature_at(flat_space(3), np.zeros(3)),
                          np.zeros((3,) * 4))
    m = conformal_ball(3, 1.0)
    riem = curvature_at(m, np.zeros(3))
    eye = np.eye(3)
    target = np.einsum("hi,kj->hkij", eye, eye) - np.einsum("hj,ki->hkij", eye, eye)
    assert np.allclose(riem, target, atol=1e-13)


def test_curvature_antisymmetry_exact(rng):
    for m in ALL_MODELS:
        for x in random_chart_points(rng, m, 3):
            riem = curvature_at(m, x)
            assert np.array_equal(riem, -np.transpose(riem, (0, 1, 3, 2)))


def test_perturbed_model_breaks_space_form_shape(rng):
    m = perturbed_conformal(3, 1.0, 0.2)
    x = np.array([0.3, -0.2, 0.4])
    from paralift.spaceform import space_form_residual
    assert space_form_residual(m, x) > 1e-3


def space_form_report(m, rows, tol=None):
    """The space_form report on the points (q, 0) of ``m``, q in ``rows``."""
    points = tuple(make_point(m, q, np.zeros(m.n)) for q in rows)
    return run_check("space_form", LiftedStructure(m=m), PhaseSample(points),
                     tol)


@pytest.mark.parametrize("c", [-1.0, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_space_form_passes_for_conformal_ball(rng, c, n):
    m = conformal_ball(n, c)
    pts = random_chart_points(rng, m, 20 if n == 3 else 8)
    rep = space_form_report(m, pts, 1e-9)
    assert rep.passed, rep.max_residual


def test_check_space_form_flat_tight(rng):
    m = flat_space(3)
    rep = space_form_report(m, random_chart_points(rng, m, 10), 1e-13)
    assert rep.passed


def test_check_space_form_fails_for_perturbed(rng):
    for strength in (0.05, 0.1):
        m = perturbed_conformal(3, 1.0, strength)
        rep = space_form_report(m, random_chart_points(rng, m, 20), 1e-6)
        assert not rep.passed
        assert rep.max_residual > 1e-6


def test_check_space_form_reads_q_of_a_phase_sample():
    # a drawn sample and the points (q, 0) of its q: the same report, at the
    # default tolerance, with witnesses naming q alone; only the drawn
    # sample carries a seed
    from dataclasses import replace

    from paralift.verify import DEFAULT_TOLERANCES, sample_points
    m = conformal_ball(3, 1.0)
    sample = sample_points(m, 5, 3)
    rep = run_check("space_form", LiftedStructure(m=m), sample)
    assert rep.tolerance == DEFAULT_TOLERANCES["space_form"] and rep.seed == 3
    assert all(set(w["point"]) == {"q"} for w in rep.witnesses)
    rows = space_form_report(m, [pt.q for pt in sample.points])
    assert rows == replace(rep, seed=None)


def test_check_space_form_rejects_empty():
    with pytest.raises(ValueError):
        space_form_report(flat_space(2), [], 1e-9)


def _models(n):
    return [flat_space(n), conformal_ball(n, 1.0), conformal_ball(n, -1.0),
            perturbed_conformal(n, 1.0, 0.1)]


def _half_log_gradient(m, x):
    """(1/2) d log phi by central differences, on a chart 1% wider than
    ``m``'s so that the stencil may step past the edge of ``m``'s chart."""
    wide = SpaceForm(m.n, m.c, 1.01 * m.chart_radius, m.strength)
    return 0.5 * fd_oracle(lambda y: np.log(phi_at(wide, y)), x)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_log_gradient_matches_fd_of_log_phi(rng, n):
    for m in _models(n):
        xs = np.array(random_chart_points(rng, m, 4))
        edge = m.chart_radius * xs[1] / np.linalg.norm(xs[1])  # |x| = R
        xs = np.concatenate([xs, [edge, -edge]])
        phi, h = conformal_fields(m, xs)  # one batch
        assert h.shape == xs.shape
        assert np.array_equal(phi, phi_at(m, xs))
        for x, hb in zip(xs, h):
            fd = _half_log_gradient(m, x)
            single = conformal_fields(m, x)[1]
            assert np.array_equal(single, hb)
            if m == flat_space(n):
                assert np.array_equal(single, np.zeros(n)) and not fd.any()
            else:
                assert np.max(np.abs(single - fd)) <= 1e-8 * np.max(np.abs(fd))



@pytest.mark.parametrize("n", [2, 3, 8])
def test_closed_form_curvature_matches_the_generic_route(rng, n):
    # the generic route (Christoffel jacobian plus the quadratic term) is the
    # oracle, itself cross-checked against central differences
    for m in _models(n):
        xs = np.array(random_chart_points(rng, m, 3))
        got = curvature_at(m, xs)
        want = generic_curvature(m, xs)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, m
        fd = generic_curvature(m, xs[0], fd_oracle)
        assert np.max(np.abs(want[0] - fd)) <= 1e-6 * scale, m


def test_energy_density_is_the_chart_point_t():
    from paralift import phase
    from paralift.phase import energy_density

    xs = np.array([[0.1, -0.2, 0.3], [0.4, 0.0, -0.5]])
    ps = np.array([[1.0, 0.5, -0.25], [0.0, 0.0, 0.0]])
    for m in ALL_MODELS:
        want = phase.chart_point(m, xs, ps).t
        assert np.array_equal(energy_density(m, xs, ps), want)
        assert np.array_equal(make_point(m, xs, ps).t, want)


def _former_model_fields(m, x):
    """phi and h by the three formulas of the former chart models: the
    flat model's phi = 1 and h = 0, the ball's phi = s^2 and the perturbed
    model's phi = s^2 w, with s = 1 / (1 + (c/4)|x|^2) and w = 1 + eps x_0."""
    x = np.asarray(x)
    r2 = (x * x).sum(-1)
    if m == flat_space(m.n, m.chart_radius):
        return np.ones(np.shape(r2)), np.zeros(np.shape(x))
    s = 1.0 / (1.0 + 0.25 * m.c * r2)
    h = (-0.5 * m.c * s)[..., None] * x
    if m.strength == 0.0:
        return s * s, h
    w = 1.0 + m.strength * x[..., 0]
    return (s * s) * w, h + (0.5 * m.strength / w)[..., None] * np.eye(m.n)[0]


@pytest.mark.parametrize("n", [2, 3, 8])
def test_one_formula_is_each_former_model_bitwise(rng, n):
    # on real points and on their complex-stepped lanes; only the sign of a
    # zero may differ, which np.array_equal does not see
    for m in _models(n):
        xs = np.array(random_chart_points(rng, m, 5))
        edge = m.chart_radius * xs[1] / np.linalg.norm(xs[1])
        xs = np.concatenate([xs, [edge, -edge]])
        for got, want in (
                (conformal_fields(m, xs), _former_model_fields(m, xs)),
                (ad.stepped(lambda z: conformal_fields(m, z), xs),
                 ad.stepped(lambda z: _former_model_fields(m, z), xs))):
            for g, w in zip(got, want):
                assert np.array_equal(g, w), m


def test_the_constructors_are_points_of_one_family():
    for n in (2, 3, 8):
        assert conformal_ball(n, 0.0) == flat_space(n)
        assert conformal_ball(n, 0.0, 2.5) == flat_space(n, 2.5)
        for c in (1.0, -1.0, 0.0):
            assert perturbed_conformal(n, c, 0.0) == conformal_ball(n, c)
    m = flat_space(2, 0.5)
    for x in ([0.6, 0.0], [0.4, -0.4]):
        with pytest.raises(ChartDomainError):
            conformal_fields(m, np.array(x))
    conformal_fields(m, np.array([0.5, 0.0]))
