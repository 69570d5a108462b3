"""Cotangent points, the frame matrices, spray and Liouville field."""

import numpy as np
import pytest

from paralift import (
    ad,
    conformal_ball,
    flat_space,
    make_point,
)
from paralift.phase import chart_point
from paralift.spaceform import christoffel_at, perturbed_conformal
from paralift.verify import sample_points
from dense_metric import metric_at
from frame_reference import frame_matrices, liouville, spray


def test_zero_covector_gives_zero_energy():
    m = flat_space(2)
    pt = make_point(m, [0.7, -0.3], [0.0, 0.0])
    assert pt.t == 0.0
    assert np.array_equal(pt.g0, np.zeros(2))


def test_energy_at_origin_of_ball():
    m = conformal_ball(3, 1.0)
    pt = make_point(m, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert np.isclose(pt.t, 0.5)
    assert np.allclose(pt.g0, [1.0, 0.0, 0.0])


def test_energy_matches_matrix_oracle():
    m = conformal_ball(2, 1.0)
    q = np.array([0.3, 0.1])
    p = np.array([1.0, 2.0])
    pt = make_point(m, q, p)
    g = np.eye(2) / (1.0 + 0.25 * (q @ q)) ** 2  # chart metric, independent copy
    gi = np.linalg.inv(g)
    assert np.isclose(pt.t, 0.5 * p @ gi @ p, rtol=1e-13)
    assert np.isclose(pt.t, 2.6265625, rtol=1e-14)
    assert np.allclose(pt.g0, np.linalg.inv(metric_at(m, q)) @ p, atol=1e-13)


def test_gamma0_symmetric():
    m = conformal_ball(3, -1.0)
    pt = make_point(m, [0.2, 0.3, -0.1], [0.5, -1.0, 2.0])
    assert np.array_equal(pt.Gamma0, pt.Gamma0.T)


def _dense_gamma0(m, q, p):
    """p_k Gamma^k_ih, contracted from the dense Christoffel symbols."""
    return np.einsum("...k,...kih->...ih", p, christoffel_at(m, q))


def _rel(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("m", [flat_space(3), conformal_ball(3, 1.0),
                               conformal_ball(8, -1.0),
                               perturbed_conformal(4, 1.0, 0.1)])
def test_gamma0_matches_dense_christoffel_contraction(m):
    points = sample_points(m, 5, 3).points
    q = np.array([pt.q for pt in points])
    p = np.array([pt.p for pt in points])
    for qq, pp in [(q, p), (q[2], p[2])]:  # a batch and a single point
        gamma0 = chart_point(m, qq, pp).Gamma0
        want = _dense_gamma0(m, qq, pp)
        if m.c == 0.0:
            assert np.array_equal(gamma0, want)
        else:
            assert _rel(gamma0, want) < 1e-14
        assert np.array_equal(gamma0, np.swapaxes(gamma0, -1, -2))
    n = m.n  # values and gradients in all 2n, by complex step
    got = ad.jacobian(lambda z: chart_point(m, z[..., :n], z[..., n:]).Gamma0,
                      np.concatenate([q, p], axis=-1))
    want = ad.jacobian(lambda z: _dense_gamma0(m, z[..., :n], z[..., n:]),
                       np.concatenate([q, p], axis=-1))
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b) if m.c == 0.0 else _rel(a, b) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("model", ["flat", "ball+1", "ball-1", "perturbed"])
def test_gamma0_carries_g0_to_2t_h(n, model):
    """Gamma0 g0 = 2t h, the identity that spares Omega and theta a matrix,
    within 4 ulp of |p| |h| |g0|, the size of the terms that cancel; on
    complex steps the imaginary parts, rescaled by 1/STEP, within 4 ulp of
    that size's product-rule derivative."""
    m = {"flat": flat_space(n), "ball+1": conformal_ball(n, 1.0),
         "ball-1": conformal_ball(n, -1.0),
         "perturbed": perturbed_conformal(n, 1.0, 0.1)}[model]
    z = sample_points(m, 20, 5).points.z()
    eps = np.finfo(float).eps

    def parts(x):
        return x.real, x.imag * (1.0 / ad.STEP)

    for x in (z, z[:, None, :] + 1j * ad.STEP * np.eye(2 * n)):
        pt = chart_point(m, x[..., :n], x[..., n:])
        lhs = (pt.Gamma0 @ pt.g0[..., None])[..., 0]
        rhs = (2.0 * pt.t)[..., None] * pt.h
        norms = [[np.linalg.norm(part, axis=-1) for part in parts(v)]
                 for v in (pt.p, pt.h, pt.g0)]
        (p, dp), (h, dh), (g, dg) = norms
        for got, want, size in zip(parts(lhs), parts(rhs),
                                   (p * h * g, dp * h * g + p * dh * g
                                    + p * h * dg)):
            err = np.max(np.abs(got - want), axis=-1)
            assert np.all(err <= 4 * eps * size), (model, n)


@pytest.mark.parametrize("c", [1.0, 1e50, 1e100, 1e150])
def test_stepped_lanes_carry_the_plain_fields_bitwise(c):
    """The real parts of a sample's stepped point are its plain fields, bit
    for bit, on balls of huge curvature: a product of two stepped factors
    adds STEP^2 a' b' to its real part, which must round away even where
    the partials dwarf the values.  t alone keeps a term of its own on the
    lanes that step p: (p_a + i STEP)^2 / phi has the real part p_a^2 / phi
    - STEP^2 / phi, at most 4e-30 on these balls, so it moves t only where
    t is as small (here every t is, p being at most 1e-300), and rounds
    away at c = 1."""
    m = conformal_ball(2, c)
    sample = sample_points(m, 20, 0, p_max=1e-300)
    eps = np.finfo(float).eps
    for name in ("q", "p", "phi", "h", "g0", "t"):
        real = getattr(sample.stepped, name).real
        plain = np.broadcast_to(
            np.expand_dims(getattr(sample.points, name), 1), real.shape)
        if name == "t":  # lanes 0, 1 step q and 2, 3 step p
            shift = 0.5 * ad.STEP * (ad.STEP / sample.points.phi[:, None])
            assert np.all(np.abs(real[:, 2:] - (plain[:, 2:] - shift))
                          <= 4 * eps * (plain[:, 2:] + shift))
            assert (c > 1.0) is bool(np.any(shift > 0.0))
            real, plain = real[:, :2], plain[:, :2]
        assert real.tobytes() == np.ascontiguousarray(plain).tobytes(), (
            name, c)


def test_basis_identity_on_flat_and_at_origin():
    m = flat_space(2)
    pt = make_point(m, [0.5, 0.5], [1.0, 2.0])
    b, _ = frame_matrices(pt.Gamma0)
    assert np.array_equal(b, np.eye(4))
    mc = conformal_ball(2, 1.0)
    pt0 = make_point(mc, [0.0, 0.0], [1.0, 2.0])
    assert np.array_equal(frame_matrices(pt0.Gamma0)[0], np.eye(4))


def test_basis_inverse_closed_form():
    m = conformal_ball(2, 1.0)
    pt = make_point(m, [0.3, 0.1], [1.0, 2.0])
    b, binv = frame_matrices(pt.Gamma0)
    assert np.max(np.abs(b @ binv - np.eye(4))) < 1e-13


def test_lift_components_flat():
    m = flat_space(2)
    pt = make_point(m, [0.0, 0.0], [1.0, 2.0])
    assert np.array_equal(spray(pt), [1.0, 2.0, 0.0, 0.0])
    assert np.array_equal(liouville(pt), [0.0, 0.0, 1.0, 2.0])


def test_energy_gradient_in_p_is_g0():
    m = conformal_ball(3, 1.0)
    q = np.array([0.3, 0.1, -0.2])
    p = np.array([1.0, -2.0, 0.5])
    pt = make_point(m, q, p)
    t, grad = ad.jacobian(lambda y: chart_point(m, q, y).t, p)
    assert t == pt.t
    assert np.max(np.abs(grad - pt.g0)) < 1e-10


def test_make_point_validates_shapes():
    m = flat_space(3)
    with pytest.raises(ValueError):
        make_point(m, [0.0, 0.0], [1.0, 0.0, 0.0])


def test_a_single_point_does_not_iterate_and_a_batch_iterates_its_points():
    """Every single point raises TypeError on iteration, as on len, whether
    chart_point (numpy-scalar phi), make_point or an index built it; every
    point, chart_point's too, carries the chart it was built on."""
    m = conformal_ball(3, 1.0)
    q, p = np.array([0.1, 0.2, -0.3]), np.array([0.5, 0.0, 1.0])
    batch = make_point(m, [q, -q], [p, 2.0 * p])
    for single in (chart_point(m, q, p), make_point(m, q, p), batch[1]):
        with pytest.raises(TypeError):
            len(single)
        with pytest.raises(TypeError):
            iter(single)
        assert single.m is m
    points = list(batch)
    assert len(points) == 2 and chart_point(m, batch.q, batch.p).m is m
    for i, pt in enumerate(points):
        assert np.array_equal(pt.q, batch.q[i]) and pt.t == batch.t[i]
