"""Cotangent points, the frame matrices, spray and Liouville field."""

import numpy as np
import pytest

from paralift import (
    ad,
    conformal_ball,
    energy_density,
    flat_space,
    make_point,
)
from paralift.phase import frame_matrices, liouville, spray
from dense_metric import metric_at


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
    seeded = ad.seed(p)
    t = energy_density(m, q, seeded)
    grad = ad.strip(ad.partials(t, 3))
    assert np.max(np.abs(grad - pt.g0)) < 1e-10


def test_make_point_validates_shapes():
    m = flat_space(3)
    with pytest.raises(ValueError):
        make_point(m, [0.0, 0.0], [1.0, 0.0, 0.0])
