"""Forward-mode jets against finite differences and closed forms."""

import numpy as np
import pytest

from paralift import ad
from paralift.verify import fd_oracle
import jet_reference as ref


def f_scalar(x):
    # mixes every arithmetic path: add, sub, mul, div, rsub, rtruediv
    return ((x[0] * x[1] - x[2]) / (1.0 + x[0] * x[0]) + 2.0 / (3.0 - x[1])
            + x[2] * x[2] / (4.0 + 0.3 * x[2]))


def test_jacobian_matches_finite_differences(rng):
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, size=3)
        val, jac = ad.jacobian(lambda z: f_scalar(z), x)
        assert np.isclose(val, f_scalar(x), rtol=1e-14)
        fd = fd_oracle(lambda z: f_scalar(z), x)
        assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


def test_array_valued_jacobian(rng):
    def g(z):
        entries = [[z[0] * z[1], z[1] * z[1] * z[1]], [1.0 / (1.0 + z[0]), 1.0 / z[1]]]
        return ad.block([[e[None, None] for e in row] for row in entries])

    x = np.array([0.4, 1.3])
    val, jac = ad.jacobian(g, x)
    fd = fd_oracle(g, x)
    assert val.shape == (2, 2) and jac.shape == (2, 2, 2)
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


def test_neg():
    x = ad.Jet(2.0, np.array([1.0]))
    z = -x
    assert z.val == -2.0 and z.grad[0] == -1.0


def test_seed_strip_partials():
    x = np.array([1.0, 2.0])
    s = ad.seed(x)
    assert ad.val(s[0]) == 1.0
    assert ad.strip(s[1]) == 2.0
    assert np.array_equal(ad.partials(s[0], 2), [1.0, 0.0])
    assert np.array_equal(ad.partials(3.5, 2), [0.0, 0.0])


def test_seed_refuses_a_jet():
    s = ad.seed(np.array([1.0, 2.0]))
    with pytest.raises(TypeError, match="one level only"):
        ad.seed(s)


def test_array_scalar_mixing():
    # ndarray operators defer to the jet: the product is one array jet
    j = ad.Jet(2.0, np.array([1.0]))
    arr = np.eye(2) * j
    assert isinstance(arr, ad.Jet)
    assert np.array_equal(arr.val, 2.0 * np.eye(2))
    assert np.array_equal(arr.grad, np.eye(2)[..., None])


def _jet(rng, shape, m):
    return ad.Jet(rng.standard_normal(shape), rng.standard_normal(shape + (m,)))


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# (shape of a, shape of b): single matrices, batches, and a plain 2-D factor
# broadcast against a batch
MATMUL_SHAPES = [((4, 5), (5, 3)), ((2, 4, 5), (2, 5, 3)), ((4, 5), (3, 5, 2)),
                 ((3, 1, 4), (3, 4, 1)), ((2, 8, 8), (8, 8))]


@pytest.mark.parametrize("sa,sb", MATMUL_SHAPES)
def test_matmul_matches_einsum_product_rule(rng, sa, sb):
    m = 6
    a, b = _jet(rng, sa, m), _jet(rng, sb, m)
    for x, y in ((a, b), (a, b.val), (a.val, b)):
        got, want = ad.matmul(x, y), ref.matmul(x, y)
        assert got.shape == want.shape and got.grad.shape == want.grad.shape
        assert _rel(got.val, want.val) < 1e-14
        assert _rel(got.grad, want.grad) < 1e-14
    assert np.array_equal(ad.matmul(a.val, b.val), a.val @ b.val)


def test_outer_and_block_match_reference_bitwise(rng):
    m = 5
    u, v = _jet(rng, (2, 3), m), _jet(rng, (2, 4), m)
    for x, y in ((u, v), (u, v.val), (u.val, v)):
        got, want = ad.outer(x, y), ref.outer(x, y)
        assert np.array_equal(got.val, want.val)
        assert np.array_equal(got.grad, want.grad)
    a, c = _jet(rng, (2, 3, 3), m), _jet(rng, (3, 3), m)  # c broadcasts
    rows = [[np.eye(3), a], [-c, np.zeros((3, 3))]]
    got, want = ad.block(rows), ref.block(rows)
    assert got.shape == (2, 6, 6) and got.grad.shape == (2, 6, 6, m)
    assert np.array_equal(got.val, want.val)
    assert np.array_equal(got.grad, want.grad)
    plain = [[np.eye(2), np.ones((2, 3))], [np.zeros((1, 2)), np.ones((1, 3))]]
    assert np.array_equal(ad.block(plain), np.block(plain))
