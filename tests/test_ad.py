"""Forward-mode jets against finite differences and closed forms."""

import numpy as np

from paralift import ad
from paralift.verify import fd_oracle


def f_scalar(x):
    # mixes every arithmetic path: add, sub, mul, div, rsub, rtruediv
    return ((x[0] * x[1] - x[2]) / (1.0 + x[0] * x[0]) + 2.0 / (3.0 - x[1])
            + ad.exp(0.3 * x[2]))


def test_jacobian_matches_finite_differences(rng):
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, size=3)
        val, jac = ad.jacobian(lambda z: f_scalar(z), x)
        assert np.isclose(val, f_scalar(x), rtol=1e-14)
        fd = fd_oracle(lambda z: f_scalar(z), x)
        assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


def test_array_valued_jacobian(rng):
    def g(z):
        entries = [[z[0] * z[1], z[1] * z[1] * z[1]], [ad.exp(z[0]), 1.0 / z[1]]]
        return ad.block([[e[None, None] for e in row] for row in entries])

    x = np.array([0.4, 1.3])
    val, jac = ad.jacobian(g, x)
    fd = fd_oracle(g, x)
    assert val.shape == (2, 2) and jac.shape == (2, 2, 2)
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


def _nested(t0):
    """t0 seeded twice: the inner jet's value, with one seed at each level."""
    return ad.Jet(ad.Jet(t0, np.ones(1)), np.ones(1))


def test_nested_jets_give_second_derivatives():
    # t^3 on a twice-seeded t: the inner gradient of the outer one is 6t
    for t0 in (0.0, 0.5, 2.0):
        t = _nested(t0)
        cube = t * t * t
        assert np.isclose(ad.strip(cube.grad[..., 0]), 3.0 * t0 * t0, rtol=1e-13)
        second = cube.grad.grad[..., 0, 0]
        assert np.isclose(second, 6.0 * t0, rtol=1e-13, atol=1e-13)


def test_nested_einsum_gives_hessian():
    # f = (x^T A x)(b^T x): gradient by an inner seeding, Hessian by the outer
    a = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [0.0, 1.5, 2.0]])
    b = np.array([0.3, -0.7, 1.1])

    def grad_f(x):
        xs = ad.seed(x)
        f = ad.einsum("i,i->", ad.einsum("ij,j->i", a, xs), xs) * ad.einsum("i,i->", b, xs)
        return ad.partials(f, 3)

    x0 = np.array([0.4, -1.2, 0.9])
    grad, hess = ad.jacobian(grad_f, x0)
    s, quad, lin = a + a.T, x0 @ a @ x0, b @ x0
    assert np.allclose(grad, s @ x0 * lin + quad * b, rtol=1e-14, atol=1e-14)
    assert np.allclose(hess, s * lin + np.outer(s @ x0, b) + np.outer(b, s @ x0),
                       rtol=1e-14, atol=1e-14)


def test_exp_nests():
    second = ad.exp(_nested(0.7)).grad.grad[..., 0, 0]
    assert np.isclose(second, np.exp(0.7), rtol=1e-13)


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
    nested = ad.Jet(s[0], np.zeros(1))
    assert ad.strip(nested) == 1.0


def test_array_scalar_mixing():
    # ndarray operators defer to the jet: the product is one array jet
    j = ad.Jet(2.0, np.array([1.0]))
    arr = np.eye(2) * j
    assert isinstance(arr, ad.Jet)
    assert np.array_equal(arr.val, 2.0 * np.eye(2))
    assert np.array_equal(arr.grad, np.eye(2)[..., None])
