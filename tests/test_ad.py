"""Complex-step jacobians against exact derivatives, finite differences and
the plain evaluators."""

from fractions import Fraction

import numpy as np
import pytest

from paralift import (
    ChartDomainError,
    LiftedStructure,
    RangeError,
    ad,
    affine,
    conformal_ball,
    constant,
    integrable_spec,
    make_point,
    with_metric,
)
from paralift.lifted import Omega_coordinate, P_coordinate_function
from paralift.spaceform import conformal_factor, curvature_at
from paralift.verify import fd_oracle


def f_scalar(x):
    # mixes every arithmetic path: add, sub, mul, div, rsub, rtruediv
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return ((x0 * x1 - x2) / (1.0 + x0 * x0) + 2.0 / (3.0 - x1)
            + x2 * x2 / (4.0 + 0.3 * x2))


def test_step_is_a_power_of_two_whose_square_underflows():
    mantissa, _ = np.frexp(ad.STEP)
    assert ad.STEP > 0.0 and mantissa == 0.5
    assert ad.STEP * ad.STEP == 0.0


# f on the last axis, and its exact partials as fractions of the arguments
EXACT = {
    "x^2": (lambda x: x[..., 0] * x[..., 0], lambda a: [2 * a[0]]),
    "x^3": (lambda x: x[..., 0] * x[..., 0] * x[..., 0],
            lambda a: [3 * a[0] ** 2]),
    "1/x": (lambda x: 1.0 / x[..., 0], lambda a: [-1 / a[0] ** 2]),
    "x y": (lambda x: x[..., 0] * x[..., 1], lambda a: [a[1], a[0]]),
    "x + y": (lambda x: x[..., 0] + x[..., 1], lambda a: [1, 1]),
}


@pytest.mark.parametrize("name", EXACT)
def test_jacobian_is_exact_to_two_ulp(rng, name):
    f, partials = EXACT[name]
    magnitudes = np.geomspace(1e-3, 1e3, 25)
    x = np.stack([magnitudes * rng.choice([-1.0, 1.0], 25),
                  rng.permutation(magnitudes)], axis=-1)
    value, jac = ad.jacobian(f, x)
    assert value.tobytes() == np.asarray(f(x), dtype=float).tobytes()
    assert jac.shape == (25, 2)
    for point, got in zip(x, jac):
        want = partials([Fraction(c) for c in point]) + [0] * 2
        for g, w in zip(got, want):
            assert abs(Fraction(g) - w) <= 2 * Fraction(np.spacing(abs(float(w)))), \
                (name, point, g, w)


def test_jacobian_matches_finite_differences(rng):
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, size=3)
        val, jac = ad.jacobian(f_scalar, x)
        assert np.isclose(val, f_scalar(x), rtol=1e-14)
        fd = fd_oracle(f_scalar, x)
        assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


def test_array_valued_jacobian(rng):
    def g(z):
        x, y = z[..., 0], z[..., 1]
        entries = [[x * y, y * y * y], [1.0 / (1.0 + x), 1.0 / y]]
        return np.block([[e[..., None, None] for e in row] for row in entries])

    x = np.array([0.4, 1.3])
    val, jac = ad.jacobian(g, x)
    fd = fd_oracle(g, x)
    assert val.shape == (2, 2) and jac.shape == (2, 2, 2)
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("batch", [(), (3,)])
def test_jacobian_is_the_split_of_stepped(rng, batch):
    """stepped keeps f's output where it lands: x's batch axes, the step axis,
    the output's own axes, the value in every real part and STEP times the
    partials in the imaginary ones, for each output of a tuple too.
    jacobian is its split, bit for bit."""
    ls = _structure()
    x = np.concatenate([rng.uniform(-0.3, 0.3, batch + (3,)),
                        rng.uniform(-0.5, 0.5, batch + (3,))], axis=-1)
    fns = (P_coordinate_function(ls), Omega_coordinate(ls))
    both = ad.stepped(lambda z: tuple(fn(z) for fn in fns), x)
    for fn, out in zip(fns, both):
        alone = ad.stepped(fn, x)
        assert out.shape == batch + (6, 6, 6) and out.dtype == np.complex128
        assert alone.tobytes() == out.tobytes()
        value = fn(x)
        assert np.array_equal(out.real, np.broadcast_to(
            value[..., None, :, :], out.shape))
        split = (value, np.moveaxis(out.imag, -3, -1) * (1.0 / ad.STEP))
        for part, want in zip(ad.jacobian(fn, x), split):
            assert part.shape == want.shape
            assert part.tobytes() == np.ascontiguousarray(want).tobytes()


def test_neg():
    val, jac = ad.jacobian(lambda x: -x, np.array([2.0, -0.0]))
    assert val.tobytes() == np.array([-2.0, 0.0]).tobytes()
    assert np.array_equal(jac, -np.eye(2))


def test_jacobian_of_identity_and_constant():
    x = np.array([1.0, 2.0])
    val, jac = ad.jacobian(lambda z: z, x)
    assert np.array_equal(val, x) and np.array_equal(jac, np.eye(2))
    val, jac = ad.jacobian(lambda z: np.full(z.shape[:-1], 3.5), x)
    assert val == 3.5 and np.array_equal(jac, [0.0, 0.0])


def test_jacobian_refuses_a_complex_point():
    with pytest.raises(TypeError, match="do not nest"):
        ad.jacobian(lambda z: z, np.array([1.0, 2.0j]))


def test_array_scalar_mixing():
    # a plain array times a stepped scalar is a stepped array whose real
    # part is the plain product, bit for bit
    val, jac = ad.jacobian(lambda z: np.eye(2) * z[..., 0, None, None],
                           np.array([2.0]))
    assert val.tobytes() == (2.0 * np.eye(2)).tobytes()
    assert np.array_equal(jac, np.eye(2)[..., None])


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# (shape of a, shape of b): single matrices, batches, and a plain 2-D factor
# broadcast against a batch
MATMUL_SHAPES = [((4, 5), (5, 3)), ((2, 4, 5), (2, 5, 3)), ((4, 5), (3, 5, 2)),
                 ((3, 1, 4), (3, 4, 1)), ((2, 8, 8), (8, 8))]


@pytest.mark.parametrize("sa,sb", MATMUL_SHAPES)
def test_matmul_matches_einsum_product_rule(rng, sa, sb):
    # A(x) = A0 + sum_a x_a A_a, likewise B: d_a (A B) = A_a B + A B_a
    m = 6
    a0, b0 = rng.standard_normal(sa), rng.standard_normal(sb)
    da, db = rng.standard_normal(sa + (m,)), rng.standard_normal(sb + (m,))
    x = 0.1 * rng.standard_normal(m)

    def product(z):  # z holds one step lane per direction, axis 0
        a = a0 + np.tensordot(z, da, ([-1], [-1]))
        b = b0 + np.tensordot(z, db, ([-1], [-1]))
        k = max(a.ndim, b.ndim)  # the lane axis leads the broadcast batch
        return (a.reshape(a.shape[:1] + (1,) * (k - a.ndim) + a.shape[1:])
                @ b.reshape(b.shape[:1] + (1,) * (k - b.ndim) + b.shape[1:]))

    val, jac = ad.jacobian(product, x)
    a = a0 + da @ x
    b = b0 + db @ x
    assert _rel(val, a @ b) < 1e-14
    want = (np.einsum("...ija,...jk->...ika", da, b)
            + np.einsum("...ij,...jka->...ika", a, db))
    assert jac.shape == want.shape
    assert _rel(jac, want) < 1e-14


def test_outer_matches_reference_bitwise(rng):
    u = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = rng.standard_normal((2, 4))
    for x, y in ((u, v), (v[..., :3], u), (u, u)):
        want = np.stack([np.multiply.outer(xi, yi) for xi, yi in zip(x, y)])
        assert ad.outer(x, y).tobytes() == want.tobytes()


def test_cached_constants_are_read_only():
    for make, args in ((np.eye, (3,)), (np.zeros, ((3, 3),)),
                       (np.full, ((3, 3), 0.5))):
        const = ad.constant(make, *args)
        assert const is ad.constant(make, *args)  # built once
        assert np.array_equal(const, make(*args))
        with pytest.raises(ValueError):
            const[0, 0] = 2.0
        with pytest.raises(ValueError):
            const += 1.0
        assert np.array_equal(const, make(*args))


# --------------------------------------- guards see the real part of a step


def _message(exc_type, fn, *args):
    with pytest.raises(exc_type) as info:
        fn(*args)
    return str(info.value)


def _structure():
    m = conformal_ball(3, 1.0)
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))
    return LiftedStructure(m=m, spec=spec)


def test_chart_error_through_jacobian_is_the_plain_one():
    ls = _structure()
    q = np.array([0.6, -0.7, 0.5])  # |q| > 1, the chart radius
    z = np.concatenate([q, [0.1, 0.2, 0.3]])
    for fn in (P_coordinate_function(ls), Omega_coordinate(ls)):
        plain = _message(ChartDomainError, fn, z)
        assert _message(ChartDomainError, ad.jacobian, fn, z) == plain
    plain = _message(ChartDomainError, conformal_factor, ls.m, q)
    assert _message(ChartDomainError, curvature_at, ls.m, q) == plain


def test_range_error_through_jacobian_is_the_plain_one():
    # the coordinate evaluators accept t up to t_max + 1e-3; this point's t
    # lies just past that slack
    ls = _structure()
    q = np.array([0.2, 0.1, -0.3])
    p = np.array([1.0, -0.5, 0.25])
    t_edge = ls.spec.t_max + 1.5e-3
    p = p * np.sqrt(t_edge / make_point(ls.m, q, p).t)
    z = np.concatenate([q, p])
    for fn in (P_coordinate_function(ls), Omega_coordinate(ls)):
        plain = _message(RangeError, fn, z)
        assert "exceeds validated t_max" in plain
        assert _message(RangeError, ad.jacobian, fn, z) == plain
