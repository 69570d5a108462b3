"""Forward-mode automatic differentiation at array granularity.

A :class:`Jet` holds a value ``val`` of shape S (an ndarray, or a float when
S is ()) and its first partials ``grad`` of shape S + (m,), the seed axis
last.  Arithmetic broadcasts like numpy; contractions go through the
two-operand :func:`einsum`, which applies the product rule.  Derivatives are
exact up to rounding, with no step size to tune.

``val`` may itself be a Jet one nesting level out: seeding inside a seeded
computation gives exact mixed second derivatives, as the curvature,
Nijenhuis and d Omega evaluations need.  Where operands of different depth
meet, the shallower is a constant of the deeper one's seeds.  One code path
thus serves plain floats, Jets and the finite-difference cross checks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet",
    "seed",
    "val",
    "partials",
    "strip",
    "jacobian",
    "derivative",
    "exp",
    "einsum",
    "matmul",
    "outer",
    "block",
]


class Jet:
    """Array value plus gradient, with one trailing axis per seeded variable."""

    __slots__ = ("val", "grad", "depth")

    # ndarray operators defer to the jet, so ``array * jet`` is a Jet.
    __array_ufunc__ = None

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad
        self.depth = val.depth + 1 if isinstance(val, Jet) else 1

    @property
    def shape(self):
        return np.shape(self.val)

    @property
    def ndim(self):
        return len(self.shape)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        gkey = key + (slice(None),) if Ellipsis in key else key
        v = self.val if isinstance(self.val, Jet) else np.asarray(self.val)
        return Jet(v[key], self.grad[gkey])

    def transpose(self, axes=None):
        axes = tuple(range(self.ndim))[::-1] if axes is None else tuple(axes)
        return Jet(self.val.transpose(axes), self.grad.transpose(axes + (self.ndim,)))

    def sum(self, axis=None):
        """Sum over the given value axes, all of them by default."""
        axis = tuple(range(self.ndim)) if axis is None else axis
        return Jet(self.val.sum(axis=axis), self.grad.sum(axis=axis))

    # An operand of lower depth is a constant of this jet's seeds; one of
    # higher depth takes over the operation through its reflected method.

    def __add__(self, other):
        d = _depth(other)
        if d > self.depth:
            return other.__radd__(self)
        if d == self.depth:
            return Jet(self.val + other.val, self.grad + other.grad)
        v = self.val + other
        return Jet(v, _fit(self.grad, v, other))

    __radd__ = __add__

    # a - b and a + (-b) round identically
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        d = _depth(other)
        if d > self.depth:
            return other.__rmul__(self)
        if d == self.depth:
            return Jet(self.val * other.val,
                       _seed_axis(self.val) * other.grad
                       + _seed_axis(other.val) * self.grad)
        return Jet(self.val * other, self.grad * _seed_axis(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        d = _depth(other)
        if d > self.depth:
            return other.__rtruediv__(self)
        if d == self.depth:
            inv = 1.0 / (other.val * other.val)
            return Jet(self.val / other.val,
                       (self.grad * _seed_axis(other.val)
                        - _seed_axis(self.val) * other.grad) * _seed_axis(inv))
        return Jet(self.val / other, self.grad / _seed_axis(other))

    def __rtruediv__(self, other):
        inv = 1.0 / (self.val * self.val)
        return Jet(other / self.val, -_seed_axis(other * inv) * self.grad)

    def __pow__(self, power):
        if isinstance(power, Jet):
            raise TypeError("jet exponents are not supported")
        if power == 0:
            return Jet(self.val ** 0, 0.0 * self.grad)
        return Jet(self.val ** power,
                   _seed_axis(power * self.val ** (power - 1)) * self.grad)

    def __neg__(self):
        return Jet(-self.val, -self.grad)

    # Comparisons act on the underlying value, which is what domain and
    # positivity guards need while evaluating on Jets.

    def __lt__(self, other):
        return strip(self) < strip(other)

    def __le__(self, other):
        return strip(self) <= strip(other)

    def __gt__(self, other):
        return strip(self) > strip(other)

    def __ge__(self, other):
        return strip(self) >= strip(other)

    def __repr__(self):
        return f"Jet({self.val!r}, {self.grad!r})"


def _depth(x):
    return x.depth if isinstance(x, Jet) else 0


def _seed_axis(c):
    """``c`` with a unit axis appended, to broadcast against a gradient."""
    return c if isinstance(c, (int, float)) else c[..., None]


def _fit(grad, v, c):
    """``grad`` broadcast to the gradient shape of ``v``, a jet value plus ``c``."""
    return grad if isinstance(c, (int, float)) else grad + np.zeros(np.shape(v) + (1,))


def seed(x):
    """Jet of a 1-d array seeded by its own entries; ``x`` may itself be a Jet."""
    if not isinstance(x, Jet):
        x = np.asarray(x, dtype=float)
    return Jet(x, np.eye(x.shape[0]))


def val(x):
    """Value part, removing one level of seeding."""
    return x.val if isinstance(x, Jet) else x


def partials(x, nvars):
    """Gradient in ``nvars`` seeded variables, seed axis last; zero for a constant."""
    if isinstance(x, Jet):
        return x.grad
    return np.zeros(np.shape(x) + (nvars,))


def strip(x):
    """Plain value of a possibly nested jet, as a float ndarray."""
    while isinstance(x, Jet):
        x = x.val
    return np.asarray(x, dtype=float)


def jacobian(f, x):
    """Evaluate ``f`` once on seeded inputs; return ``(value, jacobian)``.

    ``f`` maps a 1-d array of ``m`` scalars to a scalar or array.  The
    jacobian has the shape of the output followed by one trailing axis of
    length ``m``.
    """
    x = np.asarray(x, dtype=float)
    m = x.size
    out = f(seed(x))
    return strip(out), np.asarray(partials(out, m), dtype=float)


def derivative(f, t):
    """First derivative of the scalar function ``f`` at ``t``, elementwise.

    ``t`` may be an array of points, and may itself be a Jet, in which case
    the result carries the outer derivatives of the (inner) derivative.
    """
    out = f(Jet(t, np.ones(np.shape(t) + (1,))))
    return out.grad[..., 0] if _depth(out) > _depth(t) else 0.0 * t


def exp(x):
    """Exponential that follows Jet arguments (numpy otherwise)."""
    if isinstance(x, Jet):
        e = exp(x.val)
        return Jet(e, _seed_axis(e) * x.grad)
    return np.exp(x)


def einsum(subscripts, a, b):
    """Two-operand ``np.einsum`` with an explicit output (``"ij,jk->ik"``).

    The seed axis rides under a letter the subscripts leave free; nested jets
    recurse one level per call.
    """
    da, db = _depth(a), _depth(b)
    if da == db == 0:
        return np.einsum(subscripts, a, b)
    inputs, out = subscripts.split("->")
    sa, sb = inputs.split(",")
    s = next(c for c in "zyxwvutsrqponmlkjihgfedcba" if c not in subscripts)
    left = f"{sa}{s},{sb}->{out}{s}"   # seed axis on a
    right = f"{sa},{sb}{s}->{out}{s}"  # seed axis on b
    if da == db:
        return Jet(einsum(subscripts, a.val, b.val),
                   einsum(left, a.grad, b.val) + einsum(right, a.val, b.grad))
    if da > db:
        return Jet(einsum(subscripts, a.val, b), einsum(left, a.grad, b))
    return Jet(einsum(subscripts, a, b.val), einsum(right, a, b.grad))


_MATMUL = {(2, 2): "ij,jk->ik", (2, 1): "ij,j->i", (1, 2): "i,ij->j",
           (1, 1): "i,i->"}


def matmul(a, b):
    """``a @ b`` for 1-d and 2-d operands; plain arrays stay on numpy."""
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return a @ b
    return einsum(_MATMUL[np.ndim(a), np.ndim(b)], a, b)


def outer(a, b):
    """Outer product of two 1-d operands."""
    return einsum("i,j->ij", a, b)


def block(rows):
    """``np.block`` of a nested list of 2-d blocks, any of them jets."""
    return _concatenate([_concatenate(row, 1) for row in rows], 0)


def _concatenate(parts, axis):
    depth = max(_depth(x) for x in parts)
    if depth == 0:
        return np.concatenate(parts, axis)
    m = next(x for x in parts if _depth(x) == depth).grad.shape[-1]
    vals = [x.val if _depth(x) == depth else x for x in parts]
    grads = [x.grad if _depth(x) == depth else np.zeros(np.shape(x) + (m,))
             for x in parts]
    return Jet(_concatenate(vals, axis), _concatenate(grads, axis))
