"""Forward-mode automatic differentiation at array granularity.

A :class:`Jet` holds a value ``val`` of shape S (an ndarray, or a float when
S is ()) and its first partials ``grad`` of shape S + (m,), the seed axis
last.  Arithmetic broadcasts like numpy; the stacked products
:func:`matmul`, :func:`vecdot` and :func:`outer` apply the product rule.
Derivatives are exact up to rounding, with no step size to tune.  Seeding
is one level only: a Jet is never seeded again, and a plain operand is a
constant of the seeds.  One code path thus serves plain floats, Jets and
the finite-difference cross checks.

Batch convention: every array may carry leading batch axes, one slice per
point, ahead of its own axes; a value of shape (..., S) has a gradient of
shape (..., S, m), the seed axis still last.  :func:`seed` seeds along the
last axis, axis arguments count from the end (``transpose``, ``Jet.sum``),
and the products act on the trailing matrix or vector axes like numpy's
stacked ``matmul``.  Batch slices never mix, so a batch evaluates to the
stack of its points' values, bit for bit.  :func:`map_blocks` bounds the
batch size by :data:`BLOCK_ELEMENTS`.  Constant arrays such as the identity
come from :func:`constant`, built once and read-only.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "Jet",
    "seed",
    "val",
    "partials",
    "strip",
    "jacobian",
    "matmul",
    "vecdot",
    "outer",
    "transpose",
    "block",
    "constant",
    "map_blocks",
    "BLOCK_ELEMENTS",
]

# Size of one block of points, in footprint elements per point: (2n)^3 for a
# phase-space jacobian over an n-dimensional base, (2n)^2 for a matrix.  A
# block's intermediates peak at about nine float64 values per element, so at
# about 0.6 MB: a jacobian check holds 2 points at n = 8, 37 at n = 3.
BLOCK_ELEMENTS = 1 << 13


class Jet:
    """Array value plus gradient, with one trailing axis per seeded variable."""

    __slots__ = ("val", "grad")

    # ndarray operators defer to the jet, so ``array * jet`` is a Jet.
    __array_ufunc__ = None

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    @property
    def shape(self):
        return np.shape(self.val)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        gkey = key + (slice(None),) if Ellipsis in key else key
        return Jet(np.asarray(self.val)[key], self.grad[gkey])

    def sum(self, axis):
        """Sum over one value axis; a negative axis counts from the last."""
        return Jet(self.val.sum(axis), self.grad.sum(axis - 1 if axis < 0 else axis))

    # A plain operand is a constant of this jet's seeds.

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad)
        v = self.val + other
        return Jet(v, _fit(self.grad, v, other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad)
        v = self.val - other
        return Jet(v, _fit(self.grad, v, other))

    def __rsub__(self, other):
        v = other - self.val
        return Jet(v, _fit(-self.grad, v, other))

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val * other.val,
                       _seed_axis(self.val) * other.grad
                       + _seed_axis(other.val) * self.grad)
        return Jet(self.val * other, self.grad * _seed_axis(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = 1.0 / (other.val * other.val)
            return Jet(self.val / other.val,
                       (self.grad * _seed_axis(other.val)
                        - _seed_axis(self.val) * other.grad) * _seed_axis(inv))
        return Jet(self.val / other, self.grad / _seed_axis(other))

    def __rtruediv__(self, other):
        inv = 1.0 / (self.val * self.val)
        return Jet(other / self.val, -_seed_axis(other * inv) * self.grad)

    def __neg__(self):
        return Jet(-self.val, -self.grad)

    def __repr__(self):
        return f"Jet({self.val!r}, {self.grad!r})"


def _seed_axis(c):
    """``c`` with a unit axis appended, to broadcast against a gradient."""
    return c if isinstance(c, (int, float)) else c[..., None]


def _fit(grad, v, c):
    """``grad`` broadcast to the gradient shape of ``v``, a jet value plus ``c``."""
    return grad if isinstance(c, (int, float)) else grad + np.zeros(np.shape(v) + (1,))


def seed(x):
    """Jet of the plain array ``x`` seeded by its last-axis entries."""
    if isinstance(x, Jet):
        raise TypeError("seeding is one level only: a Jet cannot be seeded")
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.shape + x.shape[-1:])
    grad[...] = constant(np.eye, x.shape[-1])
    return Jet(x, grad)


def val(x):
    """Value part of a Jet; a plain value is returned as it is."""
    return x.val if isinstance(x, Jet) else x


def partials(x, nvars):
    """Gradient in ``nvars`` seeded variables, seed axis last; zero for a constant."""
    if isinstance(x, Jet):
        return x.grad
    return np.zeros(np.shape(x) + (nvars,))


def strip(x):
    """Value part of ``x`` as a float ndarray."""
    return np.asarray(val(x), dtype=float)


def jacobian(f, x):
    """Evaluate ``f`` once on seeded inputs; return ``(value, jacobian)``.

    ``f`` maps the last axis of ``x``, ``m`` scalars, to a scalar or array;
    leading axes of ``x`` are a batch.  The jacobian has the shape of the
    output followed by one trailing axis of length ``m``.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    out = f(seed(x))
    return strip(out), np.asarray(partials(out, m), dtype=float)


def matmul(a, b):
    """Stacked ``a @ b`` over the last two axes; plain arrays stay on numpy.

    Each gradient term is one stacked product too: d(a) b with ``a.grad``
    read as a stack of (seed, j) matrices, one per row i, and a d(b) with
    ``b.grad`` read as a (j, k seed) matrix.
    """
    if not isinstance(b, Jet):
        if not isinstance(a, Jet):
            return a @ b
        return Jet(a.val @ b, _left_grad(a.grad, b))
    shape = b.grad.shape
    out = val(a) @ b.val
    right = (val(a) @ b.grad.reshape(shape[:-2] + (-1,))).reshape(
        out.shape + shape[-1:])
    if not isinstance(a, Jet):
        return Jet(out, right)
    return Jet(out, _left_grad(a.grad, b.val) + right)


def _left_grad(da, b):
    """d(a) b for da[..., i, j, m]: (m, j) @ (j, k) for each row i."""
    return np.swapaxes(np.swapaxes(da, -1, -2) @ b[..., None, :, :], -1, -2)


def vecdot(x, y):
    """Stacked dot product over the last axis, as a 1 x 1 :func:`matmul`."""
    return matmul(x[..., None, :], y[..., None])[..., 0, 0]


def outer(a, b):
    """Stacked outer product of two vectors, by broadcasting."""
    return a[..., :, None] * b[..., None, :]


def transpose(x, axes):
    """Permute the last ``len(axes)`` axes of ``x`` by ``axes``; batch axes stay."""
    if isinstance(x, Jet):
        return Jet(transpose(x.val, axes),
                   transpose(x.grad, tuple(axes) + (len(axes),)))
    lead = np.ndim(x) - len(axes)
    return np.transpose(x, tuple(range(lead)) + tuple(lead + a for a in axes))


def block(rows):
    """``np.block`` of a nested list of blocks on the last two axes.

    Blocks may be jets, and their leading batch axes broadcast.  Values are
    written into one preallocated array, gradients into another, where a
    plain block leaves zeros.
    """
    parts = [x for row in rows for x in row]
    leads = {val(x).shape[:-2] for x in parts} - {()}
    lead = leads.pop() if len(leads) == 1 else np.broadcast_shapes(*leads)
    heights = [val(row[0]).shape[-2] for row in rows]
    widths = [val(x).shape[-1] for x in rows[0]]
    out = np.empty(lead + (sum(heights), sum(widths)))
    jets = [x for x in parts if isinstance(x, Jet)]
    grad = np.zeros(out.shape + jets[0].grad.shape[-1:]) if jets else None
    top = 0
    for row, h in zip(rows, heights):
        left = 0
        for x, w in zip(row, widths):
            out[..., top:top + h, left:left + w] = val(x)
            if isinstance(x, Jet):
                grad[..., top:top + h, left:left + w, :] = x.grad
            left += w
        top += h
    return Jet(out, grad) if jets else out


@cache
def constant(make, *args):
    """The array ``make(*args)``, built once per arguments; read-only."""
    a = make(*args)
    a.setflags(write=False)
    return a


def map_blocks(fn, points, footprint):
    """``fn`` over consecutive blocks of ``points``, results concatenated.

    ``fn`` maps a block of points to one value (or row) per point, and its
    largest intermediate holds ``footprint`` elements per point.  A block
    holds as many points as :data:`BLOCK_ELEMENTS` allows, at least one.  The
    result does not depend on the block size, since batch slices never mix.
    """
    size = max(1, BLOCK_ELEMENTS // footprint)
    parts = [fn(points[i:i + size]) for i in range(0, len(points), size)]
    return np.concatenate(parts) if parts else np.zeros(0)
