"""Derivatives by complex step through the plain evaluators.

Every evaluator of the package is written once, for arrays of real or complex
scalars, in arithmetic that is analytic: +, -, *, / and matrix products.
:func:`stepped` runs it on x + i h e_a for every coordinate direction e_a at
once, the directions stacked on one extra batch axis.  Then f(x + i h e_a) =
f(x) + i h d_a f(x) + O(h^2), and h = :data:`STEP` is a power of two whose
square underflows to 0.0: the real parts are the plain values (a quotient
rounds as a * (1/b)), and Im / h is the partial d_a f, exact to rounding,
with no difference to cancel and no step size to tune (Squire & Trapp, *SIAM
Review* 40(1), 1998; Martins, Sturdza & Alonso, *ACM TOMS* 29(3), 2003).
A reader of sums and products of partials (the Nijenhuis tensor, d omega)
takes h d_a f where it lands and rescales its result by 1/h, exactly;
:func:`jacobian` splits the stepped output into value and partials
(:func:`split`, which also serves a stepped output computed before).
One code path thus serves values, derivatives and the finite-difference
cross checks.  Domain guards compare real parts.  Steps do not nest: a
complex point is never stepped again.

Batch convention: every array may carry leading batch axes, one slice per
point, ahead of its own axes, and the step directions are one more of them.
Axis arguments count from the end (:func:`transpose`), and products act on
the trailing matrix or vector axes like numpy's stacked ``matmul``.  Batch
slices never mix, so a batch evaluates to the stack of its points' values,
bit for bit.  The checks bound their batch sizes by
:data:`BLOCK_ELEMENTS`.  Constant arrays such as the identity come from
:func:`constant`, built once and read-only.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "STEP",
    "stepped",
    "jacobian",
    "split",
    "vecdot",
    "outer",
    "transpose",
    "constant",
    "BLOCK_ELEMENTS",
]

# Size of one block of points, in footprint elements per point: (2n)^3 for a
# check that reads the stepped point, (2n)^2 for one that does not.  Sized
# for the samples a CLI run checks: a derivative check holds 151 points a
# block at n = 3 (a 100-point sample whole), 8 at n = 8 and 1 at n = 16.
# All eight checks on 100 points at n = 8 took 66, 51, 46 and 59 ms at 2^13,
# 2^14, 2^15 and 2^16 elements (least of 5 in one process, Xeon, 2 MB of L2
# cache a core, which a complex temporary of 2^15 elements fills to 512 KB).
BLOCK_ELEMENTS = 1 << 15

# The complex step h: a power of two, so Im / h is an exact rescale, and
# h * h == 0.0, so products of two steps vanish from the real parts.  A
# larger h keeps the imaginary parts normal on more charts: at 2^-600,
# Im s = -(c/2) s^2 x_a h turned subnormal near c R^2 = 1e128, and
# space_form read 2.3e3 on the c = 1e150 ball at n = 2 with p_max = 1e-300
# (4.5e-11 here).  A smaller h keeps h^2 a' b', which complex products
# form from two imaginary parts, below the subnormal range, whose
# arithmetic is slow, for |a' b'| up to 2^13: at 2^-538 it is subnormal
# from 2 on, and the benchmark configs' derivative checks took 15-46%
# longer (x86, one process, steps interleaved).
STEP = 2.0 ** -544


def _steps(m):
    """h I_m: row a is the step along coordinate a, for :func:`constant`."""
    return STEP * np.eye(m)


def stepped(f, x):
    """``f``'s output on complex-stepped inputs, one evaluation, as it lands.

    ``f`` maps the last axis of ``x``, ``m`` real scalars, to a scalar or
    array; leading axes of ``x`` are a batch.  ``f`` sees the m steps as one
    more batch axis, just before the last, and each output keeps it there:
    the value in the real part, STEP d_a f in the imaginary one."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise TypeError("complex steps do not nest: stepped takes a real point")
    x = x.astype(float, copy=False)
    m = x.shape[-1]
    z = np.empty(x.shape[:-1] + (m, m), complex)
    z.real, z.imag = x[..., None, :], constant(_steps, m)
    return f(z)


def jacobian(f, x):
    """``(value, jacobian)`` of ``f`` at ``x``, the split of :func:`stepped`:
    the jacobian has the output's shape and one trailing axis of length
    ``m``."""
    out = stepped(f, x)
    return split(out, np.ndim(out) - np.ndim(x))


def split(part, k):
    """``(value, jacobian)`` of one stepped output whose own axes are the
    last ``k``, after the step axis: the real part of lane 0, and Im / STEP
    with the step axis moved last (exact, STEP being a power of two)."""
    return part.real.take(0, axis=-k - 1), np.multiply(
        transpose(part.imag, (*range(1, k + 1), 0)), 1.0 / STEP, order="C")


def vecdot(x, y):
    """Stacked dot product over the last axis, as a 1 x 1 matrix product
    (no conjugation of a complex ``x``)."""
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def outer(a, b):
    """Stacked outer product of two vectors, by broadcasting."""
    return a[..., :, None] * b[..., None, :]


def transpose(x, axes):
    """Permute the last ``len(axes)`` axes of ``x`` by ``axes``; batch axes stay."""
    return x.transpose(_last_axes(x.ndim, axes))


@cache
def _last_axes(ndim, axes):
    """The axis order of :func:`transpose` on ``ndim`` axes."""
    lead = ndim - len(axes)
    return tuple(range(lead)) + tuple(lead + a for a in axes)


@cache
def constant(make, *args):
    """The array ``make(*args)``, built once per arguments; read-only."""
    a = make(*args)
    a.setflags(write=False)
    return a
