"""Component matrices of the lifted structures P, G and Omega.

All three tensors are diagonal lifts: in the adapted frame their 2n x 2n
matrices decompose into n x n blocks built from g, g^{-1}, p (x) p and
g0 (x) g0 with coefficients that are functions of the energy density t.
Index layout follows the axis convention of :mod:`paralift.phase`
(horizontal slots first, then vertical):

    P = [[0,  P2], [P1, 0]],   P1 = a1 g + b1 p(x)p,  P2 = a2 g^-1 + b2 g0(x)g0
    G = [[G1, 0], [0, G2]],    G1 = c1 g + d1 p(x)p,  G2 = c2 g^-1 + d2 g0(x)g0
    Omega = G . P (as Omega(X, Y) = G(X, PY))

P1 maps horizontal to vertical slots and sits in the lower-left block; P2
maps vertical to horizontal and sits in the upper-right block.  The blocks
read one chart point (:mod:`paralift.phase`), with g = phi I.  The public
adapted evaluators first bring their point onto the structure's chart
(:func:`paralift.phase.on_chart`); the private evaluators the checks call
read theirs as it is.  Each refuses a t past t_max but the functions that
fd_oracle differences, whose stencils step up to ``_T_SLACK`` past it.  A
structure without a spec is Cruceanu's P = diag(-I, I), with no G or Omega.

The checks read the n x n blocks, never a zero block, and hold the blocks
of one coefficient pass as one stack.  A pass of a spec's program is one
array, a row per family (:class:`paralift.coefficients.Program`), and
:func:`_blocks` turns each group of four rows (k1, l1, k2, l2) into
k1 g + l1 p(x)p and k2 g^-1 + l2 g0(x)g0: the pass "P" gives the stack
(P1, P2), "G" gives (G1, G2) and "PG" gives (P1, P2, G1, G2).  Each
identity is read off its stack in one pass:

  * almost_product: P^2 - I = diag(P2 P1 - I, P1 P2 - I), and as P1 and P2
    are exactly symmetric, P1 P2 - I is (P2 P1 - I)^T (see
    :func:`paralift.verify._almost_product`): one product of slices
    1 and 0, P2 P1 - I;
  * compatibility: P^T G P - eps G = diag(P1 G2 P1 - eps G1,
    P2 G1 P2 - eps G2), one stacked triple product (P1, P2) (G2, G1)
    (P1, P2) - eps (G1, G2) of slices 0-1, 3-2 (a contiguous copy) and
    0-1, then one max;
  * metric_signature: the eigenvalues of G are those of G1 and G2, one
    eigvalsh over the (G1, G2) stack.

A stacked matmul or eigvalsh runs, on each contiguous slice, what a call
on that block alone runs, so each residual is bitwise the blockwise one.
Coefficient passes per block of points, each one program call:

  check              passes
  almost_product     P
  compatibility      PG
  metric_signature   G
  integrability      P on the lanes
  closure            form on the lanes
  closure_agreement  form on the lanes, form with derivatives on the points
  para_kahler        those of compatibility, integrability and closure
  space_form         none

The lanes are the sample's stepped chart point; on the points,
closure_agreement reads mu and lam' off the form program's pass with its
derivatives, the pass that the lanes' complex t also runs.  para_kahler
runs its parts one after the other, each over the sample in blocks of its
own size, so compatibility's PG pass takes the larger blocks of a check
that reads no lanes.

The coordinate P and Omega build each n x n block as a contiguous array and
copy it into its slot of one 2n x 2n output: a ufunc writing straight into
a slot (``out=``) costs more than the contiguous operation and the copy
together, since a slot's rows are apart.  P_adapted and G_adapted, which
no check calls, and Cruceanu's coordinate P write their blocks into the
slots too, zero blocks included (:func:`_matrix`).  On a stepped point the
output takes 16 (2n)^3 bytes a point.  P builds P1 and P2 one at a time
(:func:`_block`, the formula :func:`_blocks` applies to a whole stack),
takes the output once both exist and drops them as they are copied, and
-gb2^T and -M^T negate their blocks in place; in that order glibc's malloc
keeps its heap from one derivative check to the next at n = 16, where it
otherwise hands it back and faults it in again on every call (ROADMAP
item 8).  The (P1, P2) stack in their place, one array of twice a block,
brought those faults back: about 500 a call of integrability at n = 16.

Coordinate components substitute delta_i = d/dq^i + Gamma0_ih d/dp_h once,
on the n x n blocks.  For adapted P = [[A, B2], [C, D]] (A = D = 0 but for
Cruceanu's P) and the mixed block M = lambda I + mu p (x) g0 of Omega,

    P = [[A - B2 Gamma0, B2], [Gamma0 A + C - (Gamma0 B2 + D) Gamma0,
                               Gamma0 B2 + D]],
    Omega = [[Gamma0 M^T - M Gamma0, M], [-M^T, 0]],

that is B P_adapted B^-1 and Binv^T (G_adapted P_adapted) Binv.  Gamma0
and B2 are exactly symmetric, so B2 Gamma0 = (Gamma0 B2)^T and Gamma0 M^T
= (M Gamma0)^T take no product of their own.  As g0 = p/phi is parallel to p,
Gamma0 g0 = p (h . g0) + h (p . g0) - (p . h) g0 = 2t h, so Gamma0 B2 =
(a2/phi) Gamma0 + 2t b2 h (x) g0, and of M Gamma0 = lambda Gamma0 + 2t mu
p (x) h only 2t mu (h (x) p - p (x) h) is left in Omega's qq block.  The
evaluators accept a complex z = (q, p), so entries are differentiable by
complex step in all 2n phase variables, and leading batch axes (see
:mod:`paralift.ad`): a block's coefficients are one
:class:`paralift.coefficients.Program` pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from .coefficients import StructureSpec
from .errors import ContractError, RangeError
from .phase import chart_point, on_chart
from .spaceform import SpaceForm

__all__ = [
    "LiftedStructure",
    "P_adapted",
    "P_coordinate_function",
    "G_adapted",
    "Omega_coordinate",
]

_T_SLACK = 1e-3  # the overshoot of t past t_max fd_oracle's functions admit


@dataclass(frozen=True)
class LiftedStructure:
    """A lifted structure over a space form.

    The natural diagonal structure reads its coefficients from ``spec``,
    which must come from a spec builder (it carries the "almost_product"
    flag).  Without a spec it is Cruceanu's P, the fixed diag(-I, I), which
    has no coefficients and no metric part.
    """

    m: SpaceForm
    spec: StructureSpec | None = None

    def __post_init__(self):
        if self.spec is not None and "almost_product" not in self.spec.flags:
            raise ContractError(
                "coefficient spec is not tagged almost_product; "
                "build it through the derivation rules")


def _scalar(c):
    """A coefficient value per point, broadcast against n x n blocks."""
    return np.asarray(c)[..., None, None]


def _coefficients(ls, pt, name, slack=0.0):
    """The pass of the spec's program ``name`` at pt.t, one row per family,
    after a :class:`RangeError` at the first t past t_max + ``slack``."""
    tv = np.asarray(pt.t).real
    over = ~(tv <= ls.spec.t_max + slack)  # NaN too
    if np.count_nonzero(over):
        first = tv[np.unravel_index(np.argmax(over), over.shape)]
        raise RangeError(
            f"energy density t = {first:.6g} exceeds validated t_max = "
            f"{ls.spec.t_max:g}")
    return ls.spec.program(name)(pt.t)


def _blocks(pt, coeffs):
    """The n x n blocks of the pass ``coeffs`` as one stack: for each group
    of rows (k1, l1, k2, l2), k1 g + l1 p(x)p and k2 g^-1 + l2 g0(x)g0, one
    coefficient value per point; shape (2 groups, ..., n, n).

    k1 g = (k1 phi) I is scaled per point before it meets I, which holds only
    0 and 1, so every nonzero entry has the bits of k1 (phi I).
    """
    rows = coeffs.reshape((-1, 2, 2) + coeffs.shape[1:])  # group, block, k|l
    out = _block(rows[:, :, 0] * np.array((pt.phi, 1.0 / pt.phi)),
                 rows[:, :, 1], np.array((pt.p, pt.g0)))
    return out.reshape((-1,) + out.shape[2:])


def _block(scale, weight, v):
    """scale I + weight v(x)v, one scale and weight per point, broadcast."""
    return (_scalar(scale) * ad.constant(np.eye, v.shape[-1])
            + _scalar(weight) * ad.outer(v, v))


def _require_metric(ls):
    if ls.spec is None or not ls.spec.has_metric:
        raise ContractError("structure carries no metric coefficients")
    return ls.spec


def _require_para_hermitian(ls):
    spec = _require_metric(ls)
    if not spec.is_para_hermitian:
        raise ContractError(
            "fundamental 2-form needs an epsilon = -1 compatible spec")
    return spec


def _adapted_blocks(ls, pt, name):
    """The stack of n x n blocks at the plain chart point ``pt`` from one
    pass of the spec's program ``name``: (P1, P2) for "P", (G1, G2) for "G"
    and (P1, P2, G1, G2) for "PG"."""
    return _blocks(pt, _coefficients(ls, pt, name))


def _p_matrix(ls, pt):
    """Adapted-frame matrix of P at the plain chart point ``pt``."""
    n = ls.m.n
    if ls.spec is None:
        return np.broadcast_to(np.diag([-1.0] * n + [1.0] * n),
                               np.shape(pt.q)[:-1] + (2 * n, 2 * n))
    p1, p2 = _adapted_blocks(ls, pt, "P")
    return _matrix(pt, 0.0, p2, p1, 0.0)


def P_adapted(ls, pt):
    """Adapted-frame matrix of P at ``pt``, read on ``ls.m``; block
    antidiagonal (see module doc)."""
    return _p_matrix(ls, on_chart(ls.m, pt))


def _slots(pt):
    """An empty 2n x 2n coordinate-frame matrix at ``pt``, real or complex as
    its fields, and views of its (qq, qp, pq, pp) n x n blocks."""
    n = pt.n
    out = np.empty(pt.p.shape[:-1] + (2 * n, 2 * n), np.result_type(pt.p, pt.h))
    return out, (out[..., :n, :n], out[..., :n, n:],
                 out[..., n:, :n], out[..., n:, n:])


def _matrix(pt, *blocks):
    """The 2n x 2n matrix at ``pt`` of its (qq, qp, pq, pp) ``blocks``, each
    written into its slot of :func:`_slots`."""
    out, slots = _slots(pt)
    for slot, block in zip(slots, blocks):
        slot[...] = block
    return out


def _p_coordinate(ls, pt, slack=0.0):
    """Coordinate-frame P at the real or complex chart point ``pt``, blockwise:
    each block is built, then written into its slot (module doc)."""
    n, gamma0 = ls.m.n, pt.Gamma0
    if ls.spec is None:  # Cruceanu's P: A = -I, D = I, B2 = C = 0
        eye = ad.constant(np.eye, n)
        return _matrix(pt, -eye, 0.0, -gamma0 - gamma0, eye)
    coeffs = _coefficients(ls, pt, "P", slack)
    c = _block(coeffs[0] * pt.phi, coeffs[1], pt.p)
    b2 = _block(coeffs[2] * (1.0 / pt.phi), coeffs[3], pt.g0)
    out, (qq, qp, pq, pp) = _slots(pt)
    pq[...], qp[...] = c, b2  # C, less gb2 Gamma0 below, and B2
    del c, b2
    # Gamma0 B2, and B2 Gamma0 = gb2^T (module doc)
    gb2 = (_scalar(coeffs[2] * (1.0 / pt.phi)) * gamma0
           + _scalar((2.0 * pt.t) * coeffs[3]) * ad.outer(pt.h, pt.g0))
    pq -= gb2 @ gamma0
    pp[...] = gb2
    qq[...] = ad.transpose(np.negative(gb2, out=gb2), (1, 0))
    return out


def P_coordinate_function(ls):
    """P in the coordinate frame as a function of z = (q, p), real or complex,
    for fd_oracle: t may pass t_max by ``_T_SLACK``."""
    n = ls.m.n
    return lambda z: _p_coordinate(
        ls, chart_point(ls.m, z[..., :n], z[..., n:]), _T_SLACK)


def G_adapted(ls, pt):
    """Adapted-frame matrix of G at ``pt``, read on ``ls.m``; symmetric block
    diagonal."""
    _require_metric(ls)
    pt = on_chart(ls.m, pt)
    g1, g2 = _adapted_blocks(ls, pt, "G")
    return _matrix(pt, g1, 0.0, 0.0, g2)


def _omega_coordinate(ls, pt, slack=0.0):
    """Coordinate-frame Omega at the real or complex chart point ``pt``: each
    block is built, then written into its slot (module doc)."""
    lam, mu = _coefficients(ls, pt, "form", slack)
    mixed = (_scalar(lam) * ad.constant(np.eye, pt.n)
             + _scalar(mu) * ad.outer(pt.p, pt.g0))
    s = ad.outer(np.asarray((2.0 * pt.t) * mu)[..., None] * pt.h, pt.p)
    s = s - ad.transpose(s, (1, 0))  # 2t mu (h (x) p - p (x) h)
    out, (qq, qp, pq, pp) = _slots(pt)
    qq[...], qp[...], pp[...] = s, mixed, 0.0
    pq[...] = ad.transpose(np.negative(mixed, out=mixed), (1, 0))
    return out


def Omega_coordinate(ls):
    """Omega in the coordinate frame as a function of z = (q, p), real or complex.

    Obtained by substituting Dp_j = dp_j - Gamma0_jh dq^h into the adapted
    expression Omega = (lambda delta_i^j + mu p_i g^{0j}) dq^i ^ Dp_j, which
    yields the blocks [[Gamma0 M^T - M Gamma0, M], [-M^T, 0]].  For
    fd_oracle, t may pass t_max by ``_T_SLACK``.
    """
    _require_para_hermitian(ls)
    n = ls.m.n
    return lambda z: _omega_coordinate(
        ls, chart_point(ls.m, z[..., :n], z[..., n:]), _T_SLACK)
