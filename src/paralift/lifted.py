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
read one chart point (:mod:`paralift.phase`), with g = phi I.  A structure
without a spec is Cruceanu's P = diag(-I, I), which has no G or Omega.

Coordinate components substitute delta_i = d/dq^i + Gamma0_ih d/dp_h once,
on the n x n blocks.  For adapted P = [[A, B2], [C, D]] (A = D = 0 but for
Cruceanu's P) and the mixed block M = lambda I + mu p (x) g0 of Omega,

    P = [[A - B2 Gamma0, B2], [Gamma0 A + C - (Gamma0 B2 + D) Gamma0,
                               Gamma0 B2 + D]],
    Omega = [[Gamma0 M^T - M Gamma0, M], [-M^T, 0]],

that is B P_adapted B^-1 and Binv^T Omega_adapted Binv.  Gamma0 and B2 are
exactly symmetric, so B2 Gamma0 = (Gamma0 B2)^T and Gamma0 M^T = (M
Gamma0)^T take no product of their own.  The evaluators
accept a complex z = (q, p), so entries are differentiable by complex step
in all 2n phase variables, and leading batch axes (see :mod:`paralift.ad`):
a block's coefficients are one :class:`paralift.coefficients.Program` pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from .coefficients import StructureSpec
from .errors import ContractError, RangeError
from .phase import chart_point, metric_point
from .spaceform import SpaceForm

__all__ = [
    "LiftedStructure",
    "P_adapted",
    "P_coordinate_function",
    "G_adapted",
    "Omega_adapted",
    "Omega_coordinate",
]

# Coordinate-frame evaluators tolerate a small overshoot of t past t_max for
# fd_oracle's central differences at sample points with t near or at t_max,
# perfbench's digits check included.
_T_SLACK = 1e-3


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


def _check_range(ls, t, *, slack):
    bound = ls.spec.t_max + (_T_SLACK if slack else 0.0)
    tv = np.asarray(t).real
    over = tv > bound
    if np.count_nonzero(over):
        first = tv[np.unravel_index(np.argmax(over), over.shape)]
        raise RangeError(
            f"energy density t = {first:.6g} exceeds validated t_max = "
            f"{ls.spec.t_max:g}")


def _scalar(c):
    """A coefficient value per point, broadcast against n x n blocks."""
    return np.asarray(c)[..., None, None]


def _coefficients(ls, pt, name, *, slack):
    """The spec's family tuple ``name`` at pt.t, range-checked first."""
    _check_range(ls, pt.t, slack=slack)
    return ls.spec.program(name)(pt.t)


def _blocks(pt, k1, l1, k2, l2):
    """(k1 g + l1 p(x)p, k2 g^-1 + l2 g0(x)g0), one coefficient value per point.

    k1 g = (k1 phi) I is scaled per point before it meets I, which holds only
    0 and 1, so every nonzero entry has the bits of k1 (phi I).
    """
    eye = ad.constant(np.eye, pt.n)
    return (_scalar(k1 * pt.phi) * eye + _scalar(l1) * ad.outer(pt.p, pt.p),
            _scalar(k2 * (1.0 / pt.phi)) * eye
            + _scalar(l2) * ad.outer(pt.g0, pt.g0))


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


def _p_matrix(ls, pt, coeffs=None):
    """Adapted-frame matrix of P at the plain chart point ``pt``, from
    coeffs = (a1, b1, a2, b2) or the spec."""
    n = ls.m.n
    if ls.spec is None:
        return np.broadcast_to(np.diag([-1.0] * n + [1.0] * n),
                               np.shape(pt.q)[:-1] + (2 * n, 2 * n))
    p1, p2 = _blocks(pt, *(coeffs or _coefficients(ls, pt, "P", slack=False)))
    zero = ad.constant(np.zeros, (n, n))
    return ad.block([[zero, p2], [p1, zero]])


def P_adapted(ls, pt):
    """Adapted-frame matrix of P at ``pt``; block antidiagonal (see module doc)."""
    return _p_matrix(ls, metric_point(ls.m, pt))


def _p_coordinate(ls, pt):
    """Coordinate-frame P at the real or complex chart point ``pt``, blockwise."""
    n, gamma0 = ls.m.n, pt.Gamma0
    eye, zero = ad.constant(np.eye, n), ad.constant(np.zeros, (n, n))
    if ls.spec is None:  # Cruceanu's P: A = -I, D = I, B2 = C = 0
        return ad.block([[-eye, zero], [-gamma0 - gamma0, eye]])
    c, b2 = _blocks(pt, *_coefficients(ls, pt, "P", slack=True))
    gb2 = gamma0 @ b2  # B2 Gamma0 = gb2^T, both being symmetric
    return ad.block([[-ad.transpose(gb2, (1, 0)), b2],
                     [c - gb2 @ gamma0, gb2]])


def P_coordinate_function(ls):
    """P in the coordinate frame as a function of z = (q, p), real or complex."""
    n = ls.m.n
    return lambda z: _p_coordinate(ls, chart_point(ls.m, z[..., :n], z[..., n:]))


def _g_blocks(ls, pt, coeffs=None):
    """(G1, G2) at the plain chart point ``pt``, from coeffs = (c1, d1, c2,
    d2) or the spec."""
    return _blocks(pt, *(coeffs or _coefficients(ls, pt, "G", slack=False)))


def _diagonal(g1, g2):
    n = np.shape(g1)[-1]
    zero = ad.constant(np.zeros, (n, n))
    return ad.block([[g1, zero], [zero, g2]])


def G_adapted(ls, pt):
    """Adapted-frame matrix of G at ``pt``; symmetric block diagonal."""
    _require_metric(ls)
    return _diagonal(*_g_blocks(ls, metric_point(ls.m, pt)))


def _adapted_pg(ls, pt):
    """(P_adapted, G_adapted) at ``pt``: one chart point, one program of eight."""
    _require_metric(ls)
    here = metric_point(ls.m, pt)
    coeffs = _coefficients(ls, here, "PG", slack=False)
    return (_p_matrix(ls, here, coeffs[:4]),
            _diagonal(*_g_blocks(ls, here, coeffs[4:])))


def Omega_adapted(ls, pt):
    """Adapted-frame matrix of Omega(X, Y) = G(X, PY); antisymmetric.

    The diagonal blocks vanish and the mixed block is lambda I + mu p (x) g0.
    """
    _require_para_hermitian(ls)
    pmat, gmat = _adapted_pg(ls, pt)
    return gmat @ pmat


def _omega_coordinate(ls, pt):
    """Coordinate-frame Omega at the real or complex chart point ``pt``."""
    n = ls.m.n
    lam, mu = _coefficients(ls, pt, "form", slack=True)
    mixed = (_scalar(lam) * ad.constant(np.eye, n)
             + _scalar(mu) * ad.outer(pt.p, pt.g0))
    mixed_t = ad.transpose(mixed, (1, 0))
    m_gamma0 = mixed @ pt.Gamma0  # Gamma0 M^T = m_gamma0^T
    qq = ad.transpose(m_gamma0, (1, 0)) - m_gamma0
    return ad.block([[qq, mixed], [-mixed_t, ad.constant(np.zeros, (n, n))]])


def Omega_coordinate(ls):
    """Omega in the coordinate frame as a function of z = (q, p), real or complex.

    Obtained by substituting Dp_j = dp_j - Gamma0_jh dq^h into the adapted
    expression Omega = (lambda delta_i^j + mu p_i g^{0j}) dq^i ^ Dp_j, which
    yields the blocks [[Gamma0 M^T - M Gamma0, M], [-M^T, 0]].
    """
    _require_para_hermitian(ls)
    n = ls.m.n
    return lambda z: _omega_coordinate(ls, chart_point(ls.m, z[..., :n],
                                                       z[..., n:]))
