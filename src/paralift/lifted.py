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
read one :func:`paralift.phase.chart_point`, with g = phi I, g^-1 = (1/phi) I.

Coordinate-frame components come from conjugating with the frame matrices,
and the evaluators accept a Jet z = (q, p), so every entry stays
differentiable in all 2n phase-space variables.  Points and z may carry
leading batch axes (see :mod:`paralift.ad`); coefficients are then evaluated
on the array of energy densities at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ad
from .coefficients import StructureSpec
from .errors import ContractError, RangeError
from .phase import chart_point, frame_matrices
from .spaceform import SpaceForm

__all__ = [
    "StructureKind",
    "LiftedStructure",
    "P_adapted",
    "P_coordinate_function",
    "G_adapted",
    "Omega_adapted",
    "Omega_coordinate",
]

# Coordinate-frame evaluators tolerate a small overshoot of t past t_max so
# that difference-quotient probes at boundary sample points stay legal.
_T_SLACK = 1e-3


class StructureKind(Enum):
    NATURAL_DIAGONAL = "natural_diagonal"
    CRUCEANU_P = "cruceanu_p"
    CRUCEANU_Q = "cruceanu_q"


@dataclass(frozen=True)
class LiftedStructure:
    """A lifted structure over a space form.

    NATURAL_DIAGONAL reads its coefficients from ``spec`` (which must carry
    the "almost_product" flag); the two Cruceanu presets are fixed structures
    that ignore the coefficient part of ``spec``.
    """

    m: SpaceForm
    kind: StructureKind
    spec: StructureSpec | None = None

    def __post_init__(self):
        if self.kind is StructureKind.NATURAL_DIAGONAL:
            if self.spec is None:
                raise ContractError("natural diagonal structure needs a coefficient spec")
            if "almost_product" not in self.spec.flags:
                raise ContractError(
                    "coefficient spec is not tagged almost_product; "
                    "build it through the derivation rules")


def _check_range(ls, t, *, slack):
    if ls.spec is None:
        return
    bound = ls.spec.t_max + (_T_SLACK if slack else 0.0)
    tv = ad.strip(t)
    over = tv > bound
    if over.any():
        first = tv[np.unravel_index(np.argmax(over), over.shape)]
        raise RangeError(
            f"energy density t = {first:.6g} exceeds validated t_max = "
            f"{ls.spec.t_max:g}")


def _scalar(c):
    """A coefficient value per point, broadcast against n x n blocks."""
    c = c if isinstance(c, ad.Jet) else np.asarray(c)
    return c[..., None, None]


def _metrics(pt):
    """(g, g^-1) = (phi I, (1/phi) I) at the chart point ``pt``."""
    eye = np.eye(pt.n)
    return _scalar(pt.phi) * eye, _scalar(1.0 / pt.phi) * eye


def _blocks(ls, pt, coeffs, *, slack):
    """(k1 g + l1 p(x)p, k2 g^-1 + l2 g0(x)g0) for coeffs = (k1, l1, k2, l2)."""
    _check_range(ls, pt.t, slack=slack)
    g, ginv = _metrics(pt)
    k1, l1, k2, l2 = (_scalar(c(pt.t)) for c in coeffs)
    return (k1 * g + l1 * ad.outer(pt.p, pt.p),
            k2 * ginv + l2 * ad.outer(pt.g0, pt.g0))


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


def _p_matrix(ls, pt, *, slack):
    """Adapted-frame matrix of P at the plain or Jet chart point ``pt``."""
    n = ls.m.n
    if ls.kind is StructureKind.CRUCEANU_P:
        return np.broadcast_to(np.diag([-1.0] * n + [1.0] * n),
                               np.shape(pt.q)[:-1] + (2 * n, 2 * n))
    if ls.kind is StructureKind.CRUCEANU_Q:
        p1, p2 = _metrics(pt)
    else:
        s = ls.spec
        p1, p2 = _blocks(ls, pt, (s.a1, s.b1, s.a2, s.b2), slack=slack)
    zero = np.zeros((n, n))
    return ad.block([[zero, p2], [p1, zero]])


def P_adapted(ls, pt):
    """Adapted-frame matrix of P at ``pt``; block antidiagonal (see module doc)."""
    return _p_matrix(ls, chart_point(ls.m, pt.q, pt.p), slack=False)


def P_coordinate_function(ls):
    """P in the coordinate frame as a function of z = (q, p), Jet-evaluable."""
    n = ls.m.n

    def fn(z):
        pt = chart_point(ls.m, z[..., :n], z[..., n:])
        p_ad = _p_matrix(ls, pt, slack=True)
        b, binv = frame_matrices(pt.Gamma0)
        return ad.matmul(ad.matmul(b, p_ad), binv)

    return fn


def _g_matrix(ls, pt):
    """Adapted-frame matrix of G at the plain chart point ``pt``."""
    s = _require_metric(ls)
    g1, g2 = _blocks(ls, pt, (s.c1, s.d1, s.c2, s.d2), slack=False)
    zero = np.zeros((ls.m.n, ls.m.n))
    return ad.block([[g1, zero], [zero, g2]])


def G_adapted(ls, pt):
    """Adapted-frame matrix of G at ``pt``; symmetric block diagonal."""
    return _g_matrix(ls, chart_point(ls.m, pt.q, pt.p))


def _adapted_pg(ls, pt):
    """(P_adapted, G_adapted) at ``pt``, both read from one chart point."""
    here = chart_point(ls.m, pt.q, pt.p)  # a point of another chart raises
    return _p_matrix(ls, here, slack=False), _g_matrix(ls, here)


def Omega_adapted(ls, pt):
    """Adapted-frame matrix of Omega(X, Y) = G(X, PY); antisymmetric.

    The diagonal blocks vanish and the mixed block is lambda I + mu p (x) g0.
    """
    _require_para_hermitian(ls)
    pmat, gmat = _adapted_pg(ls, pt)
    return gmat @ pmat


def Omega_coordinate(ls):
    """Omega in the coordinate frame as a function of z = (q, p), Jet-evaluable.

    Obtained by substituting Dp_j = dp_j - Gamma0_jh dq^h into the adapted
    expression Omega = (lambda delta_i^j + mu p_i g^{0j}) dq^i ^ Dp_j, which
    yields the blocks [[Gamma0 M^T - M Gamma0, M], [-M^T, 0]].
    """
    spec = _require_para_hermitian(ls)
    n = ls.m.n

    def fn(z):
        pt = chart_point(ls.m, z[..., :n], z[..., n:])
        _check_range(ls, pt.t, slack=True)
        mixed = (_scalar(spec.lam(pt.t)) * np.eye(n)
                 + _scalar(spec.mu(pt.t)) * ad.outer(pt.p, pt.g0))
        mixed_t = ad.transpose(mixed, (1, 0))
        qq = ad.matmul(pt.Gamma0, mixed_t) - ad.matmul(mixed, pt.Gamma0)
        zero = np.zeros((n, n))
        return ad.block([[qq, mixed], [-mixed_t, zero]])

    return fn

