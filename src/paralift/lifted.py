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
maps vertical to horizontal and sits in the upper-right block.

Coordinate-frame components come from conjugating with the frame matrices,
and the evaluators accept a Jet z = (q, p), so every entry stays
differentiable in all 2n phase-space variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ad
from .coefficients import StructureSpec
from .errors import ContractError, RangeError
from .phase import energy_density, frame_matrices, gamma0_at
from .spaceform import SpaceForm, inverse_metric_at, metric_at

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
    if tv > bound:
        raise RangeError(
            f"energy density t = {tv:.6g} exceeds validated t_max = "
            f"{ls.spec.t_max:g}")


def _blocks(ls, q, p, coeffs, *, slack):
    """(k1 g + l1 p(x)p, k2 g^-1 + l2 g0(x)g0) for coeffs = (k1, l1, k2, l2)."""
    g = metric_at(ls.m, q)
    ginv = inverse_metric_at(ls.m, q)
    t = energy_density(ls.m, q, p)
    _check_range(ls, t, slack=slack)
    g0 = ad.matmul(ginv, p)
    k1, l1, k2, l2 = coeffs
    return (k1(t) * g + l1(t) * ad.outer(p, p),
            k2(t) * ginv + l2(t) * ad.outer(g0, g0))


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


def _p_matrix(ls, q, p, *, slack):
    """Adapted-frame matrix of P at (q, p), for plain or Jet coordinates."""
    n = ls.m.n
    if ls.kind is StructureKind.CRUCEANU_P:
        return np.diag([-1.0] * n + [1.0] * n)
    if ls.kind is StructureKind.CRUCEANU_Q:
        p1, p2 = metric_at(ls.m, q), inverse_metric_at(ls.m, q)
    else:
        s = ls.spec
        p1, p2 = _blocks(ls, q, p, (s.a1, s.b1, s.a2, s.b2), slack=slack)
    zero = np.zeros((n, n))
    return ad.block([[zero, p2], [p1, zero]])


def P_adapted(ls, pt):
    """Adapted-frame matrix of P at ``pt``; block antidiagonal (see module doc)."""
    return _p_matrix(ls, pt.q, pt.p, slack=False)


def P_coordinate_function(ls):
    """P in the coordinate frame as a function of z = (q, p), Jet-evaluable."""
    n = ls.m.n

    def fn(z):
        q, p = z[:n], z[n:]
        p_ad = _p_matrix(ls, q, p, slack=True)
        b, binv = frame_matrices(gamma0_at(ls.m, q, p))
        return ad.matmul(ad.matmul(b, p_ad), binv)

    return fn


def G_adapted(ls, pt):
    """Adapted-frame matrix of G at ``pt``; symmetric block diagonal."""
    s = _require_metric(ls)
    g1, g2 = _blocks(ls, pt.q, pt.p, (s.c1, s.d1, s.c2, s.d2), slack=False)
    n = ls.m.n
    zero = np.zeros((n, n))
    return np.block([[g1, zero], [zero, g2]])


def Omega_adapted(ls, pt):
    """Adapted-frame matrix of Omega(X, Y) = G(X, PY); antisymmetric.

    The diagonal blocks vanish and the mixed block is lambda I + mu p (x) g0.
    """
    _require_para_hermitian(ls)
    return G_adapted(ls, pt) @ P_adapted(ls, pt)


def Omega_coordinate(ls):
    """Omega in the coordinate frame as a function of z = (q, p), Jet-evaluable.

    Obtained by substituting Dp_j = dp_j - Gamma0_jh dq^h into the adapted
    expression Omega = (lambda delta_i^j + mu p_i g^{0j}) dq^i ^ Dp_j, which
    yields the blocks [[Gamma0 M^T - M Gamma0, M], [-M^T, 0]].
    """
    spec = _require_para_hermitian(ls)
    n = ls.m.n

    def fn(z):
        q, p = z[:n], z[n:]
        ginv = inverse_metric_at(ls.m, q)
        t = energy_density(ls.m, q, p)
        _check_range(ls, t, slack=True)
        g0 = ad.matmul(ginv, p)
        mixed = spec.lam(t) * np.eye(n) + spec.mu(t) * ad.outer(p, g0)
        gamma0 = gamma0_at(ls.m, q, p)
        qq = ad.matmul(gamma0, mixed.transpose()) - ad.matmul(mixed, gamma0)
        zero = np.zeros((n, n))
        return ad.block([[qq, mixed], [-mixed.transpose(), zero]])

    return fn

