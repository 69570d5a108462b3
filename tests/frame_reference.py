"""The adapted frame as matrices, Omega in it, the spray and Liouville
fields, and the dense forms of the checks' block formulas.

The checks never form these: the coordinate P blocks read Gamma0 directly,
and Omega and ``analytic_dOmega`` only Gamma0 g0 = 2t h.  The tests use them
to move between the adapted and the coordinate frame and to state the
paper's identities on the tautological fields.  ``adapted_pg``,
``p_coordinate_dense`` and ``omega_coordinate_dense`` assemble the n x n
blocks of the lifted structures into whole 2n x 2n matrices with
``ad.block``, zero blocks included, as the package once did; the block
evaluators are compared with them bit for bit.
"""

import numpy as np

from paralift import ad, lifted
from paralift.lifted import (
    _adapted_blocks,
    _blocks,
    _coefficients,
    _require_para_hermitian,
    _scalar,
)
from paralift.phase import on_chart


def adapted_pg(ls, pt):
    """(P_adapted, G_adapted) at the point ``pt`` of ``ls.m``, from one
    coefficient pass, zero blocks assembled."""
    p1, p2, g1, g2 = _adapted_blocks(ls, pt, "PG")
    zero = np.zeros(p1.shape[-2:])
    return (ad.block([[zero, p2], [p1, zero]]),
            ad.block([[g1, zero], [zero, g2]]))


def Omega_adapted(ls, pt):
    """Adapted-frame matrix of Omega(X, Y) = G(X, PY) at ``pt``, read on
    ``ls.m``; antisymmetric.

    The diagonal blocks vanish and the mixed block is lambda I + mu p (x) g0.
    """
    _require_para_hermitian(ls)
    pmat, gmat = adapted_pg(ls, on_chart(ls.m, pt))
    return gmat @ pmat


def p_coordinate_dense(ls, pt):
    """Coordinate-frame P of a structure with a spec at the real or complex
    chart point ``pt``: its blocks built one by one, then copied by
    ``ad.block``."""
    gamma0 = pt.Gamma0
    coeffs = _coefficients(ls, pt, "P", lifted._T_SLACK)
    c, b2 = _blocks(pt, coeffs)
    gb2 = (_scalar(coeffs[2] * (1.0 / pt.phi)) * gamma0
           + _scalar((2.0 * pt.t) * coeffs[3]) * ad.outer(pt.h, pt.g0))
    return ad.block([[-ad.transpose(gb2, (1, 0)), b2],
                     [c - gb2 @ gamma0, gb2]])


def omega_coordinate_dense(ls, pt):
    """Coordinate-frame Omega at the real or complex chart point ``pt``: its
    blocks built one by one, then copied by ``ad.block``."""
    n = pt.n
    lam, mu = _coefficients(ls, pt, "form", lifted._T_SLACK)
    mixed = (_scalar(lam) * ad.constant(np.eye, n)
             + _scalar(mu) * ad.outer(pt.p, pt.g0))
    s = ad.outer(np.asarray((2.0 * pt.t) * mu)[..., None] * pt.h, pt.p)
    qq = s - ad.transpose(s, (1, 0))
    return ad.block([[qq, mixed], [-ad.transpose(mixed, (1, 0)),
                                   ad.constant(np.zeros, (n, n))]])



def frame_matrices(gamma0):
    """(B, Binv) from the contraction Gamma0, with or without batch axes.

    Columns of B express the adapted frame vectors in coordinates; Binv is
    its closed-form inverse.  Both are block triangular:

        B = [[I, 0], [Gamma0, I]],   Binv = [[I, 0], [-Gamma0, I]].
    """
    n = gamma0.shape[-1]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    b = ad.block([[eye, zero], [gamma0, eye]])
    binv = ad.block([[eye, zero], [-gamma0, eye]])
    return b, binv


def liouville(pt):
    """Adapted components (0, p) of the tautological vertical field at ``pt``."""
    return np.concatenate([np.zeros_like(pt.p), pt.p], axis=-1)


def spray(pt):
    """Adapted components (g0, 0) of the geodesic spray g^{0i} delta_i at ``pt``."""
    return np.concatenate([pt.g0, np.zeros_like(pt.g0)], axis=-1)
