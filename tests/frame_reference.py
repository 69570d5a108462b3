"""The adapted frame as matrices, Omega in it, and the spray and Liouville
fields.

The checks never form these: the coordinate P blocks read Gamma0 directly,
and Omega and ``analytic_dOmega`` only Gamma0 g0 = 2t h.  The tests use them
to move between the adapted and the coordinate frame and to state the
paper's identities on the tautological fields.
"""

import numpy as np

from paralift import ad
from paralift.lifted import _adapted_pg, _require_para_hermitian
from paralift.phase import on_chart


def Omega_adapted(ls, pt):
    """Adapted-frame matrix of Omega(X, Y) = G(X, PY) at ``pt``, read on
    ``ls.m``; antisymmetric.

    The diagonal blocks vanish and the mixed block is lambda I + mu p (x) g0.
    """
    _require_para_hermitian(ls)
    pmat, gmat = _adapted_pg(ls, on_chart(ls.m, pt))
    return gmat @ pmat


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
