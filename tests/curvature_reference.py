"""The generic curvature route, for any metric: Christoffel symbols, their
jacobian and the quadratic term.

The package takes the curvature of its conformally flat charts in closed
form from h and dh; this route, n^3 symbols with n lanes each and an n^5
contraction, is the oracle the tests compare that form against.
"""

import numpy as np

from paralift import ad
from paralift.spaceform import christoffel_at


def generic_curvature(m, x, jacobian=None):
    """R[..., h, k, i, j] = d_i Gamma^h_jk - d_j Gamma^h_ik
    + Gamma^h_il Gamma^l_jk - Gamma^h_jl Gamma^l_ik.

    The Gamma derivatives come from ``jacobian(f, x)``, an array with one
    trailing axis per coordinate; by default the complex step of
    :func:`paralift.ad.jacobian`, or for instance ``verify.fd_oracle``.
    """
    gamma = christoffel_at(m, x)
    if jacobian is None:
        dgamma = ad.jacobian(lambda y: christoffel_at(m, y), x)[1]
    else:
        dgamma = jacobian(lambda y: christoffel_at(m, y), x)
    # dgamma[..., k, i, j, a] = d_a Gamma^k_ij
    quad = np.einsum("...hil,...ljk->...hkij", gamma, gamma)
    return ((ad.transpose(dgamma, (0, 2, 3, 1))
             - ad.transpose(dgamma, (0, 2, 1, 3)))
            + (quad - ad.transpose(quad, (0, 1, 3, 2))))
