"""Points of the cotangent bundle, the frame matrices, spray and Liouville field.

A chart point of T*M is a pair (q, p): base coordinates q and covector
components p.  The Levi-Civita connection splits each tangent space of T*M
into horizontal and vertical subspaces; the adapted frame
{delta_1..delta_n, dp-duals} realigns the coordinate frame with that
splitting via

    delta_i = d/dq^i + Gamma0_ih d/dp_h,      Gamma0_ih = p_k Gamma^k_ih.

Components refer to the adapted frame unless a name says otherwise;
:func:`frame_matrices` converts to coordinate components.  Axis convention
for all 2n-component objects: slots 0..n-1 are horizontal (q-directions),
slots n..2n-1 vertical (p-directions).

Every function here also takes leading batch axes (see :mod:`paralift.ad`):
a :class:`CotangentPoint` whose arrays carry one leading axis stands for a
whole sample, and :func:`stack_points` builds one from a sequence of points,
so a ``PhaseSample`` is evaluated as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import ad
from .spaceform import christoffel_at, inverse_metric_at

__all__ = [
    "CotangentPoint",
    "make_point",
    "stack_points",
    "unstack_point",
    "energy_density",
    "gamma0_at",
    "frame_matrices",
    "liouville",
    "spray",
]


@dataclass(frozen=True)
class CotangentPoint:
    """A point (q, p) of T*M with its cached contractions.

    t is the energy density (1/2) g^{ik} p_i p_k, g0 the raised covector
    g^{0i} = p_h g^{hi}, and Gamma0 the matrix p_k Gamma^k_ih.  With a
    leading batch axis on every field (t then an array) it holds a sample.
    """

    q: np.ndarray
    p: np.ndarray
    t: float
    g0: np.ndarray
    Gamma0: np.ndarray

    @property
    def n(self):
        return self.q.shape[-1]

    def z(self):
        """Raw coordinates (q, p) concatenated into one 2n vector."""
        return np.concatenate([self.q, self.p], axis=-1)


_FIELDS = tuple(f.name for f in fields(CotangentPoint))


def make_point(m, q, p):
    """Build a :class:`CotangentPoint`, evaluating and caching t, g0, Gamma0.

    ``q`` and ``p`` may carry the same leading batch axes.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    if q.shape[-1:] != (m.n,) or p.shape != q.shape:
        raise ValueError(f"expected {m.n} components for q and p")
    g0 = ad.matvec(inverse_metric_at(m, q), p)
    t = 0.5 * ad.vecdot(p, g0)
    gamma0 = gamma0_at(m, q, p)
    for arr in (q, p, g0, gamma0):
        arr.setflags(write=False)
    return CotangentPoint(q=q, p=p, t=float(t) if np.ndim(t) == 0 else t,
                          g0=g0, Gamma0=gamma0)


def stack_points(points):
    """One point with a leading batch axis holding ``points`` in order."""
    return CotangentPoint(*(np.array([getattr(pt, name) for pt in points])
                            for name in _FIELDS))


def unstack_point(batch):
    """The single points of a batched point, in order."""
    return tuple(CotangentPoint(q=batch.q[i], p=batch.p[i], t=float(batch.t[i]),
                                g0=batch.g0[i], Gamma0=batch.Gamma0[i])
                 for i in range(len(batch.t)))


def energy_density(m, q, p):
    """(1/2) g^{ik}(q) p_i p_k, evaluable on Jets in all 2n variables.

    On plain coordinates it rounds exactly as the t of :func:`make_point`.
    """
    ginv = inverse_metric_at(m, q)
    return 0.5 * ad.vecdot(p, ad.matvec(ginv, p))


def gamma0_at(m, q, p):
    """Contraction Gamma0[..., i, h] = p_k Gamma^k_ih(q); symmetric in (i, h)."""
    return ad.einsum("...k,...kih->...ih", p, christoffel_at(m, q))


def frame_matrices(gamma0):
    """(B, Binv) from the contraction Gamma0; works on a Jet Gamma0 too.

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
