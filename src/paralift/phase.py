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
so a ``PhaseSample`` is evaluated as one batch.  Since g = phi I, a point
carries the scalar phi, not metric matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import ad
from .spaceform import conformal_factor, conformal_fields

__all__ = [
    "CotangentPoint",
    "chart_point",
    "make_point",
    "stack_points",
    "unstack_point",
    "energy_density",
    "frame_matrices",
    "liouville",
    "spray",
]


@dataclass(frozen=True)
class CotangentPoint:
    """A point (q, p) of T*M with its cached chart fields.

    phi is the conformal factor of g = phi I at q, t the energy density
    (1/2) g^{ik} p_i p_k, g0 the raised covector g^{0i} = p_h g^{hi}, and
    Gamma0 the matrix p_k Gamma^k_ih.  With a leading batch axis on every
    field (phi and t then arrays) it holds a sample.
    """

    q: np.ndarray
    p: np.ndarray
    phi: float
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


def chart_point(m, q, p):
    """Unvalidated, unfrozen point at plain or Jet (q, p), from one seeded phi."""
    phi, gamma = conformal_fields(m, q)
    g0 = (1.0 / phi)[..., None] * p
    return CotangentPoint(q=q, p=p, phi=phi, t=0.5 * ad.vecdot(p, g0), g0=g0,
                          Gamma0=ad.einsum("...k,...kih->...ih", p, gamma))


def make_point(m, q, p):
    """Build a :class:`CotangentPoint`, evaluating and caching its chart fields.

    ``q`` and ``p`` may carry the same leading batch axes.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    if q.shape[-1:] != (m.n,) or p.shape != q.shape:
        raise ValueError(f"expected {m.n} components for q and p")
    pt = chart_point(m, q, p)
    return _frozen(*(getattr(pt, name) for name in _FIELDS))


def _frozen(*values):
    """A point of read-only arrays; phi and t of a single point are floats."""
    values = [float(v) if np.ndim(v) == 0 else v for v in values]
    for v in values:
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    return CotangentPoint(*values)


def stack_points(points):
    """One point with a leading batch axis holding ``points`` in order."""
    return CotangentPoint(*(np.array([getattr(pt, name) for pt in points])
                            for name in _FIELDS))


def unstack_point(batch):
    """The single points of a batched point, in order."""
    return tuple(_frozen(*(getattr(batch, name)[i] for name in _FIELDS))
                 for i in range(len(batch.t)))


def energy_density(m, q, p):
    """(1/2) g^{ik}(q) p_i p_k, evaluable on Jets in all 2n variables.

    One unseeded evaluation of phi, no matrix; on plain coordinates it rounds
    exactly as the t of :func:`make_point`.
    """
    g0 = (1.0 / conformal_factor(m, q))[..., None] * p
    return 0.5 * ad.vecdot(p, g0)


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
