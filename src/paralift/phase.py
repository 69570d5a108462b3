"""Points of the cotangent bundle and their chart fields.

A chart point of T*M is a pair (q, p): base coordinates q and covector
components p.  The Levi-Civita connection splits each tangent space of T*M
into horizontal and vertical subspaces; the adapted frame
{delta_1..delta_n, dp-duals} realigns the coordinate frame with that
splitting via

    delta_i = d/dq^i + Gamma0_ih d/dp_h,      Gamma0_ih = p_k Gamma^k_ih.

Components refer to the adapted frame unless a name says otherwise; the
block triangular matrix B = [[I, 0], [Gamma0, I]] converts them to
coordinate components.  Axis convention for all 2n-component objects:
slots 0..n-1 are horizontal (q-directions), slots n..2n-1 vertical
(p-directions).

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
    "metric_point",
    "make_point",
    "stack_points",
    "unstack_point",
    "energy_density",
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
    """Unvalidated, unfrozen point at plain or Jet (q, p), from phi and its
    log-gradient h.

    Gamma0_ih = p_k Gamma^k_ih = p_i h_h + p_h h_i - delta_ih (p . h), that
    is S + S^T - (p . h) I with S = p (x) h, which is exactly symmetric.
    """
    phi, h = conformal_fields(m, q)
    s = ad.outer(p, h)
    gamma0 = ((s + ad.transpose(s, (1, 0)))
              - ad.vecdot(p, h)[..., None, None] * np.eye(m.n))
    return _point(q, p, phi, gamma0)


def metric_point(m, q, p):
    """:func:`chart_point` but for Gamma0 (None), from one unseeded phi:
    bitwise its other fields, all that adapted-frame blocks read."""
    return _point(q, p, conformal_factor(m, q), None)


def _point(q, p, phi, gamma0):
    g0 = (1.0 / phi)[..., None] * p
    return CotangentPoint(q=q, p=p, phi=phi, t=0.5 * ad.vecdot(p, g0), g0=g0,
                          Gamma0=gamma0)


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
    """(1/2) g^{ik}(q) p_i p_k, evaluable on Jets in all 2n variables; on
    plain coordinates it rounds exactly as the t of :func:`make_point`."""
    return metric_point(m, q, p).t
