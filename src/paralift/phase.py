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
whole sample, and a ``PhaseSample`` holds its points as one, built once,
and from the first derivative check on :func:`stepped_point` of that
batch: the same fields on the 2n complex-stepped lanes z + i h e_a that
every derivative check reads.
Since g = phi I, a point carries phi and its log-gradient h, not matrices,
and its chart ``m``; every field of a point, and :func:`energy_density`,
comes from one evaluation of :func:`paralift.spaceform.conformal_fields`.
:func:`on_chart` is where a point meets a structure's chart: a point of an
equal chart is read as it is, any other is rebuilt there.  Gamma0 is formed
from p and h where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from .spaceform import SpaceForm, conformal_fields

__all__ = [
    "CotangentPoint",
    "chart_point",
    "on_chart",
    "make_point",
    "stepped_point",
    "stack_points",
    "take_points",
    "energy_density",
]


@dataclass(frozen=True, eq=False)
class CotangentPoint:
    """A point (q, p) of T*M with its cached chart fields.

    phi is the conformal factor of g = phi I at q, t the energy density
    (1/2) g^{ik} p_i p_k, g0 the raised covector g^{0i} = p_h g^{hi}, and h
    the log-gradient d phi / (2 phi) at q.  With a leading batch axis on
    every array (phi and t then arrays) it holds a sample.  ``m`` is the
    chart the fields were built on, None when unknown or mixed.  Points
    compare and hash by identity.
    """

    q: np.ndarray
    p: np.ndarray
    phi: float
    t: float
    g0: np.ndarray
    h: np.ndarray
    m: SpaceForm | None = None

    @property
    def n(self):
        return self.q.shape[-1]

    @property
    def Gamma0(self):
        """p_k Gamma^k_ih = p_i h_h + p_h h_i - delta_ih (p . h), formed on
        each read as S + S^T - (p . h) I, S = p (x) h: exactly symmetric."""
        s = ad.outer(self.p, self.h)
        return ((s + ad.transpose(s, (1, 0)))
                - ad.vecdot(self.p, self.h)[..., None, None]
                * ad.constant(np.eye, self.n))

    def z(self):
        """Raw coordinates (q, p) concatenated into one 2n vector."""
        return np.concatenate([self.q, self.p], axis=-1)


_ARRAYS = ("q", "p", "phi", "t", "g0", "h")


def chart_point(m, q, p):
    """Unvalidated, unfrozen point at real or complex (q, p), from phi and
    its log-gradient h."""
    return _point(q, p, *conformal_fields(m, q))


def on_chart(m, pt):
    """``pt`` if built on a chart equal to ``m``, else :func:`make_point` of
    its (q, p) on ``m``, which raises off that chart."""
    return pt if pt.m is m or pt.m == m else make_point(m, pt.q, pt.p)


def _point(q, p, phi, h):
    g0 = (1.0 / phi)[..., None] * p
    return CotangentPoint(q, p, phi, 0.5 * ad.vecdot(p, g0), g0, h)


def make_point(m, q, p):
    """Build a :class:`CotangentPoint`, evaluating and caching its chart fields.

    ``q`` and ``p`` may carry the same leading batch axes.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    if q.shape[-1:] != (m.n,) or p.shape != q.shape:
        raise ValueError(f"expected {m.n} components for q and p")
    pt = chart_point(m, q, p)
    return _frozen(m, *(getattr(pt, name) for name in _ARRAYS))


def stepped_point(m, pt):
    """The chart point on ``m`` of ``pt``'s complex-stepped z: one
    :func:`paralift.ad.stepped` of z, one :func:`chart_point`, read-only.

    Its arrays carry the step axis after ``pt``'s batch axes, as
    :func:`paralift.ad.stepped` lays it: lane a holds the fields at
    z + i STEP e_a, lanes 0..n-1 stepping q and n..2n-1 stepping p.  A field
    evaluated on it is the stepped output of that field at ``pt``, bitwise.
    """
    n = m.n
    lanes = ad.stepped(lambda z: chart_point(m, z[..., :n], z[..., n:]),
                       pt.z())
    return _frozen(m, *(getattr(lanes, name) for name in _ARRAYS))


def _frozen(m, *values):
    """A point of read-only arrays; phi and t of a single point are floats."""
    values = [float(v) if np.ndim(v) == 0 else v for v in values]
    for v in values:
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    return CotangentPoint(*values, m=m)


def stack_points(points):
    """One point with a leading batch axis holding ``points`` in order."""
    charts = {pt.m for pt in points}
    return CotangentPoint(*(np.array([getattr(pt, name) for pt in points])
                            for name in _ARRAYS),
                          m=charts.pop() if len(charts) == 1 else None)


def take_points(batch, index):
    """Point ``index`` of a batched point, or a batch for a slice."""
    return _frozen(batch.m, *(getattr(batch, name)[index] for name in _ARRAYS))


def energy_density(m, q, p):
    """(1/2) g^{ik}(q) p_i p_k, evaluable on complex steps in all 2n
    variables: the t of :func:`chart_point`, so on real coordinates it
    rounds exactly as the t of :func:`make_point`."""
    return chart_point(m, q, p).t
