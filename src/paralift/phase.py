"""Points of the cotangent bundle, the adapted frame, and the classical lifts.

A chart point of T*M is a pair (q, p): base coordinates q and covector
components p.  The Levi-Civita connection splits each tangent space of T*M
into horizontal and vertical subspaces; the adapted frame
{delta_1..delta_n, dp-duals} realigns the coordinate frame with that
splitting via

    delta_i = d/dq^i + Gamma0_ih d/dp_h,      Gamma0_ih = p_k Gamma^k_ih.

Axis convention for all 2n-component objects: slots 0..n-1 are horizontal
(q-directions), slots n..2n-1 vertical (p-directions).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ad
from .spaceform import christoffel_at, inverse_metric_at, metric_at

__all__ = [
    "CotangentPoint",
    "FrameBasis",
    "Frame",
    "FrameVector",
    "make_point",
    "energy_density",
    "gamma0_at",
    "frame_matrices",
    "adapted_basis",
    "to_coordinate",
    "to_adapted",
    "horizontal_lift",
    "vertical_lift",
    "flat",
    "sharp",
    "liouville",
    "spray",
]


@dataclass(frozen=True)
class CotangentPoint:
    """A point (q, p) of T*M with its cached contractions.

    t is the energy density (1/2) g^{ik} p_i p_k, g0 the raised covector
    g^{0i} = p_h g^{hi}, and Gamma0 the matrix p_k Gamma^k_ih.
    """

    q: np.ndarray
    p: np.ndarray
    t: float
    g0: np.ndarray
    Gamma0: np.ndarray

    @property
    def n(self):
        return len(self.q)

    def z(self):
        """Raw coordinates (q, p) concatenated into one 2n vector."""
        return np.concatenate([self.q, self.p])


def make_point(m, q, p):
    """Build a :class:`CotangentPoint`, evaluating and caching t, g0, Gamma0."""
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    if q.shape != (m.n,) or p.shape != (m.n,):
        raise ValueError(f"expected {m.n} components for q and p")
    ginv = inverse_metric_at(m, q)
    g0 = ginv @ p
    t = 0.5 * float(p @ g0)
    gamma0 = gamma0_at(m, q, p)
    for arr in (q, p, g0, gamma0):
        arr.setflags(write=False)
    return CotangentPoint(q=q, p=p, t=t, g0=g0, Gamma0=gamma0)


def energy_density(m, q, p):
    """(1/2) g^{ik}(q) p_i p_k, evaluable on Jets in all 2n variables."""
    ginv = inverse_metric_at(m, q)
    return 0.5 * ad.matmul(p, ad.matmul(ginv, p))


def gamma0_at(m, q, p):
    """Contraction Gamma0[i, h] = p_k Gamma^k_ih(q); symmetric in (i, h)."""
    return ad.einsum("k,kih->ih", p, christoffel_at(m, q))


@dataclass(frozen=True)
class FrameBasis:
    """Change of basis between the coordinate and adapted frames.

    Columns of B express the adapted frame vectors in coordinates; Binv is
    its closed-form inverse.  Both are block triangular:

        B = [[I, 0], [Gamma0, I]],   Binv = [[I, 0], [-Gamma0, I]].
    """

    B: np.ndarray
    Binv: np.ndarray


def frame_matrices(gamma0):
    """(B, Binv) from the contraction Gamma0; works on a Jet Gamma0 too."""
    n = gamma0.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    b = ad.block([[eye, zero], [gamma0, eye]])
    binv = ad.block([[eye, zero], [-gamma0, eye]])
    return b, binv


def adapted_basis(m, pt):
    """The :class:`FrameBasis` at ``pt``."""
    b, binv = frame_matrices(pt.Gamma0)
    return FrameBasis(B=b, Binv=binv)


class Frame(Enum):
    ADAPTED = "adapted"
    COORDINATE = "coordinate"


@dataclass(frozen=True)
class FrameVector:
    """A 2n-component vector tagged with the frame its components refer to.

    Tagging makes accidental frame mixing detectable: conversions go through
    :func:`to_coordinate` / :func:`to_adapted`, and consumers assert the tag.
    """

    components: np.ndarray
    frame: Frame


def to_coordinate(v, basis):
    assert isinstance(v, FrameVector), "expected a frame-tagged vector"
    if v.frame is Frame.COORDINATE:
        return v
    return FrameVector(basis.B @ v.components, Frame.COORDINATE)


def to_adapted(v, basis):
    assert isinstance(v, FrameVector), "expected a frame-tagged vector"
    if v.frame is Frame.ADAPTED:
        return v
    return FrameVector(basis.Binv @ v.components, Frame.ADAPTED)


def horizontal_lift(x):
    """Horizontal lift of a base tangent vector: adapted components (x, 0)."""
    x = np.asarray(x, dtype=float)
    return FrameVector(np.concatenate([x, np.zeros_like(x)]), Frame.ADAPTED)


def vertical_lift(alpha):
    """Vertical lift of a base covector: adapted components (0, alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    return FrameVector(np.concatenate([np.zeros_like(alpha), alpha]), Frame.ADAPTED)


def flat(m, pt, x):
    """Musical isomorphism lowering an index: X -> g(X, .)."""
    return metric_at(m, pt.q) @ np.asarray(x, dtype=float)


def sharp(m, pt, alpha):
    """Musical isomorphism raising an index: alpha -> g^{-1}(alpha, .)."""
    return inverse_metric_at(m, pt.q) @ np.asarray(alpha, dtype=float)


def liouville(pt):
    """The tautological vertical field p_i dp-dual^i at ``pt``."""
    return vertical_lift(pt.p)


def spray(pt):
    """The geodesic spray g^{0i} delta_i at ``pt`` (horizontal lift of p-sharp)."""
    return horizontal_lift(pt.g0)

