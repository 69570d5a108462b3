"""Chart models of constant-curvature Riemannian manifolds.

Every model is conformally flat on a single ball chart,

    g_ij(x) = phi(x) * delta_ij,

with the factor ``phi = 1 / (1 + (c/4)|x|^2)^2`` realizing the sphere of
curvature ``c > 0`` (stereographic chart), hyperbolic space for ``c < 0``
(Poincare-type ball), and Euclidean space for ``c = 0``.  One code path
therefore covers every sign of the curvature.  A deliberately perturbed
variant breaks constant curvature and exists purely to drive negative tests.

Beside phi, each model writes its log-gradient h = d phi / (2 phi) in closed
form; the Christoffel symbols follow from h alone, and the curvature tensor
from h and its jacobian, taken by one complex step (see :mod:`paralift.ad`).
Finite differences appear only in the independent test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ad
from .errors import ChartDomainError

__all__ = [
    "ChartModel",
    "SpaceForm",
    "flat_space",
    "conformal_ball",
    "perturbed_conformal",
    "conformal_factor",
    "conformal_fields",
    "christoffel_at",
    "curvature_at",
    "space_form_residual",
]

_DOMAIN_SLACK = 1e-12


class ChartModel(Enum):
    FLAT = "flat"
    CONFORMAL_BALL = "conformal_ball"
    PERTURBED_CONFORMAL = "perturbed_conformal"


@dataclass(frozen=True)
class SpaceForm:
    """An n-dimensional base manifold of (nominally) constant curvature c.

    ``chart_radius`` bounds the chart region used by samplers and domain
    checks.  ``strength`` is read only by the perturbed model; strength zero
    reproduces the conformal ball exactly.
    """

    n: int
    c: float
    model: ChartModel
    chart_radius: float = 1.0
    strength: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.chart_radius <= 0:
            raise ValueError("chart_radius must be positive")
        if self.model is ChartModel.FLAT and self.c != 0.0:
            raise ValueError("the flat model requires zero curvature")
        if self.c < 0 and self.chart_radius ** 2 >= -4.0 / self.c:
            raise ValueError(
                "chart_radius reaches the conformal-factor singularity "
                f"(need chart_radius^2 < {-4.0 / self.c})"
            )


def flat_space(n, chart_radius=1.0):
    return SpaceForm(n, 0.0, ChartModel.FLAT, chart_radius)


def conformal_ball(n, c, chart_radius=1.0):
    return SpaceForm(n, float(c), ChartModel.CONFORMAL_BALL, chart_radius)


def perturbed_conformal(n, c, strength=0.1, chart_radius=1.0):
    return SpaceForm(n, float(c), ChartModel.PERTURBED_CONFORMAL, chart_radius,
                     float(strength))


def conformal_factor(m, x):
    """Scalar ``phi`` with ``g = phi * I`` at the chart points ``x`` (..., n).

    The first field of :func:`conformal_fields`, computed without h.
    """
    return _factor(m, x)[1]


def _require_in_chart(m, x, r2):
    r2v = r2.real
    bound = m.chart_radius ** 2
    outside = r2v > bound * (1.0 + _DOMAIN_SLACK)
    singular = 1.0 + 0.25 * m.c * r2v <= 0.0
    bad = outside | singular
    if m.model is ChartModel.PERTURBED_CONFORMAL:
        bad = bad | (1.0 + m.strength * x.real[..., 0] <= 0.0)
    if not bad.any():
        return
    i = np.unravel_index(np.argmax(bad), bad.shape)  # the first bad point
    if outside[i]:
        raise ChartDomainError(
            f"|x|^2 = {r2v[i]:.6g} exceeds chart bound {bound:.6g}"
        )
    if singular[i]:
        raise ChartDomainError(
            f"conformal denominator not positive at |x|^2 = {r2v[i]:.6g}"
        )
    raise ChartDomainError("perturbation factor not positive")


def conformal_fields(m, x):
    """phi and its log-gradient h = d phi / (2 phi) at the chart points ``x``.

    With s = 1 / (1 + (c/4)|x|^2), the ball's phi = s^2 has h = -(c/2) s x;
    the perturbed model's extra factor 1 + eps x_0 adds (eps/2) / (1 + eps
    x_0) to h_0; the flat model has phi = 1 and h = 0.  ``x`` may be
    complex; domain guards compare its real part.  Raises
    :class:`ChartDomainError` off the chart or where the conformal
    denominator fails to be positive, naming the first such point.
    """
    x, phi, s, w = _factor(m, x)
    if m.model is ChartModel.FLAT:
        return phi, np.zeros(np.shape(x))
    h = (-0.5 * m.c * s)[..., None] * x
    if m.model is ChartModel.PERTURBED_CONFORMAL:
        h = h + (0.5 * m.strength / w)[..., None] * ad.constant(np.eye, m.n)[0]
    return phi, h


def _factor(m, x):
    """(x, phi, s, w): ``x`` as a float or complex array, checked to lie on
    the chart; phi by the one formula of its model; and the parts that h
    reuses, s = 1 / (1 + (c/4)|x|^2) and w = 1 + eps x_0 (None where unused)."""
    x = np.asarray(x)
    x = x if x.dtype.kind == "c" else x.astype(float, copy=False)
    r2 = (x * x).sum(-1)
    if m.model is ChartModel.FLAT:
        return x, np.ones(np.shape(r2)), None, None
    _require_in_chart(m, x, r2)
    s = 1.0 / (1.0 + 0.25 * m.c * r2)
    if m.model is ChartModel.CONFORMAL_BALL:
        return x, s * s, s, None
    w = 1.0 + m.strength * x[..., 0]
    return x, (s * s) * w, s, w


def christoffel_at(m, x):
    """Christoffel symbols Gamma[..., k, i, j] = Gamma^k_ij(x); ``x`` may be complex.

    For g = phi I, Gamma^k_ij = delta^k_i h_j + delta^k_j h_i - delta_ij h_k
    with h the log-gradient of :func:`conformal_fields`, each entry one +-h_a
    (h_k + h_k - h_k where all deltas hold).
    """
    h = conformal_fields(m, x)[1]
    eye = ad.constant(np.eye, m.n)
    return ((eye[:, :, None] * h[..., None, None, :]
             + eye[:, None, :] * h[..., None, :, None])
            - eye * h[..., :, None, None])


def curvature_at(m, x):
    """Curvature components R[..., h, k, i, j] = R^h_kij(x), in closed form.

    R^h_kij = d_i Gamma^h_jk - d_j Gamma^h_ik
              + Gamma^h_il Gamma^l_jk - Gamma^h_jl Gamma^l_ik.
    For the conformally flat g = phi I, phi = exp(2 sigma) and h = d sigma,
    this is (Besse, *Einstein Manifolds*, 1987, 1.J)

        R^h_kij = T_hkij - T_hkji,   T_hkij = delta_hj A_ik + delta_ik A_jh,
        A = dh - h (x) h + (1/2)|h|^2 I,

    with dh[..., i, k] = d_k h_i from one complex step of
    :func:`conformal_fields`, n lanes.  Each of the four delta terms is one
    n^3 diagonal plane of R: delta_hj A_ik and delta_ik A_jh are added, then
    delta_hi A_jk and delta_jk A_ih subtracted.  Where planes meet this rounds
    as the formula does, so swapping (i, j) negates R bitwise.
    """
    h, dh = ad.jacobian(lambda y: conformal_fields(m, y)[1], x)
    a = ((dh - ad.outer(h, h))
         + (0.5 * ad.vecdot(h, h))[..., None, None] * ad.constant(np.eye, m.n))
    at = ad.transpose(a, (1, 0))  # at[..., k, i] = A_ik
    rows, cols = at[..., None, :, :], at[..., :, None, :]
    riem = np.zeros(a.shape[:-2] + (m.n,) * 4)
    for plane, term, op in (("...hkih->...hki", rows, np.add),  # d_hj A_ik
                            ("...hkkj->...hkj", cols, np.add),  # d_ik A_jh
                            ("...hkhj->...hkj", rows, np.subtract),  # d_hi A_jk
                            ("...hkik->...hki", cols, np.subtract)):  # d_jk A_ih
        view = np.einsum(plane, riem)  # a writable view of the plane
        op(view, term, out=view)
    return riem


def space_form_residual(m, x):
    """Max-abs deviation of R from the constant-curvature shape, per point.

    The target is R^h_kij = c (delta^h_i g_kj - delta^h_j g_ki)
    = c phi (delta^h_i delta_kj - delta^h_j delta_ki); any genuine space form
    drives this to rounding level, the perturbed model does not.
    """
    riem = curvature_at(m, x)
    c_phi = (m.c * conformal_factor(m, x))[..., None, None]
    # The target is c phi on the plane (i, j) = (h, k) and -c phi on (k, h).
    # Where both meet, h = k, it is 0, and R^h_hhh = 0 exactly, so
    # (0 - c phi) + c phi = 0 subtracts it there too.
    for plane, op in (("...hkhk->...hk", np.subtract),
                      ("...hkkh->...hk", np.add)):
        view = np.einsum(plane, riem)
        op(view, c_phi, out=view)
    return np.max(np.abs(riem, out=riem), axis=(-4, -3, -2, -1))

