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
from one forward-mode pass through them (see :mod:`paralift.ad`).  Finite
differences appear only in the independent test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ad
from .errors import ChartDomainError
from .report import make_report

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
    "check_space_form",
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

    The first field of :func:`conformal_fields`, with its domain guards.
    """
    return conformal_fields(m, x)[0]


def _require_in_chart(m, x, r2):
    r2v = ad.strip(r2)
    bound = m.chart_radius ** 2
    outside = r2v > bound * (1.0 + _DOMAIN_SLACK)
    singular = 1.0 + 0.25 * m.c * r2v <= 0.0
    bad = outside | singular
    if m.model is ChartModel.PERTURBED_CONFORMAL:
        bad = bad | (1.0 + m.strength * ad.strip(x)[..., 0] <= 0.0)
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
    x_0) to h_0; the flat model has phi = 1 and h = 0.  ``x`` may be a Jet;
    domain guards compare the underlying values.  Raises
    :class:`ChartDomainError` off the chart or where the conformal
    denominator fails to be positive, naming the first such point.
    """
    x = x if isinstance(x, ad.Jet) else np.asarray(x, dtype=float)
    r2 = (x * x).sum(-1)
    if m.model is ChartModel.FLAT:
        return np.ones(np.shape(r2)), np.zeros(np.shape(x))
    _require_in_chart(m, x, r2)
    s = 1.0 / (1.0 + 0.25 * m.c * r2)
    phi, h = s * s, (-0.5 * m.c * s)[..., None] * x
    if m.model is ChartModel.PERTURBED_CONFORMAL:
        w = 1.0 + m.strength * x[..., 0]
        phi = phi * w
        h = h + (0.5 * m.strength / w)[..., None] * np.eye(m.n)[0]
    return phi, h


def christoffel_at(m, x):
    """Christoffel symbols Gamma[..., k, i, j] = Gamma^k_ij(x); ``x`` may be a Jet.

    For g = phi I, Gamma^k_ij = delta^k_i h_j + delta^k_j h_i - delta_ij h_k
    with h the log-gradient of :func:`conformal_fields`, each entry one +-h_a
    (h_k + h_k - h_k where all deltas hold).
    """
    h = conformal_fields(m, x)[1]
    eye = np.eye(m.n)
    return ((eye[:, :, None] * h[..., None, None, :]
             + eye[:, None, :] * h[..., None, :, None])
            - eye * h[..., :, None, None])


def curvature_at(m, x):
    """Curvature components R[..., h, k, i, j] = R^h_kij(x).

    R^h_kij = d_i Gamma^h_jk - d_j Gamma^h_ik
              + Gamma^h_il Gamma^l_jk - Gamma^h_jl Gamma^l_ik,
    antisymmetric in (i, j) by construction.  The Gamma derivatives come from
    one forward-mode pass through :func:`christoffel_at`.
    """
    gs = christoffel_at(m, ad.seed(x))
    gamma = ad.val(gs)
    dgamma = ad.partials(gs, m.n)  # dgamma[..., k, i, j, a] = d_a Gamma^k_ij
    quad = np.einsum("...hil,...ljk->...hkij", gamma, gamma)
    # grouped so that swapping (i, j) negates each parenthesis bitwise
    return ((ad.transpose(dgamma, (0, 2, 3, 1))
             - ad.transpose(dgamma, (0, 2, 1, 3)))
            + (quad - ad.transpose(quad, (0, 1, 3, 2))))


def space_form_residual(m, x):
    """Max-abs deviation of R from the constant-curvature shape, per point.

    The target is R^h_kij = c (delta^h_i g_kj - delta^h_j g_ki)
    = c phi (delta^h_i delta_kj - delta^h_j delta_ki); any genuine space form
    drives this to rounding level, the perturbed model does not.
    """
    riem = curvature_at(m, x)
    eye = np.eye(m.n)
    shape = (np.einsum("hi,kj->hkij", eye, eye)
             - np.einsum("hj,ki->hkij", eye, eye))
    target = (m.c * conformal_factor(m, x))[..., None, None, None, None] * shape
    return np.max(np.abs(riem - target), axis=(-4, -3, -2, -1))


def check_space_form(m, sample, tol=1e-9, *, seed=None):
    """Residual report for the constant-curvature shape over chart points."""
    points = list(sample)
    if not points:
        raise ValueError("sample must be nonempty")
    residuals = ad.map_blocks(lambda qs: space_form_residual(m, np.stack(qs)),
                              points, (2 * m.n) ** 3)
    return make_report("space_form", residuals, points, tol, seed=seed)

