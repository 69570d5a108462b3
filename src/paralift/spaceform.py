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
The space-form residual goes fields -> R -> residual: :func:`curvature_of`
and :func:`space_form_deviation` take h, its jacobian and phi from any
caller, :func:`curvature_at` and :func:`space_form_residual` from x, and a
check reads them off a sample's stepped chart point instead.
Finite differences appear only in the independent test oracles.  A chart's
domain is fixed when it is built (:func:`chart_problems`): on its closed
ball 1 + (c/4)|x|^2 and the perturbed model's 1 + eps x_0 stay positive,
so a point is tested against the radius alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ad
from .errors import ChartDomainError

__all__ = [
    "ChartModel",
    "SpaceForm",
    "CHART_RULES",
    "chart_problems",
    "flat_space",
    "conformal_ball",
    "perturbed_conformal",
    "conformal_factor",
    "conformal_fields",
    "christoffel_at",
    "curvature_at",
    "curvature_of",
    "space_form_residual",
    "space_form_deviation",
]

_DOMAIN_SLACK = 1e-12

# The problem line of each chart rule, naming the field it reads.
CHART_RULES = dict(
    flat="c: the flat model requires c = 0",
    overflow="chart_radius: its square overflows a float",
    radius="chart_radius: the chart ball reaches the conformal singularity",
    perturbed="strength: the chart ball reaches a zero of 1 + strength x_0",
)


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
        if problems := chart_problems(**vars(self)):
            raise ValueError("; ".join(problems))


def chart_problems(n, c, model, chart_radius, strength=0.0):
    """The problem lines of a chart's fields: one if a field is out of its
    range, else those of :data:`CHART_RULES` it breaks.  On the closed ball
    |x|^2 <= edge that :func:`_require_in_chart` admits, 1 + (c/4)|x|^2 for
    c < 0 is least at |x|^2 = edge (rounding is monotone) and x_0 is at most
    the float after sqrt(edge); each is tested as it is evaluated."""
    if not (n >= 2 and 0.0 < chart_radius < math.inf
            and math.isfinite(c) and math.isfinite(strength)):
        return ["needs n >= 2, finite c and strength, and a finite positive "
                "chart_radius"]
    if model is ChartModel.FLAT and c != 0.0:
        return [CHART_RULES["flat"]]
    if chart_radius * chart_radius * (1.0 + _DOMAIN_SLACK) == math.inf:
        return [CHART_RULES["overflow"]]  # so ** 2 below cannot overflow
    edge, problems = chart_radius ** 2 * (1.0 + _DOMAIN_SLACK), []
    if not 1.0 + 0.25 * c * edge > 0.0:
        problems.append(CHART_RULES["radius"])
    x0 = math.nextafter(math.sqrt(edge), math.inf)
    if (model is ChartModel.PERTURBED_CONFORMAL
            and not 1.0 - abs(strength) * x0 > 0.0):
        problems.append(CHART_RULES["perturbed"])
    return problems


def flat_space(n, chart_radius=1.0):
    return SpaceForm(n, 0.0, ChartModel.FLAT, chart_radius)


def conformal_ball(n, c, chart_radius=1.0):
    return SpaceForm(n, float(c), ChartModel.CONFORMAL_BALL, chart_radius)


def perturbed_conformal(n, c, strength=0.1, chart_radius=1.0):
    return SpaceForm(n, float(c), ChartModel.PERTURBED_CONFORMAL, chart_radius,
                     float(strength))


def conformal_factor(m, x):
    """Scalar ``phi`` with ``g = phi * I`` at the chart points ``x`` (..., n):
    the first field of :func:`conformal_fields`, computed without h."""
    return _factor(m, x)[1]


def _require_in_chart(m, r2):
    """:class:`ChartDomainError` at the first point whose |x|^2 = Re ``r2``
    is off the closed chart ball; an accepted chart is regular on it."""
    bound = m.chart_radius ** 2
    outside = r2.real > bound * (1.0 + _DOMAIN_SLACK)
    if np.count_nonzero(outside):
        i = np.unravel_index(np.argmax(outside), outside.shape)
        raise ChartDomainError(
            f"|x|^2 = {r2.real[i]:.6g} exceeds chart bound {bound:.6g}")


def conformal_fields(m, x):
    """phi and its log-gradient h = d phi / (2 phi) at the chart points ``x``.

    With s = 1 / (1 + (c/4)|x|^2), the ball's phi = s^2 has h = -(c/2) s x;
    the perturbed model's extra factor 1 + eps x_0 adds (eps/2) / (1 + eps
    x_0) to h_0; the flat model has phi = 1 and h = 0.  ``x`` may be
    complex; the domain guard compares its real part.  Raises
    :class:`ChartDomainError` off the chart, naming the first such point.
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
    _require_in_chart(m, r2)
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
    :func:`conformal_fields`, n lanes (:func:`curvature_of` takes h and dh).
    """
    return curvature_of(m, *ad.jacobian(lambda y: conformal_fields(m, y)[1], x))


def curvature_of(m, h, dh):
    """R[..., h, k, i, j] of :func:`curvature_at` from the log-gradient h and
    its jacobian dh[..., i, k] = d_k h_i, however they were stepped.

    Each of the four delta terms is one n^3 diagonal plane of R: delta_hj
    A_ik and delta_ik A_jh are added, then delta_hi A_jk and delta_jk A_ih
    subtracted.  Where planes meet this rounds as the formula does, so
    swapping (i, j) negates R bitwise.
    """
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
    return space_form_deviation(m, curvature_at(m, x), conformal_factor(m, x))


def space_form_deviation(m, riem, phi):
    """:func:`space_form_residual` from R (overwritten) and phi at its points."""
    c_phi = np.asarray(m.c * phi)[..., None, None]
    # The target is c phi on the plane (i, j) = (h, k) and -c phi on (k, h).
    # Where both meet, h = k, it is 0, and R^h_hhh = 0 exactly, so
    # (0 - c phi) + c phi = 0 subtracts it there too.
    for plane, op in (("...hkhk->...hk", np.subtract),
                      ("...hkkh->...hk", np.add)):
        view = np.einsum(plane, riem)
        op(view, c_phi, out=view)
    return np.max(np.abs(riem, out=riem), axis=(-4, -3, -2, -1))
