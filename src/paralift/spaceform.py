"""Constant-curvature Riemannian manifolds on one conformally flat chart.

Every chart is a ball on which

    g_ij(x) = phi(x) * delta_ij,   phi = (1 + eps x_0) / (1 + (c/4)|x|^2)^2,

a chart being the four numbers (n, c, chart_radius, eps) this formula reads.
With eps = 0 it realizes the sphere of curvature ``c > 0`` (stereographic
chart), hyperbolic space for ``c < 0`` (Poincare-type ball) and Euclidean
space for ``c = 0``, so one code path covers every sign of the curvature.
A perturbation strength eps != 0 breaks constant curvature and exists
purely to drive negative tests.

Beside phi, :func:`conformal_fields` writes its log-gradient
h = d phi / (2 phi) in closed form; the Christoffel symbols follow from h
alone, and the curvature tensor from h and its jacobian, taken by one
complex step (see :mod:`paralift.ad`).
The space-form residual goes fields -> R -> residual: :func:`curvature_of`
and :func:`space_form_deviation` take h, its jacobian and phi from any
caller, :func:`curvature_at` and :func:`space_form_residual` from x, and a
check reads them off a sample's stepped chart point instead.
Finite differences appear only in the independent test oracles.  A chart's
domain is fixed when it is built (:func:`chart_problems`): on its closed
ball 1 + (c/4)|x|^2 and 1 + eps x_0 stay positive and 1/phi stays finite,
so every point is tested against the radius alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ad
from .errors import ChartDomainError

__all__ = [
    "SpaceForm",
    "CHART_RULES",
    "chart_problems",
    "flat_space",
    "conformal_ball",
    "perturbed_conformal",
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
    overflow="chart_radius: its square overflows a float",
    radius="chart_radius: the chart ball reaches the conformal singularity",
    perturbed="strength: the chart ball reaches a zero of 1 + strength x_0",
    factor="chart_radius: 1/phi overflows a float on the chart ball",
)


@dataclass(frozen=True)
class SpaceForm:
    """An n-dimensional base manifold of (nominally) constant curvature c.

    ``chart_radius`` bounds the chart ball on which every point is read.
    ``strength`` is the eps of phi's factor 1 + eps x_0; at zero the chart
    is the space form of curvature c exactly.
    """

    n: int
    c: float
    chart_radius: float = 1.0
    strength: float = 0.0

    def __post_init__(self):
        if problems := chart_problems(**vars(self)):
            raise ValueError("; ".join(problems))


def chart_problems(n, c, chart_radius, strength=0.0):
    """The problem lines of a chart's fields: one if a field is out of its
    range, else those of :data:`CHART_RULES` it breaks.  On the closed ball
    |x|^2 <= edge that :func:`_require_in_chart` admits, 1 + (c/4)|x|^2 for
    c < 0 is least at |x|^2 = edge (rounding is monotone) and x_0 is at most
    the float after sqrt(edge); each is tested as it is evaluated.  phi is
    least where s = 1 / (1 + (c/4)|x|^2) is, at |x|^2 = edge for c > 0 and
    at 0 otherwise, and where 1 + eps x_0 is: 1/phi there bounds it on the
    ball, in :func:`conformal_fields`'s arithmetic.  At eps = 0 the
    perturbation factor is 1 and its rules hold trivially."""
    if not (n >= 2 and 0.0 < chart_radius < math.inf
            and math.isfinite(c) and math.isfinite(strength)):
        return ["needs n >= 2, finite c and strength, and a finite positive "
                "chart_radius"]
    if chart_radius * chart_radius * (1.0 + _DOMAIN_SLACK) == math.inf:
        return [CHART_RULES["overflow"]]  # so ** 2 below cannot overflow
    edge, problems = chart_radius ** 2 * (1.0 + _DOMAIN_SLACK), []
    if not 1.0 + 0.25 * c * edge > 0.0:
        problems.append(CHART_RULES["radius"])
    x0 = math.nextafter(math.sqrt(edge), math.inf)
    if not 1.0 - abs(strength) * x0 > 0.0:
        problems.append(CHART_RULES["perturbed"])
    if not problems:
        s = 1.0 / (1.0 + 0.25 * c * (edge if c > 0.0 else 0.0))
        phi = s * s * (1.0 - abs(strength) * x0)
        if not (phi > 0.0 and 1.0 / phi < math.inf):
            problems.append(CHART_RULES["factor"])
    return problems


def flat_space(n, chart_radius=1.0):
    return SpaceForm(n, 0.0, chart_radius)


def conformal_ball(n, c, chart_radius=1.0):
    return SpaceForm(n, float(c), chart_radius)


def perturbed_conformal(n, c, strength=0.1, chart_radius=1.0):
    return SpaceForm(n, float(c), chart_radius, float(strength))


def _require_in_chart(m, r2):
    """:class:`ChartDomainError` at the first point whose |x|^2 = Re ``r2``
    is off the closed chart ball; an accepted chart is regular on it."""
    bound = m.chart_radius ** 2
    outside = ~(r2.real <= bound * (1.0 + _DOMAIN_SLACK))  # NaN too
    if np.count_nonzero(outside):
        i = np.unravel_index(np.argmax(outside), outside.shape)
        raise ChartDomainError(
            f"|x|^2 = {r2.real[i]:.6g} exceeds chart bound {bound:.6g}")


def conformal_fields(m, x):
    """phi and its log-gradient h = d phi / (2 phi) at the chart points ``x``.

    With s = 1 / (1 + (c/4)|x|^2) and w = 1 + eps x_0, phi = s^2 w and
    h = -(c/2) s x + (eps/2) / w e_0: at eps = 0 the space form's phi = s^2,
    and at c = 0 too phi = 1 and h = 0.  ``x`` may be complex; the domain
    guard compares its real part.  Raises :class:`ChartDomainError` off the
    chart, naming the first such point.
    """
    x = np.asarray(x)
    x = x if x.dtype.kind == "c" else x.astype(float, copy=False)
    r2 = (x * x).sum(-1)
    _require_in_chart(m, r2)
    s = 1.0 / (1.0 + 0.25 * m.c * r2)
    w = 1.0 + m.strength * x[..., 0]
    h = ((-0.5 * m.c * s)[..., None] * x
         + (0.5 * m.strength / w)[..., None] * ad.constant(np.eye, m.n)[0])
    return (s * s) * w, h


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
    drives this to rounding level, a perturbed chart does not.
    """
    return space_form_deviation(m, curvature_at(m, x),
                                conformal_fields(m, x)[0])


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
