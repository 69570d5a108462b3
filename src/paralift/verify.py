"""Property checkers for the lifted structures.

Each check evaluates a residual at sampled phase points and reduces by max,
so verdicts do not depend on evaluation order.  :data:`CHECKS` declares
every check once: its default tolerance, what it needs of the structure's
spec, whether it reads the sample's stepped point, its residual and the
report fields only it emits; :data:`DEFAULT_TOLERANCES`, :data:`CHECK_NAMES`
and the config parser's rules read it.  :func:`run_check` is the one way to
run a check: it enforces the spec requirement, brings the sample onto the
structure's chart, rebuilding it once there if it was built on another
chart or on mixed charts (:func:`paralift.phase.on_chart`); the residual
then reads the sample's one batch, or its slices in blocks of
:data:`paralift.ad.BLOCK_ELEMENTS` (bit for bit the residuals of the points
one by one), as it is; then one :func:`paralift.report.make_report`.  A
composite check runs each of its parts so, at the part's own block size,
and reports the worst part.  A sample also carries its batch's
complex-stepped chart point (:func:`paralift.phase.stepped_point`), built
when a check first reads it, kept, and sliced with the batch, so the checks
that differentiate the chart (Nijenhuis tensor, exterior derivative,
curvature) share one step of it: they evaluate the coordinate-frame P and
Omega on it and read the stepped output in place; space_form reads h and
its jacobian off its q lanes.  The algebraic checks never build it.
:func:`fd_oracle` and the closed form :func:`analytic_dOmega` provide the
independent cross checks.

Default tolerances: 1e-10 for purely algebraic identities, 1e-8 for
first-derivative residuals (one differentiation pass through the Christoffel
contractions costs a couple of digits near the chart edge), 1e-6 relative
for comparisons against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import ad
from .errors import RangeError
from .lifted import (
    _adapted_blocks,
    _omega_coordinate,
    _p_coordinate,
    _p_matrix,
    _require_metric,
    _require_para_hermitian,
)
from .phase import (
    CotangentPoint,
    energy_density,
    make_point,
    on_chart,
    stack_points,
    stepped_point,
    take_points,
)
from .report import _sort_key, make_report
from .spaceform import curvature_of, space_form_deviation

__all__ = [
    "PhaseSample",
    "sample_points",
    "fd_oracle",
    "nijenhuis_at",
    "exterior_derivative_2form",
    "analytic_dOmega",
    "run_check",
    "CHECKS",
    "DEFAULT_TOLERANCES",
    "CHECK_NAMES",
]

_EIGENVALUE_TOL = 1e-10
CHART_FRACTION = 0.8  # of the chart radius, the ball of sampled q


@dataclass(frozen=True, eq=False)
class PhaseSample:
    """Sampled phase points, the seed that produced them, and the points as
    one batched CotangentPoint that checks read, stacked here if not given.
    Samples compare and hash by identity.

    ``stepped`` is derived on its first read and kept: the batch's
    :func:`paralift.phase.stepped_point` on its own chart, which every check
    that differentiates the chart reads (its :class:`Check` row, or a part's,
    is ``stepped``), so a run steps a sample once if any of them runs and
    never otherwise.  It is None for points with no common chart or for no
    points.  It takes 16 (8n^2 + 4n) bytes per point, 133 KB at n = 32.
    """

    points: tuple
    seed: int | None = None
    batch: CotangentPoint = field(default=None, repr=False)

    def __post_init__(self):
        if self.batch is None:
            object.__setattr__(self, "batch", stack_points(self.points))

    @cached_property
    def stepped(self):
        batch = self.batch
        return (stepped_point(batch.m, batch)
                if batch.m is not None and len(self.points) else None)


def sample_points(m, count, seed, *, p_max=2.0, t_max=2.0):
    """Deterministic sample of phase points for the checkers.

    q is uniform in the ball |q| <= CHART_FRACTION * chart_radius, p uniform
    in |p| <= p_max; draws whose energy density is not at most t_max (above
    it, overflowing or NaN) are rejected and redrawn, and a
    :class:`RangeError` ends a search that draws too many.
    The first point always carries p = 0, since several coefficient
    formulas have removable behavior at t = 0 that deserves coverage.  Each
    draw is tested in float arithmetic; the accepted ones are built as one
    batch, whose stepped point the first check that differentiates builds.
    """
    rng = np.random.default_rng(seed)
    radius = CHART_FRACTION * m.chart_radius
    qs, ps = [], []
    attempts = 0
    limit = max(1000, 400 * count)
    with np.errstate(over="ignore"):  # an overflowing t is past t_max
        while len(qs) < count:
            attempts += 1
            if attempts > limit:
                raise RangeError(
                    f"sampler starved: {len(qs)} of {count} points after "
                    f"{attempts} draws (t_max = {t_max:g} too tight?)")
            q = _ball(rng, m.n, radius)
            p = np.zeros(m.n) if not qs else _ball(rng, m.n, p_max)
            if energy_density(m, q, p) <= t_max:  # a NaN t is not
                qs.append(q)
                ps.append(p)
    batch = make_point(m, qs, ps) if qs else stack_points(())
    points = tuple(take_points(batch, i) for i in range(len(qs)))
    return PhaseSample(points, seed, batch)


def _ball(rng, n, radius):
    v = rng.standard_normal(n)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        norm = 1.0
    r = radius * rng.random() ** (1.0 / n)
    return (r / norm) * v


def _blocks(fn, sample, lanes, n):
    """``fn`` of the sample's batch and, if ``lanes``, its stepped point (else
    None), or of the same consecutive slices of both, each of at least one
    point and :data:`paralift.ad.BLOCK_ELEMENTS` elements at most: (2n)^3
    per point with the stepped point, (2n)^2 without."""
    parts = (sample.batch, sample.stepped if lanes else None)
    count = len(sample.points)
    size = max(1, ad.BLOCK_ELEMENTS // (2 * n) ** (3 if lanes else 2))
    if count <= size:
        return fn(*parts)
    return np.concatenate([fn(*(x and take_points(x, slice(i, i + size))
                                for x in parts))
                           for i in range(0, count, size)])


def _max_abs(a, core):
    """max |a| over the last ``core`` axes, reshaped into one."""
    return np.abs(a).reshape(a.shape[:a.ndim - core] + (-1,)).max(-1)


def fd_oracle(f, x, step=1e-5):
    """Central finite differences of ``f`` along each coordinate of ``x``.

    Returns an array shaped like ``f(x)`` with one trailing axis per input
    coordinate.  This is the independent oracle for every complex-step
    derivative in the package; it evaluates on real points only.
    """
    x = np.asarray(x, dtype=float)
    base = np.asarray(f(x), dtype=float)
    out = np.zeros(base.shape + (x.size,))
    for a in range(x.size):
        e = np.zeros(x.size)
        e[a] = step
        out[..., a] = (np.asarray(f(x + e), dtype=float)
                       - np.asarray(f(x - e), dtype=float)) / (2.0 * step)
    return out


def nijenhuis_at(ls, pt):
    """Nijenhuis tensor N[c, a, b] = N^c_ab of P at ``pt``, in coordinates.

    N^c_ab = P^d_a d_d P^c_b - P^d_b d_d P^c_a
             - P^c_d (d_a P^d_b - d_b P^d_a),

    with every partial taken by complex step in all 2n variables, read where
    it lands (:func:`_stepped_nijenhuis`): exactly antisymmetric in (a, b).
    """
    out = _p_coordinate(ls, stepped_point(ls.m, pt))
    return ad.transpose(_stepped_nijenhuis(out), (1, 0, 2)) / ad.STEP


def _stepped_nijenhuis(out):
    """h N[..., a, c, b] = h N^c_ab from P's stepped output out[..., a, c, b]:
    with D = Im out = h d_a P^c_b, Y = P^T D - P D, that is Y[a, c, b] =
    P^d_a D[d, c, b] - P^c_d D[a, d, b], is one flat product and one
    broadcast over a, and h N = Y - Y with a and b swapped, bitwise."""
    pmat = np.ascontiguousarray(out.real[..., 0, :, :])
    d = np.ascontiguousarray(out.imag)  # unit strides for both products
    del out  # a caller's temporary is freed before the products
    k, lead = pmat.shape[-1], d.shape[:-3]
    y = (ad.transpose(pmat, (1, 0)) @ d.reshape(lead + (k, k * k))).reshape(
        d.shape)
    y -= pmat[..., None, :, :] @ d
    return y - ad.transpose(y, (2, 1, 0))


def _step_max(x):
    """max |x| per point over the last three axes, rescaled by 1/h (exact)."""
    return _max_abs(x, 3) / ad.STEP


def exterior_derivative_2form(omega, pt):
    """(d omega)[a, b, c] = d_a omega_bc + d_b omega_ca + d_c omega_ab.

    ``omega`` maps z = (q, p) to an antisymmetric matrix and must evaluate
    on complex steps near the point ``pt``; the result is fully antisymmetric.
    """
    return _d2form(ad.stepped(omega, pt.z()).imag) / ad.STEP


def _d2form(x):
    """x[a, b, c] + x[b, c, a] + x[c, a, b] in that order, x gathered
    C-ordered: d omega from x[..., a, b, c] = d_a omega_bc, at any scale."""
    x = np.ascontiguousarray(x)
    return (x + ad.transpose(x, (1, 2, 0))) + ad.transpose(x, (2, 0, 1))


def analytic_dOmega(ls, pt):
    """Closed-form d Omega in coordinate components at ``pt``.

    d Omega = (mu - lambda') theta ^ J with theta = g0^h Dp_h and
    J = Dp_i ^ dq^i, so it vanishes identically iff mu = lambda'.  As
    Dp_h = dp_h - Gamma0_hk dq^k with Gamma0 symmetric, J = dp_i ^ dq^i and
    theta = (-Gamma0 g0, g0) = (-2t h, g0) in the (q, p) slots, fields read
    on ``ls.m``; the components theta_a J_bc + theta_b J_ca + theta_c J_ab
    are the cyclic sum of :func:`_d2form`.
    """
    _require_para_hermitian(ls)
    theta = _theta(ls, on_chart(ls.m, pt))
    k = theta.shape[-1]
    return _d2form(_minus_theta_j(np.zeros(theta.shape + (k, k)), -theta))


def _theta(ls, pt):
    """(mu - lambda') theta at the point ``pt`` of ``ls.m``, mu and lambda'
    from one pass of the spec's "form" program with its derivatives, the
    program closure_agreement runs on the lanes."""
    _, mu, lam_prime, _ = ls.spec.program("form").with_derivatives(pt.t)
    factor = mu - lam_prime
    return factor[..., None] * np.concatenate(
        [np.asarray(-2.0 * pt.t)[..., None] * pt.h, pt.g0], axis=-1)


def _minus_theta_j(x, theta):
    """x[..., a, b, c] - theta_a J_bc in place, for J = dp_i ^ dq^i, whose
    only nonzero entries are J[n + i, i] = 1 = -J[i, n + i]."""
    i = np.arange(theta.shape[-1] // 2)
    x[..., len(i) + i, i] -= theta[..., :, None]
    x[..., i, len(i) + i] += theta[..., :, None]
    return x


# The residuals: each maps the structure, a batch of points on its chart
# and, for a check that reads it, the batch's stepped point (else None) to
# one residual per point.

def _space_form(ls, pt, lanes):
    """space_form_residual of each point's q, bitwise: h and its jacobian
    from the n q lanes of the stepped point, phi from the batch."""
    m = ls.m
    h, dh = ad.split(lanes.h[..., :m.n, :], 1)
    return space_form_deviation(m, curvature_of(m, h, dh), pt.phi)


def _almost_product(ls, pt, _):
    """|P^2 - I|_inf per point in the adapted frame.

    For P = [[0, P2], [P1, 0]], P^2 - I = diag(P2 P1 - I, P1 P2 - I): the
    residual reads both blocks, one stacked product of (P2, P1) by
    (P1, P2) from one coefficient pass, and assembles no zero block.
    Cruceanu's P = diag(-I, I) is squared whole."""
    if ls.spec is None:
        pmat = _p_matrix(ls, pt)
        return _max_abs(pmat @ pmat - ad.constant(np.eye, 2 * ls.m.n), 2)
    b = _adapted_blocks(ls, pt, "P")  # P1, P2
    return np.abs(b[::-1] @ b - ad.constant(np.eye, ls.m.n)).max((0, -2, -1))


def _compatibility(ls, pt, _):
    """|P^T G P - eps G|_inf per point in the adapted frame.

    For P = [[0, P2], [P1, 0]] and G = diag(G1, G2), P^T G P - eps G =
    diag(P1^T G2 P1 - eps G1, P2^T G1 P2 - eps G2): the residual reads these
    two n x n blocks, built from one coefficient pass, and assembles no zero
    block; P1 and P2 are exactly symmetric."""
    b = _adapted_blocks(ls, pt, "PG")  # P1, P2, G1, G2
    return np.abs(b[:2] @ b[[3, 2]] @ b[:2]
                  - float(ls.spec.epsilon) * b[2:]).max((0, -2, -1))


def _expected_signature(ls):
    """The (positive, negative) eigenvalue counts G_adapted must have: (n, n)
    for eps = -1 (neutral), (2n, 0) for a positive eps = +1 spec, else
    None."""
    n = ls.m.n
    if ls.spec.epsilon == -1:
        return n, n
    return (2 * n, 0) if "positive" in ls.spec.flags else None


def _signature(ls, pt, _):
    """1 at each point where the eigenvalue-sign census of G_adapted misses
    the expected signature, else 0; so any miss fails at the default
    tolerance 0.  G is block diagonal, so its eigenvalues are those of its
    two n x n blocks.  An eigenvalue has a sign where its |.| exceeds
    _EIGENVALUE_TOL times the largest |eigenvalue| of its block at that
    point, so the census, like the signature (Sylvester's law of inertia),
    does not change when a block is scaled by a positive factor."""
    expected = _expected_signature(ls)
    eigs = np.linalg.eigvalsh(_adapted_blocks(ls, pt, "G"))
    if expected is None:
        return np.zeros(eigs.shape[1:-1])
    tol = _EIGENVALUE_TOL * np.abs(eigs).max(-1, keepdims=True)
    pos = np.sum(eigs > tol, axis=(0, -1))
    neg = np.sum(eigs < -tol, axis=(0, -1))
    return ((pos != expected[0]) | (neg != expected[1])).astype(float)


def _signature_extras(ls):
    """The expected counts as details, and a note if there are none."""
    expected = _expected_signature(ls)
    notes = () if expected else ("no expected signature for a non-positive "
                                 "eps = +1 spec; check is vacuous",)
    pos, neg = expected or (None, None)
    return {"expected_positive": pos, "expected_negative": neg}, notes


def _nijenhuis_max(ls, _, lanes):
    """|N_P|_inf per point in coordinate components, from P on the stepped
    point."""
    return _step_max(_stepped_nijenhuis(_p_coordinate(ls, lanes)))


def _n2_extras(ls):
    """No details; at n = 2, the note that the theorem does not cover it."""
    return None, (("base dimension 2 is outside the guaranteed range (n > 2) "
                   "of the constant-curvature characterization; residuals "
                   "are informational",) if ls.m.n == 2 else ())


def _closure_max(ls, _, lanes):
    """|d Omega|_inf per point by complex-step differentiation, from Omega on
    the stepped point."""
    return _step_max(_d2form(_omega_coordinate(ls, lanes).imag))


def _closure_agreement(ls, pt, lanes):
    """|d Omega (complex step) - d Omega (closed form)|_inf per point, one
    cyclic sum of h d_a Omega_bc - h theta_a J_bc on the stepped output."""
    return _step_max(_d2form(_minus_theta_j(
        _omega_coordinate(ls, lanes).imag, ad.STEP * _theta(ls, pt))))


@dataclass(frozen=True)
class Check:
    """One check: its default ``tolerance``; what it needs of the
    structure's spec, ``spec`` None, "metric" (the metric part) or
    "para_hermitian" (also eps = -1, for Omega); whether its residual reads
    the sample's ``stepped`` point; its ``residual`` (see above); its
    report's details and notes as ``extras`` of the structure; and the names
    of the batch arrays, on the structure's chart, whose rows its
    ``witnesses`` report.

    A composite lists its ``parts`` instead of a residual: it passes iff
    every part passes at its tolerance, and reports the worst part's
    residuals, witnesses and notes, a non-finite one ranking worst, with
    each part's max residual as a "<part>_residual" detail.
    """

    tolerance: float
    residual: Callable | None = None
    spec: str | None = None
    stepped: bool = False
    extras: Callable = lambda ls: (None, ())
    witnesses: tuple = ("q", "p")
    parts: tuple = ()


CHECKS = {
    "space_form": Check(1e-9, _space_form, stepped=True, witnesses=("q",)),
    "almost_product": Check(1e-10, _almost_product),
    "compatibility": Check(1e-10, _compatibility, "metric"),
    "metric_signature": Check(0.0, _signature, "metric",
                              extras=_signature_extras),
    "integrability": Check(1e-8, _nijenhuis_max, stepped=True,
                           extras=_n2_extras),
    "closure": Check(1e-8, _closure_max, "para_hermitian", stepped=True),
    "closure_agreement": Check(1e-8, _closure_agreement, "para_hermitian",
                               stepped=True),
    "para_kahler": Check(1e-8, spec="para_hermitian", parts=(
        "compatibility", "integrability", "closure")),
}
DEFAULT_TOLERANCES = {name: check.tolerance for name, check in CHECKS.items()}
CHECK_NAMES = tuple(CHECKS)
_REQUIRE = {"metric": _require_metric,
            "para_hermitian": _require_para_hermitian}


def run_check(name, ls, sample, tol=None):
    """Report of check ``name`` of ``ls`` on the PhaseSample ``sample``; tol
    None takes the check's default.  A sample whose batch was built on a
    chart other than ``ls.m``, or on mixed charts, is rebuilt here once on
    ``ls.m``; see :data:`CHECK_NAMES` for valid names."""
    check = CHECKS.get(name)
    if check is None:
        raise KeyError(f"unknown check {name!r}; valid: {sorted(CHECKS)}")
    if check.spec:
        _REQUIRE[check.spec](ls)
    if not sample.points:  # a check over no points proves nothing
        raise ValueError("sample must be nonempty")
    batch = on_chart(ls.m, sample.batch)
    if batch is not sample.batch:
        sample = PhaseSample(sample.points, sample.seed, batch)
    values, details, notes = _outcome(check, ls, sample)
    return make_report(name, values,
                       {row: getattr(batch, row) for row in check.witnesses},
                       check.tolerance if tol is None else tol,
                       seed=sample.seed, details=details, notes=notes)


def _outcome(check, ls, sample):
    """(residuals, details, notes) of ``check`` on a sample of ``ls.m``; a
    composite's parts each run in blocks of their own size."""
    if not check.parts:
        return (_blocks(partial(check.residual, ls), sample, check.stepped,
                        ls.m.n), *check.extras(ls))
    outcomes = [_outcome(CHECKS[part], ls, sample) for part in check.parts]
    top = [float(values.max()) for values, _, _ in outcomes]
    worst = max(range(len(top)), key=lambda i: _sort_key(top[i]))  # nan first
    values, _, notes = outcomes[worst]
    return values, {f"{part}_residual": r
                    for part, r in zip(check.parts, top)}, notes
