"""Property checkers for the lifted structures.

Each check evaluates a residual at sampled phase points and reduces by max,
so verdicts do not depend on evaluation order.  Every check takes one path:
:func:`_check` brings the sample onto the structure's chart, rebuilding it
once there if it was built on another chart or on mixed charts
(:func:`paralift.phase.on_chart`); the residual then reads the sample's one
batch, or its slices in blocks of :data:`paralift.ad.BLOCK_ELEMENTS` (bit
for bit the residuals of the points one by one), as it is; then one
:func:`paralift.report.make_report`.  A sample also carries its batch's
complex-stepped chart point (:func:`paralift.phase.stepped_point`), built
once with the sample and sliced with the batch, so the checks that
differentiate the chart (Nijenhuis tensor, exterior derivative, curvature)
step it zero times: they evaluate the coordinate-frame P and Omega on it and
read the stepped output in place; space_form reads h and its jacobian off
its q lanes.  :func:`fd_oracle` and the closed form :func:`analytic_dOmega`
provide the independent cross checks.

Default tolerances: 1e-10 for purely algebraic identities, 1e-8 for
first-derivative residuals (one differentiation pass through the Christoffel
contractions costs a couple of digits near the chart edge), 1e-6 relative
for comparisons against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .report import CheckReport, _sort_key, make_report
from .spaceform import curvature_of, space_form_deviation

__all__ = [
    "CheckReport",
    "PhaseSample",
    "sample_points",
    "fd_oracle",
    "nijenhuis_at",
    "exterior_derivative_2form",
    "analytic_dOmega",
    "check_almost_product",
    "check_integrability",
    "check_compatibility",
    "check_metric_signature",
    "check_closure",
    "check_closure_agreement",
    "check_para_kahler",
    "check_space_form",
    "run_check",
    "DEFAULT_TOLERANCES",
    "CHECK_NAMES",
]

DEFAULT_TOLERANCES = {
    "space_form": 1e-9,
    "almost_product": 1e-10,
    "compatibility": 1e-10,
    "metric_signature": 0.0,
    "integrability": 1e-8,
    "closure": 1e-8,
    "closure_agreement": 1e-8,
    "para_kahler": 1e-8,
}

CHECK_NAMES = tuple(DEFAULT_TOLERANCES)

_EIGENVALUE_TOL = 1e-10
CHART_FRACTION = 0.8  # of the chart radius, the ball of sampled q
_N2_NOTES = ("base dimension 2 is outside the guaranteed range (n > 2) of "
             "the constant-curvature characterization; residuals are "
             "informational",)


@dataclass(frozen=True, eq=False)
class PhaseSample:
    """Sampled phase points, the seed that produced them, and the points as
    one batched CotangentPoint that checks read, stacked here if not given.
    Samples compare and hash by identity.

    ``stepped`` is derived, built here once: the batch's
    :func:`paralift.phase.stepped_point` on its own chart, which every check
    that differentiates the chart reads.  It is None for points with no
    common chart or for no points.  It takes 16 (8n^2 + 4n) bytes per
    point, 133 KB at n = 32.
    """

    points: tuple
    seed: int | None = None
    batch: CotangentPoint = field(default=None, repr=False)
    stepped: CotangentPoint | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.batch is None:
            object.__setattr__(self, "batch", stack_points(self.points))
        batch = self.batch
        object.__setattr__(self, "stepped", stepped_point(batch.m, batch)
                           if batch.m is not None and len(self.points)
                           else None)


def sample_points(m, count, seed, *, p_max=2.0, t_max=2.0):
    """Deterministic sample of phase points for the checkers.

    q is uniform in the ball |q| <= CHART_FRACTION * chart_radius, p uniform
    in |p| <= p_max; draws with energy density above t_max are rejected and
    redrawn, and a :class:`RangeError` ends a search that draws too many.
    The first point always carries p = 0, since several coefficient
    formulas have removable behavior at t = 0 that deserves coverage.  Each
    draw is tested in float arithmetic; the accepted ones are built as one
    batch.
    """
    rng = np.random.default_rng(seed)
    radius = CHART_FRACTION * m.chart_radius
    qs, ps = [], []
    attempts = 0
    limit = max(1000, 400 * count)
    while len(qs) < count:
        attempts += 1
        if attempts > limit:
            raise RangeError(
                f"sampler starved: {len(qs)} of {count} points after "
                f"{attempts} draws (t_max = {t_max:g} too tight?)")
        q = _ball(rng, m.n, radius)
        p = np.zeros(m.n) if not qs else _ball(rng, m.n, p_max)
        if energy_density(m, q, p) > t_max:
            continue
        qs.append(q)
        ps.append(p)
    return _sample_of(make_point(m, qs, ps) if qs else stack_points(()), seed)


def _sample_of(batch, seed=None):
    """The PhaseSample of the points of ``batch``, a batched point."""
    points = tuple(take_points(batch, i) for i in range(len(batch.q)))
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


def _check(name, m, sample, tol, residuals, finish=lambda r: (r, None, ()),
           named=None):
    """Report of check ``name`` on a PhaseSample or points; tol None takes the
    default.  Points are stacked into one batch on ``m`` and stepped once
    there; a sample whose batch was built on a chart other than ``m``, or on
    mixed charts, is rebuilt here once on ``m``.  So ``residuals``, which
    maps the sample to one residual per point, reads a batch and a stepped
    point of ``m``.  ``finish`` maps its result to the report's (residuals,
    details, notes); the witnesses name the sample's points, or the rows of
    ``named``."""
    tol = DEFAULT_TOLERANCES[name] if tol is None else tol
    points = sample.points if isinstance(sample, PhaseSample) else tuple(sample)
    if not len(points):  # a check over no points proves nothing
        raise ValueError("sample must be nonempty")
    if not isinstance(sample, PhaseSample):
        sample = PhaseSample(points, None, on_chart(m, stack_points(points)))
    batch = on_chart(m, sample.batch)
    if batch is not sample.batch:
        sample = PhaseSample(sample.points, sample.seed, batch)
    values, details, notes = finish(residuals(sample))
    return make_report(name, values,
                       sample.points if named is None else named, tol,
                       seed=sample.seed, details=details, notes=notes)


def _blocks(fn, footprint):
    """A sample to ``fn`` of its batch and stepped point, or of the same
    consecutive slices of both, each of at least one point and
    :data:`paralift.ad.BLOCK_ELEMENTS` at most; ``footprint``: elements per
    point, (2n)^2 for the matrix checks, (2n)^3 for jacobian checks."""
    def residuals(s):
        count, size = len(s.points), max(1, ad.BLOCK_ELEMENTS // footprint)
        if count <= size:
            return fn(s.batch, s.stepped)
        return np.concatenate([fn(*(take_points(x, slice(i, i + size))
                                    for x in (s.batch, s.stepped)))
                               for i in range(0, count, size)])
    return residuals


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
    theta = _theta(ls, on_chart(ls.m, pt))
    k = theta.shape[-1]
    return _d2form(_minus_theta_j(np.zeros(theta.shape + (k, k)), -theta))


def _theta(ls, pt):
    """(mu - lambda') theta at the point ``pt`` of ``ls.m``."""
    spec = _require_para_hermitian(ls)
    factor = np.asarray(spec.mu(pt.t)) - spec.lam.derivative()(pt.t)
    return factor[..., None] * np.concatenate(
        [np.asarray(-2.0 * pt.t)[..., None] * pt.h, pt.g0], axis=-1)


def _minus_theta_j(x, theta):
    """x[..., a, b, c] - theta_a J_bc in place, for J = dp_i ^ dq^i, whose
    only nonzero entries are J[n + i, i] = 1 = -J[i, n + i]."""
    i = np.arange(theta.shape[-1] // 2)
    x[..., len(i) + i, i] -= theta[..., :, None]
    x[..., i, len(i) + i] += theta[..., :, None]
    return x


def check_space_form(m, sample, tol=None):
    """max of space_form_residual over chart points q, or the q of phase
    points; witnesses name q alone.  A list of rows or points is one batch
    of the points (q, 0) of ``m``.  h and its jacobian come from the q lanes
    of the sample's stepped point and phi from its batch, bitwise
    space_form_residual of its q.  The report's seed is a PhaseSample's,
    None for a list."""
    if not isinstance(sample, PhaseSample):
        rows = [getattr(pt, "q", pt) for pt in sample]
        qs = np.array(rows, dtype=float).reshape(len(rows), m.n)
        sample = _sample_of(make_point(m, qs, np.zeros_like(qs)))

    def residual(pt, lanes):
        h, dh = ad.split(lanes.h[..., :m.n, :], 1)  # the n q lanes
        return space_form_deviation(m, curvature_of(m, h, dh), pt.phi)

    return _check("space_form", m, sample, tol,
                  _blocks(residual, (2 * m.n) ** 3), named=sample.batch.q)


def _almost_product(ls, pt):
    """|P^2 - I|_inf per point; Cruceanu's P = diag(-I, I) is squared whole."""
    if ls.spec is None:
        pmat = _p_matrix(ls, pt)
        return _max_abs(pmat @ pmat - ad.constant(np.eye, 2 * ls.m.n), 2)
    p1, p2 = _adapted_blocks(ls, pt, "P")
    eye = ad.constant(np.eye, ls.m.n)
    return np.maximum(_max_abs(p2 @ p1 - eye, 2), _max_abs(p1 @ p2 - eye, 2))


def check_almost_product(ls, sample, tol=None):
    """max over the sample of |P_adapted^2 - I|_inf.

    For P = [[0, P2], [P1, 0]], P^2 - I = diag(P2 P1 - I, P1 P2 - I): the
    residual reads these two n x n blocks and assembles no zero block."""
    return _check("almost_product", ls.m, sample, tol,
                  _blocks(lambda pt, _: _almost_product(ls, pt),
                          (2 * ls.m.n) ** 2))


def _nijenhuis_max(ls, lanes):
    """|N_P|_inf per point from P on the stepped chart point ``lanes``."""
    return _step_max(_stepped_nijenhuis(_p_coordinate(ls, lanes)))


def _closure_max(ls, lanes):
    """|d Omega|_inf per point from Omega on the stepped chart point ``lanes``."""
    return _step_max(_d2form(_omega_coordinate(ls, lanes).imag))


def check_integrability(ls, sample, tol=None):
    """max over the sample of |N_P|_inf in coordinate components."""
    return _check("integrability", ls.m, sample, tol,
                  _blocks(lambda _, lanes: _nijenhuis_max(ls, lanes),
                          (2 * ls.m.n) ** 3),
                  lambda r: (r, None, _N2_NOTES if ls.m.n == 2 else ()))


def _compatibility(ls, pt):
    """|P^T G P - eps G|_inf per point; P1 and P2 are exactly symmetric."""
    eps = float(_require_metric(ls).epsilon)
    p1, p2, g1, g2 = _adapted_blocks(ls, pt, "PG")
    return np.maximum(_max_abs(p1 @ g2 @ p1 - eps * g1, 2),
                      _max_abs(p2 @ g1 @ p2 - eps * g2, 2))


def check_compatibility(ls, sample, tol=None):
    """max over the sample of |P^T G P - eps G|_inf in the adapted frame.

    For P = [[0, P2], [P1, 0]] and G = diag(G1, G2), P^T G P - eps G =
    diag(P1^T G2 P1 - eps G1, P2^T G1 P2 - eps G2): the residual reads these
    two n x n blocks, built from one coefficient pass, and assembles no zero
    block."""
    return _check("compatibility", ls.m, sample, tol,
                  _blocks(lambda pt, _: _compatibility(ls, pt), (2 * ls.m.n) ** 2))


def check_metric_signature(ls, sample, tol=None):
    """Eigenvalue-sign census of G_adapted against the expected signature.

    Expected: (n, n) for eps = -1 (neutral), (2n, 0) for a positive eps = +1
    spec.  G is block diagonal, so its eigenvalues are those of its two
    n x n blocks.  The residual counts misclassified points, so any nonzero
    value fails at the default tolerance 0.
    """
    n = ls.m.n
    spec = _require_metric(ls)
    if spec.epsilon == -1:
        expected = (n, n)
    elif "positive" in spec.flags:
        expected = (2 * n, 0)
    else:
        expected = None

    def residual(pt, _):
        blocks = _adapted_blocks(ls, pt, "G")
        eigs = np.concatenate([np.linalg.eigvalsh(g) for g in blocks], axis=-1)
        if expected is None:
            return np.zeros(eigs.shape[:-1])
        pos = np.sum(eigs > _EIGENVALUE_TOL, axis=-1)
        neg = np.sum(eigs < -_EIGENVALUE_TOL, axis=-1)
        return ((pos != expected[0]) | (neg != expected[1])).astype(float)

    notes = () if expected else ("no expected signature for a non-positive "
                                 "eps = +1 spec; check is vacuous",)
    details = {"expected_positive": expected[0] if expected else None,
               "expected_negative": expected[1] if expected else None}
    return _check("metric_signature", ls.m, sample, tol,
                  _blocks(residual, (2 * n) ** 2),
                  lambda r: (r, details, notes))


def check_closure(ls, sample, tol=None):
    """max over the sample of |d Omega|_inf by complex-step differentiation."""
    _require_para_hermitian(ls)
    return _check("closure", ls.m, sample, tol,
                  _blocks(lambda _, lanes: _closure_max(ls, lanes),
                          (2 * ls.m.n) ** 3))


def check_closure_agreement(ls, sample, tol=None):
    """max over the sample of |d Omega (complex step) - d Omega (closed form)|,
    one cyclic sum of h d_a Omega_bc - h theta_a J_bc on the stepped output."""
    _require_para_hermitian(ls)
    return _check("closure_agreement", ls.m, sample, tol, _blocks(
        lambda pt, lanes: _step_max(_d2form(_minus_theta_j(
            _omega_coordinate(ls, lanes).imag, ad.STEP * _theta(ls, pt)))),
        (2 * ls.m.n) ** 3))


def _seeded_residuals(ls, lanes):
    """(|N|, |d Omega|) per point from one stepped chart point; bitwise the
    residuals of check_integrability and check_closure."""
    return np.stack([_nijenhuis_max(ls, lanes), _closure_max(ls, lanes)],
                    axis=-1)


def check_para_kahler(ls, sample, tol=None):
    """Composite check: compatibility, integrability and closure at one tol.

    Passes iff all three parts pass.  The details record each part's max
    residual; the residuals, witnesses and notes are those of the worst
    part, a non-finite one ranking worst.  Compatibility runs in its own
    blocks, integrability and closure on the same stepped blocks.
    """
    _require_para_hermitian(ls)
    compatibility = _blocks(lambda pt, _: _compatibility(ls, pt),
                            (2 * ls.m.n) ** 2)
    seeded = _blocks(lambda _, lanes: _seeded_residuals(ls, lanes),
                     (2 * ls.m.n) ** 3)

    def worst(parts):
        top = [float(r.max()) for r in parts]
        i = max(range(3), key=lambda i: _sort_key(top[i]))  # nan ranks worst
        notes = _N2_NOTES if i == 1 and ls.m.n == 2 else ()
        names = ("compatibility", "integrability", "closure")
        return parts[i], {f"{a}_residual": r for a, r in zip(names, top)}, notes

    return _check("para_kahler", ls.m, sample, tol,
                  lambda s: (compatibility(s), *seeded(s).T), worst)


_CHECKS = {
    "space_form": lambda ls, sample, tol: check_space_form(ls.m, sample, tol),
    "almost_product": check_almost_product,
    "integrability": check_integrability,
    "compatibility": check_compatibility,
    "metric_signature": check_metric_signature,
    "closure": check_closure,
    "closure_agreement": check_closure_agreement,
    "para_kahler": check_para_kahler,
}


def run_check(name, ls, sample, tol=None):
    """Dispatch one named check; see :data:`CHECK_NAMES` for valid names."""
    if name not in _CHECKS:
        raise KeyError(f"unknown check {name!r}; valid: {sorted(_CHECKS)}")
    return _CHECKS[name](ls, sample, tol)
