"""Property checkers for the lifted structures.

Each check evaluates a residual at sampled phase points and reduces by max,
so verdicts do not depend on evaluation order.  The points of a sample are
stacked along a leading batch axis and evaluated in one pass per block of
:data:`paralift.ad.BLOCK_ELEMENTS`; the residuals are those of the points
evaluated one by one, bit for bit.  Derivative-based residuals
(Nijenhuis tensor, exterior derivative) differentiate the coordinate-frame
evaluators by complex step (:func:`paralift.ad.jacobian`); :func:`fd_oracle`
provides the independent finite-difference cross check used by the test
suite.

Default tolerances: 1e-10 for purely algebraic identities, 1e-8 for
first-derivative residuals (one differentiation pass through the Christoffel
contractions costs a couple of digits near the chart edge), 1e-6 relative
for comparisons against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ad
from .lifted import (
    Omega_coordinate,
    P_adapted,
    P_coordinate_function,
    _adapted_pg,
    _g_blocks,
    _omega_coordinate,
    _p_coordinate,
    _require_metric,
    _require_para_hermitian,
)
from .phase import (
    CotangentPoint,
    chart_point,
    energy_density,
    make_point,
    metric_point,
    stack_points,
    unstack_point,
)
from .report import CheckReport, make_report
from .spaceform import check_space_form

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


@dataclass(frozen=True)
class PhaseSample:
    """Sampled phase points plus the seed that produced them."""

    points: tuple
    seed: int | None = None


def sample_points(m, count, seed, *, p_max=2.0, t_max=2.0):
    """Deterministic sample of phase points for the checkers.

    q is uniform in the ball |q| <= CHART_FRACTION * chart_radius, p uniform
    in |p| <= p_max; draws with energy density above t_max are rejected and
    redrawn.  The first point always carries p = 0, since several coefficient
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
            raise RuntimeError(
                f"sampler starved: {len(qs)} of {count} points after "
                f"{attempts} draws (t_max = {t_max:g} too tight?)")
        q = _ball(rng, m.n, radius)
        p = np.zeros(m.n) if not qs else _ball(rng, m.n, p_max)
        if energy_density(m, q, p) > t_max:
            continue
        qs.append(q)
        ps.append(p)
    points = unstack_point(make_point(m, qs, ps)) if qs else ()
    return PhaseSample(points=points, seed=seed)


def _ball(rng, n, radius):
    v = rng.standard_normal(n)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        norm = 1.0
    r = radius * rng.random() ** (1.0 / n)
    return (r / norm) * v


def _inputs(name, sample, tol):
    """(points, seed, tolerance) of check ``name``; tol None takes the default."""
    tol = DEFAULT_TOLERANCES[name] if tol is None else tol
    sampled = isinstance(sample, PhaseSample)
    points = list(sample.points if sampled else sample)
    if not points:  # a check over no points proves nothing
        raise ValueError("sample must be nonempty")
    return points, sample.seed if sampled else None, tol


def _residuals(fn, points, footprint):
    """``fn`` of the stacked points, block by block: one residual per point.

    ``footprint``: (2n)^2 for the matrix checks, (2n)^3 for jacobian checks.
    """
    return ad.map_blocks(lambda block: fn(stack_points(block)), points,
                         footprint)


def _max_abs(a, core):
    """max |a| over the last ``core`` axes."""
    return np.max(np.abs(a), axis=tuple(range(-core, 0)))


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

    with every partial taken by complex step in all 2n variables.  The four
    terms come from two stacked products, M = dP P and K = P dP (see
    :func:`_nijenhuis`).  The result is antisymmetric in (a, b) exactly.
    """
    return _nijenhuis(*ad.jacobian(P_coordinate_function(ls), pt.z()))


def _nijenhuis(pmat, dp):
    """N from P and dp[..., c, b, a] = d_a P^c_b by two matrix products.

    M[c, b, a] = dp[c, b, d] P[d, a] and K[c, b, a] = P[c, d] dp[d, b, a]
    give N = (M^T - M) - (K^T - K), transposing (a, b); swapping (a, b)
    negates each parenthesis bitwise.
    """
    k, lead = pmat.shape[-1], pmat.shape[:-2]
    m = (dp.reshape(lead + (k * k, k)) @ pmat).reshape(dp.shape)
    kk = (pmat @ dp.reshape(lead + (k, k * k))).reshape(dp.shape)
    return ((np.swapaxes(m, -1, -2) - m)
            - (np.swapaxes(kk, -1, -2) - kk))


def exterior_derivative_2form(omega, pt):
    """(d omega)[a, b, c] = d_a omega_bc + d_b omega_ca + d_c omega_ab.

    ``omega`` maps z = (q, p) to an antisymmetric matrix and must evaluate
    on complex steps near ``pt``; the result is fully antisymmetric.
    """
    z = pt.z() if isinstance(pt, CotangentPoint) else np.asarray(pt, float)
    return _d2form(ad.jacobian(omega, z)[1])


def _d2form(jac):
    """d omega from its jacobian jac[..., b, c, a] = d_a omega_bc."""
    return (ad.transpose(jac, (2, 0, 1))
            + ad.transpose(jac, (1, 2, 0))
            + jac)


def analytic_dOmega(ls, pt):
    """Closed-form d Omega in coordinate components at ``pt``.

    In the mixed coframe {dq^i, Dp_j} the derivative of the fundamental form
    collapses to

        d Omega = (1/2)(mu - lambda') p_k (g^{kh} d^j_i - g^{kj} d^h_i)
                  Dp_h ^ Dp_j ^ dq^i,

    which vanishes identically iff mu = lambda'.  The mixed-coframe tensor is
    antisymmetrized over the basis wedges and then converted to coordinate
    components through Dp_j = dp_j - Gamma0_jh dq^h.
    """
    spec = _require_para_hermitian(ls)
    n = ls.m.n
    t = pt.t
    factor = 0.5 * (np.asarray(spec.mu(t)) - spec.lam.derivative()(t))
    g0 = pt.g0  # p_k g^{kh} = g0[..., h]
    eye = ad.constant(np.eye, n)
    # w[..., n + h, n + j, i] of Dp_h Dp_j dq^i
    w = np.zeros(np.shape(g0)[:-1] + (2 * n, 2 * n, 2 * n))
    w[..., n:, n:, :n] = factor[..., None, None, None] * (
        g0[..., :, None, None] * eye - g0[..., None, :, None] * eye[:, None])
    # antisymmetrized over the basis wedges: signed sum over the slot permutations
    mixed = (w + ad.transpose(w, (1, 2, 0)) + ad.transpose(w, (2, 0, 1))
             - ad.transpose(w, (0, 2, 1)) - ad.transpose(w, (2, 1, 0))
             - ad.transpose(w, (1, 0, 2)))
    # Binv = [[I, 0], [-Gamma0, I]], the inverse of the adapted frame
    # matrix B = [[I, 0], [Gamma0, I]]; B itself is not needed
    zero = ad.constant(np.zeros, (n, n))
    binv = ad.block([[eye, zero], [-pt.Gamma0, eye]])
    # Binv^a_A Binv^b_B Binv^c_C mixed_abc, one slot at a time as stacked
    # matrix products over the last axis, rotating the slots (abc -> bcA ->
    # cAB -> ABC)
    lead, k = np.shape(mixed)[:-3], 2 * n
    for _ in range(3):
        rotated = ad.transpose(mixed, (1, 2, 0)).reshape(lead + (k * k, k))
        mixed = (rotated @ binv).reshape(lead + (k, k, k))
    return mixed


def check_almost_product(ls, sample, tol=None):
    """max over the sample of |P_adapted^2 - I|_inf."""
    points, seed, tol = _inputs("almost_product", sample, tol)
    eye = ad.constant(np.eye, 2 * ls.m.n)

    def residual(pt):
        pmat = P_adapted(ls, pt)
        return _max_abs(pmat @ pmat - eye, 2)

    residuals = _residuals(residual, points, (2 * ls.m.n) ** 2)
    return make_report("almost_product", residuals, points, tol, seed=seed)


def _integrability_report(ls, residuals, points, tol, seed=None):
    notes = ()
    if ls.m.n == 2:
        notes = ("base dimension 2 is outside the guaranteed range (n > 2) "
                 "of the constant-curvature characterization; residuals are "
                 "informational",)
    return make_report("integrability", residuals, points, tol, seed=seed,
                       notes=notes)


def check_integrability(ls, sample, tol=None):
    """max over the sample of |N_P|_inf in coordinate components."""
    points, seed, tol = _inputs("integrability", sample, tol)
    residuals = _residuals(lambda pt: _max_abs(nijenhuis_at(ls, pt), 3),
                           points, (2 * ls.m.n) ** 3)
    return _integrability_report(ls, residuals, points, tol, seed)


def check_compatibility(ls, sample, tol=None):
    """max over the sample of |P^T G P - eps G|_inf in the adapted frame."""
    points, seed, tol = _inputs("compatibility", sample, tol)
    eps = float(_require_metric(ls).epsilon)

    def residual(pt):
        pmat, gmat = _adapted_pg(ls, pt)
        return _max_abs(np.swapaxes(pmat, -1, -2) @ gmat @ pmat - eps * gmat, 2)

    residuals = _residuals(residual, points, (2 * ls.m.n) ** 2)
    return make_report("compatibility", residuals, points, tol, seed=seed)


def check_metric_signature(ls, sample, tol=None):
    """Eigenvalue-sign census of G_adapted against the expected signature.

    Expected: (n, n) for eps = -1 (neutral), (2n, 0) for a positive eps = +1
    spec.  G is block diagonal, so its eigenvalues are those of its two
    n x n blocks.  The residual counts misclassified points, so any nonzero
    value fails at the default tolerance 0.
    """
    points, seed, tol = _inputs("metric_signature", sample, tol)
    n = ls.m.n
    spec = _require_metric(ls)
    if spec.epsilon == -1:
        expected = (n, n)
    elif "positive" in spec.flags:
        expected = (2 * n, 0)
    else:
        expected = None

    def residual(pt):
        blocks = _g_blocks(ls, metric_point(ls.m, pt.q, pt.p))
        eigs = np.concatenate([np.linalg.eigvalsh(g) for g in blocks], axis=-1)
        if expected is None:
            return np.zeros(eigs.shape[:-1])
        pos = np.sum(eigs > _EIGENVALUE_TOL, axis=-1)
        neg = np.sum(eigs < -_EIGENVALUE_TOL, axis=-1)
        return ((pos != expected[0]) | (neg != expected[1])).astype(float)

    residuals = _residuals(residual, points, (2 * n) ** 2)
    notes = ()
    if expected is None:
        notes = ("no expected signature for a non-positive eps = +1 spec; "
                 "check is vacuous",)
    details = {"expected_positive": expected[0] if expected else None,
               "expected_negative": expected[1] if expected else None}
    return make_report("metric_signature", residuals, points, tol, seed=seed,
                       details=details, notes=notes)


def check_closure(ls, sample, tol=None):
    """max over the sample of |d Omega|_inf by complex-step differentiation."""
    points, seed, tol = _inputs("closure", sample, tol)
    omega = Omega_coordinate(ls)
    residuals = _residuals(
        lambda pt: _max_abs(exterior_derivative_2form(omega, pt), 3),
        points, (2 * ls.m.n) ** 3)
    return make_report("closure", residuals, points, tol, seed=seed)


def check_closure_agreement(ls, sample, tol=None):
    """max over the sample of |d Omega (complex step) - d Omega (closed form)|."""
    points, seed, tol = _inputs("closure_agreement", sample, tol)
    omega = Omega_coordinate(ls)
    residuals = _residuals(
        lambda pt: _max_abs(exterior_derivative_2form(omega, pt)
                            - analytic_dOmega(ls, pt), 3),
        points, (2 * ls.m.n) ** 3)
    return make_report("closure_agreement", residuals, points, tol, seed=seed)


def _seeded_residuals(ls, pt):
    """(|N|, |d Omega|) per point from one complex-stepped chart point;
    bitwise the residuals of check_integrability and check_closure, which
    step z twice."""
    n = ls.m.n

    def p_and_omega(z):
        here = chart_point(ls.m, z[..., :n], z[..., n:])
        return _p_coordinate(ls, here), _omega_coordinate(ls, here)

    (pmat, dp), (_, domega) = ad.jacobian(p_and_omega, pt.z())
    return np.stack([_max_abs(_nijenhuis(pmat, dp), 3),
                     _max_abs(_d2form(domega), 3)], axis=-1)


def check_para_kahler(ls, sample, tol=None):
    """Composite check: compatibility, integrability and closure at one tol.

    Passes iff all three sub-checks pass; the report records each
    sub-residual and inherits the witnesses of the worst sub-check.  The
    integrability and closure residuals come from one complex-step pass.
    """
    points, seed, tol = _inputs("para_kahler", sample, tol)
    subs = {"compatibility": check_compatibility(ls, points, tol)}
    _require_para_hermitian(ls)
    both = _residuals(lambda pt: _seeded_residuals(ls, pt), points,
                      (2 * ls.m.n) ** 3)
    subs["integrability"] = _integrability_report(ls, both[:, 0], points, tol)
    subs["closure"] = make_report("closure", both[:, 1], points, tol)
    worst = max(subs, key=lambda k: subs[k].max_residual)
    details = {f"{name}_residual": rep.max_residual for name, rep in subs.items()}
    report = make_report("para_kahler",
                         [rep.max_residual for rep in subs.values()],
                         [{"sub_check": name} for name in subs],
                         tol, seed=seed, details=details)
    # Witnesses of the dominating sub-check are the informative ones.
    return replace(report, points_sampled=len(points),
                   witnesses=subs[worst].witnesses, notes=subs[worst].notes)


def _space_form_adapter(ls, sample, tol):
    points, seed, tol = _inputs("space_form", sample, tol)
    return check_space_form(ls.m, [pt.q for pt in points], tol, seed=seed)


_CHECKS = {
    "space_form": _space_form_adapter,
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
    try:
        fn = _CHECKS[name]
    except KeyError:
        raise KeyError(f"unknown check {name!r}; valid: {sorted(_CHECKS)}")
    return fn(ls, sample, tol)
