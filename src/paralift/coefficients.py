"""Scalar coefficient families of the energy density and their derivation rules.

All lifted structures here are governed by smooth functions of the energy
density t.  A :class:`ScalarFamily` packages one such function; its exact
first derivative comes from forward-mode differentiation of the same
expression, so families stay closed under the arithmetic needed to express

  * the product completion: a2 = 1/a1 and (a1 + 2t b1)(a2 + 2t b2) = 1,
  * the integrability rule: b1 = (a1 a1' + c) / (a1 - 2t a1'),
                            b2 = (a1 a2' - a2^2 c) / (a1 + 2c t a2),
  * the metric proportionality: c1/a1 = eps c2/a2 = lambda and
    (c1 + 2t d1)/(a1 + 2t b1) = eps (c2 + 2t d2)/(a2 + 2t b2) = lambda + 2t mu,
  * the closure rule mu = lambda'.

Families built from the presets below have closed-form values everywhere and
evaluate on Jets, so structure components built from them remain
differentiable in all phase-space variables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import ad
from .errors import DegenerateCoefficient

__all__ = [
    "ScalarFamily",
    "StructureSpec",
    "constant",
    "affine",
    "exponential",
    "polynomial",
    "rational_family",
    "complete_almost_product",
    "integrable_b_coeffs",
    "compatible_metric_coeffs",
    "para_kahler_mu",
    "almost_product_spec",
    "integrable_spec",
    "rational_spec",
    "with_metric",
    "validation_grid",
    "SCALAR_PRESETS",
]

GRID_SIZE = 64
VANISHING_TOL = 1e-8
# Halvings of a grid cell that bracket a minimum of |f|: 2/63 / 2**40 ~ 3e-14.
_BISECTIONS = 40


@dataclass(frozen=True)
class ScalarFamily:
    """A smooth function of the energy density with an exact first derivative."""

    fn: Callable
    description: str = ""

    def __call__(self, t):
        return self.fn(t)

    def deriv(self, t):
        """First derivative at t, by forward-mode differentiation of ``fn``."""
        return ad.derivative(self.fn, t)

    def derivative(self):
        """The derivative as a family of its own (again exactly differentiable)."""
        return ScalarFamily(self.deriv, f"d/dt[{self.description}]")

    # Families form an algebra; numbers coerce to constant families.

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ScalarFamily(lambda t: self.fn(t) + other.fn(t),
                            f"({self.description} + {other.description})")

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ScalarFamily(lambda t: self.fn(t) - other.fn(t),
                            f"({self.description} - {other.description})")

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ScalarFamily(lambda t: self.fn(t) * other.fn(t),
                            f"({self.description})*({other.description})")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ScalarFamily(lambda t: self.fn(t) / other.fn(t),
                            f"({self.description})/({other.description})")

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ScalarFamily(lambda t: -self.fn(t), f"-({self.description})")


def _coerce(x):
    if isinstance(x, ScalarFamily):
        return x
    if isinstance(x, (int, float)):
        return constant(float(x))
    return None


def constant(value):
    value = float(value)
    return ScalarFamily(lambda t: value + 0.0 * t, f"{value:g}")


def affine(intercept, slope):
    intercept, slope = float(intercept), float(slope)
    return ScalarFamily(lambda t: intercept + slope * t,
                        f"{intercept:g} + {slope:g} t")


def exponential(amplitude=1.0, rate=1.0):
    amplitude, rate = float(amplitude), float(rate)
    return ScalarFamily(lambda t: amplitude * ad.exp(rate * t),
                        f"{amplitude:g} exp({rate:g} t)")


def polynomial(coeffs):
    """Polynomial in t with the given coefficients, lowest degree first."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")

    def fn(t):
        acc = coeffs[-1] + 0.0 * t
        for c in reversed(coeffs[:-1]):
            acc = acc * t + c
        return acc

    return ScalarFamily(fn, "poly" + repr(list(coeffs)))


# Handy symbol for building expressions in t.
_t = ScalarFamily(lambda t: t, "t")

SCALAR_PRESETS = {
    "constant": (constant, ("value",)),
    "affine": (affine, ("intercept", "slope")),
    "exponential": (exponential, ("amplitude", "rate")),
    "polynomial": (polynomial, ("coeffs",)),
}


def rational_family(alpha, beta, u):
    """The two-constant family (a1, b1, a2, b2) built around a free function u:

        a1 = 1/beta,  b1 = u/(alpha beta),
        a2 = beta,    b2 = -u beta / (alpha + 2 t u).

    Satisfies the product completion identically for any smooth u.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha == 0.0 or beta == 0.0:
        raise ValueError("alpha and beta must be nonzero")
    a1 = constant(1.0 / beta)
    b1 = u * (1.0 / (alpha * beta))
    a2 = constant(beta)
    b2 = -(u * beta) / (alpha + 2.0 * _t * u)
    return a1, b1, a2, b2


@dataclass(frozen=True)
class StructureSpec:
    """Coefficient bundle for one lifted structure.

    ``flags`` records which derivation rules produced (and validated) which
    coefficients: "almost_product" when (a2, b2) satisfy the product
    completion, "integrable" when (b1, b2) come from the integrability rule,
    "compatible" when the metric part satisfies the proportionality chains,
    "positive" when the positivity conditions hold on the grid, and
    "mu_is_lambda_prime" when mu was derived as lambda'.  The builder
    functions below validate on a t grid; constructing this dataclass
    directly bypasses validation (used by negative tests on purpose).
    """

    a1: ScalarFamily
    b1: ScalarFamily
    a2: ScalarFamily
    b2: ScalarFamily
    epsilon: int = -1
    curvature: float = 0.0
    t_max: float = 2.0
    c1: ScalarFamily | None = None
    d1: ScalarFamily | None = None
    c2: ScalarFamily | None = None
    d2: ScalarFamily | None = None
    lam: ScalarFamily | None = None
    mu: ScalarFamily | None = None
    flags: frozenset = frozenset()

    @property
    def has_metric(self):
        return self.c1 is not None

    @property
    def is_para_hermitian(self):
        return self.epsilon == -1 and "compatible" in self.flags


def validation_grid(t_max):
    return np.linspace(0.0, float(t_max), GRID_SIZE)


def _value_and_slope(fam, t):
    """(f(t), f'(t)) on an array of points, in one jet evaluation."""
    out = fam(ad.Jet(t, np.ones(t.shape + (1,))))
    return (np.broadcast_to(ad.val(out), t.shape),
            ad.partials(out, 1)[..., 0] + np.zeros(t.shape))


def _sampled_values(fam, t_max):
    """Points and values of ``fam``: the validation grid, then the minima of |f|.

    |f| has an interior minimum where f f' changes sign from - to +; each
    such bracket between grid points is refined by bisection.  Overflow and
    0/0 are silent here: the guards name a non-finite value themselves.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grid = validation_grid(t_max)
        f, fp = _value_and_slope(fam, grid)
        slope = f * fp  # d|f|/dt has the sign of f f'
        left = np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] > 0.0))
        lo, hi = grid[left], grid[left + 1]
        for _ in range(_BISECTIONS if left.size else 0):
            mid = 0.5 * (lo + hi)
            falling = np.prod(_value_and_slope(fam, mid), axis=0) < 0.0
            lo, hi = np.where(falling, mid, lo), np.where(falling, hi, mid)
        minima = 0.5 * (lo + hi)
        return (np.concatenate([grid, minima]),
                np.concatenate([f, _value_and_slope(fam, minima)[0]]))


def _require_finite(ts, values, what):
    # NaN fails every comparison, so the guards below would let it through.
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DegenerateCoefficient(
            f"{what} is not finite at t = {ts[bad[0]]:.6g}")


def _require_nonvanishing(fam, t_max, what):
    ts, values = _sampled_values(fam, t_max)
    _require_finite(ts, values, what)
    small = np.flatnonzero(np.abs(values) < VANISHING_TOL)
    if small.size:
        raise DegenerateCoefficient(
            f"{what} vanishes near t = {ts[small[0]]:.6g} on [0, {t_max:g}]")
    grid = values[:GRID_SIZE]
    flips = np.flatnonzero(grid[:-1] * grid[1:] < 0.0)
    if flips.size:
        i = flips[0]
        raise DegenerateCoefficient(
            f"{what} changes sign between t = {ts[i]:.6g} "
            f"and t = {ts[i + 1]:.6g}")


def _require_positive(fam, t_max, what):
    ts, values = _sampled_values(fam, t_max)
    _require_finite(ts, values, what)
    low = np.flatnonzero(values < VANISHING_TOL)
    if low.size:
        i = low[0]
        raise DegenerateCoefficient(
            f"{what} must stay positive; value {values[i]:.6g} at t = {ts[i]:.6g}")


def _is_positive(fam, t_max):
    return bool(np.all(_sampled_values(fam, t_max)[1] >= VANISHING_TOL))


def complete_almost_product(a1, b1, *, t_max=2.0):
    """Solve the product relations for (a2, b2) given (a1, b1).

    a2 = 1/a1 and b2 = -b1 / (a1 (a1 + 2t b1)), which is the unique solution
    of (a1 + 2t b1)(a2 + 2t b2) = 1.
    """
    trace1 = a1 + 2.0 * _t * b1
    _require_nonvanishing(a1, t_max, "a1")
    _require_nonvanishing(trace1, t_max, "a1 + 2t b1")
    a2 = 1.0 / a1
    b2 = -b1 / (a1 * trace1)
    return a2, b2


def integrable_b_coeffs(a1, curvature, *, t_max=2.0):
    """The (b1, b2) forced by integrability over a base of curvature ``curvature``.

        b1 = (a1 a1' + c) / (a1 - 2t a1'),
        b2 = (a1 a2' - a2^2 c) / (a1 + 2c t a2),   a2 = 1/a1.

    The result automatically satisfies the product relations, so the same
    pair also defines an almost product structure.
    """
    c = float(curvature)
    a1p = a1.derivative()
    a2 = 1.0 / a1
    a2p = a2.derivative()
    den1 = a1 - 2.0 * _t * a1p
    den2 = a1 + (2.0 * c) * _t * a2
    _require_nonvanishing(a1, t_max, "a1")
    _require_nonvanishing(den1, t_max, "a1 - 2t a1'")
    _require_nonvanishing(den2, t_max, "a1 + 2c t a2")
    b1 = (a1 * a1p + c) / den1
    b2 = (a1 * a2p - c * a2 * a2) / den2
    return b1, b2


def compatible_metric_coeffs(spec, lam, mu, epsilon, *, require_positive=True):
    """Metric coefficients proportional to the structure coefficients.

    Solving both proportionality chains gives, without dividing by t,

        c1 = lam a1,            d1 = mu a1 + (lam + 2t mu) b1,
        c2 = eps lam a2,        d2 = eps (mu a2 + (lam + 2t mu) b2),

    so the value at t = 0 is the analytic limit and needs no special case.
    ``require_positive`` enforces lam > 0 and lam + 2t mu > 0 on the grid;
    relax it only when deliberately exploring non-positive proportionality.
    """
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")
    t_max = spec.t_max
    scale = lam + 2.0 * _t * mu
    if require_positive:
        _require_positive(lam, t_max, "lambda")
        _require_positive(scale, t_max, "lambda + 2t mu")
    c1 = lam * spec.a1
    d1 = mu * spec.a1 + scale * spec.b1
    c2 = float(epsilon) * (lam * spec.a2)
    d2 = float(epsilon) * (mu * spec.a2 + scale * spec.b2)
    _require_nonvanishing(c1 * c2, t_max, "c1 c2")
    _require_nonvanishing((c1 + 2.0 * _t * d1) * (c2 + 2.0 * _t * d2), t_max,
                          "(c1 + 2t d1)(c2 + 2t d2)")
    return c1, d1, c2, d2


def para_kahler_mu(lam):
    """The unique mu closing the fundamental 2-form: mu = lambda'."""
    return lam.derivative()


def almost_product_spec(a1, b1=None, *, curvature=0.0, epsilon=-1, t_max=2.0):
    """Spec with (a2, b2) from the product completion; b1 defaults to zero."""
    if b1 is None:
        b1 = constant(0.0)
    a2, b2 = complete_almost_product(a1, b1, t_max=t_max)
    return StructureSpec(a1=a1, b1=b1, a2=a2, b2=b2, epsilon=epsilon,
                         curvature=float(curvature), t_max=float(t_max),
                         flags=frozenset({"almost_product"}))


def integrable_spec(a1, *, curvature, epsilon=-1, t_max=2.0):
    """Spec whose (b1, b2) follow the integrability rule for ``curvature``."""
    b1, b2 = integrable_b_coeffs(a1, curvature, t_max=t_max)
    a2 = 1.0 / a1
    return StructureSpec(a1=a1, b1=b1, a2=a2, b2=b2, epsilon=epsilon,
                         curvature=float(curvature), t_max=float(t_max),
                         flags=frozenset({"almost_product", "integrable"}))


def rational_spec(alpha, beta, u, *, curvature=0.0, epsilon=-1, t_max=2.0):
    """Spec from :func:`rational_family`; the product relations hold by design."""
    a1, b1, a2, b2 = rational_family(alpha, beta, u)
    _require_nonvanishing(a1 + 2.0 * _t * b1, t_max, "a1 + 2t b1")
    _require_nonvanishing(a2 + 2.0 * _t * b2, t_max, "a2 + 2t b2")
    return StructureSpec(a1=a1, b1=b1, a2=a2, b2=b2, epsilon=epsilon,
                         curvature=float(curvature), t_max=float(t_max),
                         flags=frozenset({"almost_product"}))


def with_metric(spec, lam, mu=None, *, require_positive=True):
    """Attach proportional metric coefficients to ``spec``.

    ``mu=None`` derives mu = lambda' (the closure rule).  Flags gain
    "compatible", plus "positive" when the full positivity conditions hold
    and "mu_is_lambda_prime" when mu was derived.
    """
    derived_mu = mu is None
    if derived_mu:
        mu = para_kahler_mu(lam)
    c1, d1, c2, d2 = compatible_metric_coeffs(
        spec, lam, mu, spec.epsilon, require_positive=require_positive)
    flags = set(spec.flags) | {"compatible"}
    if derived_mu:
        flags.add("mu_is_lambda_prime")
    if (_is_positive(spec.a1, spec.t_max)
            and _is_positive(spec.a1 + 2.0 * _t * spec.b1, spec.t_max)
            and _is_positive(lam, spec.t_max)
            and _is_positive(lam + 2.0 * _t * mu, spec.t_max)):
        flags.add("positive")
    return replace(spec, c1=c1, d1=d1, c2=c2, d2=d2, lam=lam, mu=mu,
                   flags=frozenset(flags))
