"""Scalar coefficient families of the energy density and their derivation rules.

All lifted structures here are governed by smooth functions of the energy
density t.  A :class:`ScalarFamily` is a small expression tree over nine
nodes: constant, t, +, -, *, /, negation, exp and polynomial.  Its
derivative d/dt is a rewrite of the tree in closed form, closed under the
same nodes, so families stay closed under the arithmetic needed to express

  * the product completion: a2 = 1/a1 and (a1 + 2t b1)(a2 + 2t b2) = 1,
  * the integrability rule: b1 = (a1 a1' + c) / (a1 - 2t a1'),
                            b2 = (a1 a2' - a2^2 c) / (a1 + 2c t a2),
  * the metric proportionality: c1/a1 = eps c2/a2 = lambda and
    (c1 + 2t d1)/(a1 + 2t b1) = eps (c2 + 2t d2)/(a2 + 2t b2) = lambda + 2t mu,
  * the closure rule mu = lambda'.

A :class:`Program` compiles a tuple of families once into a flat list of
their unique nodes, children first, so a subtree that several families share
(b1 inside d1 and d2) is computed once per pass.  It evaluates values on a
plain t.  A phase-space Jet t takes one chain-rule step,
c(t(z)) -> (c(t), c'(t) dt), with f and f' from one pass of a second program
over the families and their derivative trees (Griewank & Walther,
*Evaluating Derivatives*, ch. 3): the phase seeds never enter the tree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property, partialmethod

import numpy as np

from . import ad
from .errors import DegenerateCoefficient

__all__ = [
    "ScalarFamily",
    "Program",
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

# The inner nodes: value of the children's values, print format.
_INNER = {
    "+": (operator.add, "({} + {})"),
    "-": (operator.sub, "({} - {})"),
    "*": (operator.mul, "({})*({})"),
    "/": (operator.truediv, "({})/({})"),
    "neg": (operator.neg, "-({})"),
}


def _node(left, op, right, reflected=False):
    """The family ``left op right``, or ``right op left`` if reflected."""
    if isinstance(right, (int, float)):
        right = constant(right)
    if not isinstance(right, ScalarFamily):
        return NotImplemented
    return ScalarFamily(op, (right, left) if reflected else (left, right))


@dataclass(frozen=True)
class ScalarFamily:
    """A smooth function of the energy density, as an expression tree.

    ``op`` names the node.  The leaves "const", "t", "exp" and "poly" hold
    numbers in ``args``: the value; nothing; amplitude and rate; coefficients
    lowest degree first.  The inner nodes "+", "-", "*", "/" and "neg" hold
    their child families.
    """

    op: str
    args: tuple = ()

    def __call__(self, t):
        """f(t); on a phase Jet t, the chain-rule Jet (f(t0), f'(t0) dt)."""
        return self.program(t)[0]

    @cached_property
    def program(self):
        """This family alone, compiled once."""
        return Program((self,))

    def derivative(self):
        """d/dt as a family of its own, rewritten in closed form once."""
        return self._derivative

    @cached_property
    def _derivative(self):
        # Terms multiplied by, or added to, the exact constant 0 are dropped
        # here only, so value trees keep every node and evaluation order.
        op, a = self.op, self.args
        if op == "exp":
            return exponential(a[0] * a[1], a[1])
        if op == "t":
            return constant(1.0)
        if op not in _INNER:  # "const" and "poly"
            return polynomial([k * c for k, c in enumerate(a)][1:] or [0.0])
        d = [f.derivative() for f in a]
        if op == "neg":
            return _minus(_ZERO, d[0])
        if op == "+":
            return _plus(*d)
        if op == "-":
            return _minus(*d)
        if op == "*":
            return _plus(_times(d[0], a[1]), _times(a[0], d[1]))
        numerator = _minus(_times(d[0], a[1]), _times(a[0], d[1]))
        return _ZERO if _is_zero(numerator) else numerator / (a[1] * a[1])

    @property
    def description(self):
        """The tree printed as a formula in t."""
        op, a = self.op, self.args
        if op in _INNER:
            return _INNER[op][1].format(*(f.description for f in a))
        if op == "exp":
            return f"{a[0]:g} exp({a[1]:g} t)"
        terms = (f"{c:g}" + (f" t^{k}" if k else "") for k, c in enumerate(a))
        return "t" if op == "t" else " + ".join(terms)

    # Families form an algebra; numbers coerce to constant families.
    __add__ = __radd__ = partialmethod(_node, "+")
    __sub__ = partialmethod(_node, "-")
    __rsub__ = partialmethod(_node, "-", reflected=True)
    __mul__ = __rmul__ = partialmethod(_node, "*")
    __truediv__ = partialmethod(_node, "/")
    __rtruediv__ = partialmethod(_node, "/", reflected=True)

    def __neg__(self):
        return ScalarFamily("neg", (self,))


def _is_zero(f):
    return f.op == "const" and f.args[0] == 0.0


def _plus(f, g):
    return g if _is_zero(f) else f if _is_zero(g) else f + g


def _minus(f, g):
    return f if _is_zero(g) else -g if _is_zero(f) else f - g


def _times(f, g):
    return _ZERO if _is_zero(f) or _is_zero(g) else f * g


class Program:
    """Families compiled into steps (op, args): the leaf numbers, or the
    numbers of the children's earlier steps.  A node equal in op and args to
    an earlier one (a shared subtree, say) computes the same bits: one step."""

    def __init__(self, families):
        self.families, self.steps, index = tuple(families), [], {}

        def visit(f):
            args = tuple(map(visit, f.args)) if f.op in _INNER else f.args
            key = (f.op, repr(args))  # repr tells -0.0 from 0.0
            if key not in index:
                index[key] = len(self.steps)
                self.steps.append((f.op, args))
            return index[key]

        self.outputs = tuple(map(visit, self.families))

    @cached_property
    def with_derivatives(self):
        """The families followed by their d/dt trees, compiled once."""
        return Program(self.families
                       + tuple(f.derivative() for f in self.families))

    def __call__(self, t):
        """The families at t; on a phase Jet t, the Jets (f(t0), f'(t0) dt)."""
        if isinstance(t, ad.Jet):
            out, k = self.with_derivatives(t.val), len(self.outputs)
            return tuple(ad.Jet(f, np.asarray(fp)[..., None] * t.grad)
                         for f, fp in zip(out[:k], out[k:]))
        out, zero = [], 0.0 * t
        for op, a in self.steps:
            if op in _INNER:
                out.append(_INNER[op][0](*(out[i] for i in a)))
            elif op == "t":
                out.append(t)
            elif op == "exp":
                out.append(a[0] * np.exp(a[1] * t))
            else:  # "const" and "poly", by Horner's rule from 0 t
                x = a[-1] + zero
                for c in reversed(a[:-1]):
                    x = x * t + c
                out.append(x)
        return tuple(out[i] for i in self.outputs)


def constant(value):
    return ScalarFamily("const", (float(value),))


def affine(intercept, slope):
    return polynomial([intercept, slope])


def exponential(amplitude=1.0, rate=1.0):
    return ScalarFamily("exp", (float(amplitude), float(rate)))


def polynomial(coeffs):
    """Polynomial in t with the given coefficients, lowest degree first."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")
    return constant(coeffs[0]) if len(coeffs) == 1 else ScalarFamily("poly", coeffs)


# Handy symbols for building expressions in t.
_t = ScalarFamily("t")
_ZERO = constant(0.0)

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


_PROGRAMS = {"P": "a1 b1 a2 b2", "G": "c1 d1 c2 d2",
             "PG": "a1 b1 a2 b2 c1 d1 c2 d2", "form": "lam mu"}


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

    def program(self, name):
        """The :class:`Program` of the family tuple ``name``, compiled once:
        "P" is a1, b1, a2, b2; "G" c1, d1, c2, d2; "PG" the eight; "form"
        lam, mu."""
        programs = self.__dict__.setdefault("_programs", {})  # beside the fields
        if name not in programs:
            programs[name] = Program([getattr(self, f)
                                      for f in _PROGRAMS[name].split()])
        return programs[name]


def validation_grid(t_max):
    return np.linspace(0.0, float(t_max), GRID_SIZE)


def _sampled_values(fam, t_max):
    """Points and values of ``fam``: the validation grid, then the minima of |f|.

    |f| has an interior minimum where f f' changes sign from - to +; each
    such bracket between grid points is refined by bisection.  Overflow and
    0/0 are silent here: the guards name a non-finite value themselves.
    """
    pair = fam.program.with_derivatives  # (f(t), f'(t))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grid = validation_grid(t_max)
        f, fp = pair(grid)
        slope = f * fp  # d|f|/dt has the sign of f f'
        left = np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] > 0.0))
        lo, hi = grid[left], grid[left + 1]
        for _ in range(_BISECTIONS if left.size else 0):
            mid = 0.5 * (lo + hi)
            falling = np.prod(pair(mid), axis=0) < 0.0
            lo, hi = np.where(falling, mid, lo), np.where(falling, hi, mid)
        minima = 0.5 * (lo + hi)
        return (np.concatenate([grid, minima]),
                np.concatenate([f, fam(minima)]))


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
