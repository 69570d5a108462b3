"""Scalar coefficient families of the energy density and their derivation rules.

All lifted structures here are governed by smooth functions of the energy
density t.  A :class:`ScalarFamily` is a small expression tree over nine
nodes: constant, t, +, -, *, /, negation, exp and polynomial.  Its
derivative d/dt is a rewrite of the tree in closed form, closed under the
same nodes, so families stay closed under the arithmetic needed to express
the derivation rules, each applied by one spec builder below:

  * the product completion: a2 = 1/a1 and (a1 + 2t b1)(a2 + 2t b2) = 1,
  * the integrability rule: b1 = (a1 a1' + c) / (a1 - 2t a1'),
                            b2 = (a1 a2' - a2^2 c) / (a1 + 2c t a2),
  * the metric proportionality: c1/a1 = eps c2/a2 = lambda and
    (c1 + 2t d1)/(a1 + 2t b1) = eps (c2 + 2t d2)/(a2 + 2t b2) = lambda + 2t mu,
  * the closure rule mu = lambda'.

A :class:`Program` compiles a tuple of families once into a flat list of
their unique nodes, children first, so a subtree that several families share
(b1 inside d1 and d2) is computed once per pass, and a pass returns one
array with a row per family.  At its first call the steps become one
straight-line Python function of t, which evaluates values on a real t:
every step, constant ones included, is one statement on arrays of t's
shape, so one arithmetic computes every number and an array type that
implements numpy's ufuncs runs each step.  A
complex-stepped t (see :mod:`paralift.ad`) takes one chain-rule step,
c(t) -> c(Re t) + i c'(Re t) Im t, with f and f' from one pass of a second
program over the families and their derivative trees (Griewank & Walther,
*Evaluating Derivatives*, ch. 3): the complex step never enters the tree,
so exp and every guard see real numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partialmethod

import numpy as np

from .errors import DegenerateCoefficient

__all__ = [
    "ScalarFamily",
    "Program",
    "StructureSpec",
    "constant",
    "affine",
    "exponential",
    "polynomial",
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

# The inner nodes: print format over the children's formulas, and Python
# expression over their step names (bare names, which parse fastest).
_INNER = {
    "+": ("({} + {})", "{} + {}"),
    "-": ("({} - {})", "{} - {}"),
    "*": ("({})*({})", "{} * {}"),
    "/": ("({})/({})", "{} / {}"),
    "neg": ("-({})", "-{}"),
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
        """f(t) in t's shape; on a complex t, the chain-rule step
        f(Re t) + i f'(Re t) Im t: the one row of :attr:`program`'s pass."""
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
            return _INNER[op][0].format(*(f.description for f in a))
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
        self.families, self.steps, index, seen = tuple(families), [], {}, {}

        def visit(f):
            if id(f) in seen:  # a node object met before: its step is known
                return seen[id(f)]
            args = tuple(map(visit, f.args)) if f.op in _INNER else f.args
            key = (f.op, repr(args))  # repr tells -0.0 from 0.0
            if key not in index:
                index[key] = len(self.steps)
                self.steps.append((f.op, args))
            seen[id(f)] = index[key]
            return index[key]

        self.outputs = tuple(map(visit, self.families))

    @cached_property
    def with_derivatives(self):
        """The families followed by their d/dt trees, compiled once."""
        return Program(self.families
                       + tuple(f.derivative() for f in self.families))

    def __call__(self, t):
        """The families at t as one array, a row per family, t's shape each;
        on a complex t, f(Re t) + i f'(Re t) Im t.  A plain t, one point or
        a whole sample, takes one pass of :attr:`_function`."""
        if np.iscomplexobj(t):
            out, k = self.with_derivatives._function(t.real), len(self.outputs)
            z = np.empty((k,) + np.shape(t), complex)
            z.real = out[:k]
            np.multiply(out[k:], t.imag, out=z.imag)
            return z
        return np.array(self._function(t))

    @cached_property
    def _function(self):
        """The steps as one straight-line function of a plain t, compiled at
        first use: step i is one statement, assigning s{i} an array of t's
        shape; "const" and "poly" run Horner's rule from 0 t.  Numbers print
        by ``repr``, which round-trips a float."""
        lines = ["zero = 0.0 * t"]
        for i, (op, a) in enumerate(self.steps):
            if op in _INNER:
                lines.append(f"s{i} = " + _INNER[op][1].format(
                    *(f"s{j}" for j in a)))
            elif op == "exp":
                lines.append(f"s{i} = {a[0]!r} * exp({a[1]!r} * t)")
            elif op == "t":
                lines.append(f"s{i} = t")
            else:
                lines.append(f"s{i} = {a[-1]!r} + zero")
                lines.extend(f"s{i} = s{i} * t + {c!r}"
                             for c in reversed(a[:-1]))
        outputs = "".join(f"s{i}, " for i in self.outputs)
        lines.append(f"return ({outputs})")
        source = "def program(t):" + "".join(f"\n    {x}" for x in lines)
        scope = {"exp": np.exp, "inf": math.inf, "nan": math.nan}
        exec(compile(source, "<paralift program>", "exec"), scope)
        return scope["program"]


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

# The config's scalar presets by name; config.FIELDS holds their parameters.
SCALAR_PRESETS = {"constant": constant, "affine": affine,
                  "exponential": exponential, "polynomial": polynomial}


_PROGRAMS = {"P": "a1 b1 a2 b2", "G": "c1 d1 c2 d2",
             "PG": "a1 b1 a2 b2 c1 d1 c2 d2", "form": "lam mu"}


@dataclass(frozen=True)
class StructureSpec:
    """Coefficient bundle for one lifted structure.

    Fields: a1, b1, a2, b2, ``epsilon``, the validated range [0, ``t_max``],
    the metric part c1, d1, c2, d2, lam, mu (None without one) and ``flags``;
    not the base curvature c, which only :func:`integrable_spec` reads.

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


def _sampled_values(families, t_max):
    """Per family, points and values: the validation grid, then the minima of |f|.

    |f| has an interior minimum where f f' changes sign from - to +; each
    such bracket between grid points is refined by bisection, the brackets of
    all families at once.  One (f, f') program serves every family.  Overflow
    and 0/0 are silent here: the guards name a non-finite value themselves.
    """
    pair, k = Program(families).with_derivatives, len(families)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grid = validation_grid(t_max)
        values = pair(grid)  # f of each family, then each f'
        slope = values[:k] * values[k:]  # d|f|/dt has the sign of f f'
        fam, left = np.nonzero((slope[:, :-1] < 0.0) & (slope[:, 1:] > 0.0))
        lo, hi, own = grid[left], grid[left + 1], np.arange(left.size)
        for _ in range(_BISECTIONS if left.size else 0):
            mid = 0.5 * (lo + hi)
            at = pair(mid)
            falling = at[fam, own] * at[k + fam, own] < 0.0
            lo, hi = np.where(falling, mid, lo), np.where(falling, hi, mid)
        minima = 0.5 * (lo + hi)
        at = pair(minima)
    return [(np.concatenate([grid, minima[fam == i]]),
             np.concatenate([values[i], at[i, fam == i]])) for i in range(k)]


def _guard(t_max, *guards, also=()):
    """Apply each guard (rule, family, name) in order; a rule raises
    :class:`DegenerateCoefficient`.  One program samples their families and
    the families ``also``, whose samples (points, values) are returned
    unguarded: a builder reads its flags off them with no second pass."""
    sampled = _sampled_values([fam for _, fam, _ in guards] + list(also),
                              t_max)
    for (rule, _, what), (ts, values) in zip(guards, sampled):
        # NaN fails every comparison, so a rule would let it through
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DegenerateCoefficient(
                f"{what} is not finite at t = {ts[bad[0]]:.6g}")
        rule(ts, values, what, t_max)
    return sampled[len(guards):]


def _nonvanishing(ts, values, what, t_max):
    small = np.flatnonzero(np.abs(values) < VANISHING_TOL)
    if small.size:
        raise DegenerateCoefficient(
            f"{what} vanishes near t = {ts[small[0]]:.6g} on [0, {t_max:g}]")
    grid = values[:GRID_SIZE]
    flips = np.flatnonzero(np.sign(grid[:-1]) != np.sign(grid[1:]))
    if flips.size:
        i = flips[0]
        raise DegenerateCoefficient(
            f"{what} changes sign between t = {ts[i]:.6g} "
            f"and t = {ts[i + 1]:.6g}")


def _positive(ts, values, what, t_max):
    low = np.flatnonzero(values < VANISHING_TOL)
    if low.size:
        i = low[0]
        raise DegenerateCoefficient(
            f"{what} must stay positive; value {values[i]:.6g} at t = {ts[i]:.6g}")


def almost_product_spec(a1, b1=None, *, epsilon=-1, t_max=2.0):
    """Spec with (a2, b2) from the product completion; b1 defaults to zero.

    a2 = 1/a1 and b2 = -b1 / (a1 (a1 + 2t b1)), which is the unique solution
    of (a1 + 2t b1)(a2 + 2t b2) = 1.
    """
    if b1 is None:
        b1 = constant(0.0)
    trace1 = a1 + 2.0 * _t * b1
    _guard(t_max, (_nonvanishing, a1, "a1"),
           (_nonvanishing, trace1, "a1 + 2t b1"))
    a2 = 1.0 / a1
    b2 = -b1 / (a1 * trace1)
    return StructureSpec(a1=a1, b1=b1, a2=a2, b2=b2, epsilon=epsilon,
                         t_max=float(t_max), flags=frozenset({"almost_product"}))


def integrable_spec(a1, *, curvature, epsilon=-1, t_max=2.0):
    """Spec whose (b1, b2) follow the integrability rule for curvature c,

        b1 = (a1 a1' + c) / (a1 - 2t a1'),
        b2 = (a1 a2' - a2^2 c) / (a1 + 2c t a2),   a2 = 1/a1,

    which satisfy the product relations identically.
    """
    c = float(curvature)
    a1p = a1.derivative()
    a2 = 1.0 / a1
    a2p = a2.derivative()
    den1 = a1 - 2.0 * _t * a1p
    den2 = a1 + (2.0 * c) * _t * a2
    _guard(t_max, (_nonvanishing, a1, "a1"),
           (_nonvanishing, den1, "a1 - 2t a1'"),
           (_nonvanishing, den2, "a1 + 2c t a2"))
    b1 = (a1 * a1p + c) / den1
    b2 = (a1 * a2p - c * a2 * a2) / den2
    return StructureSpec(a1=a1, b1=b1, a2=a2, b2=b2, epsilon=epsilon,
                         t_max=float(t_max),
                         flags=frozenset({"almost_product", "integrable"}))


def rational_spec(alpha, beta, u, *, epsilon=-1, t_max=2.0):
    """Spec of the two-constant family built around a free function u:

        a1 = 1/beta,  b1 = u/(alpha beta),
        a2 = beta,    b2 = -u beta / (alpha + 2 t u).

    The product relations hold identically for any smooth u.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha == 0.0 or beta == 0.0:
        raise ValueError("alpha and beta must be nonzero")
    if alpha * beta == 0.0:
        raise DegenerateCoefficient(f"alpha beta = {alpha:g} * {beta:g} "
                                    "underflows to 0")
    a1 = constant(1.0 / beta)
    b1 = u * (1.0 / (alpha * beta))
    a2 = constant(beta)
    b2 = -(u * beta) / (alpha + 2.0 * _t * u)
    _guard(t_max, (_nonvanishing, a1 + 2.0 * _t * b1, "a1 + 2t b1"),
           (_nonvanishing, a2 + 2.0 * _t * b2, "a2 + 2t b2"))
    return StructureSpec(a1=a1, b1=b1, a2=a2, b2=b2, epsilon=epsilon,
                         t_max=float(t_max), flags=frozenset({"almost_product"}))


def with_metric(spec, lam, mu=None, *, require_positive=True):
    """Attach metric coefficients proportional to the structure coefficients.

    Solving both proportionality chains gives, without dividing by t,

        c1 = lam a1,            d1 = mu a1 + (lam + 2t mu) b1,
        c2 = eps lam a2,        d2 = eps (mu a2 + (lam + 2t mu) b2),

    so the value at t = 0 is the analytic limit and needs no special case.
    ``mu=None`` derives mu = lambda' (the closure rule).
    ``require_positive`` enforces lam > 0 and lam + 2t mu > 0 on the grid;
    relax it only when deliberately exploring non-positive proportionality.
    Flags gain "compatible", plus "positive" when the full positivity
    conditions hold (a1, a1 + 2t b1, lam and lam + 2t mu at least
    :data:`VANISHING_TOL` where the guards sample, read off the guards' one
    pass) and "mu_is_lambda_prime" when mu was derived.
    """
    if spec.epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")
    derived_mu = mu is None
    if derived_mu:
        mu = lam.derivative()
    scale = lam + 2.0 * _t * mu
    c1 = lam * spec.a1
    d1 = mu * spec.a1 + scale * spec.b1
    c2 = float(spec.epsilon) * (lam * spec.a2)
    d2 = float(spec.epsilon) * (mu * spec.a2 + scale * spec.b2)
    positive = ((_positive, lam, "lambda"),
                (_positive, scale, "lambda + 2t mu"))
    sampled = _guard(
        spec.t_max, *(positive if require_positive else ()),
        (_nonvanishing, c1 * c2, "c1 c2"),
        (_nonvanishing, (c1 + 2.0 * _t * d1) * (c2 + 2.0 * _t * d2),
         "(c1 + 2t d1)(c2 + 2t d2)"),
        also=(spec.a1, spec.a1 + 2.0 * _t * spec.b1, lam, scale))
    flags = set(spec.flags) | {"compatible"}
    if derived_mu:
        flags.add("mu_is_lambda_prime")
    if all(np.all(values >= VANISHING_TOL) for _, values in sampled):
        flags.add("positive")
    return replace(spec, c1=c1, d1=d1, c2=c2, d2=d2, lam=lam, mu=mu,
                   flags=frozenset(flags))
