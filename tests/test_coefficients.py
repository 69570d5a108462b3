"""Coefficient families and the four derivation rules, on validation grids."""

import inspect
import operator
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from paralift import (
    DegenerateCoefficient,
    StructureSpec,
    affine,
    almost_product_spec,
    constant,
    exponential,
    integrable_spec,
    polynomial,
    rational_spec,
    with_metric,
)
from paralift.coefficients import ScalarFamily, validation_grid
from paralift.verify import fd_oracle

TGRID = np.linspace(0.0, 2.0, 50)


def fd_deriv(fam, t, h=1e-6):
    return (fam(t + h) - fam(t - h)) / (2.0 * h)


@pytest.mark.parametrize("fam", [
    constant(3.2),
    affine(1.0, -0.4),
    exponential(2.0, 0.7),
    polynomial([1.0, -2.0, 0.5, 0.25]),
])
def test_preset_derivatives_match_finite_differences(fam):
    for t in np.linspace(0.05, 2.0, 20):
        ad_d = fam.derivative()(t)
        fd_d = fd_deriv(fam, t)
        assert abs(ad_d - fd_d) < 1e-6 * max(1.0, abs(ad_d))


def test_family_algebra_derivatives():
    f = (affine(1.0, 2.0) * exponential()) / (1.0 + polynomial([0.0, 0.0, 1.0]))
    for t in np.linspace(0.1, 1.5, 10):
        d = f.derivative()(t)
        assert abs(d - fd_deriv(f, t)) < 1e-6 * max(1.0, abs(d))


def test_complete_identity_coefficients():
    spec = almost_product_spec(constant(1.0), constant(0.0))
    for t in TGRID:
        assert spec.a2(t) == 1.0
        assert spec.b2(t) == 0.0


def test_complete_rational_spec_closed_form():
    # alpha=1, beta=2, u(t)=t gives a2=2 and b2 = -2t/(1+2t^2)
    family = rational_spec(1.0, 2.0, polynomial([0.0, 1.0]))
    a1, b1 = family.a1, family.b1
    spec = almost_product_spec(a1, b1)
    a2, b2 = spec.a2, spec.b2
    for t in TGRID:
        assert np.isclose(float(a2(t)), 2.0, atol=1e-14)
        assert np.isclose(float(b2(t)), -2.0 * t / (1.0 + 2.0 * t ** 2), atol=1e-13)
        assert np.isclose(float(a1(t) * a2(t)), 1.0, atol=1e-12)
        prod = float((a1(t) + 2 * t * b1(t)) * (a2(t) + 2 * t * b2(t)))
        assert np.isclose(prod, 1.0, atol=1e-12)
    assert np.isclose(float(b2(0.7)), -0.7070707070707071, atol=1e-15)


def test_complete_random_smooth_positive_family(rng):
    a1 = polynomial([1.5, 0.3, 0.1])
    b1 = polynomial([0.2, -0.05, 0.01])
    spec = almost_product_spec(a1, b1)
    a2, b2 = spec.a2, spec.b2
    for t in np.linspace(0.0, 2.0, 50):
        assert abs(float(a1(t) * a2(t)) - 1.0) < 1e-10
        prod = float((a1(t) + 2 * t * b1(t)) * (a2(t) + 2 * t * b2(t)))
        assert abs(prod - 1.0) < 1e-10


def test_complete_detects_vanishing_trace():
    with pytest.raises(DegenerateCoefficient):
        almost_product_spec(constant(1.0), constant(-0.5))  # 1 - t crosses 0


def test_nonvanishing_guard_rejects_nan():
    # (t + 1) t / t is 0/0 at t = 0, and NaN passes no comparison
    t = polynomial([0.0, 1.0])
    with pytest.raises(DegenerateCoefficient, match="a1 is not finite at t = 0"):
        almost_product_spec((t + 1.0) * t / t)


def test_nonvanishing_guard_rejects_a_sign_change_at_a_pole():
    # 1/(t - 0.51234) stays far from 0 on the grid, and the bisection
    # toward the least |f| brackets no pole: the grid's sign test refuses it
    t = polynomial([0.0, 1.0])
    with pytest.raises(DegenerateCoefficient, match=re.escape(
            "a1 changes sign between t = 0.507937 and t = 0.539683")):
        almost_product_spec(1.0 / (t - 0.51234))


def test_positivity_guard_rejects_nan():
    t = polynomial([0.0, 1.0])
    spec = almost_product_spec(constant(1.0))
    with pytest.raises(DegenerateCoefficient,
                       match="lambda is not finite at t = 0"):
        with_metric(spec, lam=(t + 1.0) * t / t, require_positive=True)


def test_integrable_flat_base_constant_coefficients():
    spec = integrable_spec(constant(1.0), curvature=0.0)
    for t in TGRID:
        assert float(spec.b1(t)) == 0.0
        assert float(spec.b2(t)) == 0.0


def test_integrable_unit_positive_curvature():
    spec = integrable_spec(constant(1.0), curvature=1.0)
    b1, b2 = spec.b1, spec.b2
    for t in TGRID:
        assert np.isclose(float(b1(t)), 1.0, atol=1e-14)
        assert np.isclose(float(b2(t)), -1.0 / (1.0 + 2.0 * t), atol=1e-13)
        prod = float((1.0 + 2 * t * b1(t)) * (1.0 + 2 * t * b2(t)))
        assert np.isclose(prod, 1.0, atol=1e-12)


def test_integrable_consistent_with_product_completion():
    # the integrability rule always lands on the product relations
    for a1 in (affine(1.0, 0.25), exponential(1.0, -0.3), constant(2.0)):
        spec = integrable_spec(a1, curvature=1.0)
        b1, b2 = spec.b1, spec.b2
        a2 = 1.0 / a1
        for t in validation_grid(2.0):
            assert abs(float(a1(t) * a2(t)) - 1.0) < 1e-10
            prod = float((a1(t) + 2 * t * b1(t)) * (a2(t) + 2 * t * b2(t)))
            assert abs(prod - 1.0) < 1e-10


def test_rational_spec_with_matched_u_reproduces_integrability_rule():
    # u = c * alpha * beta^2 makes the family integrable
    c, alpha, beta = 1.0, 1.0, 2.0
    family = rational_spec(alpha, beta, constant(c * alpha * beta ** 2))
    rule = integrable_spec(constant(1.0 / beta), curvature=c)
    for t in validation_grid(2.0):
        assert abs(float(family.b1(t)) - float(rule.b1(t))) < 1e-12
        assert abs(float(family.b2(t)) - float(rule.b2(t))) < 1e-12


@pytest.mark.parametrize("alpha,beta", [(0.0, 2.0), (1.0, 0.0)])
def test_rational_spec_rejects_zero_alpha_or_beta(alpha, beta):
    with pytest.raises(ValueError, match="alpha and beta must be nonzero"):
        rational_spec(alpha, beta, polynomial([0.0, 1.0]))


def test_integrable_negative_curvature_degenerates_on_default_range():
    # a1 = 1, c = -1 puts a zero of a1 + 2c t a2 at t = 1/2
    with pytest.raises(DegenerateCoefficient) as exc:
        integrable_spec(constant(1.0), curvature=-1.0, t_max=2.0)
    assert "t = " in str(exc.value)


def test_integrable_negative_curvature_ok_on_short_range():
    spec = integrable_spec(constant(1.0), curvature=-1.0, t_max=0.4)
    assert np.isclose(float(spec.b1(0.2)), -1.0, atol=1e-14)


def test_positivity_sees_a_minimum_between_grid_points():
    # lambda = (t - 0.5)^2 is positive at every grid point of [0, 2]
    lam = polynomial([0.25, -1.0, 1.0])
    assert min(float(lam(t)) for t in validation_grid(2.0)) > 1e-5
    spec = integrable_spec(constant(1.0), curvature=1.0)
    with pytest.raises(DegenerateCoefficient, match="lambda must stay positive"):
        with_metric(spec, lam, constant(0.0))


def test_compatible_unit_proportionality_negative_epsilon():
    # lambda = 1, mu = 0, eps = -1 flips the sign of the vertical coefficients
    spec = rational_spec(1.0, 2.0, polynomial([0.0, 1.0]))
    metric = with_metric(spec, constant(1.0), constant(0.0))
    c1, d1, c2, d2 = metric.c1, metric.d1, metric.c2, metric.d2
    for t in validation_grid(2.0):
        assert np.isclose(float(c1(t)), float(spec.a1(t)), atol=1e-14)
        assert np.isclose(float(d1(t)), float(spec.b1(t)), atol=1e-14)
        assert np.isclose(float(c2(t)), -float(spec.a2(t)), atol=1e-14)
        assert np.isclose(float(d2(t)), -float(spec.b2(t)), atol=1e-13)


def test_compatible_identity_positive_epsilon():
    spec = almost_product_spec(constant(1.0), constant(0.0), epsilon=1)
    metric = with_metric(spec, constant(1.0), constant(0.0))
    c1, d1, c2, d2 = metric.c1, metric.d1, metric.c2, metric.d2
    for t in TGRID:
        assert float(c1(t)) == 1.0 and float(c2(t)) == 1.0
        assert float(d1(t)) == 0.0 and float(d2(t)) == 0.0


def test_compatible_chains_hold_on_grid():
    spec = integrable_spec(constant(1.0), curvature=1.0)
    lam, mu = affine(1.0, 1.0), constant(1.0)
    metric = with_metric(spec, lam, mu)
    c1, d1, c2, d2 = metric.c1, metric.d1, metric.c2, metric.d2
    for t in validation_grid(2.0):
        lt, st = float(lam(t)), float(lam(t) + 2 * t * mu(t))
        assert abs(float(c1(t)) / float(spec.a1(t)) - lt) < 1e-12
        assert abs(-float(c2(t)) / float(spec.a2(t)) - lt) < 1e-12
        num1 = float(c1(t) + 2 * t * d1(t))
        den1 = float(spec.a1(t) + 2 * t * spec.b1(t))
        assert abs(num1 / den1 - st) < 1e-12
        num2 = float(c2(t) + 2 * t * d2(t))
        den2 = float(spec.a2(t) + 2 * t * spec.b2(t))
        assert abs(-num2 / den2 - st) < 1e-12


def test_compatible_rejects_nonpositive_lambda():
    spec = integrable_spec(constant(1.0), curvature=1.0)
    with pytest.raises(DegenerateCoefficient):
        with_metric(spec, affine(0.5, -1.0), constant(0.0))
    # the relaxed mode only demands nondegeneracy
    relaxed = with_metric(spec, affine(-1.0, -1.0), constant(0.0),
                          require_positive=False)
    assert float(relaxed.c1(0.0)) == -1.0


def test_compatible_rejects_bad_epsilon():
    spec = integrable_spec(constant(1.0), curvature=1.0)
    with pytest.raises(ValueError, match=r"epsilon must be \+1 or -1"):
        with_metric(replace(spec, epsilon=2), constant(1.0), constant(0.0))
    with pytest.raises(ValueError, match=r"epsilon must be \+1 or -1"):
        with_metric(almost_product_spec(constant(1.0), epsilon=2),
                    constant(1.0))


def test_closure_rule_mu_presets():
    def mu_of(lam):  # mu derived as lambda'
        return with_metric(almost_product_spec(constant(1.0)), lam).mu

    assert float(mu_of(constant(1.0))(0.7)) == 0.0
    assert np.isclose(float(mu_of(affine(1.0, 1.0))(0.3)), 1.0)
    mu = mu_of(exponential())
    for t in np.linspace(0.1, 1.5, 20):
        assert abs(float(mu(t)) - np.exp(t)) < 1e-12
        assert abs(float(mu.derivative()(t)) - fd_deriv(mu, t)) < 1e-6 * np.exp(t)


def test_with_metric_flags():
    spec = integrable_spec(constant(1.0), curvature=1.0)
    full = with_metric(spec, affine(1.0, 1.0))
    assert "compatible" in full.flags
    assert "mu_is_lambda_prime" in full.flags
    assert "positive" in full.flags
    assert full.is_para_hermitian
    explicit = with_metric(spec, affine(1.0, 1.0), constant(0.0))
    assert "mu_is_lambda_prime" not in explicit.flags


@pytest.mark.parametrize("a1,lam,mu,require_positive,flags", [
    (constant(1.0), affine(1.0, 1.0), None, True,
     {"positive", "mu_is_lambda_prime"}),
    (constant(1.0), affine(1.0, 1.0), constant(0.0), False, {"positive"}),
    (constant(1.0), affine(-1.0, -1.0), constant(0.0), False, set()),
    (constant(-1.0), affine(1.0, 1.0), None, True, {"mu_is_lambda_prime"}),
], ids=["positive", "relaxed positive", "relaxed negative lambda",
        "negative a1"])
def test_with_metric_flags_from_the_guard_pass(a1, lam, mu, require_positive,
                                              flags):
    # "positive" asks a1, a1 + 2t b1, lambda and lambda + 2t mu to stay
    # positive where the guards sample them, guarded or not
    spec = integrable_spec(a1, curvature=1.0)
    metric = with_metric(spec, lam, mu, require_positive=require_positive)
    assert metric.flags == spec.flags | {"compatible"} | flags


@pytest.mark.parametrize("lam,mu,require_positive,message", [
    (affine(0.5, -1.0), constant(0.0), True,
     "lambda must stay positive; value"),
    (constant(1.0), constant(-1.0), True,
     "lambda + 2t mu must stay positive; value"),
    (exponential(1.0, 800.0), constant(0.0), True,
     "lambda is not finite at t = "),
    (affine(1.0, -1.0), constant(0.0), False, "c1 c2 vanishes near t = 1 "),
    (constant(1.0), constant(-1.0), False,
     "(c1 + 2t d1)(c2 + 2t d2) vanishes near t = 0.5 "),
], ids=["lambda", "lambda + 2t mu", "not finite", "c1 c2", "traces"])
def test_with_metric_guards_keep_their_messages(lam, mu, require_positive,
                                                message):
    spec = integrable_spec(constant(1.0), curvature=1.0)
    with pytest.raises(DegenerateCoefficient, match=re.escape(message)):
        with_metric(spec, lam, mu, require_positive=require_positive)


def test_spec_builders_record_range_not_curvature():
    # c enters only the integrability rule, b1(0) = (a1 a1' + c) / a1 here;
    # the spec keeps no curvature and the other builders take none
    spec = integrable_spec(affine(1.0, 0.5), curvature=-1.0, t_max=0.4)
    assert spec.b1(0.0) == -0.5
    assert spec.t_max == 0.4
    assert "integrable" in spec.flags
    assert "curvature" not in {f.name for f in fields(StructureSpec)}
    for builder in (almost_product_spec, rational_spec):
        assert "curvature" not in inspect.signature(builder).parameters


def test_scalar_family_description_strings():
    f = affine(1.0, 2.0) * constant(3.0)
    assert isinstance(f, ScalarFamily)
    assert "*" in f.description


def test_node_derivatives_in_closed_form():
    t = TGRID
    assert np.array_equal(polynomial([1.0, -2.0, 0.5, 0.25]).derivative()(t),
                          polynomial([-2.0, 1.0, 0.75])(t))
    assert np.array_equal(exponential(2.0, 0.7).derivative()(t),
                          exponential(2.0 * 0.7, 0.7)(t))
    assert np.array_equal(affine(1.0, -0.4).derivative()(t), np.full(t.shape, -0.4))
    x = polynomial([0.0, 1.0])
    f, g = exponential(2.0, 0.7), affine(1.0, -0.4)
    rules = {
        "x": (x, 1.0),
        "f + g": (f + g, f.derivative()(t) + g.derivative()(t)),
        "f - g": (f - g, f.derivative()(t) - g.derivative()(t)),
        "f * g": (f * g, f.derivative()(t) * g(t) + f(t) * g.derivative()(t)),
        "f / g": (f / g, (f.derivative()(t) * g(t) - f(t) * g.derivative()(t))
                  / (g(t) * g(t))),
        "-f": (-f, -f.derivative()(t)),
    }
    for name, (fam, expected) in rules.items():
        assert np.allclose(fam.derivative()(t), expected, rtol=1e-15, atol=0), name


def test_constant_derivative_is_zero():
    assert constant(4.0).derivative()(1.0) == 0.0
    assert np.array_equal(constant(4.0).derivative()(TGRID), np.zeros(TGRID.shape))


def test_derivative_rewrite_drops_exact_zeros_only():
    # d/dt of 1/a1 for constant a1 collapses to the constant 0; values keep
    # every node, so (a1 * 0) still evaluates through a1
    a1 = constant(2.0)
    assert (1.0 / a1).derivative() == constant(0.0)
    value = a1 * (1.0 / a1).derivative()
    assert value.op == "*" and np.array_equal(value(TGRID), np.zeros(TGRID.shape))


@pytest.mark.parametrize("a1", [exponential(1.5, 0.3), affine(1.0, 0.25)])
def test_composite_derivatives_match_finite_differences(a1):
    spec = with_metric(integrable_spec(a1, curvature=1.0, t_max=1.0),
                       affine(1.0, 1.0))
    ts = np.linspace(0.05, 0.95, 7)
    families = {name: getattr(spec, name) for name in
                ("b1", "a2", "b2", "c1", "d1", "c2", "d2", "mu")}
    families["b1'"] = spec.b1.derivative()  # reaches a1'' through the rule
    for name, fam in families.items():
        fd = np.diagonal(fd_oracle(fam, ts, step=1e-5))
        exact = fam.derivative()(ts)
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-9), name


def test_complex_stepped_t_takes_one_chain_rule_step(rng):
    # t on 16 complex-step lanes (n = 8): the family's real part is the plain
    # evaluation, bit for bit, and its imaginary part f'(t0) Im t
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))
    t0 = rng.uniform(0.0, 2.0, size=(3, 1)) + np.zeros((3, 16))
    step = rng.standard_normal((3, 16))
    for fam in (spec.b1, spec.d2):
        out = fam(t0 + 1j * step)
        assert out.dtype == np.complex128
        assert out.real.tobytes() == fam(t0).tobytes()
        assert np.allclose(out.imag, fam.derivative()(t0) * step,
                           rtol=1e-13, atol=1e-15)


def test_unbatched_complex_stepped_t_takes_the_same_step():
    # one point: t's real part is a float on every lane, and constant
    # families (f' = 0) too give one entry per lane
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))
    step = np.array([1.0, -2.0, 0.25])
    for fam in (spec.a1, spec.b1, spec.lam, spec.mu):
        out = fam(0.5 + 1j * step)
        assert out.shape == (3,)
        assert np.array_equal(out.real, np.full(3, fam(0.5)))
        assert np.array_equal(out.imag, fam.derivative()(0.5) * step)


# ------------------------------------------------------- compiled programs

_REFERENCE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                  "/": operator.truediv, "neg": operator.neg}


def reference_walk(fam, t):
    """The family's tree on a plain t, node by node.

    The recursive evaluation that the compiled program replaced, kept as its
    reference: every shared subtree is recomputed.
    """
    op, a = fam.op, fam.args
    if op in _REFERENCE_OPS:
        return _REFERENCE_OPS[op](*(reference_walk(f, t) for f in a))
    if op == "exp":
        return a[0] * np.exp(a[1] * t)
    if op == "t":
        return t
    acc = a[-1] + 0.0 * t  # "const" and "poly", by Horner's rule
    for c in reversed(a[:-1]):
        acc = acc * t + c
    return acc


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _preset_specs():
    import json
    from pathlib import Path

    from paralift.config import build_structure, parse_config

    presets = Path(__file__).resolve().parent.parent / "src" / "paralift" / "presets"
    return {path.stem: build_structure(parse_config(json.loads(path.read_text()))).spec
            for path in sorted(presets.glob("*.json"))}


def _program_specs():
    specs = _preset_specs()
    specs["integrable exp a1"] = with_metric(
        integrable_spec(exponential(1.5, 0.3), curvature=1.0, t_max=1.0),
        affine(1.0, 1.0))
    specs["polynomial mu"] = with_metric(
        integrable_spec(constant(1.0), curvature=-1.0, t_max=0.4),
        affine(1.0, 1.0),
        polynomial([0.5, -0.25, 0.125]))
    return specs


_NAMES = {"P": ("a1", "b1", "a2", "b2"), "G": ("c1", "d1", "c2", "d2"),
          "PG": ("a1", "b1", "a2", "b2", "c1", "d1", "c2", "d2"),
          "form": ("lam", "mu")}


@pytest.mark.parametrize("label,spec", list(_program_specs().items()))
def test_programs_equal_the_reference_walk_bitwise(label, spec, rng):
    t = np.concatenate([validation_grid(spec.t_max),
                        rng.uniform(0.0, spec.t_max, 9)])
    phase = t[:, None] + 1j * rng.standard_normal(t.shape + (6,))
    for name, fields in _NAMES.items():
        if spec.c1 is None and name != "P":
            continue
        families = [getattr(spec, f) for f in fields]
        program = spec.program(name)
        few = t[60:64].reshape(2, 2)  # a small 2-d t takes the array path too
        for fam, value, stepped, point, small in zip(
                families, program(t), program(phase), program(0.75),
                program(few)):
            where = (label, name, fam.description)
            slope = reference_walk(fam.derivative(), t)
            assert _same_bits(value, reference_walk(fam, t)), where
            assert _same_bits(point, reference_walk(fam, 0.75)), where
            assert _same_bits(small, reference_walk(fam, few)), where
            assert _same_bits(stepped.real, np.broadcast_to(value[:, None],
                                                            phase.shape)), where
            assert _same_bits(stepped.imag, slope[..., None] * phase.imag), where
            assert _same_bits(fam(t), value), where


def _theta_specs():
    spec = integrable_spec(constant(1.0), curvature=1.0)
    return {**_preset_specs(),
            "mu = 0.5": with_metric(spec, affine(1.0, 1.0), constant(0.5)),
            "exponential mu": with_metric(spec, affine(1.0, 1.0),
                                          exponential(0.5, 0.3))}


@pytest.mark.parametrize("label,spec", list(_theta_specs().items()))
def test_theta_factor_is_mu_less_lambda_prime_bitwise(label, spec):
    # _theta's factor, from one "form" pass with derivatives, has the bits
    # of mu and lambda' evaluated as families of their own, at one point, at
    # two and on a CLI-sized sample; analytic_dOmega, its public reader,
    # refuses a spec with no metric
    from paralift import ContractError, LiftedStructure, sample_points
    from paralift.spaceform import conformal_ball
    from paralift.verify import _theta, analytic_dOmega

    ls = LiftedStructure(m=conformal_ball(3, 1.0), spec=spec)
    sample = sample_points(ls.m, 100, 5)
    for pt in (sample.points[7], sample.points[:2], sample.points):
        if spec.c1 is None:
            with pytest.raises(ContractError):
                analytic_dOmega(ls, pt)
            continue
        factor = np.asarray(spec.mu(pt.t)) - spec.lam.derivative()(pt.t)
        want = factor[..., None] * np.concatenate(
            [np.asarray(-2.0 * pt.t)[..., None] * pt.h, pt.g0], axis=-1)
        assert _same_bits(_theta(ls, pt), want), label


def test_programs_share_subtrees_once():
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))
    program = spec.program("PG")
    # d1 and d2 hold b1 and b2, b2 holds a2 twice, and equal constants merge
    assert len(program.steps) < 44
    assert len(set(map(repr, program.steps))) == len(program.steps)
    for i, (op, args) in enumerate(program.steps):
        if op in ("+", "-", "*", "/", "neg"):
            assert all(j < i for j in args)  # children first
    assert spec.program("PG") is program


def test_spec_compiles_each_program_once(monkeypatch):
    from paralift import coefficients
    from paralift.lifted import LiftedStructure
    from paralift.spaceform import conformal_ball
    from paralift.verify import CHECK_NAMES, run_check, sample_points

    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))
    m = conformal_ball(3, 1.0)
    ls = LiftedStructure(m=m, spec=spec)
    sample = sample_points(m, 6, 5)
    compiled = []
    init = coefficients.Program.__init__

    def counting(self, families):
        compiled.append(tuple(families))  # held, so ids stay unique
        init(self, families)

    monkeypatch.setattr(coefficients.Program, "__init__", counting)
    for _ in range(2):
        for name in CHECK_NAMES:
            run_check(name, ls, sample)
    keys = [tuple(map(id, families)) for families in compiled]
    assert len(keys) == len(set(keys))
    assert min(map(len, compiled)) > 1  # no check evaluates a family alone
    for fields in _NAMES.values():
        assert tuple(id(getattr(spec, f)) for f in fields) in keys


def test_program_numbers_round_trip_bitwise():
    # the compiled program writes each number by repr: every float,
    # -0.0 and the non-finite ones included, evaluates as the tree does
    from paralift.coefficients import Program

    numbers = [0.1, -0.0, 1e-300, -2.5e17, 1.0 / 3.0, np.inf, -np.inf, np.nan]
    families = ([constant(c) for c in numbers]
                + [polynomial([c, 0.7, c]) for c in numbers]
                + [exponential(c, 1.0 / 7.0) for c in numbers[:5]])
    t = np.array([0.0, 0.3, 1.9])
    with np.errstate(invalid="ignore", over="ignore"):
        for fam, value in zip(families, Program(families)(t)):
            assert _same_bits(value, reference_walk(fam, t)), fam.description


def test_constant_subtrees_evaluate_bitwise_at_every_finite_t():
    # all-constant steps (a -0.0 leaf, a division by zero and an overflow
    # among them) and constant outputs evaluate as the tree does, at
    # negative, signed-zero and positive t
    from paralift.coefficients import Program, _t

    zero, minus_zero, third = constant(0.0), constant(-0.0), constant(1.0 / 3.0)
    big = constant(1e300)
    families = [third, -zero, minus_zero, -minus_zero, third / zero,
                zero / zero, big * big, (third + 0.5) * (-third) - 2.0,
                ((third - 0.25) / (third + 1.0)) * _t + third * third,
                -zero * _t, minus_zero * _t, (-zero) + 0.0,
                exponential(0.5, third.args[0]) / (1.0 + third)]
    t = np.array([-3.5, -1e-300, -0.0, 0.0, 1e-300, 0.3, 2.0, 7.5e200])
    program = Program(families)
    with np.errstate(all="ignore"):
        for point in (t, *t):
            for fam, value in zip(families, program(point)):
                assert np.shape(value) == np.shape(point), fam.description
                assert _same_bits(value, reference_walk(fam, point)), (
                    fam.description, point)


def test_a_specs_programs_keep_their_step_counts():
    # high_dim_para_kahler's spec: a1 = 1 on the c = 1 ball, lambda = 1 + t;
    # shared subtrees and equal leaves are one step each
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))
    for program, steps in ((spec.program("P"), 17), (spec.program("PG"), 31),
                           (spec.program("P").with_derivatives, 23)):
        assert len(program.steps) == steps


class _Recording(np.ndarray):
    """An ndarray that logs each ufunc applied to it, as an array type of
    its own arithmetic would see them, and computes as a plain array."""

    log = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Recording.log.append(ufunc)
        plain = [x.view(np.ndarray) if isinstance(x, _Recording) else x
                 for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs).view(_Recording)


_STEP_UFUNCS = {"+": [np.add], "-": [np.subtract], "*": [np.multiply],
                "/": [np.divide], "neg": [np.negative], "t": [],
                "exp": [np.multiply, np.exp, np.multiply]}


def test_every_step_runs_on_t_s_array_type(monkeypatch):
    # each step of a program, constant ones included, is one statement on
    # t's arrays, in step order: a "const" or "poly" leaf is Horner's rule
    # from 0 t, the rest one ufunc each; an array type that implements the
    # ufuncs sees them all, and its rows are the float run's bitwise
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0),
                       affine(1.0, 1.0))
    t = np.array([0.0, 0.3, 1.9])
    for program in (spec.program("PG"), spec.program("P").with_derivatives):
        want = [np.multiply]  # 0 t
        for op, args in program.steps:
            horner = [np.add] + [np.multiply, np.add] * (len(args) - 1)
            want += _STEP_UFUNCS.get(op, horner)
        monkeypatch.setattr(_Recording, "log", [])
        rows = program._function(t.view(_Recording))
        assert _Recording.log == want
        assert all(type(row) is _Recording for row in rows)
        assert _same_bits(np.array(rows), program(t))


def test_guards_sample_all_families_as_each_alone():
    # brackets of several families bisect together, each as if alone
    from paralift.coefficients import _sampled_values

    t = ScalarFamily("t")
    families = [(t - 0.7) * (t - 0.7) + 1e-3, affine(1.0, 1.0),
                exponential(1.0, -1.0) - 0.5 + 0.01 * t,
                (t - 0.33) * (t - 1.5) * (t - 1.5) + 0.2]
    together = _sampled_values(families, 2.0)
    assert sum(len(ts) > 64 for ts, _ in together) >= 2  # interior minima
    for fam, (ts, values) in zip(families, together):
        alone_ts, alone = _sampled_values([fam], 2.0)[0]
        assert _same_bits(ts, alone_ts) and _same_bits(values, alone)


@pytest.mark.parametrize("build,programs", [
    (lambda: almost_product_spec(affine(1.0, 0.5), affine(0.0, 0.1)), 1),
    (lambda: integrable_spec(exponential(1.5, 0.3), curvature=1.0,
                             t_max=1.0), 1),
    (lambda: rational_spec(1.0, 2.0, affine(0.0, 1.0)), 1),
    (lambda: with_metric(integrable_spec(constant(1.0), curvature=1.0),
                         affine(1.0, 1.0)), 1 + 1),
], ids=["almost_product", "integrable", "rational", "with_metric"])
def test_builders_compile_one_guard_program_each(monkeypatch, build, programs):
    # with_metric: its integrable spec, then its metric guards together with
    # the families of the positivity flag
    from paralift import coefficients

    compiled = []
    monkeypatch.setattr(coefficients, "compile",
                        lambda *args: compiled.append(args) or compile(*args),
                        raising=False)
    build()
    assert len(compiled) == programs
