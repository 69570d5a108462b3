"""Block structure, frame covariance, and algebraic identities of P, G, Omega."""

import json
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from paralift import (
    ContractError,
    LiftedStructure,
    RangeError,
    affine,
    almost_product_spec,
    conformal_ball,
    constant,
    flat_space,
    integrable_spec,
    make_point,
    perturbed_conformal,
    polynomial,
    rational_spec,
    sample_points,
    with_metric,
)
from paralift import ad
from paralift.cli import execute_checks
from paralift.config import build_structure, parse_config
from paralift.lifted import G_adapted, Omega_coordinate, P_adapted
from paralift.lifted import P_coordinate_function
from paralift.lifted import _adapted_blocks, _omega_coordinate, _p_coordinate
from paralift.phase import stepped_point
from paralift.verify import (
    CHECKS,
    PhaseSample,
    _almost_product,
    _closure_max,
    _compatibility,
    _nijenhuis_max,
    analytic_dOmega,
    fd_oracle,
    nijenhuis_at,
    run_check,
)
from frame_reference import (
    Omega_adapted,
    block,
    frame_matrices,
    liouville,
    omega_coordinate_dense,
    p_coordinate_dense,
    spray,
)



def rational_structure(m, with_g=True, lam=None, mu=None):
    spec = rational_spec(1.0, 2.0, polynomial([0.0, 1.0]))
    if with_g:
        spec = with_metric(spec, lam or constant(1.0), mu or constant(0.0))
    return LiftedStructure(m=m, spec=spec)


def cruceanu_q(m):
    """Cruceanu's Q (P1 = g, P2 = g^-1): the natural diagonal a1 = 1, b1 = 0."""
    return LiftedStructure(m=m, spec=almost_product_spec(constant(1.0)))


def test_cruceanu_q_flat_is_the_swap():
    m = flat_space(2)
    pt = make_point(m, [0.0, 0.0], [0.3, -0.4])
    p = P_adapted(cruceanu_q(m), pt)
    expected = np.block([[np.zeros((2, 2)), np.eye(2)],
                         [np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(p, expected)


def test_cruceanu_p_is_the_sign_split():
    m = conformal_ball(2, -1.0)
    pt = make_point(m, [0.1, 0.2], [1.0, 1.0])
    ls = LiftedStructure(m=m)
    assert np.array_equal(P_adapted(ls, pt), np.diag([-1.0, -1.0, 1.0, 1.0]))
    assert np.array_equal(P_adapted(ls, pt) @ P_adapted(ls, pt), np.eye(4))


def test_p_squares_to_identity_and_is_traceless(rng):
    m = conformal_ball(3, 1.0)
    ls = rational_structure(m, with_g=False)
    for pt in sample_points(m, 20, 11).points:
        p = P_adapted(ls, pt)
        assert np.max(np.abs(p @ p - np.eye(6))) < 1e-11
        assert abs(np.trace(p)) < 1e-12


def test_p_eigenvalues_split_evenly(rng):
    m = conformal_ball(3, -1.0)
    for ls in (rational_structure(m, with_g=False), cruceanu_q(m),
               LiftedStructure(m=m)):
        for pt in sample_points(m, 5, 3).points:
            eigs = np.sort(np.real(np.linalg.eigvals(P_adapted(ls, pt))))
            assert np.allclose(eigs, [-1.0] * 3 + [1.0] * 3, atol=1e-9)


def test_p_coordinate_equals_adapted_where_connection_vanishes():
    m = flat_space(2)
    spec = almost_product_spec(constant(1.0), constant(0.5))
    ls = LiftedStructure(m=m, spec=spec)
    pt = make_point(m, [0.4, -0.2], [0.5, 0.5])
    assert np.allclose(P_coordinate_function(ls)(pt.z()), P_adapted(ls, pt),
                       atol=1e-15)
    mc = conformal_ball(2, 1.0)
    lsc = rational_structure(mc, with_g=False)
    pt0 = make_point(mc, [0.0, 0.0], [0.5, 0.5])
    assert np.allclose(P_coordinate_function(lsc)(pt0.z()), P_adapted(lsc, pt0),
                       atol=1e-14)


@pytest.mark.parametrize("kind", ["natural_diagonal", "cruceanu_p",
                                  "cruceanu_q"])
def test_coordinate_p_from_blocks_is_the_conjugation(kind):
    m = conformal_ball(3, -1.0)
    ls = {"natural_diagonal": lambda: rational_structure(m, with_g=False),
          "cruceanu_p": lambda: LiftedStructure(m=m),
          "cruceanu_q": lambda: cruceanu_q(m)}[kind]()
    points = sample_points(m, 8, 19).points
    for pt in (*points, points):
        b, binv = frame_matrices(pt.Gamma0)
        expected = b @ P_adapted(ls, pt) @ binv
        got = P_coordinate_function(ls)(pt.z())
        assert np.max(np.abs(got - expected)) <= 1e-13 * max(
            1.0, np.max(np.abs(expected)))


def test_p_coordinate_is_the_conjugation():
    m = conformal_ball(2, 1.0)
    spec = rational_spec(1.0, 2.0, polynomial([0.0, 1.0]),
                         t_max=4.0)  # the sample point sits at t ~ 2.6
    ls = LiftedStructure(m=m, spec=spec)
    pt = make_point(m, [0.3, 0.1], [1.0, 2.0])
    b, binv = frame_matrices(pt.Gamma0)
    expected = b @ P_adapted(ls, pt) @ binv
    pc = P_coordinate_function(ls)(pt.z())
    assert np.max(np.abs(pc - expected)) < 1e-12
    assert np.max(np.abs(pc @ pc - np.eye(4))) < 1e-11


def test_g_identity_case():
    m = flat_space(3)
    spec = with_metric(
        almost_product_spec(constant(1.0), constant(0.0), epsilon=1),
        constant(1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    pt = make_point(m, [0.1, 0.2, 0.3], [1.0, 0.0, -1.0])
    assert np.allclose(G_adapted(ls, pt), np.eye(6), atol=1e-15)


def test_g_signature_neutral_for_negative_epsilon(rng):
    m = conformal_ball(3, 1.0)
    ls = rational_structure(m)
    for pt in sample_points(m, 10, 5).points:
        eigs = np.linalg.eigvalsh(G_adapted(ls, pt))
        assert int(np.sum(eigs > 0)) == 3
        assert int(np.sum(eigs < 0)) == 3


def test_g_positive_definite_for_positive_epsilon(rng):
    m = conformal_ball(3, 1.0)
    spec = with_metric(integrable_spec(constant(1.0), curvature=1.0, epsilon=1),
                       constant(1.0), constant(0.0))
    ls = LiftedStructure(m=m, spec=spec)
    assert "positive" in spec.flags
    for pt in sample_points(m, 10, 5).points:
        assert np.all(np.linalg.eigvalsh(G_adapted(ls, pt)) > 0)


def test_compatibility_identity_for_built_specs(rng):
    m = conformal_ball(3, -1.0)
    ls = rational_structure(m)
    eps = ls.spec.epsilon
    for pt in sample_points(m, 10, 9).points:
        p = P_adapted(ls, pt)
        g = G_adapted(ls, pt)
        assert np.max(np.abs(p.T @ g @ p - eps * g)) < 1e-11


def test_omega_mixed_block_identity_case(rng):
    m = conformal_ball(3, 1.0)
    ls = rational_structure(m)  # lambda = 1, mu = 0
    for pt in sample_points(m, 5, 2).points:
        om = Omega_adapted(ls, pt)
        assert np.allclose(om[:3, 3:], np.eye(3), atol=1e-12)
        assert np.allclose(om[:3, :3], 0.0, atol=1e-15)
        assert np.allclose(om[3:, 3:], 0.0, atol=1e-15)


def test_omega_mixed_block_general_coefficients():
    m = flat_space(2)
    spec = with_metric(
        almost_product_spec(constant(1.0), constant(0.0)),
        affine(1.0, 1.0), constant(1.0))
    ls = LiftedStructure(m=m, spec=spec)
    pt = make_point(m, [0.0, 0.0], [1.0, 0.0])  # t = 1/2, g0 = p
    om = Omega_adapted(ls, pt)
    expected = 1.5 * np.eye(2) + np.outer(pt.p, pt.p)
    assert np.allclose(om[:2, 2:], expected, atol=1e-14)
    assert np.allclose(om[:2, 2:], [[2.5, 0.0], [0.0, 1.5]], atol=1e-14)


def test_omega_antisymmetric(rng):
    m = conformal_ball(3, 1.0)
    ls = rational_structure(m, lam=affine(1.0, 0.5), mu=constant(0.5))
    for pt in sample_points(m, 20, 13).points:
        om = Omega_adapted(ls, pt)
        assert np.max(np.abs(om + om.T)) < 1e-11
        omc = Omega_coordinate(ls)(pt.z())
        assert np.max(np.abs(omc + omc.T)) < 1e-11


def test_omega_coordinate_matches_adapted_where_connection_vanishes():
    m = flat_space(2)
    spec = with_metric(
        almost_product_spec(constant(1.0), constant(0.0)),
        affine(1.0, 1.0))
    ls = LiftedStructure(m=m, spec=spec)
    pt = make_point(m, [0.2, -0.1], [0.5, 1.0])
    assert np.allclose(Omega_coordinate(ls)(pt.z()), Omega_adapted(ls, pt),
                       atol=1e-15)
    mc = conformal_ball(2, 1.0)
    lsc = rational_structure(mc, lam=affine(1.0, 1.0))
    pt0 = make_point(mc, [0.0, 0.0], [0.5, 1.0])
    assert np.allclose(Omega_coordinate(lsc)(pt0.z()), Omega_adapted(lsc, pt0),
                       atol=1e-14)


def test_omega_coordinate_is_the_cotensor_transform(rng):
    m = conformal_ball(2, 1.0)
    ls = rational_structure(m, lam=affine(1.0, 1.0), mu=constant(1.0))
    pt = make_point(m, [0.3, 0.1], [1.0, 0.5])
    _, binv = frame_matrices(pt.Gamma0)
    expected = binv.T @ Omega_adapted(ls, pt) @ binv
    assert np.max(np.abs(Omega_coordinate(ls)(pt.z()) - expected)) < 1e-12


def test_frame_covariance_of_p_and_omega(rng):
    m = conformal_ball(3, -1.0)
    ls = rational_structure(m, lam=affine(1.0, 0.25))
    for pt in sample_points(m, 5, 17).points:
        b, binv = frame_matrices(pt.Gamma0)
        p_expected = b @ P_adapted(ls, pt) @ binv
        pc = P_coordinate_function(ls)(pt.z())
        assert np.max(np.abs(pc - p_expected)) < 1e-11
        o_expected = binv.T @ Omega_adapted(ls, pt) @ binv
        omc = Omega_coordinate(ls)(pt.z())
        assert np.max(np.abs(omc - o_expected)) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("model", ["flat", "ball+1", "ball-1", "perturbed"])
def test_coordinate_p_and_omega_match_the_frame_and_fd_oracles(n, model):
    """The coordinate blocks, written through Gamma0 g0 = 2t h, are still the
    dense conjugations of the adapted ones, and their complex-step jacobians
    still match central differences."""
    m, c, a1 = {"flat": (flat_space(n), 0.0, affine(1.0, 0.1)),
                "ball+1": (conformal_ball(n, 1.0), 1.0, constant(1.0)),
                "ball-1": (conformal_ball(n, -1.0), -1.0, constant(3.0)),
                "perturbed": (perturbed_conformal(n, 1.0, 0.1), 1.0,
                              constant(1.0))}[model]
    ls = LiftedStructure(m=m, spec=with_metric(integrable_spec(a1, curvature=c),
                                               affine(1.0, 1.0)))
    points = sample_points(m, 4, 61).points
    p_fn, omega_fn = P_coordinate_function(ls), Omega_coordinate(ls)
    for pt in (*points, points):
        b, binv = frame_matrices(pt.Gamma0)
        for got, want in ((p_fn(pt.z()), b @ P_adapted(ls, pt) @ binv),
                          (omega_fn(pt.z()),
                           np.swapaxes(binv, -1, -2) @ Omega_adapted(ls, pt)
                           @ binv)):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(
                1.0, np.max(np.abs(want))), model
    for pt in points[1:3]:
        for fn in (p_fn, omega_fn):
            _, jac = ad.jacobian(fn, pt.z())
            fd = fd_oracle(fn, pt.z())
            assert np.max(np.abs(jac - fd)) < 1e-6 * max(1.0, np.max(np.abs(jac)))


def test_p_maps_spray_onto_scaled_liouville(rng):
    # P sends the geodesic spray to (a1 + 2t b1) times the tautological
    # vertical field; with unit coefficients they swap exactly
    m = conformal_ball(3, 1.0)
    ls = rational_structure(m, with_g=False)
    for pt in sample_points(m, 10, 21).points:
        a1 = float(ls.spec.a1(pt.t))
        b1 = float(ls.spec.b1(pt.t))
        image = P_adapted(ls, pt) @ spray(pt)
        expected = (a1 + 2.0 * pt.t * b1) * liouville(pt)
        assert np.max(np.abs(image - expected)) < 1e-12


def test_range_error_beyond_t_max():
    m = flat_space(2)
    spec = almost_product_spec(constant(1.0), constant(0.0), t_max=1.0)
    ls = LiftedStructure(m=m, spec=spec)
    pt = make_point(m, [0.0, 0.0], [2.0, 1.0])  # t = 2.5 > 1
    with pytest.raises(RangeError):
        P_adapted(ls, pt)


def test_contract_errors():
    m = flat_space(2)
    pt = make_point(m, [0.0, 0.0], [1.0, 0.0])
    bare = LiftedStructure(m=m)
    spec = almost_product_spec(constant(1.0), constant(0.0))
    ls_p_only = LiftedStructure(m=m, spec=spec)
    for no_metric in (bare, ls_p_only):
        with pytest.raises(ContractError):
            G_adapted(no_metric, pt)
        with pytest.raises(ContractError):
            Omega_adapted(no_metric, pt)
        with pytest.raises(ContractError):
            analytic_dOmega(no_metric, pt)
        for name in ("compatibility", "metric_signature"):
            with pytest.raises(ContractError):
                run_check(name, no_metric,
                          PhaseSample(make_point(m, [pt.q], [pt.p])))
    spec_plus = with_metric(
        almost_product_spec(constant(1.0), constant(0.0), epsilon=1),
        constant(1.0), constant(0.0))
    ls_plus = LiftedStructure(m=m, spec=spec_plus)
    with pytest.raises(ContractError):
        Omega_coordinate(ls_plus)
    unvalidated = replace(spec, flags=frozenset())
    with pytest.raises(ContractError):
        LiftedStructure(m=m, spec=unvalidated)


@pytest.fixture
def factor_calls(monkeypatch):
    """The arguments of every evaluation of phi from here on: each call of
    conformal_fields, the one evaluation of phi and h."""
    from paralift import phase, spaceform

    calls = []

    def counting(evaluate):
        def call(*args):
            calls.append(args)
            return evaluate(*args)
        return call

    call = counting(spaceform.conformal_fields)
    for module in (spaceform, phase):  # phase holds its own imported name
        monkeypatch.setattr(module, "conformal_fields", call)
    return calls


@pytest.mark.parametrize("batch", [False, True])
def test_one_conformal_factor_evaluation_per_call(factor_calls, batch):
    """Each evaluator derives its chart fields from at most one evaluation of
    phi; the adapted ones read them from a point built on their chart, and
    the derivative residuals from a stepped point built before.  A sample
    of a given batch is not stepped: its stepped point costs one
    evaluation on its first read."""
    m = conformal_ball(3, 1.0)
    ls = rational_structure(m)
    points = sample_points(m, 3, 11).points
    pt = points if batch else points[1]
    lanes = stepped_point(m, pt)
    evaluators = {
        "make_point": (lambda: make_point(m, pt.q, pt.p), 1),
        "P_adapted": (lambda: P_adapted(ls, pt), 0),
        "G_adapted": (lambda: G_adapted(ls, pt), 0),
        "Omega_adapted": (lambda: Omega_adapted(ls, pt), 0),
        "P_coordinate_function": (
            lambda: ad.jacobian(P_coordinate_function(ls), pt.z()), 1),
        "Omega_coordinate": (
            lambda: ad.jacobian(Omega_coordinate(ls), pt.z()), 1),
        "stepped_point": (lambda: stepped_point(m, pt), 1),
        "PhaseSample": (lambda: PhaseSample(points=points), 0),
        "PhaseSample.stepped": (lambda: PhaseSample(points=points).stepped, 1),
        "nijenhuis_at": (lambda: nijenhuis_at(ls, pt), 1),
        "integrability blocks": (lambda: _nijenhuis_max(ls, None, lanes), 0),
        "closure blocks": (lambda: _closure_max(ls, None, lanes), 0),
    }
    for name, (call, count) in evaluators.items():
        factor_calls.clear()
        call()
        assert len(factor_calls) == count, name


def test_compatibility_reads_one_chart_point_per_block(factor_calls, monkeypatch):
    """P and G of a block share one chart point, the block of the sample
    itself: 3 blocks of 2 points at n = 8 and no evaluation of phi."""
    m = conformal_ball(8, 1.0)
    ls = rational_structure(m)
    sample = sample_points(m, 6, 11)
    monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 2 * 16 ** 2)  # 2 points of 16 x 16
    factor_calls.clear()
    assert run_check("compatibility", ls, sample).passed
    assert len(factor_calls) == 0


def test_para_kahler_reads_one_chart_point_per_block(factor_calls):
    """At n = 8, 6 points: the first call on a sample steps its chart once;
    then each block reads a slice of its batch and of its stepped point, so
    a second call evaluates phi zero times.  A sample of another
    chart is rebuilt once per check call, not per block: one point and one
    stepped point of the structure's chart."""
    m = conformal_ball(8, 1.0)
    ls = rational_structure(m)
    sample = sample_points(m, 6, 11)
    factor_calls.clear()
    chunk = PhaseSample(points=sample.points)
    assert len(factor_calls) == 0
    wide = conformal_ball(8, 1.0, chart_radius=2.0)
    other = PhaseSample(make_point(wide, sample.points.q, sample.points.p))
    for own, count in ((sample, 1), (sample, 0), (chunk, 1), (chunk, 0),
                       (other, 2), (other, 2)):
        factor_calls.clear()
        run_check("para_kahler", ls, own)
        assert len(factor_calls) == count
    assert "stepped" not in vars(other)


@pytest.mark.parametrize("batch", [False, True])
def test_a_point_of_an_equal_chart_is_read_and_of_another_rebuilt(
        factor_calls, batch):
    """An equal but distinct chart counts as the points' own: no evaluation
    of phi in the adapted evaluators and the algebraic checks of a sample,
    which read its chart fields, and one in the first check that
    differentiates the chart, which steps the sample for the others.
    Points of another chart are rebuilt on the structure's, as points made
    there: one evaluation in an adapted evaluator and in an algebraic
    check, and two in a check that differentiates the chart, which also
    steps the rebuilt sample once."""
    m = conformal_ball(3, 1.0)
    ls = rational_structure(conformal_ball(3, 1.0))
    assert ls.m == m and ls.m is not m
    wide = conformal_ball(3, 1.0, chart_radius=2.0)
    own = sample_points(m, 3, 11).points
    other = make_point(wide, own.q, own.p)
    for points, rebuilt in ((own, False), (other, True)):
        pt = points if batch else points[1]
        sample = PhaseSample(points=points if batch else points[1:2])
        for name, call in (
                ("P_adapted", lambda: P_adapted(ls, pt)),
                ("G_adapted", lambda: G_adapted(ls, pt)),
                *((check, partial(run_check, check, ls, sample)) for check in
                  ("compatibility", "integrability", "closure",
                   "space_form"))):
            factor_calls.clear()
            call()
            steps = name in CHECKS and CHECKS[name].stepped
            first = name == "integrability"  # the first to step
            want = (1 + steps) if rebuilt else int(first)
            assert len(factor_calls) == want, (name, rebuilt)
    for evaluate in (P_adapted, G_adapted):
        assert np.array_equal(evaluate(ls, other[1]), evaluate(ls, own[1]))


def test_a_run_that_reads_no_stepped_point_builds_none(factor_calls):
    """A CLI run whose checks differentiate nothing evaluates phi as often as
    drawing its sample does: no check steps it.  The same checks on a drawn
    sample leave its stepped point unbuilt and report byte-equal; a
    derivative check then steps it once, and a second one not again."""
    preset = (Path(__file__).resolve().parent.parent / "src" / "paralift"
              / "presets" / "rational_para_hermitian.json")
    document = json.loads(preset.read_text())
    document["checks"] = ["almost_product", "compatibility",
                          "metric_signature"]
    config = parse_config(document)
    factor_calls.clear()
    reports, _ = execute_checks(config)
    run = len(factor_calls)
    ls, s = build_structure(config), config.sampling
    factor_calls.clear()
    sample = sample_points(ls.m, s["count"], s["seed"], p_max=s["p_max"],
                           t_max=config.coefficients["t_max"])
    assert len(factor_calls) == run
    again = [run_check(name, ls, sample) for name in config.checks]
    assert len(factor_calls) == run
    assert "stepped" not in vars(sample)
    assert json.dumps([r.to_dict() for r in reports]) == json.dumps(
        [r.to_dict() for r in again])
    for name, count in (("closure", 1), ("integrability", 0)):
        factor_calls.clear()
        run_check(name, ls, sample)
        assert len(factor_calls) == count, name
    assert vars(sample)["stepped"] is sample.stepped


def test_the_derivative_checks_of_a_sample_share_one_stepped_point(
        factor_calls):
    """On one sample, space_form, integrability, closure, closure_agreement
    and para_kahler together evaluate phi once, in the first of them; the
    algebraic checks before them build no stepped point."""
    m = conformal_ball(3, 1.0)
    ls = rational_structure(m)
    sample = sample_points(m, 5, 11)
    factor_calls.clear()
    for name in ("almost_product", "compatibility", "metric_signature"):
        run_check(name, ls, sample)
    assert not factor_calls and "stepped" not in vars(sample)
    for name in ("space_form", "integrability", "closure",
                 "closure_agreement", "para_kahler"):
        assert any(CHECKS[part].stepped
                   for part in CHECKS[name].parts or (name,)), name
        run_check(name, ls, sample)
    assert len(factor_calls) == 1
    assert vars(sample)["stepped"].m is m


BLOCK_MODELS = {
    "flat": lambda n: (flat_space(n), 0.0, affine(1.0, 0.1)),
    "ball+1": lambda n: (conformal_ball(n, 1.0), 1.0, constant(1.0)),
    "ball-1": lambda n: (conformal_ball(n, -1.0), -1.0, constant(3.0)),
    "perturbed": lambda n: (perturbed_conformal(n, 1.0, 0.1), 1.0,
                            constant(1.0)),
}


def _bits(a):
    """dtype, shape and bytes of an array or scalar: bitwise identity."""
    a = np.asarray(a)
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def test_reference_block_matches_np_block_bitwise(rng):
    # the dense assembly the block readings are compared with: batch axes
    # broadcast and the result takes the blocks' common dtype
    a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    c = rng.standard_normal((3, 3))  # broadcasts against a's batch
    got = block([[np.eye(3), a], [-c, np.zeros((3, 3))]])
    want = np.block([[np.broadcast_to(np.eye(3), a.shape), a],
                     [np.broadcast_to(-c, a.shape), np.zeros(a.shape)]])
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    plain = [[np.eye(2), np.ones((2, 3))], [np.zeros((1, 2)), np.ones((1, 3))]]
    got = block(plain)
    assert got.dtype == np.float64 and np.array_equal(got, np.block(plain))


@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
def test_block_readings_equal_the_dense_assembly_bitwise(model, n, epsilon):
    """almost_product and compatibility read the two diagonal n x n blocks
    of P^2 - I and P^T G P - eps G; per point their residuals are the max
    over the whole 2n x 2n products of P_adapted and G_adapted, bit for bit,
    on a batch and on single points, and so for Cruceanu's P.  The
    coordinate P and Omega, written into their slots, are the
    frame_reference.block assembly of the same blocks, on real points and
    on the stepped point, dtype included."""
    m, c, a1 = BLOCK_MODELS[model](n)
    ls = LiftedStructure(m=m, spec=with_metric(
        integrable_spec(a1, curvature=c, epsilon=epsilon), affine(1.0, 1.0)))
    sample = sample_points(m, 5, 70 + n)
    eye = np.eye(2 * n)
    for pt in tuple(sample.points) + (sample.points,):
        pmat, gmat = P_adapted(ls, pt), G_adapted(ls, pt)
        square = np.abs(pmat @ pmat - eye).max((-2, -1))
        compatible = np.abs(np.swapaxes(pmat, -1, -2) @ gmat @ pmat
                            - float(epsilon) * gmat).max((-2, -1))
        assert _bits(_almost_product(ls, pt, None)) == _bits(square)
        assert _bits(_compatibility(ls, pt, None)) == _bits(compatible)
        cruceanu = LiftedStructure(m=m)
        pmat = P_adapted(cruceanu, pt)
        assert _bits(_almost_product(cruceanu, pt, None)) == _bits(
            np.abs(pmat @ pmat - eye).max((-2, -1)))
        for at in (pt, stepped_point(m, pt)):
            assert _bits(_p_coordinate(ls, at)) == _bits(
                p_coordinate_dense(ls, at))
            if epsilon == -1:
                assert _bits(_omega_coordinate(ls, at)) == _bits(
                    omega_coordinate_dense(ls, at))
    for name, residual in (("almost_product", _almost_product),
                           ("compatibility", _compatibility)):
        assert run_check(name, ls, sample).max_residual == float(
            residual(ls, sample.points, None).max())


@pytest.mark.parametrize("n", [2, 3, 8, 16, 17, 18, 19, 20, 21, 32])
def test_one_almost_product_block_has_the_max_of_both(n):
    """almost_product's one stacked product reads the max over both blocks,
    P2 P1 - I and P1 P2 - I, each computed on its own, bit for bit, at
    every n the configs allow it tried (OpenBLAS 0.3.31 rounds the two
    products apart by an ulp at n = 17 to 20), on a batch and on single
    points."""
    eye = np.eye(n)
    for model in sorted(BLOCK_MODELS):
        m, c, a1 = BLOCK_MODELS[model](n)
        ls = LiftedStructure(m=m, spec=integrable_spec(a1, curvature=c))
        sample = sample_points(m, 40, 90 + n, p_max=0.7)
        for pt in tuple(sample.points[:3]) + (sample.points,):
            p1, p2 = (np.ascontiguousarray(b)
                      for b in _adapted_blocks(ls, pt, "P"))
            both = np.maximum(np.abs(p2 @ p1 - eye).max((-2, -1)),
                              np.abs(p1 @ p2 - eye).max((-2, -1)))
            assert _bits(_almost_product(ls, pt, None)) == _bits(both), model
