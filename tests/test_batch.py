"""Batch evaluation: a stacked sample equals its points evaluated one by one.

Every kernel takes leading batch axes; a check stacks its sample and
evaluates it block by block.  These tests pin that batching is invisible:
kernels on a stacked input are bitwise the stack of their per-point values,
a check over a whole sample reports exactly what the merge of its chunk
reports gives, and a failing check names the first offending point in sample
order.
"""

from dataclasses import replace

import numpy as np
import pytest

from paralift import (
    LiftedStructure,
    RangeError,
    affine,
    almost_product_spec,
    conformal_ball,
    constant,
    energy_density,
    flat_space,
    integrable_spec,
    make_point,
    perturbed_conformal,
    sample_points,
    with_metric,
)
from paralift import ChartDomainError, ad, verify
from paralift.lifted import (
    G_adapted,
    Omega_coordinate,
    P_adapted,
    P_coordinate_function,
    _omega_coordinate,
    _p_coordinate,
)
from paralift.phase import stack_points, stepped_point
from paralift.spaceform import (
    christoffel_at,
    conformal_factor,
    curvature_at,
    curvature_of,
    space_form_deviation,
    space_form_residual,
)
from paralift.verify import (
    CHECK_NAMES,
    CHECKS,
    PhaseSample,
    analytic_dOmega,
    exterior_derivative_2form,
    nijenhuis_at,
    run_check,
)
from dense_metric import metric_at
from frame_reference import Omega_adapted, frame_matrices

DIMS = (2, 3, 4, 8)
MODELS = ("flat", "ball+1", "ball-1", "perturbed")


def _structure(model, n):
    """An integrable para-Kaehler candidate on the named chart model."""
    if model == "flat":
        m, c, a1 = flat_space(n), 0.0, affine(1.0, 0.1)
    elif model == "perturbed":
        m, c, a1 = perturbed_conformal(n, 1.0, strength=0.1), 1.0, affine(1.0, 0.1)
    elif model == "ball+1":
        m, c, a1 = conformal_ball(n, 1.0), 1.0, constant(1.0)
    else:  # a1 = 1 would make a1 + 2c t a2 vanish at t = 1/2
        m, c, a1 = conformal_ball(n, -1.0), -1.0, constant(3.0)
    spec = with_metric(integrable_spec(a1, curvature=c), affine(1.0, 1.0))
    return LiftedStructure(m=m, spec=spec)


def _sample(ls, n):
    return sample_points(ls.m, 5 if n == 8 else 7, seed=100 + n)


def _same(a, b):
    """Bitwise equality of two float arrays (or floats)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


def _stacked(fn, items):
    return np.stack([fn(x) for x in items])


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", DIMS)
def test_batched_kernels_equal_stacked_points(model, n):
    ls = _structure(model, n)
    m = ls.m
    points = _sample(ls, n).points
    batch = stack_points(points)
    qs, zs = batch.q, batch.z()

    rebuilt = make_point(m, batch.q, batch.p)
    for field in ("q", "p", "phi", "t", "g0", "h"):
        assert _same(getattr(rebuilt, field), getattr(batch, field)), field
    for pt in points:
        single = make_point(m, pt.q, pt.p)
        assert isinstance(single.t, float) and isinstance(single.phi, float)
        for field in ("phi", "t", "g0", "h"):
            assert _same(getattr(single, field), getattr(pt, field)), field
    for pt in (batch, *points):  # formed where read, by the formula it had
        s = pt.p[..., :, None] * pt.h[..., None, :]  # as a field
        dot = (pt.p[..., None, :] @ pt.h[..., :, None])[..., 0]
        assert _same(pt.Gamma0, (s + np.swapaxes(s, -1, -2))
                     - dot[..., None] * np.eye(n))

    for kernel in (conformal_factor, metric_at, christoffel_at, curvature_at,
                   space_form_residual):
        assert _same(kernel(m, qs), _stacked(lambda q: kernel(m, q), batch.q)), \
            kernel.__name__
    assert _same(energy_density(m, batch.q, batch.p),
                 [energy_density(m, pt.q, pt.p) for pt in points])
    for got, want in zip(frame_matrices(batch.Gamma0),
                         zip(*(frame_matrices(pt.Gamma0) for pt in points))):
        assert _same(got, np.stack(want))

    for kernel in (P_adapted, G_adapted, Omega_adapted, nijenhuis_at,
                   analytic_dOmega):
        assert _same(kernel(ls, batch), _stacked(lambda pt: kernel(ls, pt), points)), \
            kernel.__name__
    unknown = replace(batch, m=None)  # fields rebuilt on ls.m, not read
    for kernel in (P_adapted, G_adapted, Omega_adapted):
        assert _same(kernel(ls, unknown), kernel(ls, batch)), kernel.__name__
    omega = Omega_coordinate(ls)
    assert _same(exterior_derivative_2form(omega, batch),
                 _stacked(lambda pt: exterior_derivative_2form(omega, pt), points))
    for fn in (P_coordinate_function(ls), omega):
        value, jac = ad.jacobian(fn, zs)
        singles = [ad.jacobian(fn, z) for z in zs]
        assert _same(value, np.stack([v for v, _ in singles]))
        assert _same(jac, np.stack([j for _, j in singles]))


@pytest.mark.parametrize("model", MODELS)
def test_a_sample_is_one_batch_of_its_points(model):
    """sample_points keeps make_point's batch, bitwise the stack of its
    points; both record the sampled chart, as does a chunk's batch."""
    ls = _structure(model, 3)
    sample = _sample(ls, 3)
    stacked = stack_points(sample.points)
    for field in ("q", "p", "phi", "t", "g0", "h"):
        assert _same(getattr(sample.batch, field), getattr(stacked, field))
    chunk = PhaseSample(points=sample.points[2:4], seed=sample.seed)
    assert sample.batch.m is stacked.m is chunk.batch.m is ls.m
    assert _same(chunk.batch.q, sample.batch.q[2:4])
    assert stack_points([sample.points[0], replace(sample.points[1],
                                                   m=None)]).m is None


def _same_lanes(a, b):
    """Bitwise equality of two arrays of one dtype, complex ones included."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", (2, 3, 8))
def test_the_stepped_point_is_the_stepped_chart_bitwise(model, n):
    """P and Omega on a sample's stepped point are their stepped outputs at
    its z, for the batch, a single point and a one-point sample; space_form
    from its q lanes and the batch's phi is space_form_residual of q."""
    ls = _structure(model, n)
    m = ls.m
    sample = _sample(ls, n)
    one = PhaseSample(points=sample.points[1:2])
    single = sample.points[1]
    for pt, lanes in ((sample.batch, sample.stepped),
                      (single, stepped_point(m, single)),
                      (one.batch, one.stepped)):
        z = pt.z()
        assert _same_lanes(_p_coordinate(ls, lanes),
                           ad.stepped(P_coordinate_function(ls), z))
        assert _same_lanes(_omega_coordinate(ls, lanes),
                           ad.stepped(Omega_coordinate(ls), z))
        h, dh = ad.split(lanes.h[..., :n, :], 1)
        assert _same(space_form_deviation(m, curvature_of(m, h, dh), pt.phi),
                     space_form_residual(m, pt.q))
    rows = PhaseSample(tuple(make_point(m, pt.q, np.zeros(n))
                             for pt in sample.points))
    assert run_check("space_form", ls, sample) == replace(
        run_check("space_form", ls, rows), seed=sample.seed)


def test_a_sample_carries_a_read_only_stepped_point():
    """The stepped point of a sample is read-only, on the sample's chart,
    with the step lanes after the batch axis; a sample of points with no
    common chart or of no points carries none."""
    ls = _structure("ball+1", 3)
    sample = _sample(ls, 3)
    lanes = sample.stepped
    assert lanes.m is ls.m and lanes.q.shape == (7, 6, 3)
    assert lanes.phi.shape == lanes.t.shape == (7, 6)
    for field in ("q", "p", "phi", "t", "g0", "h"):
        value = getattr(lanes, field)
        assert value.dtype.kind == "c" and not value.flags.writeable, field
        with pytest.raises(ValueError):
            value[...] = 0
    chunk = PhaseSample(points=sample.points[2:4])
    assert _same_lanes(chunk.stepped.h, lanes.h[2:4])
    mixed = (sample.points[0], replace(sample.points[1], m=None))
    for none in (PhaseSample(points=mixed), PhaseSample(points=())):
        assert none.stepped is None


def test_points_and_samples_compare_and_hash_by_identity():
    """Two samples of equal values, their points and their batches compare
    unequal without raising; each equals itself, and all of them hash."""
    ls = _structure("ball+1", 3)
    one, two = _sample(ls, 3), _sample(ls, 3)
    for a, b in ((one, two), (one.points[1], two.points[1]),
                 (one.batch, two.batch)):
        assert a == a and a != b
        assert len({a, b, a}) == 2


def _merge(reports):
    """What the reports of consecutive chunks say about their union."""
    witnesses = sorted((w for r in reports for w in r.witnesses),
                       key=lambda w: -w["residual"])[:3]
    return (max(r.max_residual for r in reports),
            all(r.passed for r in reports), tuple(witnesses))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", DIMS)
def test_check_reports_do_not_depend_on_the_split(model, n):
    ls = _structure(model, n)
    sample = _sample(ls, n)
    points = sample.points
    for name in CHECK_NAMES:
        full = run_check(name, ls, sample)
        for size in (1, 2):
            chunks = [run_check(name, ls, PhaseSample(points=points[i:i + size],
                                                      seed=sample.seed))
                      for i in range(0, len(points), size)]
            top, passed, witnesses = _merge(chunks)
            assert _same(full.max_residual, top), (name, size)
            assert full.passed == passed, (name, size)
            if name == "para_kahler":
                # its witnesses come from whichever sub-check dominates a
                # chunk; the sub-check maxima merge instead
                for key, value in full.details.items():
                    assert _same(value, max(r.details[key] for r in chunks))
            else:
                assert full.witnesses == witnesses, (name, size)


@pytest.mark.parametrize("n", [3, 8])
def test_block_budget_does_not_change_reports(monkeypatch, n):
    ls = _structure("ball+1", n)
    sample = _sample(ls, n)
    reports = [run_check(name, ls, sample) for name in CHECK_NAMES]
    # one point per block; 2 points per derivative block at n = 8
    for budget in (1, 1 << 13):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", budget)
        assert [run_check(name, ls, sample) for name in CHECK_NAMES] == reports


@pytest.mark.parametrize("n,count,stepped,plain", [
    (3, 100, [100], [100]),
    (8, 10, [8, 2], [10]),
    (16, 2, [1, 1], [2]),
])
def test_block_budget_fits_whole_samples(monkeypatch, n, count, stepped, plain):
    """Points per residual call of each check: a CLI sample at n = 3 is one
    block, and a check that reads the stepped point splits at n = 8 and 16.
    para_kahler runs its parts in turn, each in blocks of its own size."""
    ls = _structure("ball+1", n)
    sample = sample_points(ls.m, count, seed=100 + n)
    blocks, sizes = verify._blocks, []

    def counting(fn, sample, lanes, n):
        return blocks(lambda pt, x: sizes.append(len(pt.q)) or fn(pt, x),
                      sample, lanes, n)

    monkeypatch.setattr(verify, "_blocks", counting)
    want = {name: stepped if CHECKS[name].stepped else plain
            for name in CHECK_NAMES}
    want["para_kahler"] = plain + stepped + stepped
    for name in CHECK_NAMES:
        sizes.clear()
        run_check(name, ls, sample)
        assert sizes == want[name], name


@pytest.mark.parametrize("kind", ["cruceanu_p", "cruceanu_q"])
def test_cruceanu_structures_batch(kind):
    m = conformal_ball(3, 1.0)
    if kind == "cruceanu_p":
        ls = LiftedStructure(m=m)
    else:  # Cruceanu's Q: the natural diagonal spec a1 = 1, b1 = 0
        ls = LiftedStructure(m=m, spec=almost_product_spec(constant(1.0)))
    sample = sample_points(m, 6, seed=5)
    batch = stack_points(sample.points)
    assert _same(P_adapted(ls, batch),
                 _stacked(lambda pt: P_adapted(ls, pt), sample.points))
    for name in ("almost_product", "integrability"):
        full = run_check(name, ls, sample)
        singles = [run_check(name, ls, PhaseSample((pt,)))
                   for pt in sample.points]
        assert _same(full.max_residual, max(r.max_residual for r in singles))


def _message(exc_type, name, ls, points):
    with pytest.raises(exc_type) as info:
        run_check(name, ls, PhaseSample(points=tuple(points)))
    return str(info.value)


def _with_outliers(points, replace):
    points = list(points)
    for i, pt in replace.items():
        points[i] = pt
    return points


def test_range_error_names_the_first_point_out_of_range():
    m = conformal_ball(3, 1.0)
    ls = _structure("ball+1", 3)
    base = sample_points(m, 9, seed=11, p_max=1.0).points
    # t scales with |p|^2: points 3 and 7 get t = 3 and t = 5 > t_max = 2
    far = {i: make_point(m, base[i].q, base[i].p * np.sqrt(t / base[i].t))
           for i, t in ((3, 3.0), (7, 5.0))}
    points = _with_outliers(base, far)
    for name in CHECK_NAMES:
        if name == "space_form":
            continue
        first = _message(RangeError, name, ls, [points[3]])
        assert _message(RangeError, name, ls, points) == first, name
        assert first != _message(RangeError, name, ls, [points[7]])


def test_chart_error_names_the_first_point_off_the_chart():
    ls = _structure("ball+1", 3)
    wide = conformal_ball(3, 1.0, chart_radius=2.0)
    # the unit chart's sample lies within radius 0.8 of the wider chart's
    base = sample_points(conformal_ball(3, 1.0), 9, seed=12, p_max=0.5).points
    off = {i: make_point(wide, base[i].q * (r / np.linalg.norm(base[i].q)),
                         base[i].p)
           for i, r in ((3, 1.5), (7, 1.8))}
    points = _with_outliers(base, off)
    for name in CHECK_NAMES:
        first = _message(ChartDomainError, name, ls, [points[3]])
        assert _message(ChartDomainError, name, ls, points) == first, name
        assert first != _message(ChartDomainError, name, ls, [points[7]])
