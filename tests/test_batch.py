"""Batch evaluation: a batched sample equals its points evaluated one by one.

Every kernel takes leading batch axes; a check evaluates its sample's batch
block by block.  These tests pin that batching is invisible: kernels on a
batch are bitwise the stack of their per-point values,
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
    flat_space,
    integrable_spec,
    make_point,
    perturbed_conformal,
    sample_points,
    with_metric,
)
from paralift import ChartDomainError, ad, phase, verify
from paralift.lifted import (
    G_adapted,
    Omega_coordinate,
    P_adapted,
    P_coordinate_function,
    _omega_coordinate,
    _p_coordinate,
)
from paralift.phase import chart_point, stepped_point
from paralift.spaceform import (
    christoffel_at,
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
from dense_metric import metric_at, phi_at
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
    batch = points = _sample(ls, n).points
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

    for kernel in (phi_at, metric_at, christoffel_at, curvature_at,
                   space_form_residual):
        assert _same(kernel(m, qs), _stacked(lambda q: kernel(m, q), batch.q)), \
            kernel.__name__
    assert _same(chart_point(m, batch.q, batch.p).t,
                 [chart_point(m, pt.q, pt.p).t for pt in points])
    for got, want in zip(frame_matrices(batch.Gamma0),
                         zip(*(frame_matrices(pt.Gamma0) for pt in points))):
        assert _same(got, np.stack(want))

    for kernel in (P_adapted, G_adapted, Omega_adapted, nijenhuis_at,
                   analytic_dOmega):
        assert _same(kernel(ls, batch), _stacked(lambda pt: kernel(ls, pt), points)), \
            kernel.__name__
    foreign = make_point(conformal_ball(n, 2.0), batch.q, batch.p)
    for kernel in (P_adapted, G_adapted, Omega_adapted):  # rebuilt on ls.m
        assert _same(kernel(ls, foreign), kernel(ls, batch)), kernel.__name__
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
    """sample_points keeps make_point's batch, bitwise the batch built from
    the rows of its points; both record the sampled chart, as does a
    chunk's batch.  The batch is a sequence of its points: its len is the
    count, item i is row i, a slice is a view and a chunk of it reports as
    the chunk built from the rows of two single points; a single point has
    no len."""
    ls = _structure(model, 3)
    sample = _sample(ls, 3)
    fields = ("q", "p", "phi", "t", "g0", "h")
    rows = make_point(ls.m, [pt.q for pt in sample.points],
                      [pt.p for pt in sample.points])
    for field in fields:
        assert _same(getattr(sample.points, field), getattr(rows, field))
    chunk = PhaseSample(points=sample.points[2:4], seed=sample.seed)
    assert sample.points.m is rows.m is chunk.points.m is ls.m
    assert _same(chunk.points.q, sample.points.q[2:4])

    assert len(sample.points) == 7
    singles = list(sample.points)
    assert len(singles) == 7
    for i, pt in enumerate(singles):
        item = sample.points[i]
        assert isinstance(item.t, float) and isinstance(pt.t, float)
        assert item.m is pt.m is ls.m
        for field in fields:
            row = getattr(sample.points, field)[i]
            assert _same(getattr(item, field), row), (i, field)
            assert _same(getattr(pt, field), row), (i, field)
    for field in fields:
        assert np.shares_memory(getattr(sample.points[2:4], field),
                                getattr(sample.points, field)), field
    with pytest.raises(TypeError):
        len(sample.points[1])
    two = (sample.points[2], sample.points[3])
    built = PhaseSample(make_point(ls.m, [pt.q for pt in two],
                                   [pt.p for pt in two]), seed=sample.seed)
    for name in CHECK_NAMES:
        assert repr(run_check(name, ls, chunk)) == repr(
            run_check(name, ls, built)), name


def test_a_sample_builds_at_most_two_points(monkeypatch):
    """sample_points builds its points as one batch, once more if an edge
    point is scaled onto t_max, and no point per row, whatever the count."""
    built = []
    frozen = phase._frozen
    monkeypatch.setattr(phase, "_frozen",
                        lambda *args: built.append(args) or frozen(*args))
    for model in MODELS:
        built.clear()
        sample = sample_points(_structure(model, 3).m, 100, seed=7)
        assert len(sample.points) == 100
        assert 1 <= len(built) <= 2, model


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
    for pt, lanes in ((sample.points, sample.stepped),
                      (single, stepped_point(m, single)),
                      (one.points, one.stepped)):
        z = pt.z()
        assert _same_lanes(_p_coordinate(ls, lanes),
                           ad.stepped(P_coordinate_function(ls), z))
        assert _same_lanes(_omega_coordinate(ls, lanes),
                           ad.stepped(Omega_coordinate(ls), z))
        h, dh = ad.split(lanes.h[..., :n, :], 1)
        assert _same(space_form_deviation(m, curvature_of(m, h, dh), pt.phi),
                     space_form_residual(m, pt.q))
    rows = PhaseSample(make_point(m, sample.points.q,
                                  np.zeros_like(sample.points.q)))
    assert run_check("space_form", ls, sample) == replace(
        run_check("space_form", ls, rows), seed=sample.seed)


def test_a_sample_carries_a_read_only_stepped_point():
    """The stepped point of a sample is read-only, on the sample's chart,
    with the step lanes after the batch axis; a sample of no points steps
    to no lanes."""
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
    empty = PhaseSample(make_point(ls.m, np.zeros((0, 3)), np.zeros((0, 3))))
    assert empty.stepped.m is ls.m and empty.stepped.q.shape == (0, 6, 3)


def test_points_and_samples_compare_and_hash_by_identity():
    """Two samples of equal values, their points and their batches compare
    unequal without raising; each equals itself, and all of them hash."""
    ls = _structure("ball+1", 3)
    one, two = _sample(ls, 3), _sample(ls, 3)
    for a, b in ((one, two), (one.points[1], two.points[1]),
                 (one.points, two.points)):
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
    batch = sample.points
    assert _same(P_adapted(ls, batch),
                 _stacked(lambda pt: P_adapted(ls, pt), batch))
    for name in ("almost_product", "integrability"):
        full = run_check(name, ls, sample)
        singles = [run_check(name, ls, PhaseSample(batch[i:i + 1]))
                   for i in range(len(batch))]
        assert _same(full.max_residual, max(r.max_residual for r in singles))


def _message(exc_type, name, ls, points):
    with pytest.raises(exc_type) as info:
        run_check(name, ls, PhaseSample(points))
    return str(info.value)


def test_range_error_names_the_first_point_out_of_range():
    m = conformal_ball(3, 1.0)
    ls = _structure("ball+1", 3)
    base = sample_points(m, 9, seed=11, p_max=1.0).points
    # t scales with |p|^2: points 3 and 7 get t = 3 and t = 5 > t_max = 2
    p = base.p.copy()
    for i, t in ((3, 3.0), (7, 5.0)):
        p[i] *= np.sqrt(t / base[i].t)
    points = make_point(m, base.q, p)
    for name in CHECK_NAMES:
        if name == "space_form":
            continue
        first = _message(RangeError, name, ls, points[3:4])
        assert _message(RangeError, name, ls, points) == first, name
        assert first != _message(RangeError, name, ls, points[7:8])


def test_chart_error_names_the_first_point_off_the_chart():
    ls = _structure("ball+1", 3)
    wide = conformal_ball(3, 1.0, chart_radius=2.0)
    # the unit chart's sample lies within radius 0.8 of the wider chart's
    base = sample_points(conformal_ball(3, 1.0), 9, seed=12, p_max=0.5).points
    q = base.q.copy()
    for i, r in ((3, 1.5), (7, 1.8)):
        q[i] *= r / np.linalg.norm(q[i])
    points = make_point(wide, q, base.p)
    for name in CHECK_NAMES:
        first = _message(ChartDomainError, name, ls, points[3:4])
        assert _message(ChartDomainError, name, ls, points) == first, name
        assert first != _message(ChartDomainError, name, ls, points[7:8])
