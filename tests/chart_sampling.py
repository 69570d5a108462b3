"""Test helpers: random base points inside a chart's sampling ball, and the
rejection sampler that ``sample_points`` replaced, as its oracle."""

import numpy as np

from paralift.phase import make_point
from paralift.verify import CHART_FRACTION


def random_chart_points(rng, m, count, radius=0.8):
    """Base points uniform-ish inside the sampling ball."""
    pts = []
    for _ in range(count):
        v = rng.standard_normal(m.n)
        v *= radius * m.chart_radius * rng.random() ** (1.0 / m.n) / np.linalg.norm(v)
        pts.append(v)
    return pts


def rejection_sample(m, count, seed, p_max=2.0, t_max=2.0):
    """q and p arrays of the former sampler: q uniform in the sampling ball,
    p in |p| <= p_max (0 for the first point), each draw with t > t_max
    redrawn.  Where sqrt(2 phi t_max) >= p_max on the ball it refuses none,
    and ``sample_points`` draws the same points bitwise."""
    rng = np.random.default_rng(seed)

    def ball(radius):
        v = rng.standard_normal(m.n)
        r = radius * rng.random() ** (1.0 / m.n)
        return (r / float(np.linalg.norm(v))) * v

    qs, ps = [], []
    while len(qs) < count:
        q = ball(CHART_FRACTION * m.chart_radius)
        p = ball(p_max) if qs else np.zeros(m.n)
        if make_point(m, q, p).t <= t_max:
            qs.append(q)
            ps.append(p)
    return np.array(qs), np.array(ps)
