"""Test helper: random base points inside a chart's sampling ball."""

import numpy as np


def random_chart_points(rng, m, count, radius=0.8):
    """Base points uniform-ish inside the sampling ball."""
    pts = []
    for _ in range(count):
        v = rng.standard_normal(m.n)
        v *= radius * m.chart_radius * rng.random() ** (1.0 / m.n) / np.linalg.norm(v)
        pts.append(v)
    return pts
