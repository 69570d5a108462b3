"""Test reference: the dense metric matrix g = phi I of a chart model."""

import numpy as np

from paralift.spaceform import conformal_factor


def metric_at(m, x):
    """Metric components g_ij(x), a symmetric positive definite matrix."""
    return conformal_factor(m, x)[..., None, None] * np.eye(m.n)
