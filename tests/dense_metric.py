"""Test reference: the conformal factor phi and the dense metric matrix
g = phi I of a chart."""

import numpy as np

from paralift.spaceform import conformal_fields


def phi_at(m, x):
    """The conformal factor phi at the chart points ``x``."""
    return conformal_fields(m, x)[0]


def metric_at(m, x):
    """Metric components g_ij(x), a symmetric positive definite matrix."""
    return phi_at(m, x)[..., None, None] * np.eye(m.n)
