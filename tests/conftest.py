"""Shared helpers for the test suite."""

import math

import numpy as np


def random_symmetric(rng, scale=1.0):
    m = rng.standard_normal((4, 4)) * scale
    return 0.5 * (m + m.T)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def squeezed_symp(rng, log_x):
    """rotation * diag(x, 1/x) * rotation with random angles and x = e^log_x."""
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    x = math.exp(log_x)
    return rotation(t2) @ np.diag([x, 1.0 / x]) @ rotation(t1)
