"""Shared helpers for the test suite."""


def random_symmetric(rng, scale=1.0):
    m = rng.standard_normal((4, 4)) * scale
    return 0.5 * (m + m.T)
