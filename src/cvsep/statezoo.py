"""Deterministic and seeded covariance-matrix generators for tests and audits;
their products run on Python floats, so every state is exactly symmetric and
has the same bits on any BLAS kernel. A seed is a numpy Generator, used as is,
or a nonnegative integer; anything else raises InvalidInput before any draw."""

from __future__ import annotations

import math

import numpy as np

from .covariance import apply_symp, is_physical, standard_matrix
from .errors import InvalidSpec
from .matkit import _check_real, _check_seed, _mul2, _rotation_rows


def _as_rng(seed, caller: str) -> np.random.Generator:
    """seed itself if it is a Generator, else numpy's seeded PCG64 generator of
    a seed that passes matkit._check_seed (InvalidInput before any draw)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_check_seed(seed, caller))


def vacuum() -> np.ndarray:
    return 0.5 * np.eye(4)


def thermal(n1: float, n2: float) -> np.ndarray:
    """Uncorrelated thermal state diag(n1, n1, n2, n2); needs finite n1, n2 >= 1/2."""
    n1 = _check_real(n1, "thermal occupation n1")
    n2 = _check_real(n2, "thermal occupation n2")
    if not (0.5 <= n1 < math.inf and 0.5 <= n2 < math.inf):
        raise InvalidSpec(f"thermal occupations ({n1}, {n2}) must be finite and >= 1/2")
    return standard_matrix(n1, n2, 0.0, 0.0)


def two_mode_squeezed(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum: standard form with a = b = cosh(2r)/2 and
    c1 = -c2 = sinh(2r)/2; entangled for every r > 0."""
    r = _check_real(r, "squeezing r")
    if not (math.isfinite(r) and r >= 0.0):
        raise InvalidSpec(f"squeezing r = {r} must be nonnegative")
    try:
        a, c = 0.5 * math.cosh(2.0 * r), 0.5 * math.sinh(2.0 * r)
    except OverflowError:
        raise InvalidSpec(f"squeezing r = {r} overflows cosh(2r)") from None
    return standard_matrix(a, a, c, -c)


def random_symp2(seed) -> np.ndarray:
    """Random 2x2 symplectic: rotation * diag(x, 1/x) * rotation with
    log x uniform in [-1, 1], so conditioning stays bounded."""
    rng = _as_rng(seed, "random_symp2")
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    x = math.exp(rng.uniform(-1.0, 1.0))
    y = 1.0 / x
    (r00, r01), (r10, r11) = _rotation_rows(t2)
    return np.array(_mul2(((r00 * x, r01 * y), (r10 * x, r11 * y)), _rotation_rows(t1)))


def random_physical(seed) -> np.ndarray:
    """Random thermal core conjugated by a random local symplectic pair.

    Physical by construction (Williamson-style), but uncorrelated between the
    modes since local transforms cannot create cross-mode terms; see
    random_correlated_physical for states with nonzero correlations.
    """
    rng = _as_rng(seed, "random_physical")
    n1, n2 = rng.uniform(0.5, 3.0, size=2)
    return apply_symp(thermal(n1, n2), random_symp2(rng), random_symp2(rng))


def random_separable(seed) -> np.ndarray:
    """Random P-representable state: a random PSD ensemble matrix plus I/2.

    The small ridge keeps the coherent excess invertible at bounded
    conditioning, so weight-matrix round trips stay near machine precision.
    """
    rng = _as_rng(seed, "random_separable")
    g = (0.5 * rng.standard_normal((4, 4))).tolist()
    # g g^T with each dot product written out left to right: builtin sum
    # compensates its rounding from Python 3.12 on, which would tie the bits
    # to the interpreter.
    v = [[p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3 for q0, q1, q2, q3 in g]
         for p0, p1, p2, p3 in g]
    for i in range(4):
        v[i][i] = v[i][i] + 0.05 + 0.5
    return np.array(v)


def random_correlated_physical(seed) -> np.ndarray:
    """Rejection-sampled physical standard form with nonzero correlations,
    optionally conjugated by a random local pair. Yields a mix of separable
    and entangled states."""
    rng = _as_rng(seed, "random_correlated_physical")
    while True:
        a, b = rng.uniform(0.5, 2.5, size=2)
        c1 = rng.uniform(0.0, math.sqrt(a * b))
        c2 = rng.uniform(-c1, c1)
        v = standard_matrix(a, b, c1, c2)
        if is_physical(v)[0]:
            break
    if rng.uniform() < 0.5:
        v = apply_symp(v, random_symp2(rng), random_symp2(rng))
    return v


def mixed_physical_state(rng: np.random.Generator, index: int) -> np.ndarray:
    """Audit pool state number index; index % 4 picks the kind, in the order below."""
    rng = _as_rng(rng, "mixed_physical_state")
    kind = index % 4
    if kind < 3:
        return (random_physical, random_separable, random_correlated_physical)[kind](rng)
    v = two_mode_squeezed(rng.uniform(0.0, 1.5))
    return apply_symp(v, random_symp2(rng), random_symp2(rng))
