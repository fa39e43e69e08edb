"""Glauber-Sudarshan P-representation utilities for Gaussian states.

Covers the characteristic function, the Gaussian weight over coherent-state
labels when it exists, the moment identity tying the weight covariance to
V - I/2, and a deterministic sampler for Monte-Carlo cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .covariance import _as_vector, _coherent_excess, as_covariance
from .errors import BoundaryPRep, InvalidInput, NotPRepresentable, OutOfDomain
from .matkit import DEFAULT_TOL


def _quadratic_form(m: np.ndarray, x: np.ndarray, name: str) -> float:
    """x^T m x, or OutOfDomain where it overflows, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(x @ m @ x)
    if not math.isfinite(q):
        raise OutOfDomain(f"{name}: the quadratic form overflows")
    return q


def char_fn(v, lam) -> float:
    """Symmetric-ordering characteristic function exp(-lam^T V lam / 2).
    Raises InvalidInput unless lam is a finite 4-vector and v passes
    as_covariance, and OutOfDomain when the quadratic form or the
    exponential overflows."""
    lam = _as_vector(lam, 4, "lam")
    q = _quadratic_form(as_covariance(v), lam, "char_fn")
    with np.errstate(over="ignore"):
        value = float(np.exp(-0.5 * q))
    if value == math.inf:
        raise OutOfDomain("char_fn: the exponential overflows")
    return value


@dataclass(frozen=True, eq=False)
class PWeight:
    """Gaussian weight sqrt(det P)/(4 pi^2) * exp(-z^T P z / 2) on phase space."""

    pmat: np.ndarray
    normalization: float


def p_weight(v, tol: float = DEFAULT_TOL) -> PWeight:
    """Weight matrix P = (V - I/2)^(-1) of the coherent-state mixture.

    Requires V - I/2 positive definite, decided from one eigendecomposition
    with p_rep_ensemble's matrix and scale: a negative eigenvalue is
    NotPRepresentable, and a zero eigenvalue means the weight degenerates to
    a lower-dimensional Gaussian with no phase-space density, BoundaryPRep.
    Raises InvalidInput unless v passes as_covariance and tol passes
    matkit.check_tol, and OutOfDomain when a row sum or the determinant of
    V - I/2 overflows.
    """
    excess, scale = _coherent_excess(as_covariance(v))
    tol = matkit.check_tol(tol)
    if scale == math.inf:  # the kernel refuses the overflow before any eigensolve
        matkit.decide_psd(excess[None], [scale], tol)
    values, vectors = np.linalg.eigh(excess)
    if not matkit.psd_verdict(values[0], tol, scale):
        raise NotPRepresentable("V - I/2 has a negative eigenvalue")
    if values[0] <= tol * scale:
        raise BoundaryPRep("V - I/2 is singular; the weight has no density")
    det = math.prod(values.tolist())  # Python floats overflow to inf without a warning
    if det == math.inf:
        raise OutOfDomain("p_weight: the determinant of V - I/2 overflows")
    pmat = (vectors / values) @ vectors.T
    pmat = 0.5 * (pmat + pmat.T)
    return PWeight(pmat, 1.0 / (4.0 * math.pi**2 * math.sqrt(det)))


def p_density(w: PWeight, z) -> float:
    """Weight density at a phase-space point; integrates to one over R^4.
    Raises InvalidInput unless z is a finite 4-vector, w.pmat passes
    as_covariance and w.normalization is a real number (matkit._check_real),
    and OutOfDomain when the quadratic form or the density overflows."""
    normalization = matkit._check_real(w.normalization, "weight normalization")
    q = _quadratic_form(as_covariance(w.pmat), _as_vector(z, 4, "z"), "p_density")
    try:
        value = normalization * math.exp(-0.5 * q)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise OutOfDomain("p_density: the density overflows")
    return value


def p_moment_residual(v, tol: float = DEFAULT_TOL) -> float:
    """Largest entry of |P^(-1) - (V - I/2)|, the moment-identity defect.

    Zero up to inversion round-off whenever the weight exists: the second
    moments of the weight are exactly the coherent excess of the state.
    Raises as p_weight does.
    """
    v = as_covariance(v)
    w = p_weight(v, tol)
    cov = np.linalg.inv(w.pmat)
    excess = v - 0.5 * np.eye(4)
    return float(np.abs(cov - excess).max())


def p_sample(w: PWeight, n: int, seed) -> np.ndarray:
    """n deterministic draws from the weight; rows are phase-space points.

    Applies the spectral square root of P^(-1) to standard normal variates
    from numpy's seeded PCG64 generator, so equal seeds give equal samples
    and the sample covariance converges to P^(-1). Raises InvalidInput before
    any draw unless n is a positive integer, seed a nonnegative one (bools
    refused) and w.pmat passes as_covariance and is positive definite.
    """
    n, seed = matkit._check_count_and_seed(n, seed, "p_sample")
    values, vectors = np.linalg.eigh(as_covariance(w.pmat))
    if not values[0] > 0.0:
        raise InvalidInput("weight matrix must be positive definite")
    root = (vectors / np.sqrt(values)) @ vectors.T
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 4)) @ root
