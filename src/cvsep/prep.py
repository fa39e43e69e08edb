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
from .covariance import as_covariance, p_rep_ensemble
from .errors import BoundaryPRep, InvalidInput, OutOfDomain
from .matkit import DEFAULT_TOL


def char_fn(v, lam) -> float:
    """Symmetric-ordering characteristic function exp(-lam^T V lam / 2).
    Raises InvalidInput unless v passes as_covariance."""
    lam = np.asarray(lam, dtype=float)
    return float(np.exp(-0.5 * float(lam @ as_covariance(v) @ lam)))


@dataclass(frozen=True, eq=False)
class PWeight:
    """Gaussian weight sqrt(det P)/(4 pi^2) * exp(-z^T P z / 2) on phase space."""

    pmat: np.ndarray
    normalization: float


def p_weight(v, tol: float = DEFAULT_TOL) -> PWeight:
    """Weight matrix P = (V - I/2)^(-1) of the coherent-state mixture.

    Requires V - I/2 positive definite. A negative eigenvalue is reported as
    p_rep_ensemble reports it, NotPRepresentable; a zero eigenvalue means the
    weight degenerates to a lower-dimensional Gaussian with no phase-space
    density, reported as BoundaryPRep. Raises InvalidInput unless v passes
    as_covariance and tol passes matkit.check_tol, and OutOfDomain when a row
    sum or the determinant of V - I/2 overflows.
    """
    excess = p_rep_ensemble(v, tol)
    values, vectors = np.linalg.eigh(excess)
    if values[0] <= tol * matkit.norm_scale(excess):
        raise BoundaryPRep("V - I/2 is singular; the weight has no density")
    det = math.prod(values.tolist())  # Python floats overflow to inf without a warning
    if det == math.inf:
        raise OutOfDomain("p_weight: the determinant of V - I/2 overflows")
    pmat = (vectors / values) @ vectors.T
    pmat = 0.5 * (pmat + pmat.T)
    return PWeight(pmat, 1.0 / (4.0 * math.pi**2 * math.sqrt(det)))


def p_density(w: PWeight, z) -> float:
    """Weight density at a phase-space point; integrates to one over R^4."""
    z = np.asarray(z, dtype=float)
    return float(w.normalization * math.exp(-0.5 * float(z @ w.pmat @ z)))


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
    and the sample covariance converges to P^(-1). Raises InvalidInput unless
    n is positive and w.pmat passes as_covariance and is positive definite.
    """
    if n < 1:
        raise InvalidInput("need at least one sample")
    values, vectors = np.linalg.eigh(as_covariance(w.pmat))
    if not values[0] > 0.0:
        raise InvalidInput("weight matrix must be positive definite")
    root = (vectors / np.sqrt(values)) @ vectors.T
    rng = np.random.default_rng(seed)
    return rng.standard_normal((int(n), 4)) @ root
