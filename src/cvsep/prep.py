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
from .covariance import as_covariance
from .errors import BoundaryPRep, InvalidInput, NotPRepresentable
from .matkit import DEFAULT_TOL


def char_fn(v, lam) -> float:
    """Symmetric-ordering characteristic function exp(-lam^T V lam / 2)."""
    lam = np.asarray(lam, dtype=float)
    return float(np.exp(-0.5 * float(lam @ np.asarray(v, dtype=float) @ lam)))


@dataclass(frozen=True, eq=False)
class PWeight:
    """Gaussian weight sqrt(det P)/(4 pi^2) * exp(-z^T P z / 2) on phase space."""

    pmat: np.ndarray
    normalization: float


def p_weight(v, tol: float = DEFAULT_TOL) -> PWeight:
    """Weight matrix P = (V - I/2)^(-1) of the coherent-state mixture.

    Requires V - I/2 positive definite. A zero eigenvalue means the weight
    degenerates to a lower-dimensional Gaussian with no phase-space density,
    reported as BoundaryPRep; a negative eigenvalue as NotPRepresentable.
    Raises InvalidInput unless v passes as_covariance and tol passes
    matkit.check_tol.
    """
    tol = matkit.check_tol(tol)
    excess = as_covariance(v) - 0.5 * np.eye(4)
    res = matkit.eig_sym(excess)
    scale = matkit.norm_scale(excess)
    if res.values[0] < -tol * scale:
        raise NotPRepresentable("V - I/2 has a negative eigenvalue")
    if res.values[0] <= tol * scale:
        raise BoundaryPRep("V - I/2 is singular; the weight has no density")
    pmat = (res.vectors / res.values) @ res.vectors.T
    pmat = 0.5 * (pmat + pmat.T)
    normalization = 1.0 / (4.0 * math.pi**2 * math.sqrt(float(np.prod(res.values))))
    return PWeight(pmat, float(normalization))


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
    and the sample covariance converges to P^(-1).
    """
    if n < 1:
        raise InvalidInput("need at least one sample")
    res = matkit.eig_sym(w.pmat)
    root = (res.vectors / np.sqrt(res.values)) @ res.vectors.T
    rng = np.random.default_rng(seed)
    return rng.standard_normal((int(n), 4)) @ root
