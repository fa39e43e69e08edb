"""Two-mode covariance matrices: block structure, local symplectic action,
reduction to the four-parameter standard form, and physicality.

Conventions: quadrature ordering (q1, p1, q2, p2), units chosen so the vacuum
covariance is I/2. First moments are assumed to vanish and are not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import (
    DegenerateBlock,
    InvalidEnsemble,
    InvalidInput,
    InvalidTransform,
    NotPRepresentable,
)
from .matkit import DEFAULT_TOL

#: Single-mode symplectic form.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Block determinant floor below which standard-form reduction refuses.
DET_FLOOR = 1e-12

_PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def symplectic_form(sign: int = 1) -> np.ndarray:
    """Two-mode form diag(J, sign*J); sign=-1 is the partial-transpose branch."""
    out = np.zeros((4, 4))
    out[:2, :2] = J2
    out[2:, 2:] = sign * J2
    return out


def uncertainty_psd(v, sign: int, tol: float) -> tuple[bool, float, np.ndarray]:
    """is_psd_herm of V + (i/2) diag(J, sign*J); sign=-1 tests the partial transpose."""
    return matkit.is_psd_herm(np.asarray(v, dtype=float) + 0.5j * symplectic_form(sign), tol)


def as_matrix4(v) -> np.ndarray:
    """v as a float array; raises InvalidInput unless it is a finite 4x4 matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape != (4, 4) or not np.isfinite(v).all():
        raise InvalidInput("covariance must be a finite 4x4 matrix")
    return v


def as_covariance(v) -> np.ndarray:
    """as_matrix4(v), which must also be symmetric: max |v - v^T| at most
    1e-9 * norm_scale(v). Eigensolvers read one triangle only, so an
    asymmetric matrix would be judged by half of its entries."""
    v = as_matrix4(v)
    # v - v^T is antisymmetric, so its largest entry is max |v - v^T|; the
    # list max is a few microseconds cheaper than an ndarray reduction.
    asym = max((v - v.T).ravel().tolist())
    if asym > 1e-9 and asym > 1e-9 * matkit.norm_scale(v):  # norm_scale >= 1
        raise InvalidInput(f"covariance asymmetry {asym:.3e} exceeds 1e-9 relative")
    return v


def block_a(v) -> np.ndarray:
    return np.asarray(v)[:2, :2]


def block_b(v) -> np.ndarray:
    return np.asarray(v)[2:, 2:]


def block_c(v) -> np.ndarray:
    return np.asarray(v)[:2, 2:]


def from_blocks(a, b, c) -> np.ndarray:
    """Assemble [[A, C], [C^T, B]] from 2x2 blocks."""
    out = np.empty((4, 4))
    out[:2, :2] = a
    out[2:, 2:] = b
    out[:2, 2:] = c
    out[2:, :2] = np.transpose(c)
    return out


def standard_matrix(a: float, b: float, c1: float, c2: float) -> np.ndarray:
    """Standard-form covariance: isotropic diagonal blocks, diagonal correlations."""
    return np.array(
        [
            [a, 0.0, c1, 0.0],
            [0.0, a, 0.0, c2],
            [c1, 0.0, b, 0.0],
            [0.0, c2, 0.0, b],
        ]
    )


def det2(m) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def is_symplectic2(s, tol: float = 1e-12) -> bool:
    """A real 2x2 matrix is symplectic exactly when its determinant is one."""
    s = np.asarray(s, dtype=float)
    if s.shape != (2, 2) or not np.all(np.isfinite(s)):
        return False
    return bool(abs(det2(s) - 1.0) <= tol)


def apply_symp(v, s1, s2) -> np.ndarray:
    """Congruence action of a local (per-mode) symplectic pair.

    Blocks map as A -> S1 A S1^T, B -> S2 B S2^T, C -> S1 C S2^T.
    """
    if not is_symplectic2(s1) or not is_symplectic2(s2):
        raise InvalidTransform("each factor must be a 2x2 symplectic matrix")
    s = np.zeros((4, 4))
    s[:2, :2] = s1
    s[2:, 2:] = s2
    return s @ np.asarray(v, dtype=float) @ s.T


def partial_transpose(v) -> np.ndarray:
    """Momentum sign flip on the second mode, the covariance-level partial
    transpose: B -> S3 B S3 and C -> C S3 with S3 = diag(1, -1)."""
    return _PT_FLIP @ np.asarray(v, dtype=float) @ _PT_FLIP


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Standard-form parameters plus the local symplectic pair reaching them."""

    a: float
    b: float
    c1: float
    c2: float
    s1: np.ndarray
    s2: np.ndarray

    @classmethod
    def from_params(cls, a: float, b: float, c1: float, c2: float) -> "StandardForm":
        return cls(float(a), float(b), float(c1), float(c2), np.eye(2), np.eye(2))

    def matrix(self) -> np.ndarray:
        return standard_matrix(self.a, self.b, self.c1, self.c2)

    @property
    def t(self) -> float:
        """Correlation ratio |c2|/|c1| in [0, 1]; zero for an uncorrelated state."""
        if abs(self.c1) < 1e-300:
            return 0.0
        return min(1.0, abs(self.c2) / abs(self.c1))


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _isotropize(block: np.ndarray, name: str) -> np.ndarray:
    """Symplectic S with S @ block @ S.T == sqrt(det block) * I."""
    det = det2(block)
    if det < DET_FLOOR:
        raise DegenerateBlock(f"{name} block determinant {det:.3e} below {DET_FLOOR:.0e}")
    rot = _rotation(0.5 * math.atan2(2.0 * block[0, 1], block[0, 0] - block[1, 1]))
    diag = rot @ block @ rot.T
    a1, a2 = float(diag[0, 0]), float(diag[1, 1])
    if a1 <= 0.0 or a2 <= 0.0:
        raise DegenerateBlock(f"{name} block is not positive definite")
    x = (a2 / a1) ** 0.25
    return np.diag([x, 1.0 / x]) @ rot


def to_standard_form(v) -> StandardForm:
    """Reduce a covariance matrix to standard form by local symplectics.

    Each diagonal block is rotated diagonal and rescaled isotropic, then the
    correlation block is diagonalized by a proper rotation pair. The recorded
    transforms satisfy apply_symp(v, s1, s2) == standard matrix; the block
    determinants give a = sqrt(det A), b = sqrt(det B) and c1 * c2 = det C.
    """
    v = as_covariance(v)
    s1 = _isotropize(block_a(v), "A")
    s2 = _isotropize(block_b(v), "B")
    r1, r2, c1, c2 = matkit.svd2_rotations(s1 @ block_c(v) @ s2.T)
    a = math.sqrt(float(np.linalg.det(block_a(v))))
    b = math.sqrt(float(np.linalg.det(block_b(v))))
    return StandardForm(a, b, c1, c2, r1 @ s1, r2 @ s2)


def is_physical(v, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Uncertainty-relation test: V + (i/2) diag(J, J) must be PSD.

    Returns (verdict, smallest eigenvalue); pure states sit at zero. Raises
    InvalidInput unless v passes as_covariance.
    """
    return uncertainty_psd(as_covariance(v), 1, tol)[:2]


def ensemble_matrix(weights, deviations) -> np.ndarray:
    """Second-moment matrix sum_k P_k m_k m_k^T of per-component mean deviations.

    PSD by construction; weights must be nonnegative and sum to one.
    """
    w = np.asarray(weights, dtype=float)
    m = np.asarray(deviations, dtype=float)
    if w.ndim != 1 or m.shape != (w.size, 4):
        raise InvalidEnsemble("expected weights (k,) and deviations (k, 4)")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m))):
        raise InvalidEnsemble("ensemble entries must be finite")
    if np.any(w < 0.0):
        raise InvalidEnsemble("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise InvalidEnsemble("weights must sum to one")
    out = (w[:, None] * m).T @ m
    return 0.5 * (out + out.T)


def p_rep_ensemble(v, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ensemble matrix of the coherent-state decomposition, V - I/2.

    Defined whenever V - I/2 is PSD, i.e. whenever the state is
    P-representable without further squeezing.
    """
    excess = np.asarray(v, dtype=float) - 0.5 * np.eye(4)
    if not matkit.is_psd_sym(excess, tol):
        raise NotPRepresentable("V - I/2 has a negative eigenvalue")
    return excess
