"""Dense kernels for the small symmetric and Hermitian matrices used throughout.

The eigen kernels are thin, tolerance-aware wrappers around LAPACK via numpy
and the 2x2 rotation SVD is closed-form; clear conventions matter more than speed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput

#: Default relative tolerance for positive-semidefiniteness decisions.
DEFAULT_TOL = 1e-10


class EigenResult(NamedTuple):
    """Spectral decomposition, eigenvalues ascending, eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def norm_scale(m: np.ndarray) -> float:
    """Tolerance scale max(1, max absolute row sum)."""
    return max(1.0, float(np.abs(m).sum(axis=1).max()))


def eig_sym(m) -> EigenResult:
    """Spectral decomposition of a real symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidInput("symmetric eigendecomposition needs finite entries")
    values, vectors = np.linalg.eigh(m)
    return EigenResult(values, vectors)


def is_psd_sym(m, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness of a real symmetric matrix within tolerance."""
    m = np.asarray(m, dtype=float)
    w = np.linalg.eigvalsh(m)
    return bool(w[0] >= -tol * norm_scale(m))


def is_psd_herm(h, tol: float = DEFAULT_TOL) -> tuple[bool, float, np.ndarray]:
    """PSD verdict for a Hermitian matrix.

    Returns (verdict, smallest eigenvalue, eigenvector of that eigenvalue);
    the eigenvector is what criterion reports hand out as a witness.
    """
    h = np.asarray(h, dtype=complex)
    values, vectors = np.linalg.eigh(h)
    ok = bool(values[0] >= -tol * norm_scale(h))
    return ok, float(values[0]), vectors[:, 0]


def real_embedding(h) -> np.ndarray:
    """Real symmetric embedding [[X, -Y], [Y, X]] of a Hermitian X + iY.

    Its spectrum is the Hermitian spectrum with every eigenvalue doubled,
    which the test suite uses as an independent cross-check of is_psd_herm.
    """
    h = np.asarray(h, dtype=complex)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def rotation(theta: float) -> np.ndarray:
    """Proper rotation [[cos, sin], [-sin, cos]] of angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def svd2_rotations(c) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Diagonalize a real 2x2 matrix with proper rotations, in closed form.

    Returns (r1, r2, c1, c2) such that r1 @ c @ r2.T == diag(c1, c2), both
    rotation factors have determinant +1, c1 >= 0, |c2| <= c1, and
    sign(c1 * c2) == sign(det c).

    With c = [[e + f, g - h], [g + h, e - f]] they take (e, h) to q * I and (f, g)
    to r * diag(1, -1), q = |(e, h)| and r = |(f, g)|, so c1 = q + r, c2 = q - r.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (2, 2) or not np.all(np.isfinite(c)):
        raise InvalidInput("rotation SVD needs a finite 2x2 matrix")
    (c00, c01), (c10, c11) = c.tolist()
    e, h = 0.5 * (c00 + c11), 0.5 * (c10 - c01)
    f, g = 0.5 * (c00 - c11), 0.5 * (c10 + c01)
    q, r = math.hypot(e, h), math.hypot(f, g)
    alpha, beta = math.atan2(g, f), math.atan2(h, e)
    return rotation(0.5 * (beta + alpha)), rotation(0.5 * (alpha - beta)), q + r, q - r
