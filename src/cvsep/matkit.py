"""Dense kernels for the small symmetric and Hermitian matrices used throughout.

One rule, psd_verdict, makes every positive-semidefinite decision: the
smallest eigenvalue against -tol times the matrix's norm_scale. is_psd_herm
applies it around one LAPACK eigh call that takes a whole stack, for any
matrix; classify and the Simon and Duan criteria apply it to their own stacks,
whose scales they read off V's entries as floats (criteria module).
The 2x2 rotation SVD and every 2x2 product of a local symplectic are
closed-form, on Python floats, so their bits do not depend on the BLAS kernel;
clear conventions matter more than speed.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import InvalidInput, OutOfDomain

#: Default relative tolerance for positive-semidefiniteness decisions.
DEFAULT_TOL = 1e-10


def _is_real(x) -> bool:
    """Whether x is a real number: a float (the common case, before the ABC
    check) or any other numbers.Real, such as an int, a numpy float or int or
    a Fraction, but not a bool."""
    return isinstance(x, float) or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _check_real(x, what: str) -> float:
    """x as the float every route computes on; raises InvalidInput unless x is
    a real number (_is_real). An exact float returns as is. An integer or
    Fraction past the float range reads as +-inf, as the CLI reads JSON, so
    the caller's own finiteness check refuses it."""
    if type(x) is float:
        return x
    if not _is_real(x):
        raise InvalidInput(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def check_tol(tol) -> float:
    """tol as the float _check_real reads; raises InvalidInput, with one message
    for every refusal, unless that float is in (0, 1): a Fraction just below 1
    or past the float's smallest subnormal rounds to 1.0 or 0.0 and is refused."""
    try:
        x = _check_real(tol, "tol")
    except InvalidInput:
        x = math.nan
    if not 0.0 < x < 1.0:  # nan and inf fail too
        raise InvalidInput(f"tol must be a finite number in (0, 1), got {tol!r}")
    return x


def _check_int(k, what: str) -> int:
    """k as an int; raises InvalidInput unless it is a Python or numpy integer, not a bool."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidInput(f"{what} must be an integer, got {k!r}")
    return int(k)


def _check_seed(seed, caller: str) -> int:
    """seed as an int; raises InvalidInput, naming the caller, unless it is a
    Python or numpy integer (not a bool) >= 0, so every draw is reproducible."""
    seed = _check_int(seed, f"{caller} seed")
    if seed < 0:
        raise InvalidInput(f"{caller} seed {seed} must be nonnegative")
    return seed


def _check_count_and_seed(n, seed, caller: str) -> tuple[int, int]:
    """(n, seed) as ints; raises InvalidInput, naming the caller, unless n is
    a Python or numpy integer (not a bool) >= 1 and seed passes _check_seed."""
    n = _check_int(n, f"{caller} samples")
    if n < 1:
        raise InvalidInput(f"{caller} needs at least one sample")
    return n, _check_seed(seed, caller)


def norm_scale(m: np.ndarray):
    """Tolerance scale max(1, max absolute row sum), per matrix of a stack (..., n, n)."""
    return _row_scale(np.abs(m))


def _row_scale(magnitudes: np.ndarray):
    """norm_scale of a matrix or stack, given its entrywise magnitudes."""
    return np.maximum(1.0, magnitudes.sum(axis=-1).max(axis=-1))


def psd_verdict(lam, tol: float, scale):
    """Whether a matrix with smallest eigenvalue lam and norm_scale scale is PSD
    within tol: lam >= -tol * scale, on Python floats or elementwise on arrays."""
    return lam >= -tol * scale


def is_psd_herm(h, tol: float = DEFAULT_TOL):
    """PSD verdict of a Hermitian or real symmetric matrix, or of each matrix
    of a stack (..., n, n) in one LAPACK call, bit for bit as one call each:
    (verdict, smallest eigenvalue, its eigenvector, which reports hand out as
    a witness), each against tol times the matrix's own norm_scale. Raises
    InvalidInput on a non-finite entry and OutOfDomain on an overflowing row sum."""
    tol = check_tol(tol)
    h = np.asarray(h)
    # One |h| pass serves the guard and the scale. n entries of at most
    # max / n cannot sum past the float maximum, so only larger (or
    # non-finite) entries need their row sums checked.
    magnitudes = np.abs(h)
    top = magnitudes.max()
    if not top <= sys.float_info.max / h.shape[-1]:
        if not top < math.inf:  # nan fails both comparisons
            raise InvalidInput("PSD test needs finite entries")
        with np.errstate(over="ignore"):
            if _row_scale(magnitudes).max() == math.inf:
                raise OutOfDomain("PSD test: a row sum of the matrix overflows")
    values, vectors = np.linalg.eigh(h)
    ok = psd_verdict(values[..., 0], tol, _row_scale(magnitudes))
    if h.ndim == 2:
        return bool(ok), float(values[0]), vectors[:, 0]
    return ok, values[..., 0], vectors[..., 0]


def real_embedding(h) -> np.ndarray:
    """Real symmetric embedding [[X, -Y], [Y, X]] of a Hermitian X + iY.

    Its spectrum is the Hermitian spectrum with every eigenvalue doubled,
    which the test suite uses to cross-check is_psd_herm, stacked or not.
    """
    h = np.asarray(h, dtype=complex)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _rotation_rows(theta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Proper rotation [[cos, sin], [-sin, cos]] of angle theta, as rows of Python floats."""
    c, s = math.cos(theta), math.sin(theta)
    return (c, s), (-s, c)


def _mul2(p, q):
    """Product p @ q of 2x2 matrices given as rows of Python floats. Each entry
    is p_i0 * q_0j + p_i1 * q_1j with every operation rounded on its own, where
    a BLAS kernel may fuse one product into the sum and change the last bit."""
    (p00, p01), (p10, p11) = p
    (q00, q01), (q10, q11) = q
    return ((p00 * q00 + p01 * q10, p00 * q01 + p01 * q11),
            (p10 * q00 + p11 * q10, p10 * q01 + p11 * q11))


def svd2_rotations(c) -> tuple[tuple, tuple, float, float]:
    """Diagonalize a real 2x2 matrix with proper rotations, in closed form.

    c is given as its two rows of Python floats, ((c00, c01), (c10, c11)), and
    the rotations come back as rows too, so the whole reduction is scalar
    arithmetic: no numpy array, and the same bits on any BLAS.

    Returns (r1, r2, c1, c2) such that r1 @ c @ r2.T == diag(c1, c2), both
    rotation factors have determinant +1, c1 >= 0, |c2| <= c1, and
    sign(c1 * c2) == sign(det c).

    With c = [[e + f, g - h], [g + h, e - f]] they take (e, h) to q * I and (f, g)
    to r * diag(1, -1), q = |(e, h)| and r = |(f, g)|, so c1 = q + r, c2 = q - r.
    """
    (c00, c01), (c10, c11) = c
    if not (math.isfinite(c00) and math.isfinite(c01) and math.isfinite(c10)
            and math.isfinite(c11)):
        raise InvalidInput("rotation SVD needs a finite 2x2 matrix")
    e, h = 0.5 * (c00 + c11), 0.5 * (c10 - c01)
    f, g = 0.5 * (c00 - c11), 0.5 * (c10 + c01)
    q, r = math.hypot(e, h), math.hypot(f, g)
    alpha, beta = math.atan2(g, f), math.atan2(h, e)
    return (_rotation_rows(0.5 * (beta + alpha)), _rotation_rows(0.5 * (alpha - beta)),
            q + r, q - r)
