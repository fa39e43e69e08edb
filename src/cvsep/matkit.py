"""Dense kernels for the small symmetric and Hermitian matrices used throughout.

One kernel, decide_psd, makes every positive-semidefinite decision: one eigh
call per stack, then psd_verdict, the smallest eigenvalue against -tol times
the matrix's norm_scale, which its caller passes as a float. The criteria
read it off V's entries (covariance module); is_psd_herm, the front end for
any array, computes it.
The 2x2 rotation SVD and every 2x2 product of a local symplectic are
closed-form, on Python floats, so their bits do not depend on the BLAS kernel;
clear conventions matter more than speed.
"""

from __future__ import annotations

import math
import numbers

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
    return np.maximum(1.0, np.abs(m).sum(axis=-1).max(axis=-1))


def psd_verdict(lam, tol: float, scale):
    """Whether a matrix with smallest eigenvalue lam and norm_scale scale is PSD
    within tol: lam >= -tol * scale."""
    return lam >= -tol * scale


def decide_psd(stack: np.ndarray, scales: list, tol: float):
    """(verdicts, smallest eigenvalues, their eigenvectors) of every matrix of a
    stack (k, n, n) in one eigh call, the first two as lists of Python bools and
    floats, given each matrix's norm_scale as a float and a checked tol. A scale
    of inf means the stack, built from finite input, overflowed: OutOfDomain
    then names a non-finite entry, else a row sum, before any eigensolve."""
    if math.inf in scales:
        if not np.isfinite(stack).all():
            raise OutOfDomain("an entry computed from finite input overflows "
                              "(PSD test needs finite entries)")
        raise OutOfDomain("PSD test: a row sum of the matrix overflows")
    values, vectors = np.linalg.eigh(stack)
    lam = values[:, 0].tolist()
    return [psd_verdict(x, tol, s) for x, s in zip(lam, scales)], lam, vectors[..., 0]


def is_psd_herm(h, tol: float = DEFAULT_TOL):
    """decide_psd of a Hermitian or real symmetric matrix, or of a stack
    (..., n, n) with arrays of its shape: (verdict, smallest eigenvalue, its
    eigenvector), against tol times the matrix's own norm_scale. Raises
    InvalidInput on a non-finite entry and OutOfDomain on an overflowing row sum."""
    tol = check_tol(tol)
    h = np.asarray(h)
    if not np.isfinite(h).all():
        raise InvalidInput("PSD test needs finite entries")
    with np.errstate(over="ignore"):  # a row sum past the float maximum is inf
        scales = norm_scale(h)
    n = h.shape[-1]
    ok, lam, vec = decide_psd(h.reshape(-1, n, n), scales.ravel().tolist(), tol)
    if h.ndim == 2:
        return ok[0], lam[0], vec[0]
    shape = h.shape[:-2]
    return np.array(ok).reshape(shape), np.array(lam).reshape(shape), vec.reshape(*shape, n)


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
