"""Dense kernels for the small symmetric and Hermitian matrices used throughout.

One kernel, decide_psd, makes every positive-semidefinite decision: one eigh
call per stack, then each smallest eigenvalue against -tol * s, s the one float
tolerance scale of the state every matrix of the stack was built from or
checked against (covariance._tol_scale).
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


def _check_sign(sign, what: str) -> int:
    """sign as an int; raises InvalidInput unless it is a Python or numpy
    integer (not a bool) equal to +1 or -1, the two commutator-sign branches."""
    if isinstance(sign, bool) or not isinstance(sign, (int, np.integer)) or sign not in (1, -1):
        raise InvalidInput(f"{what} must be +1 or -1")
    return int(sign)


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


def eigh(stack: np.ndarray):
    """np.linalg.eigh, or OutOfDomain where LAPACK does not converge, as on some
    finite matrices with entries near the float maximum."""
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError:
        raise OutOfDomain("eigensolver: eigenvalues did not converge") from None


def decide_psd(stack: np.ndarray, s: float, tol: float):
    """(verdicts, eigenvalues, eigenvectors) of every matrix of a stack (k, n, n)
    from one eigh call: the verdicts as a list of Python bools, the ascending
    eigenvalues as lists of Python floats, one list per matrix, and the
    eigenvector array, whose column 0 of matrix k goes with lam[k][0]. A matrix
    is PSD when its smallest eigenvalue is at least -tol * s, s the finite
    float scale of the state, tol checked."""
    values, vectors = eigh(stack)
    lam = values.tolist()
    return [row[0] >= -tol * s for row in lam], lam, vectors


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
