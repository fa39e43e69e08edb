"""Shared helpers for the test suite."""

import math

import numpy as np

from cvsep.errors import OutOfDomain
from cvsep.matkit import DEFAULT_TOL


def random_symmetric(rng, scale=1.0):
    m = rng.standard_normal((4, 4)) * scale
    return 0.5 * (m + m.T)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def squeezed_symp(rng, log_x):
    """rotation * diag(x, 1/x) * rotation with random angles and x = e^log_x."""
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    x = math.exp(log_x)
    return rotation(t2) @ np.diag([x, 1.0 / x]) @ rotation(t1)


def no_convergence_matrix():
    """A finite symmetric matrix on which LAPACK's complex eigensolver does not
    converge, though its row sums (about 3.3e307) leave twice the tolerance
    scale finite."""
    v = np.zeros((4, 4))
    upper = np.triu_indices(4)
    v[upper] = v[upper[::-1]] = [
        3.531052247431522e+147, 4.59094590607e-313, 3.6180374199664287e-302,
        3.26846237301507e+307, -13278197246880.162, -1.7589505144612436e+76,
        -3.400233019282137e+122, -1.2611147823975482e+159, -7433491082.644778,
        513.9730398628325,
    ]
    return v


def row_sum_scale(m):
    """max(1, largest absolute row sum) of m, per matrix of a stack (..., n, n),
    from numpy's own sums: the reference for covariance._tol_scale."""
    return np.maximum(1.0, np.abs(m).sum(axis=-1).max(axis=-1))


def reference_psd(m, bound):
    """(smallest eigenvalue >= bound, that eigenvalue, its eigenvector) of one
    matrix from np.linalg.eigh alone, or the refusal of a solve that does not
    converge."""
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        raise OutOfDomain("did not converge") from None
    return bool(values[0] >= bound), float(values[0]), vectors[:, 0]


def is_psd(m, tol=DEFAULT_TOL):
    """Whether the smallest eigenvalue of m is at least -tol times its own
    row_sum_scale (reference_psd)."""
    return reference_psd(m, -tol * float(row_sum_scale(m)))[0]


def real_embedding(h):
    """Real symmetric embedding [[X, -Y], [Y, X]] of a Hermitian X + iY, whose
    spectrum is the Hermitian spectrum with every eigenvalue doubled."""
    h = np.asarray(h, dtype=complex)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def epr_matrix(rows, sign):
    """The EPR block matrix [[A + JAJ^T, C + sign*JCJ^T], [.., B + JBJ^T]] of
    a symmetric 4x4 matrix given as rows, from its definition: the quadratic
    form of V at (d, f) plus that at (J^T d, sign * J^T f) is the form of this
    matrix at (d, f). Written out entry by entry from J X J^T = [[x11, -x10],
    [-x01, x00]] as nested lists, with every sum and difference done once."""
    (a00, _, c00, c01), (_, a11, c10, c11), (*_, b00, _), (*_, b11) = rows
    ta, tb = a00 + a11, b00 + b11
    return [
        [ta, 0.0, c00 + sign * c11, c01 - sign * c10],
        [0.0, ta, c10 - sign * c01, c11 + sign * c00],
        [c00 + sign * c11, c10 - sign * c01, tb, 0.0],
        [c01 - sign * c10, c11 + sign * c00, 0.0, tb],
    ]


def epr_margin_bound(lam, m):
    """How far a computed smallest eigenvalue lam of the EPR matrix m may lie
    from np.linalg.eigvalsh's: 1e-12 relative to max(1, |lam|), plus 1e-14
    (about 45 eps) of the row-sum norm of m for eigvalsh's own error, which
    reaches a few eps of that norm and dominates once it exceeds |lam|
    by a factor of about 100."""
    return 1e-12 * max(1.0, abs(lam)) + 1e-14 * float(row_sum_scale(np.asarray(m)))
