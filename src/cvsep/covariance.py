"""Two-mode covariance matrices: block structure, local symplectic action,
reduction to the four-parameter standard form, and physicality; and the
matrices the PSD tests decide, with their norm_scales read off as floats.

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
    OutOfDomain,
)
from .matkit import DEFAULT_TOL, _check_real, _mul2

#: Single-mode symplectic form.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Block determinant floor below which standard-form reduction refuses.
DET_FLOOR = 1e-12

#: Tolerance of is_symplectic2 on det S - 1, relative to the two products of det.
SYMPLECTIC_TOL = 1e-12

_PT_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


def symplectic_form(sign: int = 1) -> np.ndarray:
    """Two-mode form diag(J, sign*J); sign=-1 is the partial-transpose branch."""
    out = np.zeros((4, 4))
    out[:2, :2] = J2
    out[2:, 2:] = sign * J2
    return out


#: (i/2) diag(J, sign*J) stacked for sign = +1, then -1 (the partial transpose).
_UNCERTAINTY_SHIFT = 0.5j * np.stack([symplectic_form(1), symplectic_form(-1)])


def _uncertainty_pair(v: np.ndarray) -> tuple[np.ndarray, list]:
    """V + (i/2) diag(J, sigma*J), sigma = +1 then -1, as one (2, 4, 4) stack,
    and the norm_scale of each, its rows of magnitudes summed left to right as
    numpy sums them. The two are one float: the matrices differ only in the
    signs of two imaginary parts, which numpy's complex abs does not see.
    An entry of V - ens may have overflowed; its magnitude is inf."""
    pair = v + _UNCERTAINTY_SHIFT
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = (
        np.abs(pair[0]).tolist())
    scale = max(1.0, a0 + a1 + a2 + a3, b0 + b1 + b2 + b3, c0 + c1 + c2 + c3, d0 + d1 + d2 + d3)
    return pair, [scale, scale]


def _epr_entries(rows: list, shift: float) -> list:
    """The distinct entries of EPR(+1) - shift * I and EPR(-1) - shift * I of a
    symmetric 4x4 matrix given as rows, each computed once: 0.0, tr A - shift,
    tr B - shift, then c00 + c11, c01 - c10, c10 - c01 (sigma = +1) and
    c00 - c11, c11 - c00, c01 + c10 (sigma = -1). _REAL_INDEX[k] places them as
    EPR(sigma) - shift * I, sigma = 1 - 2k, where EPR(sigma) = [[A + JAJ^T,
    C + sigma*JCJ^T], [.., B + JBJ^T]] is written out from J X J^T =
    [[x11, -x10], [-x01, x00]]; on a symmetric block X + JXJ^T is tr(X) * I.
    Python floats overflow to inf without a warning."""
    (a00, _, c00, c01), (_, a11, c10, c11), (*_, b00, _), (*_, b11) = rows
    return [0.0, a00 + a11 - shift, b00 + b11 - shift, c00 + c11, c01 - c10, c10 - c01,
            c00 - c11, c11 - c00, c01 + c10]


#: Positions in [*_epr_entries(rows, 1.0), V - I/2 row by row] of the entries
#: of the real stack [EPR(+1) - I, EPR(-1) - I, V - I/2]: Duan's two branches,
#: sigma = +1 then -1, and the coherent excess.
_REAL_INDEX = np.array([
    [[1, 0, 3, 4], [0, 1, 5, 3], [3, 5, 2, 0], [4, 3, 0, 2]],
    [[1, 0, 6, 8], [0, 1, 8, 7], [6, 8, 2, 0], [8, 7, 0, 2]],
    np.arange(9, 25).reshape(4, 4),
])


def _real_entries(rows: list) -> list:
    """The entries _REAL_INDEX gathers, of a symmetric 4x4 matrix given as rows."""
    (v00, v01, v02, v03), (v10, v11, v12, v13), (v20, v21, v22, v23), (v30, v31, v32, v33) = rows
    return _epr_entries(rows, 1.0) + [
        v00 - 0.5, v01, v02, v03, v10, v11 - 0.5, v12, v13,
        v20, v21, v22 - 0.5, v23, v30, v31, v32, v33 - 0.5]


def _real_scales(entries: list) -> list:
    """The norm_scale of each matrix of the real stack from its _real_entries,
    or of the two EPR matrices alone from the first nine: every row of
    magnitudes summed left to right as _REAL_INDEX lays it out, its zero
    entries left out (adding 0.0 to a magnitude changes no bit)."""
    _, ta, tb, p0, p1, p2, m0, m1, m2, *excess = map(abs, entries)
    scales = [max(1.0, ta + p0 + p1, ta + p2 + p0, p0 + p2 + tb, p1 + p0 + tb),
              max(1.0, ta + m0 + m2, ta + m2 + m1, m0 + m2 + tb, m2 + m1 + tb)]
    if excess:  # V - I/2
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = excess
        scales.append(max(1.0, a0 + a1 + a2 + a3, b0 + b1 + b2 + b3, c0 + c1 + c2 + c3,
                          d0 + d1 + d2 + d3))
    return scales


def _as_real(x, what: str) -> np.ndarray:
    """x as a float array; raises InvalidInput unless numpy reads it with a
    real number dtype (float or integer): complex, bool, string and object
    entries are refused rather than cast, which would drop an imaginary part
    or read True and "1" as 1.0."""
    x = np.asarray(x)
    if x.dtype.kind not in "fiu":
        raise InvalidInput(f"{what} must have real number entries, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def as_covariance(v) -> np.ndarray:
    """The symmetric float matrix every criterion judges: v as is when it is
    exactly symmetric, else 0.5 * v + 0.5 * v^T, which cannot overflow where
    (v + v^T) / 2 can. Raises InvalidInput unless v is a finite 4x4 matrix
    of real numbers (_as_real) with max |v - v^T| at most 1e-9 * norm_scale(v)."""
    v = _as_real(v, "covariance")
    if v.shape != (4, 4) or not np.isfinite(v).all():
        raise InvalidInput("covariance must be a finite 4x4 matrix")
    # Python floats overflow to inf without a warning and cost less here than
    # an ndarray v - v^T. An asymmetry past the float maximum exceeds a quarter
    # of any row sum, so comparing on v / 4, whose row sums cannot overflow,
    # rejects it; a power-of-two scale changes no other decision.
    (_, v01, v02, v03), (v10, _, v12, v13), (v20, v21, _, v23), (v30, v31, v32, _) = v.tolist()
    asym = max(abs(v01 - v10), abs(v02 - v20), abs(v03 - v30),
               abs(v12 - v21), abs(v13 - v31), abs(v23 - v32))
    if asym > 1e-9 and asym / 4 > 1e-9 * np.abs(v / 4).sum(axis=1).max():  # norm_scale >= 1
        raise InvalidInput(f"covariance asymmetry {asym:.3e} exceeds 1e-9 relative")
    return v if asym == 0.0 else 0.5 * v + 0.5 * v.T


def _as_vector(x, n: int, name: str) -> np.ndarray:
    """x as a float n-vector; raises InvalidInput unless it is one with finite
    real entries (_as_real)."""
    x = _as_real(x, name)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise InvalidInput(f"{name} must be a finite {n}-vector")
    return x


def _standard_params(a, b, c1, c2) -> tuple[float, float, float, float]:
    """The standard-form parameters as floats (matkit._check_real)."""
    return (_check_real(a, "standard-form a"), _check_real(b, "standard-form b"),
            _check_real(c1, "standard-form c1"), _check_real(c2, "standard-form c2"))


def standard_matrix(a: float, b: float, c1: float, c2: float) -> np.ndarray:
    """Standard-form covariance: isotropic diagonal blocks, diagonal correlations."""
    a, b, c1, c2 = _standard_params(a, b, c1, c2)
    return np.array(
        [
            [a, 0.0, c1, 0.0],
            [0.0, a, 0.0, c2],
            [c1, 0.0, b, 0.0],
            [0.0, c2, 0.0, b],
        ]
    )


def is_symplectic2(s) -> bool:
    """A real 2x2 matrix is symplectic exactly when its determinant is one;
    SYMPLECTIC_TOL is relative to the two products of det, which round at that
    scale. Raises InvalidInput unless s has real entries (_as_real)."""
    s = _as_real(s, "symplectic factor")
    if s.shape != (2, 2):
        return False
    (s00, s01), (s10, s11) = s.tolist()
    p, q = s00 * s11, s01 * s10  # a non-finite entry or an overflow leaves one non-finite
    return (math.isfinite(p) and math.isfinite(q)
            and abs(p - q - 1.0) <= SYMPLECTIC_TOL * max(1.0, abs(p) + abs(q)))


def apply_symp(v, s1, s2) -> np.ndarray:
    """Congruence action of a local (per-mode) symplectic pair.

    Blocks map as A -> S1 A S1^T, B -> S2 B S2^T, C -> S1 C S2^T, each computed
    once by matkit._mul2 on the Python floats of as_covariance(v), which
    raises InvalidInput on a bad v; the lower triangle mirrors the upper one,
    so the result is exactly symmetric and has the same bits on any BLAS.
    """
    if not is_symplectic2(s1) or not is_symplectic2(s2):
        raise InvalidTransform("each factor must be a 2x2 symplectic matrix")
    (a00, a01, c00, c01), (a10, a11, c10, c11), (*_, b00, b01), (*_, b10, b11) = (
        as_covariance(v).tolist())
    s1, s2 = np.asarray(s1, dtype=float).tolist(), np.asarray(s2, dtype=float).tolist()
    s1t, s2t = tuple(zip(*s1)), tuple(zip(*s2))
    (p00, p01), (_, p11) = _mul2(_mul2(s1, ((a00, a01), (a10, a11))), s1t)
    (q00, q01), (_, q11) = _mul2(_mul2(s2, ((b00, b01), (b10, b11))), s2t)
    (r00, r01), (r10, r11) = _mul2(_mul2(s1, ((c00, c01), (c10, c11))), s2t)
    return np.array([[p00, p01, r00, r01], [p01, p11, r10, r11],
                     [r00, r10, q00, q01], [r01, r11, q01, q11]])


def partial_transpose(v) -> np.ndarray:
    """Momentum sign flip on the second mode, the covariance-level partial
    transpose: B -> S3 B S3 and C -> C S3 with S3 = diag(1, -1), applied as
    entry signs to as_covariance(v), which raises InvalidInput on a bad v."""
    return as_covariance(v) * _PT_SIGNS


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Standard-form parameters plus the local symplectic pair reaching them."""

    a: float
    b: float
    c1: float
    c2: float
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        """a, b, c1 and c2 as the floats _standard_params reads."""
        a, b, c1, c2 = self.a, self.b, self.c1, self.c2
        if not type(a) is type(b) is type(c1) is type(c2) is float:
            for name, x in zip(("a", "b", "c1", "c2"), _standard_params(a, b, c1, c2)):
                object.__setattr__(self, name, x)

    @classmethod
    def from_params(cls, a: float, b: float, c1: float, c2: float) -> "StandardForm":
        return cls(a, b, c1, c2, np.eye(2), np.eye(2))

    def matrix(self) -> np.ndarray:
        return standard_matrix(self.a, self.b, self.c1, self.c2)

    @property
    def t(self) -> float:
        """Correlation ratio |c2|/|c1| in [0, 1]; zero for an uncorrelated state."""
        if abs(self.c1) < 1e-300:
            return 0.0
        return min(1.0, abs(self.c2) / abs(self.c1))


def _block_dets(rows) -> tuple[float, float, float]:
    """(det A, det B, det C) of a 4x4 matrix given as rows of Python floats,
    which overflow to inf without a warning."""
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = rows
    return a00 * a11 - a01 * a10, b00 * b11 - b01 * b10, c00 * c11 - c01 * c10


def invariants(v) -> tuple[float, float, float, float]:
    """The local-symplectic invariants (det A, det B, det C, det V) of
    as_covariance(v), which raises InvalidInput on a bad v. det V is the
    Laplace expansion along the first two rows, six products of complementary
    2x2 minors summed left to right on Python floats (the same bits on any
    BLAS); past the float maximum it is inf or nan, without a warning."""
    rows = as_covariance(v).tolist()
    (t0, t1, t2, t3), (u0, u1, u2, u3), (w0, w1, w2, w3), (z0, z1, z2, z3) = rows
    det_a, det_b, det_c = _block_dets(rows)
    det_v = (det_a * det_b
             - (t0 * u2 - t2 * u0) * (w1 * z3 - w3 * z1)
             + (t0 * u3 - t3 * u0) * (w1 * z2 - w2 * z1)
             + (t1 * u2 - t2 * u1) * (w0 * z3 - w3 * z0)
             - (t1 * u3 - t3 * u1) * (w0 * z2 - w2 * z0)
             + det_c * (w0 * z1 - w1 * z0))
    return det_a, det_b, det_c, det_v


def _isotropize(block, det: float, name: str):
    """Symplectic S with S @ block @ S.T == sqrt(det) * I, and sqrt(det), on the
    rows of Python floats of a 2x2 block of determinant det, S as rows too: the
    rotation SVD gives diag(a1, det / a1), and x^2 = sqrt(det) / a1 in diag(x, 1/x)."""
    (m00, _), (_, m11) = block
    if det < DET_FLOOR:
        raise DegenerateBlock(f"{name} block determinant {det:.3e} below {DET_FLOOR:.0e}")
    # A positive determinant leaves both eigenvalues of one sign; the trace picks it.
    if m00 + m11 <= 0.0:
        raise DegenerateBlock(f"{name} block is not positive definite")
    if not det < math.inf:  # so a * b is past the bound of the squeezing routes
        raise OutOfDomain(f"{name} block determinant overflows")
    ((r00, r01), (r10, r11)), _, a1, _ = matkit.svd2_rotations(block)
    root = math.sqrt(det)
    x = math.sqrt(root / a1)
    y = 1.0 / x
    return ((x * r00, x * r01), (y * r10, y * r11)), root


def _standard_form(rows: list) -> StandardForm:
    """to_standard_form of a matrix that already passed as_covariance, given as
    its rows of Python floats (v.tolist()); only the returned s1 and s2 are
    arrays."""
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = rows
    det_a, det_b, _ = _block_dets(rows)
    s1, a = _isotropize(((a00, a01), (a10, a11)), det_a, "A")
    s2, b = _isotropize(((b00, b01), (b10, b11)), det_b, "B")
    s1c = _mul2(s1, ((c00, c01), (c10, c11)))
    try:
        r1, r2, c1, c2 = matkit.svd2_rotations(_mul2(s1c, zip(*s2)))  # zip(*s2) is S2^T
    except InvalidInput as exc:  # C is finite, so S1 C S2^T overflowed
        raise OutOfDomain(f"S1 C S2^T overflows ({exc})") from None
    return StandardForm(a, b, c1, c2, np.array(_mul2(r1, s1)), np.array(_mul2(r2, s2)))


def to_standard_form(v) -> StandardForm:
    """Reduce a covariance matrix to standard form by local symplectics.

    Each diagonal block is rotated diagonal and rescaled isotropic, then the
    correlation block is diagonalized by a proper rotation pair. The recorded
    transforms satisfy apply_symp(v, s1, s2) == standard matrix; the block
    determinants give a = sqrt(det A), b = sqrt(det B) and c1 * c2 = det C.
    """
    return _standard_form(as_covariance(v).tolist())


def is_physical(v, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Uncertainty-relation test: V + (i/2) diag(J, J) must be PSD.

    Returns (verdict, smallest eigenvalue); pure states sit at zero. Raises
    InvalidInput unless v passes as_covariance and tol passes check_tol, and
    OutOfDomain when a row sum of that matrix overflows.
    """
    pair, scales = _uncertainty_pair(as_covariance(v))
    ok, lam, _ = matkit.decide_psd(pair[:1], scales[:1], matkit.check_tol(tol))
    return ok[0], lam[0]


def ensemble_matrix(weights, deviations) -> np.ndarray:
    """Second-moment matrix sum_k P_k m_k m_k^T of per-component mean deviations.

    PSD by construction; weights must be nonnegative and sum to one. Raises
    InvalidInput unless both have real entries (_as_real), InvalidEnsemble on
    malformed or non-finite input and OutOfDomain when a second moment
    overflows.
    """
    w = _as_real(weights, "ensemble weights")
    m = _as_real(deviations, "ensemble deviations")
    if w.ndim != 1 or m.shape != (w.size, 4):
        raise InvalidEnsemble("expected weights (k,) and deviations (k, 4)")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m))):
        raise InvalidEnsemble("ensemble entries must be finite")
    if np.any(w < 0.0):
        raise InvalidEnsemble("weights must be nonnegative")
    with np.errstate(over="ignore"):  # a sum past the float maximum is inf and fails
        total = float(w.sum())
    if abs(total - 1.0) > 1e-12:
        raise InvalidEnsemble("weights must sum to one")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (w[:, None] * m).T @ m
        out = 0.5 * (out + out.T)
    if not np.isfinite(out).all():
        raise OutOfDomain("ensemble_matrix: a second moment overflows")
    return out


def _coherent_excess(v: np.ndarray) -> tuple[np.ndarray, float]:
    """V - I/2 of a checked V and its norm_scale: the third matrix of the real
    stack and its scale, as classify decides it."""
    entries = _real_entries(v.tolist())
    return np.array(entries[9:]).reshape(4, 4), _real_scales(entries)[2]


def p_rep_ensemble(v, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ensemble matrix of the coherent-state decomposition, V - I/2.

    Defined whenever V - I/2 is PSD, i.e. whenever the state is
    P-representable without further squeezing. Decided as classify decides
    its ensemble_used, from the same matrix and scale (_coherent_excess).
    Raises InvalidInput unless v passes as_covariance and tol passes
    check_tol, and OutOfDomain when a row sum of V - I/2 overflows.
    """
    excess, scale = _coherent_excess(as_covariance(v))
    if not matkit.decide_psd(excess[None], [scale], matkit.check_tol(tol))[0][0]:
        raise NotPRepresentable("V - I/2 has a negative eigenvalue")
    return excess
