"""Two-mode covariance matrices: block structure, local symplectic action,
reduction to the four-parameter standard form, and physicality; the one
reader of a state that every PSD route opens with (_state), which gives the
one tolerance scale (_tol_scale) every test of the state is judged against;
the one stack of shifts every Hermitian PSD test of a state slices
(_STATE_SHIFT); the one P-representability decision, the only refusal of a
state that is not P-representable (_coherent_excess); and the entries of
the EPR matrices (_epr_entries) that the Duan criteria decide in closed form.

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
from .matkit import DEFAULT_TOL, _check_real, _check_sign, _mul2

#: Single-mode symplectic form.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Block determinant floor below which standard-form reduction refuses.
DET_FLOOR = 1e-12

#: Tolerance of is_symplectic2 on det S - 1, relative to the two products of det.
SYMPLECTIC_TOL = 1e-12

_PT_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


def symplectic_form(sign: int = 1) -> np.ndarray:
    """Two-mode form diag(J, sign*J); sign=-1 is the partial-transpose branch.
    Raises InvalidInput unless sign is the integer +1 or -1 (matkit._check_sign)."""
    sign = _check_sign(sign, "symplectic form sign")
    out = np.zeros((4, 4))
    out[:2, :2] = J2
    out[2:, 2:] = sign * J2
    return out


#: I/2, the vacuum covariance. V - _HALF_I keeps V's off-diagonal bits, since
#: x - 0.0 is x exactly, signed zeros included.
_HALF_I = 0.5 * np.eye(4)

#: The one complex stack of shifts: (i/2) diag(J, sign*J) for sign = +1, then
#: -1 (the partial transpose), then -I/2. V + _STATE_SHIFT holds physicality,
#: Simon's partial transpose and the coherent excess, whose real part is
#: V - _HALF_I bit for bit, since x + -0.0 is x exactly, signed zeros
#: included. classify decides the whole stack; every other Hermitian route
#: decides a slice of it: is_physical [:1], Simon and the stringent
#: condition [:2], _coherent_excess [2:].
_STATE_SHIFT = np.stack([0.5j * symplectic_form(1), 0.5j * symplectic_form(-1), -_HALF_I])


def _max_row_sum(rows: list) -> float:
    """Largest absolute row sum of a 4x4 matrix given as rows of Python floats,
    each sum taken left to right; inf, without a warning, past the float maximum."""
    return max(abs(x0) + abs(x1) + abs(x2) + abs(x3) for x0, x1, x2, x3 in rows)


def _tol_scale(rows: list) -> float:
    """s = max(1, largest absolute row sum of V), from the rows of Python floats
    of a checked V: the one tolerance scale of every PSD test of the state,
    a caller's ensemble matrix included. Every matrix built from V has entries
    and row sums at most 2s + 1, so OutOfDomain refuses V unless 2s is finite."""
    s = max(1.0, _max_row_sum(rows))
    if 2.0 * s == math.inf:  # Python floats overflow to inf without a warning
        raise OutOfDomain("PSD test: a row sum of the matrix overflows")
    return s


def _epr_entries(rows: list) -> list:
    """The distinct entries of EPR(+1) - I and EPR(-1) - I of a symmetric 4x4
    matrix given as rows, each computed once: tr A - 1, tr B - 1, then the
    first row (k0, k1) of K(+1), c00 + c11 and c01 - c10, and of K(-1),
    c00 - c11 and c01 + c10. EPR(sigma) =
    [[A + JAJ^T, K(sigma)], [K(sigma)^T, B + JBJ^T]] is written out from
    J X J^T = [[x11, -x10], [-x01, x00]]: on a symmetric block X + JXJ^T is
    tr(X) * I, and K(sigma) = C + sigma*JCJ^T = [[k0, k1], [-sigma*k1,
    sigma*k0]] is a scaled rotation (sigma = +1) or reflection (sigma = -1),
    both of whose singular values are hypot(k0, k1). criteria._epr_report
    decides EPR(sigma) - I from these in closed form. Python floats overflow
    to inf without a warning."""
    (a00, _, c00, c01), (_, a11, c10, c11), (*_, b00, _), (*_, b11) = rows
    return [a00 + a11 - 1.0, b00 + b11 - 1.0, c00 + c11, c01 - c10, c00 - c11, c01 + c10]


def _as_real(x, what: str) -> np.ndarray:
    """x as a float array, the one reader of array input; raises InvalidInput
    unless numpy reads it with a real number dtype (float or integer):
    complex, bool, string and object entries are refused rather than cast,
    which would drop an imaginary part or read True and "1" as 1.0. An x that
    is not an ndarray is also refused when it is a ragged nested sequence, or
    when a bool (a Python bool, an np.bool_ or a 0-d bool array) sits among
    its numbers, which numpy reads as 0 or 1; an ndarray's dtype already says
    all there is, so it costs no per-entry work."""
    if not isinstance(x, np.ndarray):
        try:
            x, entries = np.asarray(x), np.asarray(x, dtype=object).flat
        except ValueError as exc:  # numpy's "inhomogeneous shape"
            raise InvalidInput(f"{what} must be a rectangular array, not ragged") from exc
        for entry in entries:  # each entry as given, before numpy casts it
            if np.asarray(entry).dtype == bool:
                raise InvalidInput(f"{what} must have real number entries, got {entry!r}")
    if x.dtype.kind not in "fiu":
        raise InvalidInput(f"{what} must have real number entries, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def as_covariance(v) -> np.ndarray:
    """The symmetric float matrix every criterion judges: v as is when it is
    exactly symmetric, else 0.5 * v + 0.5 * v^T, which cannot overflow where
    (v + v^T) / 2 can. Raises InvalidInput unless v is a finite 4x4 matrix
    of real numbers, as _as_real reads an ndarray or a nested sequence, with
    max |v - v^T| at most 1e-9 * max(1, largest absolute row sum of v), the
    scale _tol_scale gives a checked V."""
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
    if asym > 1e-9 and asym / 4 > 1e-9 * _max_row_sum((v / 4).tolist()):  # asym > 1e-9: the floor 1
        raise InvalidInput(f"covariance asymmetry {asym:.3e} exceeds 1e-9 relative")
    return v if asym == 0.0 else 0.5 * v + 0.5 * v.T


def _state(v, tol) -> tuple[np.ndarray, list, float, float]:
    """(V, its rows of Python floats, s, tol) as every PSD route reads a state:
    V = as_covariance(v), then tol = matkit.check_tol(tol), then
    s = _tol_scale(rows), each raising as it does, in that order."""
    v = as_covariance(v)
    tol = matkit.check_tol(tol)
    rows = v.tolist()
    return v, rows, _tol_scale(rows), tol


def _as_vector(x, n: int, name: str) -> np.ndarray:
    """x as a float n-vector; raises InvalidInput unless it is one with finite
    real entries (_as_real)."""
    x = _as_real(x, name)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise InvalidInput(f"{name} must be a finite {n}-vector")
    return x


def _standard_params(a, b, c1, c2) -> tuple[float, float, float, float]:
    """The standard-form parameters as floats (matkit._check_real); raises
    InvalidInput unless each is finite."""
    params = (_check_real(a, "standard-form a"), _check_real(b, "standard-form b"),
              _check_real(c1, "standard-form c1"), _check_real(c2, "standard-form c2"))
    a, b, c1, c2 = params
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c1) and math.isfinite(c2)):
        name, x = next((n, x) for n, x in zip(("a", "b", "c1", "c2"), params)
                       if not math.isfinite(x))
        raise InvalidInput(f"standard-form {name} must be finite, got {x}")
    return params


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
    Raises OutOfDomain when an entry of the result overflows.
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
    if not all(map(math.isfinite, (p00, p01, p11, q00, q01, q11, r00, r01, r10, r11))):
        raise OutOfDomain("apply_symp: an entry of S V S^T overflows")
    return np.array([[p00, p01, r00, r01], [p01, p11, r10, r11],
                     [r00, r10, q00, q01], [r01, r11, q01, q11]])


def partial_transpose(v) -> np.ndarray:
    """Momentum sign flip on the second mode, the covariance-level partial
    transpose: B -> S3 B S3 and C -> C S3 with S3 = diag(1, -1), applied as
    entry signs to as_covariance(v), which raises InvalidInput on a bad v."""
    return as_covariance(v) * _PT_SIGNS


@dataclass(eq=False)
class StandardForm:
    """Standard-form parameters plus the local symplectic pair reaching them."""

    a: float
    b: float
    c1: float
    c2: float
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        """a, b, c1 and c2 as the finite floats _standard_params reads."""
        self.a, self.b, self.c1, self.c2 = _standard_params(self.a, self.b, self.c1, self.c2)

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
    """(det A, det B, det C) of a 4x4 matrix given as rows of Python numbers:
    exact on integers (invariants); on floats (the standard form) each product
    and difference is rounded, and overflows to inf without a warning."""
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = rows
    return a00 * a11 - a01 * a10, b00 * b11 - b01 * b10, c00 * c11 - c01 * c10


def _rounded(num: int, den: int) -> float:
    """num / den for a positive den, rounded once, as int / int true division
    rounds: +-inf past the float maximum."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def invariants(v) -> tuple[float, float, float, float]:
    """The local-symplectic invariants (det A, det B, det C, det V) of
    as_covariance(v), which raises InvalidInput on a bad v: each the exact
    value for V's float entries, rounded once to the nearest float, or +-inf
    past the float maximum. Every float is an integer over a power of two,
    so the 16 entries times their largest denominator k are integers, and
    _block_dets and the Laplace expansion along the first two rows (six
    products of complementary 2x2 minors) run on them exactly; det A, det B
    and det C are then over k^2 and det V over k^4."""
    ratios = [[x.as_integer_ratio() for x in row] for row in as_covariance(v).tolist()]
    k = max(d for row in ratios for _, d in row)  # a power of two, as is every d
    rows = [[n * (k // d) for n, d in row] for row in ratios]
    (t0, t1, t2, t3), (u0, u1, u2, u3), (w0, w1, w2, w3), (z0, z1, z2, z3) = rows
    det_a, det_b, det_c = _block_dets(rows)
    det_v = (det_a * det_b
             - (t0 * u2 - t2 * u0) * (w1 * z3 - w3 * z1)
             + (t0 * u3 - t3 * u0) * (w1 * z2 - w2 * z1)
             + (t1 * u2 - t2 * u1) * (w0 * z3 - w3 * z0)
             - (t1 * u3 - t3 * u1) * (w0 * z2 - w2 * z0)
             + det_c * (w0 * z1 - w1 * z0))
    k2 = k * k
    return (_rounded(det_a, k2), _rounded(det_b, k2), _rounded(det_c, k2),
            _rounded(det_v, k2 * k2))


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
    if c1 == math.inf:  # c1 = q + r of two hypots; c2 = q - r is finite whenever c1 is
        raise OutOfDomain("S1 C S2^T overflows (its larger singular value c1)")
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
    OutOfDomain when _tol_scale refuses V.
    """
    v, _, s, tol = _state(v, tol)
    ok, lam, _ = matkit.decide_psd(v + _STATE_SHIFT[:1], s, tol)
    return ok[0], lam[0][0]


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


def _coherent_excess(v: np.ndarray, s: float, tol: float) -> tuple:
    """(ascending eigenvalues as Python floats, complex eigenvectors as
    columns) of V - I/2 for a checked V, s its _tol_scale, or
    NotPRepresentable unless V - I/2 is PSD within -tol * s. V - I/2 is the
    third matrix of classify's stack V + _STATE_SHIFT, decided alone by the
    same complex matkit.decide_psd kernel, so p_rep_ensemble and prep.p_weight
    take classify's P-representability decision bit for bit, and this is
    the one place that refuses a state that is not P-representable."""
    ok, lam, vec = matkit.decide_psd(v + _STATE_SHIFT[2:], s, tol)
    if not ok[0]:
        raise NotPRepresentable("V - I/2 has a negative eigenvalue")
    return lam[0], vec[0]


def p_rep_ensemble(v, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ensemble matrix of the coherent-state decomposition, V - I/2.

    Defined whenever V - I/2 is PSD, i.e. whenever the state is
    P-representable without further squeezing, as _coherent_excess decides
    it, bit for bit the decision behind classify's ensemble_used; it raises
    NotPRepresentable otherwise. Raises InvalidInput unless v passes
    as_covariance and tol passes check_tol, and OutOfDomain when _tol_scale
    refuses V.
    """
    v, _, s, tol = _state(v, tol)
    _coherent_excess(v, s, tol)
    return v - _HALF_I
