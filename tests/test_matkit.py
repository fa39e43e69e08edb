import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvsep import statezoo, symplectic_form
from cvsep.covariance import _REAL_INDEX, _UNCERTAINTY_SHIFT, _real_entries
from cvsep.errors import InvalidInput, OutOfDomain
from cvsep.matkit import (
    DEFAULT_TOL,
    _check_real,
    check_tol,
    is_psd_herm,
    norm_scale,
    real_embedding,
    svd2_rotations,
)


def test_is_psd_herm_cases():
    assert is_psd_herm(np.eye(4))[0]
    assert not is_psd_herm(np.diag([1.0, -1.0, 1.0, 1.0]))[0]
    assert is_psd_herm(np.zeros((4, 4)))[0]


def test_is_psd_herm_real_identity():
    ok, lam, vec = is_psd_herm(np.eye(4))
    assert ok
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_is_psd_herm_identity():
    ok, lam, vec = is_psd_herm(np.eye(4, dtype=complex))
    assert ok
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_is_psd_herm_already_diagonal():
    ok, lam, vec = is_psd_herm(np.diag([-1.0, 0.0, 2.0, 3.0]))
    assert not ok
    assert lam == pytest.approx(-1.0, abs=1e-14)
    np.testing.assert_allclose(np.abs(vec), [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_is_psd_herm_two_mode_squeezed():
    # Analytic oracle: the cosh/sinh block structure diagonalizes by +-45 degree
    # rotations into e^{+-2r}/2, each doubly degenerate.
    ok, lam, _ = is_psd_herm(statezoo.two_mode_squeezed(0.5))
    assert ok
    assert lam == pytest.approx(0.5 * math.exp(-1.0), abs=1e-10)


def test_is_psd_herm_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4)
        m[0, 0] = bad
        with pytest.raises(InvalidInput, match="finite entries"):
            is_psd_herm(m)
        with pytest.raises(InvalidInput, match="finite entries"):
            is_psd_herm(np.stack([np.eye(4), m]))


def test_is_psd_herm_refuses_an_overflowing_row_sum_of_finite_entries():
    # A modulus past the float maximum is a row sum that overflows, not a
    # non-finite entry; no eigensolve runs on either matrix.
    z = 1.5e308 + 1.5e308j
    for h in (np.array([[1.0, z], [z.conjugate(), 1.0]]), np.full((4, 4), 5e307)):
        with pytest.raises(OutOfDomain, match="row sum"):
            is_psd_herm(h)


def test_is_psd_herm_smallest_eigenpair_random():
    # The smallest eigenvalue and a unit eigenvector for it, which reports
    # hand out as the witness, on random symmetric matrices.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = rng.standard_normal((4, 4)) * rng.uniform(0.1, 10.0)
        m = 0.5 * (m + m.T)
        _, lam, vec = is_psd_herm(m)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert lam == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-10 * max(1.0, np.linalg.norm(m)))


def test_is_psd_herm_rank_deficient_boundary():
    h = np.eye(4, dtype=complex)
    h[0, 1] = 1j
    h[1, 0] = -1j
    ok, lam, _ = is_psd_herm(h)
    assert ok
    assert lam == pytest.approx(0.0, abs=1e-12)


def test_is_psd_herm_vacuum_uncertainty_matrix():
    h = 0.5 * np.eye(4) + 0.5j * symplectic_form(1)
    ok, lam, _ = is_psd_herm(h)
    assert ok
    assert lam == pytest.approx(0.0, abs=1e-12)
    w = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(w, [0.0, 0.0, 1.0, 1.0], atol=1e-12)


def test_real_embedding_duplicates_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.standard_normal((4, 4))
        x = 0.5 * (x + x.T)
        y = rng.standard_normal((4, 4))
        y = 0.5 * (y - y.T)
        h = x + 1j * y
        herm = np.linalg.eigvalsh(h)
        emb = np.linalg.eigvalsh(real_embedding(h))
        np.testing.assert_allclose(emb, np.sort(np.repeat(herm, 2)), atol=1e-10)
        # The real solver also checks is_psd_herm's smallest eigenvalue, for
        # one matrix and for a stack holding it and its conjugate.
        assert is_psd_herm(h)[1] == pytest.approx(emb[0], abs=1e-10)
        _, lam, _ = is_psd_herm(np.stack([h, h.conj()]))
        np.testing.assert_allclose(lam, [emb[0], emb[0]], atol=1e-10)


def _branch_stacks(n):
    """Both uncertainty branches (complex), and both EPR branches with the
    coherent excess (real), of states from the audit pool and of nonphysical
    copies scaled by 0.8."""
    rng = np.random.default_rng(3)
    for i in range(n):
        v = statezoo.mixed_physical_state(rng, i)
        for w in (v, 0.8 * v):
            yield w + _UNCERTAINTY_SHIFT
            yield np.array(_real_entries(w.tolist()))[_REAL_INDEX]


def test_stacked_kernel_equals_one_eigh_per_branch_bitwise():
    # The criteria decide both branches in one stacked call; their reports
    # stay what one solve per branch gave only if the stack changes no bit.
    for stack in _branch_stacks(300):
        ok, lam, vec = is_psd_herm(stack, DEFAULT_TOL)
        assert ok.shape == lam.shape == (len(stack),) and vec.shape == (len(stack), 4)
        for k, h in enumerate(stack):
            values, vectors = np.linalg.eigh(h)
            assert lam[k].tobytes() == values[0].tobytes()
            assert vec[k].tobytes() == vectors[:, 0].tobytes()
            assert ok[k] == (values[0] >= -DEFAULT_TOL * max(1.0, np.abs(h).sum(axis=1).max()))
            single = is_psd_herm(h, DEFAULT_TOL)
            assert type(single[0]) is bool and type(single[1]) is float
            assert (single[0], single[1]) == (ok[k], lam[k])
            assert single[2].tobytes() == vec[k].tobytes()


def test_norm_scale_is_per_matrix():
    m = np.stack([0.1 * np.eye(4), np.diag([3.0, -5.0, 1.0, 2.0])])
    np.testing.assert_array_equal(norm_scale(m), [1.0, 5.0])
    assert norm_scale(m[1]) == 5.0


class _Float(float):
    """A float subclass, which check_tol must hand back as an exact float."""


@pytest.mark.parametrize("tol", [5e-324, 1e-10, 0.5, 0.9999999999999999,
                                 np.float64(1e-3), np.float32(1e-3), _Float(0.25),
                                 Fraction(1, 2)])
def test_check_tol_accepts_finite_numbers_inside_the_unit_interval(tol):
    # Exact floats take the fast path, everything else the numbers.Real check;
    # both return the value as an exact float.
    assert check_tol(tol) == tol and type(check_tol(tol)) is float


@pytest.mark.parametrize("tol", [0, 0.0, -0.0, -1e-10, 1, 1.0, 5, math.nan, math.inf, -math.inf,
                                 pytest.param(np.float64(math.nan), id="float64-nan"),
                                 pytest.param(np.float32(1.0), id="float32-1.0"),
                                 pytest.param(_Float(math.nan), id="subclass-nan"),
                                 pytest.param(_Float(1.0), id="subclass-1.0"),
                                 Fraction(3, 2), "0.1", None, True, False])
def test_check_tol_rejects_everything_else(tol):
    with pytest.raises(InvalidInput):
        check_tol(tol)


@pytest.mark.parametrize("x, expected", [
    (1.3, 1.3), (math.nan, math.nan), (-math.inf, -math.inf), (np.float64(0.1), 0.1),
    (np.float32(1.3), 1.2999999523162842), (_Float(0.25), 0.25), (Fraction(13, 10), 1.3),
    (2, 2.0), (np.int64(-2), -2.0), (np.uint8(7), 7.0), (10**400, math.inf),
    (-(10**400), -math.inf), (Fraction(10**400, 3), math.inf), (Fraction(-(10**400)), -math.inf),
])
def test_check_real_returns_the_float_it_reads(x, expected):
    # Past the float range an integer or Fraction reads as +-inf, for the
    # caller's own finiteness check to refuse.
    got = _check_real(x, "x")
    assert type(got) is float
    assert got.hex() == expected.hex()


def test_check_real_returns_an_exact_float_as_is():
    x = 1.3
    assert _check_real(x, "x") is x


@pytest.mark.parametrize("x", [True, np.bool_(False), "1", 1j, None, np.complex128(1.0)])
def test_check_real_refuses_what_is_not_a_real_number(x):
    with pytest.raises(InvalidInput, match="^x must be a real number"):
        _check_real(x, "x")


def svd2(c):
    """svd2_rotations of an array, with the rotation rows back as arrays."""
    r1, r2, c1, c2 = svd2_rotations(np.asarray(c, dtype=float).tolist())
    return np.array(r1), np.array(r2), c1, c2


def test_svd2_takes_and_returns_rows_of_python_floats():
    r1, r2, c1, c2 = svd2_rotations(((0.5, -0.2), (0.9, 0.3)))
    for rows in (r1, r2):
        (a, b), (c, d) = rows
        assert all(type(x) is float for x in (a, b, c, d))
        assert (a, b) == (d, -c)
    assert type(c1) is float and type(c2) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", range(4))
def test_svd2_rejects_nonfinite_entries(bad, at):
    entries = [0.5, -0.2, 0.9, 0.3]
    entries[at] = bad
    with pytest.raises(InvalidInput, match="rotation SVD needs a finite 2x2 matrix"):
        svd2_rotations((entries[:2], entries[2:]))


def test_svd2_diagonal_input():
    c = np.diag([0.5, -0.3])
    r1, r2, c1, c2 = svd2(c)
    assert c1 == pytest.approx(0.5, abs=1e-14)
    assert c2 == pytest.approx(-0.3, abs=1e-14)
    np.testing.assert_allclose(r1 @ c @ r2.T, np.diag([c1, c2]), atol=1e-14)


def test_svd2_rotated_input_recovers():
    theta = math.pi / 4.0
    rot = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    c = rot @ np.diag([0.5, -0.3]) @ rot.T
    _, _, c1, c2 = svd2(c)
    assert c1 == pytest.approx(0.5, abs=1e-12)
    assert c2 == pytest.approx(-0.3, abs=1e-12)


def test_svd2_zero_matrix():
    r1, r2, c1, c2 = svd2(np.zeros((2, 2)))
    assert c1 == 0.0 and c2 == 0.0
    assert np.linalg.det(r1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(r2) == pytest.approx(1.0, abs=1e-12)


def _rot(theta):
    return np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])


def _reflection(theta):
    return np.array([[math.cos(theta), math.sin(theta)], [math.sin(theta), -math.cos(theta)]])


#: A generic matrix with det > 0, and its singular values from LAPACK.
_GENERIC = np.array([[0.5, -0.2], [0.9, 0.3]])
_GENERIC_SV = tuple(np.linalg.svd(_GENERIC, compute_uv=False))


@pytest.mark.parametrize(
    "c, expected",
    [
        (0.7 * _rot(0.4), (0.7, 0.7)),  # reflection part (f, g) = 0: atan2(0, 0)
        (0.7 * _reflection(1.1), (0.7, -0.7)),  # rotation part (e, h) = 0
        (np.outer([0.3, -1.2], [2.0, 0.5]), (math.hypot(0.3, 1.2) * math.hypot(2.0, 0.5), 0.0)),
        (1e150 * _GENERIC, tuple(1e150 * x for x in _GENERIC_SV)),
        (1e-150 * _GENERIC, tuple(1e-150 * x for x in _GENERIC_SV)),
    ],
    ids=["scaled_rotation", "scaled_reflection", "rank_one", "scale_1e150", "scale_1e-150"],
)
def test_svd2_edge_cases(c, expected):
    r1, r2, c1, c2 = svd2(c)
    scale = np.abs(c).max()
    assert (c1, c2) == pytest.approx(expected, rel=1e-14, abs=1e-15 * scale)
    assert np.linalg.det(r1) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.det(r2) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(r1 @ c @ r2.T / scale, np.diag([c1, c2]) / scale, atol=1e-15)


@given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
def test_svd2_properties(entries):
    c = np.array(entries).reshape(2, 2)
    r1, r2, c1, c2 = svd2(c)
    assert c1 >= 0.0
    assert c1 >= abs(c2)
    assert np.linalg.det(r1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(r2) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(r1 @ c @ r2.T, np.diag([c1, c2]), atol=1e-12)
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    assert c1 * c2 == pytest.approx(det, abs=1e-12 * max(1.0, abs(det)))
