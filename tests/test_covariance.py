import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import is_psd, random_symmetric, rotation, squeezed_symp
import cvsep
from cvsep import cli, statezoo
from cvsep.criteria import classify
from cvsep.covariance import (
    StandardForm,
    apply_symp,
    as_covariance,
    ensemble_matrix,
    invariants,
    is_physical,
    p_rep_ensemble,
    partial_transpose,
    standard_matrix,
    to_standard_form,
)
from cvsep.errors import (
    DegenerateBlock,
    InvalidEnsemble,
    InvalidInput,
    InvalidTransform,
    NotPRepresentable,
    OutOfDomain,
)


def det2(m):
    """The 2x2 determinant as covariance.det2 computed it before invariants."""
    (m00, m01), (m10, m11) = m.tolist()
    return m00 * m11 - m01 * m10


def det4(m):
    """The Laplace expansion the CLI used for det V before invariants."""
    (t0, t1, t2, t3), (u0, u1, u2, u3), (w0, w1, w2, w3), (z0, z1, z2, z3) = m.tolist()
    return ((t0 * u1 - t1 * u0) * (w2 * z3 - w3 * z2)
            - (t0 * u2 - t2 * u0) * (w1 * z3 - w3 * z1)
            + (t0 * u3 - t3 * u0) * (w1 * z2 - w2 * z1)
            + (t1 * u2 - t2 * u1) * (w0 * z3 - w3 * z0)
            - (t1 * u3 - t3 * u1) * (w0 * z2 - w2 * z0)
            + (t2 * u3 - t3 * u2) * (w0 * z1 - w1 * z0))


def exact_det(m):
    """det of a square m's float entries in rational arithmetic, as the
    nearest float, or +-inf past the float maximum: the Leibniz sum over
    permutations."""
    rows = [[Fraction(x) for x in row] for row in m.tolist()]
    n = len(rows)
    det = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        det += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    try:
        return float(det)
    except OverflowError:
        return math.inf if det > 0 else -math.inf


def exact_invariants(v):
    """(det A, det B, det C, det V) of as_covariance(v), each by exact_det."""
    v = as_covariance(v)
    return exact_det(v[:2, :2]), exact_det(v[2:, 2:]), exact_det(v[:2, 2:]), exact_det(v)


class TestApplySymp:
    def test_identity(self):
        v = standard_matrix(1.0, 1.0, 0.5, -0.3)
        np.testing.assert_allclose(apply_symp(v, np.eye(2), np.eye(2)), v)

    def test_vacuum_fixed_by_rotations(self):
        vac = statezoo.vacuum()
        rng = np.random.default_rng(0)
        for _ in range(20):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            np.testing.assert_allclose(
                apply_symp(vac, rotation(t1), rotation(t2)), vac, atol=1e-14
            )

    def test_scaling_blocks_against_direct_product(self):
        # Oracle: assemble the 4x4 transform and multiply directly.
        v = standard_matrix(1.0, 1.0, 0.5, -0.3)
        s = np.diag([2.0, 0.5])
        got = apply_symp(v, s, s)
        full = np.zeros((4, 4))
        full[:2, :2] = s
        full[2:, 2:] = s
        np.testing.assert_allclose(got, full @ v @ full.T, atol=1e-14)
        np.testing.assert_allclose(got[:2, :2], np.diag([4.0, 0.25]), atol=1e-14)
        np.testing.assert_allclose(got[:2, 2:], np.diag([2.0, -0.075]), atol=1e-14)

    def test_rejects_non_symplectic(self):
        v = statezoo.vacuum()
        with pytest.raises(InvalidTransform):
            apply_symp(v, np.array([[1.0, 1.0], [0.0, 2.0]]), np.eye(2))

    @pytest.mark.parametrize(
        "s1",
        [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 0.0]],
         [[1e200, 0.0], [0.0, 1e200]], np.eye(3)],
        ids=["nan", "inf_times_zero", "overflowing_det", "not_2x2"],
    )
    def test_rejects_non_finite_factors(self, s1):
        # A factor that is not 2x2 is refused the same way.
        with pytest.raises(InvalidTransform, match="^each factor must be a 2x2 symplectic"):
            apply_symp(statezoo.vacuum(), np.array(s1), np.eye(2))

    @pytest.mark.parametrize("log_x", [6.0, 8.0])
    def test_accepts_strongly_squeezed_symplectics(self, log_x):
        # det rounds with an error near x^2 * eps; the bound must scale with it.
        rng = np.random.default_rng(17)
        v = statezoo.vacuum()
        for _ in range(200):
            apply_symp(v, squeezed_symp(rng, log_x), squeezed_symp(rng, -log_x))

    def test_rejects_unit_scale_determinant_off_by_1e_6(self):
        with pytest.raises(InvalidTransform):
            apply_symp(statezoo.vacuum(), np.diag([1.0 + 1e-6, 1.0]), np.eye(2))

    def test_overflowing_entry_is_out_of_domain(self):
        # S1 A S1^T has 1e320 past the float maximum, and 0 * inf as nan,
        # which were returned as the result.
        with pytest.raises(OutOfDomain, match="apply_symp: an entry of S V S\\^T overflows"):
            apply_symp(1e300 * np.eye(4), np.diag([1e10, 1e-10]), np.eye(2))
        # An entry near the float maximum still passes.
        top = apply_symp(1.7e308 * np.eye(4), np.diag([1.0, 1.0]), np.eye(2))
        assert top[0, 0] == 1.7e308


@pytest.mark.parametrize("sign", [0, 2, -2, True, False, 1.0, -1.0, "1", None])
def test_symplectic_form_refuses_a_sign_that_is_not_the_integer_plus_or_minus_one(sign):
    # symplectic_form(2) built diag(J, 2J), which is not a symplectic form,
    # and True was read as 1.
    with pytest.raises(InvalidInput, match=r"symplectic form sign must be \+1 or -1"):
        cvsep.symplectic_form(sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_symplectic_form_reads_a_numpy_integer_sign_as_its_int(sign):
    assert cvsep.symplectic_form(np.int64(sign)).tobytes() == cvsep.symplectic_form(sign).tobytes()


class TestPartialTranspose:
    def test_flips_c2(self):
        v = standard_matrix(1.0, 1.0, 0.5, -0.3)
        np.testing.assert_allclose(
            partial_transpose(v), standard_matrix(1.0, 1.0, 0.5, 0.3), atol=1e-15
        )

    def test_involution_and_vacuum(self):
        rng = np.random.default_rng(1)
        v = random_symmetric(rng)
        np.testing.assert_allclose(partial_transpose(partial_transpose(v)), v)
        np.testing.assert_allclose(partial_transpose(statezoo.vacuum()), statezoo.vacuum())

    def test_exact_on_pool_states(self):
        # Entry signs, not a matrix product: the flip of an exactly symmetric
        # state is exactly symmetric, and flipping twice restores every bit.
        rng = np.random.default_rng(7)
        for i in range(200):
            v = statezoo.mixed_physical_state(rng, i)
            pt = partial_transpose(v)
            assert pt.tobytes() == pt.T.tobytes()
            assert partial_transpose(pt).tobytes() == v.tobytes()

    @given(st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
    def test_determinant_bookkeeping(self, entries):
        m = np.zeros((4, 4))
        m[np.triu_indices(4)] = entries
        v = m + np.triu(m, 1).T
        pt = partial_transpose(v)
        assert det2(pt[:2, 2:]) == -det2(v[:2, 2:])
        assert det2(pt[:2, :2]) == det2(v[:2, :2])
        assert det2(pt[2:, 2:]) == det2(v[2:, 2:])


class TestStandardForm:
    def test_already_standard_is_fixed_point(self):
        v = standard_matrix(1.0, 1.0, 0.5, -0.3)
        sf = to_standard_form(v)
        assert sf.a == pytest.approx(1.0, abs=1e-12)
        assert sf.b == pytest.approx(1.0, abs=1e-12)
        assert sf.c1 == pytest.approx(0.5, abs=1e-12)
        assert sf.c2 == pytest.approx(-0.3, abs=1e-12)
        np.testing.assert_allclose(apply_symp(v, sf.s1, sf.s2), sf.matrix(), atol=1e-12)

    def test_round_trip_random_transform(self):
        quad = (1.5, 0.8, 0.6, -0.2)
        v0 = standard_matrix(*quad)
        rng = np.random.default_rng(5)
        for _ in range(50):
            s1 = statezoo.random_symp2(rng)
            s2 = statezoo.random_symp2(rng)
            v = apply_symp(v0, s1, s2)
            sf = to_standard_form(v)
            assert sf.a == pytest.approx(quad[0], abs=1e-9)
            assert sf.b == pytest.approx(quad[1], abs=1e-9)
            assert sf.c1 == pytest.approx(quad[2], abs=1e-9)
            assert sf.c2 == pytest.approx(quad[3], abs=1e-9)
            np.testing.assert_allclose(
                apply_symp(v, sf.s1, sf.s2), sf.matrix(), atol=1e-10
            )
            # Undo the recorded transform to recover the input.
            back = apply_symp(
                sf.matrix(), np.linalg.inv(sf.s1), np.linalg.inv(sf.s2)
            )
            np.testing.assert_allclose(back, v, atol=1e-9)

    def test_round_trip_under_strong_local_squeezing(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.uniform(0.5, 3.0, size=2)
            c1 = rng.uniform(0.0, 0.9 * math.sqrt(a * b))
            c2 = rng.uniform(-c1, c1)
            s1 = squeezed_symp(rng, rng.uniform(-3.0, 3.0))
            s2 = squeezed_symp(rng, rng.uniform(-3.0, 3.0))
            sf = to_standard_form(apply_symp(standard_matrix(a, b, c1, c2), s1, s2))
            assert (sf.a, sf.b, sf.c1, sf.c2) == pytest.approx((a, b, c1, c2), rel=1e-9)

    def test_thermal_reduces_to_diagonal(self):
        sf = to_standard_form(statezoo.thermal(1.0, 2.0))
        assert (sf.a, sf.b) == (pytest.approx(1.0), pytest.approx(2.0))
        assert sf.c1 == pytest.approx(0.0, abs=1e-14)
        assert sf.c2 == pytest.approx(0.0, abs=1e-14)

    def test_idempotent_on_reduced_forms(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = rng.uniform(0.5, 3.0, size=2)
            c1 = rng.uniform(0.0, 0.9 * math.sqrt(a * b))
            c2 = rng.uniform(-c1, c1)
            sf = to_standard_form(standard_matrix(a, b, c1, c2))
            assert sf.a == pytest.approx(a, abs=1e-12)
            assert sf.b == pytest.approx(b, abs=1e-12)
            assert sf.c1 == pytest.approx(c1, abs=1e-12)
            assert abs(sf.c2) == pytest.approx(abs(c2), abs=1e-12)

    def test_degenerate_block_rejected(self):
        v = np.diag([1e-7, 1e-7, 1.0, 1.0])
        with pytest.raises(DegenerateBlock):
            to_standard_form(v)
        v = np.diag([-1.0, -1.0, 1.0, 1.0])  # det positive but not PD
        with pytest.raises(DegenerateBlock):
            to_standard_form(v)

    def test_overflowing_correlation_product_is_out_of_domain(self):
        # S1 = diag(1e-150, 1e150) takes C's 1e300 past the float maximum, which
        # must raise without a numpy "overflow encountered in matmul" warning.
        v = np.diag([1e300, 1e-300, 1.0, 1.0])
        v[1, 3] = v[3, 1] = 1e300
        with pytest.raises(OutOfDomain, match="rotation SVD needs a finite 2x2 matrix"):
            to_standard_form(v)

    def test_overflowing_correlation_singular_value_is_out_of_domain(self):
        # S1 = diag(1e-150, 1e150) takes C's p1 row to (1.5e308, 1.5e308):
        # finite entries, but the singular value 2.1e308 is past the float
        # maximum. It was returned as c1 = inf, and classify called the state
        # (physical within -tol * s, s = 1e300) entangled.
        v = np.diag([1e300, 1e-300, 1.0, 1.0])
        v[1, 2] = v[2, 1] = v[1, 3] = v[3, 1] = 1.5e158
        for call in (to_standard_form, classify):
            with pytest.raises(OutOfDomain, match=r"S1 C S2\^T overflows \(its larger singular"):
                call(v)

    def test_symplectic_invariants_preserved(self):
        rng = np.random.default_rng(9)
        transforms = [
            (statezoo.random_symp2(rng), statezoo.random_symp2(rng))
            for _ in range(100)
        ]
        for _ in range(100):
            v = random_symmetric(rng, scale=2.0)
            dets = (
                det2(v[:2, :2]),
                det2(v[2:, 2:]),
                det2(v[:2, 2:]),
                float(np.linalg.det(v)),
                *invariants(v),
            )
            for s1, s2 in transforms:
                w = apply_symp(v, s1, s2)
                after = (
                    det2(w[:2, :2]),
                    det2(w[2:, 2:]),
                    det2(w[:2, 2:]),
                    float(np.linalg.det(w)),
                    *invariants(w),
                )
                for x, y in zip(dets, after):
                    assert abs(x - y) <= 1e-10 * max(1.0, abs(x))


class TestInvariants:
    @pytest.mark.parametrize("seed", [7, 13, 31])
    def test_bits_match_the_exact_determinants_on_the_pools(self, seed):
        # Audit-pool states, one in five scaled by 0.8: each invariant is the
        # exact determinant of the float entries, rounded once.
        rng = np.random.default_rng(seed)
        for i in range(4000):
            v = (0.8 if i % 5 == 4 else 1.0) * statezoo.mixed_physical_state(rng, i)
            assert np.array(invariants(v)).tobytes() == np.array(exact_invariants(v)).tobytes()

    @pytest.mark.parametrize("v", [
        np.diag([1e200, 1e200, 1.0, 1.0]),
        np.diag([1e160, 1e160, 1e-300, 1e-300]),
        *(statezoo.two_mode_squeezed(r) for r in (0.5, 5.0, 7.0, 9.0, 12.0)),
    ], ids=["diag_1e200_1", "diag_1e160_1e-300",
            *(f"two_mode_squeezed_{r:g}" for r in (0.5, 5.0, 7.0, 9.0, 12.0))])
    def test_bits_match_the_exact_determinants_at_both_ends_of_the_range(self, v):
        # Entries at both ends of the float range, where det V is past the
        # float maximum (inf) or far below the entries (1.0e-280), and strong
        # squeezing, where det V = 1/16 cancels from entries near e^(2r) / 4.
        assert np.array(invariants(v)).tobytes() == np.array(exact_invariants(v)).tobytes()

    @pytest.mark.parametrize("v", [
        1.9e77 * statezoo.two_mode_squeezed(0.5),
        1e100 * statezoo.two_mode_squeezed(0.5),
        1e100 * np.diag([1.0, 1.0, 1.0, -1.0]),
        np.array([[1e308, 1e308, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    ], ids=["squeezed_1.9e77", "squeezed_1e100", "negative_1e100", "row_sum_inf"])
    def test_det_v_is_the_exact_value_where_the_expansion_overflows(self, v):
        # The float expansion's products overflow to nan or -inf, but det V is
        # the exact determinant of the float matrix rounded once, bit for bit:
        # +-inf past the float maximum, and 0.0 for a singular block whose row
        # sum is itself past the maximum.
        assert not math.isfinite(det4(v))
        assert np.float64(invariants(v)[3]).tobytes() == np.float64(exact_det(v)).tobytes()

    @pytest.mark.parametrize("seed", [7, 13])
    def test_det_v_scales_exactly_by_a_power_of_two(self, seed):
        # 2^255 V has entries near 1e77, so the expansion overflows on many
        # pool states; its det V is still 2^1020 det V bit for bit, since a
        # power-of-two scale commutes with rounding, or +-inf past the float
        # maximum.
        rng = np.random.default_rng(seed)
        overflowed = 0
        for i in range(500):
            v = statezoo.mixed_physical_state(rng, i)
            big = math.ldexp(1.0, 255) * v
            overflowed += not math.isfinite(det4(big))
            try:
                expected = math.ldexp(invariants(v)[3], 1020)
            except OverflowError:
                expected = math.copysign(math.inf, invariants(v)[3])
            assert np.float64(invariants(big)[3]).tobytes() == np.float64(expected).tobytes()
        assert overflowed > 100


class TestPhysicality:
    def test_vacuum_boundary(self):
        ok, lam = is_physical(statezoo.vacuum())
        assert ok
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_sub_vacuum_rejected(self):
        ok, lam = is_physical(0.4 * np.eye(4))
        assert not ok
        assert lam == pytest.approx(-0.1, abs=1e-12)

    def test_two_mode_squeezed_saturates(self):
        ok, lam = is_physical(statezoo.two_mode_squeezed(0.5))
        assert ok
        assert lam == pytest.approx(0.0, abs=1e-12)


class TestEnsembleMatrix:
    def test_single_zero_component(self):
        out = ensemble_matrix([1.0], np.zeros((1, 4)))
        np.testing.assert_allclose(out, np.zeros((4, 4)))

    def test_symmetric_two_point(self):
        devs = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])
        out = ensemble_matrix([0.5, 0.5], devs)
        np.testing.assert_allclose(out, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.1, 1.0, size=3)
        w /= w.sum()
        devs = rng.standard_normal((3, 4))
        expected = sum(w[k] * np.outer(devs[k], devs[k]) for k in range(3))
        np.testing.assert_allclose(ensemble_matrix(w, devs), expected, atol=1e-14)

    def test_always_psd(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            w = rng.uniform(0.0, 1.0, size=k)
            total = w.sum()
            if total == 0.0:
                w[0] = 1.0
                total = 1.0
            w /= total
            devs = rng.standard_normal((k, 4)) * rng.uniform(0.1, 3.0)
            assert is_psd(ensemble_matrix(w, devs))

    def test_invalid_ensembles_rejected(self):
        with pytest.raises(InvalidEnsemble):
            ensemble_matrix([0.5, -0.1, 0.6], np.zeros((3, 4)))
        with pytest.raises(InvalidEnsemble):
            ensemble_matrix([0.5, 0.6], np.zeros((2, 4)))
        with pytest.raises(InvalidEnsemble):
            ensemble_matrix([1.0], np.zeros((2, 4)))
        with pytest.raises(InvalidEnsemble, match="sum to one"):  # without a warning
            ensemble_matrix([1e308, 1e308], np.zeros((2, 4)))
        with pytest.raises(InvalidEnsemble, match="^ensemble entries must be finite$"):
            ensemble_matrix([1.0], [[math.nan, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "weights, deviations",
        [([1.0], [[1e200, 0.0, 0.0, 0.0]]), ([0.5, 0.5], [[0.0, 1e155, 1e155, 0.0], [0.0] * 4])],
    )
    def test_overflowing_second_moments_raise_out_of_domain(self, weights, deviations):
        # numpy used to warn "overflow encountered in matmul" and return inf.
        with pytest.raises(OutOfDomain, match="second moment overflows"):
            ensemble_matrix(weights, deviations)


class TestPRepEnsemble:
    def test_vacuum_gives_zero(self):
        np.testing.assert_allclose(
            p_rep_ensemble(statezoo.vacuum()), np.zeros((4, 4)), atol=1e-15
        )

    def test_unit_covariance(self):
        np.testing.assert_allclose(p_rep_ensemble(np.eye(4)), 0.5 * np.eye(4))

    def test_boundary_standard_form_rejected_unsqueezed(self):
        # q-sector 2x2 of V - I/2 is [[1/2, 3/4], [3/4, 1/2]]: eigenvalue -1/4.
        with pytest.raises(NotPRepresentable):
            p_rep_ensemble(standard_matrix(1.0, 1.0, 0.75, 0.0))


#: Every way to build standard-form parameters, with x in slot k.
_STANDARD_PARAM_TAKERS = {
    "from_params": lambda p: StandardForm.from_params(*p),
    "standard_form": lambda p: StandardForm(*p, np.eye(2), np.eye(2)),
    "standard_matrix": lambda p: standard_matrix(*p),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "minus_inf", "integer_past_the_range"])
@pytest.mark.parametrize("k, name", enumerate(["a", "b", "c1", "c2"]))
@pytest.mark.parametrize("call", _STANDARD_PARAM_TAKERS.values(),
                         ids=_STANDARD_PARAM_TAKERS.keys())
def test_standard_form_parameters_must_be_finite(call, k, name, x):
    # A nan parameter was accepted, and simon_algebraic, prep_conditions and
    # apply_squeeze then returned nan margins, False verdicts or a nan matrix.
    params = [1.0, 1.0, 0.5, 0.0]
    params[k] = x
    with pytest.raises(InvalidInput, match=f"^standard-form {name} must be finite, got"):
        call(params)


def test_standard_form_t_ratio():
    sf = StandardForm.from_params(1.0, 1.0, 0.5, -0.3)
    assert sf.t == pytest.approx(0.6)
    assert StandardForm.from_params(1.0, 1.0, 0.0, 0.0).t == 0.0


@pytest.mark.parametrize(
    "scale, skew, accepted",
    [(1.0, 5e-10, True), (1.0, 2e-9, False), (1e4, 5e-6, True), (1e4, 2e-5, False)],
)
def test_as_covariance_asymmetry_bound_is_relative(scale, skew, accepted):
    # The bound is 1e-9 * max(1, largest absolute row sum of v), max(1, scale) here.
    v = scale * np.eye(4)
    v[0, 1] += skew
    if accepted:  # averaged, as the CLI averages it
        np.testing.assert_array_equal(as_covariance(v), 0.5 * v + 0.5 * v.T)
    else:
        with pytest.raises(InvalidInput, match="asymmetry"):
            as_covariance(v)


#: Run in a child process with OPENBLAS_CORETYPE set: reads float.hex matrices
#: and document paths as JSON on stdin, and prints as JSON each matrix's
#: standard form in float.hex, each document's `standard-form` stdout, the
#: statezoo pool digest and the FMA probe.
_STANDARD_FORM_CHILD = """
import contextlib, hashlib, io, json, sys
import numpy as np
from cvsep import cli, statezoo
from cvsep.criteria import classify
from cvsep.covariance import to_standard_form
job = json.load(sys.stdin)
forms = [_hex_form(to_standard_form(np.array([[float.fromhex(x) for x in row] for row in m])))
         for m in job["matrices"]]
texts = []
for path in job["documents"]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["standard-form", path])
    texts.append(out.getvalue())
json.dump({"forms": forms, "texts": texts, "pool": _pool_digest(), "probe": _fma_probe()},
          sys.stdout)
"""


def _hex_form(sf):
    return [x.hex() for x in (sf.a, sf.b, sf.c1, sf.c2, *sf.s1.ravel().tolist(),
                              *sf.s2.ravel().tolist())]


def _pool_digest():
    """SHA-256 of a fixed statezoo pool: seed-55 audit-pool states, then
    random_separable draws from the same generator."""
    rng = np.random.default_rng(55)
    pool = [statezoo.mixed_physical_state(rng, i) for i in range(40)]
    pool += [statezoo.random_separable(rng) for _ in range(10)]
    return hashlib.sha256(np.asarray(pool).tobytes()).hexdigest()


def _fma_probe():
    """A 2x2 @ product with entries a * a - a * a, a = 1 + 2**-30: 0.0 when
    each product rounds on its own, -2**-60 or 2**-60 when the kernel fuses
    one of them into the sum."""
    a = 1.0 + 2.0 ** -30
    return (np.array([[a, -a], [a, -a]]) @ np.array([[a, a], [a, a]])).ravel().tolist()


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "unknown"


def test_standard_form_bits_do_not_depend_on_the_blas_kernel(tmp_path, capsys):
    # numpy sends 2x2 products to BLAS, whose FMA kernels round a dot product
    # differently from the SSE-only Prescott kernel; the standard form, the
    # `standard-form` text and statezoo's states take none.
    blas = _blas_name()
    if "openblas" not in blas.lower():
        pytest.skip(f"OPENBLAS_CORETYPE selects nothing in BLAS {blas!r}")
    rng = np.random.default_rng(55)
    matrices = [statezoo.random_correlated_physical(rng) for _ in range(12)]
    matrices += [apply_symp(standard_matrix(1.5, 0.8, 0.6, -0.2),
                            squeezed_symp(rng, 3.0), squeezed_symp(rng, -2.0))]
    documents = []
    for k, v in enumerate(matrices):
        path = tmp_path / f"state{k}.json"
        path.write_text(json.dumps({"matrix": v.tolist()}))  # repr round-trips
        documents.append(str(path))
    job = {"matrices": [[[x.hex() for x in row] for row in v.tolist()] for v in matrices],
           "documents": documents}
    src = str(Path(cvsep.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    program = "".join(inspect.getsource(f) for f in (_hex_form, _pool_digest, _fma_probe))
    child = subprocess.run(
        [sys.executable, "-c", program + _STANDARD_FORM_CHILD],
        input=json.dumps(job), capture_output=True, text=True, env=env, check=True,
    )
    got = json.loads(child.stdout)
    if got["probe"] == _fma_probe():
        pytest.skip("OPENBLAS_CORETYPE=Prescott rounds 2x2 products as this CPU's kernel does")
    assert got["forms"] == [_hex_form(to_standard_form(v)) for v in matrices]
    assert got["pool"] == _pool_digest()
    for path, text in zip(documents, got["texts"]):
        cli.main(["standard-form", path])
        assert text == capsys.readouterr().out
