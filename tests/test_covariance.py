import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_symmetric
from cvsep import statezoo
from cvsep.covariance import (
    StandardForm,
    apply_symp,
    as_covariance,
    block_a,
    block_b,
    block_c,
    ensemble_matrix,
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
)
from cvsep.matkit import is_psd_sym


def det2(m):
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


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
        np.testing.assert_allclose(block_a(got), np.diag([4.0, 0.25]), atol=1e-14)
        np.testing.assert_allclose(block_c(got), np.diag([2.0, -0.075]), atol=1e-14)

    def test_rejects_non_symplectic(self):
        v = statezoo.vacuum()
        with pytest.raises(InvalidTransform):
            apply_symp(v, np.array([[1.0, 1.0], [0.0, 2.0]]), np.eye(2))


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

    @given(st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
    def test_determinant_bookkeeping(self, entries):
        m = np.zeros((4, 4))
        m[np.triu_indices(4)] = entries
        v = m + np.triu(m, 1).T
        pt = partial_transpose(v)
        assert det2(block_c(pt)) == -det2(block_c(v))
        assert det2(block_a(pt)) == det2(block_a(v))
        assert det2(block_b(pt)) == det2(block_b(v))


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

    def test_symplectic_invariants_preserved(self):
        rng = np.random.default_rng(9)
        transforms = [
            (statezoo.random_symp2(rng), statezoo.random_symp2(rng))
            for _ in range(100)
        ]
        for _ in range(100):
            v = random_symmetric(rng, scale=2.0)
            dets = (
                det2(block_a(v)),
                det2(block_b(v)),
                det2(block_c(v)),
                float(np.linalg.det(v)),
            )
            for s1, s2 in transforms:
                w = apply_symp(v, s1, s2)
                after = (
                    det2(block_a(w)),
                    det2(block_b(w)),
                    det2(block_c(w)),
                    float(np.linalg.det(w)),
                )
                for x, y in zip(dets, after):
                    assert abs(x - y) <= 1e-10 * max(1.0, abs(x))


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
            assert is_psd_sym(ensemble_matrix(w, devs))

    def test_invalid_ensembles_rejected(self):
        with pytest.raises(InvalidEnsemble):
            ensemble_matrix([0.5, -0.1, 0.6], np.zeros((3, 4)))
        with pytest.raises(InvalidEnsemble):
            ensemble_matrix([0.5, 0.6], np.zeros((2, 4)))
        with pytest.raises(InvalidEnsemble):
            ensemble_matrix([1.0], np.zeros((2, 4)))


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


def test_standard_form_t_ratio():
    sf = StandardForm.from_params(1.0, 1.0, 0.5, -0.3)
    assert sf.t == pytest.approx(0.6)
    assert StandardForm.from_params(1.0, 1.0, 0.0, 0.0).t == 0.0


@pytest.mark.parametrize(
    "scale, skew, accepted",
    [(1.0, 5e-10, True), (1.0, 2e-9, False), (1e4, 5e-6, True), (1e4, 2e-5, False)],
)
def test_as_covariance_asymmetry_bound_is_relative(scale, skew, accepted):
    # The bound is 1e-9 * norm_scale(v), and norm_scale(scale * I) = max(1, scale).
    v = scale * np.eye(4)
    v[0, 1] += skew
    if accepted:
        np.testing.assert_array_equal(as_covariance(v), v)
    else:
        with pytest.raises(InvalidInput, match="asymmetry"):
            as_covariance(v)
