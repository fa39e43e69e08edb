import math

import numpy as np
import pytest

from cvsep import statezoo
from cvsep.covariance import apply_symp, p_rep_ensemble
from cvsep.errors import BoundaryPRep, InvalidInput, NotPRepresentable, OutOfDomain
from cvsep.matkit import is_psd_herm
from cvsep.prep import PWeight, char_fn, p_density, p_moment_residual, p_sample, p_weight


def random_p_representable(rng):
    return statezoo.random_separable(rng)


class TestCharFn:
    def test_normalization_at_zero(self):
        assert char_fn(np.eye(4), np.zeros(4)) == 1.0

    def test_vacuum_single_quadrature(self):
        assert char_fn(statezoo.vacuum(), [1.0, 0, 0, 0]) == pytest.approx(
            math.exp(-0.25), abs=1e-14
        )

    def test_even_in_argument(self):
        rng = np.random.default_rng(0)
        v = random_p_representable(rng)
        for _ in range(20):
            lam = rng.standard_normal(4)
            assert char_fn(v, lam) == char_fn(v, -lam)

    @pytest.mark.parametrize(
        "lam", [[1.0, 0.0], [1.0] * 5, [[1.0] * 4], [math.nan, 0, 0, 0], [0, math.inf, 0, 0]]
    )
    def test_rejects_a_vector_that_is_not_a_finite_4_vector(self, lam):
        with pytest.raises(InvalidInput, match="lam must be a finite 4-vector"):
            char_fn(np.eye(4), lam)

    def test_overflow_raises_out_of_domain(self):
        # numpy warned "overflow encountered in matmul" or "in exp" instead.
        with pytest.raises(OutOfDomain, match="quadratic form overflows"):
            char_fn(np.eye(4), [1e200] * 4)
        with pytest.raises(OutOfDomain, match="exponential overflows"):
            char_fn(np.diag([-1.0, 1.0, 1.0, 1.0]), [40.0, 0.0, 0.0, 0.0])


class TestPWeight:
    def test_unit_covariance(self):
        w = p_weight(np.eye(4))
        np.testing.assert_allclose(w.pmat, 2.0 * np.eye(4), atol=1e-12)
        assert w.normalization == pytest.approx(1.0 / math.pi**2, rel=1e-12)

    def test_vacuum_is_boundary(self):
        with pytest.raises(BoundaryPRep):
            p_weight(statezoo.vacuum())

    def test_blockwise_inverse(self):
        w = p_weight(np.diag([1.0, 1.0, 2.0, 2.0]))
        np.testing.assert_allclose(
            w.pmat, np.diag([2.0, 2.0, 2.0 / 3.0, 2.0 / 3.0]), atol=1e-12
        )

    @pytest.mark.parametrize("lam, at_unit_scale", [
        (-1e-7, NotPRepresentable), (0.0, BoundaryPRep), (1e-7, None)])
    def test_decides_against_the_norm_scale_of_v_minus_half(self, lam, at_unit_scale):
        # tol * norm_scale is 1e-4 here: an eigenvalue of V - I/2 within it
        # is a boundary, as p_rep_ensemble accepts it; at unit scale the
        # same eigenvalue is decided against 1e-10.
        v = np.diag([lam, 1e6, 1e6, 1e6]) + 0.5 * np.eye(4)
        p_rep_ensemble(v)
        with pytest.raises(BoundaryPRep):
            p_weight(v)
        unit = np.diag([lam, 1.0, 1.0, 1.0]) + 0.5 * np.eye(4)
        if at_unit_scale is None:
            p_weight(unit)
        else:
            with pytest.raises(at_unit_scale):
                p_weight(unit)

    def test_overflowing_row_sum_is_refused_as_p_rep_ensemble_refuses_it(self):
        for call in (p_rep_ensemble, p_weight):
            with pytest.raises(OutOfDomain, match="row sum"):
                call(np.full((4, 4), 5e307))

    def test_entangled_state_rejected(self):
        with pytest.raises(NotPRepresentable):
            p_weight(statezoo.two_mode_squeezed(0.5))

    def test_one_sided_matrix_rejected(self):
        # The eigensolver reads one triangle, so I plus ones above the
        # diagonal was taken for I and gave P = 2I.
        for call in (p_weight, p_moment_residual):
            with pytest.raises(InvalidInput, match="asymmetry"):
                call(np.eye(4) + np.triu(np.ones((4, 4)), 1))

    def test_overflowing_determinant_is_out_of_domain(self):
        # det(V - I/2) overflows at 1e200 * I; the weight then had
        # normalization 0, a density zero everywhere, after a numpy warning.
        with pytest.raises(OutOfDomain, match="determinant"):
            p_weight(1e200 * np.eye(4))
        w = p_weight(1e70 * np.eye(4))
        np.testing.assert_allclose(w.pmat, np.eye(4) / (1e70 - 0.5), rtol=1e-15)
        assert w.normalization == pytest.approx(1.0 / (4.0 * math.pi**2 * 1e140), rel=1e-12)

    def test_density_integral_is_one(self):
        # Analytic Gaussian integral: normalization * (2 pi)^2 / sqrt(det P).
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = p_weight(random_p_representable(rng))
            integral = (
                w.normalization
                * (2.0 * math.pi) ** 2
                / math.sqrt(float(np.linalg.det(w.pmat)))
            )
            assert integral == pytest.approx(1.0, rel=1e-12)


class TestPDensity:
    def test_peak_value(self):
        w = p_weight(np.eye(4))
        assert p_density(w, np.zeros(4)) == w.normalization

    def test_gaussian_decay_ratio(self):
        rng = np.random.default_rng(2)
        w = p_weight(random_p_representable(rng))
        z = rng.standard_normal(4)
        ratio = p_density(w, 2.0 * z) / p_density(w, z)
        assert ratio == pytest.approx(
            math.exp(-1.5 * float(z @ w.pmat @ z)), rel=1e-10
        )

    def test_unit_covariance_point(self):
        w = p_weight(np.eye(4))
        assert p_density(w, [1.0, 0, 0, 0]) == pytest.approx(
            math.exp(-1.0) / math.pi**2, rel=1e-12
        )

    @pytest.mark.parametrize(
        "z", [[1.0, 0.0], [1.0] * 5, [[1.0] * 4], [math.nan, 0, 0, 0], [0, -math.inf, 0, 0]]
    )
    def test_rejects_a_point_that_is_not_a_finite_4_vector(self, z):
        with pytest.raises(InvalidInput, match="z must be a finite 4-vector"):
            p_density(p_weight(np.eye(4)), z)

    def test_overflow_raises_out_of_domain(self):
        with pytest.raises(OutOfDomain, match="quadratic form overflows"):
            p_density(p_weight(np.eye(4)), [1e200] * 4)
        # A hand-made indefinite weight grows without bound along its negative axis.
        with pytest.raises(OutOfDomain, match="density overflows"):
            p_density(PWeight(np.diag([-1.0, 1.0, 1.0, 1.0]), 1.0), [40.0, 0.0, 0.0, 0.0])


class TestMomentIdentity:
    def test_unit_covariance_exact(self):
        assert p_moment_residual(np.eye(4)) < 1e-14

    def test_diagonal_exact(self):
        assert p_moment_residual(np.diag([1.0, 1.0, 2.0, 2.0])) < 1e-12

    def test_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            assert p_moment_residual(random_p_representable(rng)) < 1e-10

    def test_reconstruction_of_state(self):
        # Weight covariance plus I/2 rebuilds the covariance matrix.
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = random_p_representable(rng)
            w = p_weight(v)
            recon = np.linalg.inv(w.pmat) + 0.5 * np.eye(4)
            assert np.abs(recon - v).max() < 1e-10

    def test_char_fn_factorizes_through_weight(self):
        # The Gaussian transform of the weight times the coherent-state factor
        # exp(-lam.lam/4) reproduces the characteristic function.
        rng = np.random.default_rng(5)
        v = random_p_representable(rng)
        w = p_weight(v)
        cov = np.linalg.inv(w.pmat)
        for _ in range(10):
            lam = rng.standard_normal(4)
            via_weight = math.exp(-0.5 * float(lam @ cov @ lam)) * math.exp(
                -0.25 * float(lam @ lam)
            )
            assert via_weight == pytest.approx(char_fn(v, lam), rel=1e-8)


class TestSampling:
    def test_seed_determinism(self):
        w = p_weight(np.eye(4))
        first = p_sample(w, 100, seed=7)
        second = p_sample(w, 100, seed=7)
        np.testing.assert_array_equal(first, second)

    def test_single_sample(self):
        w = p_weight(np.eye(4))
        out = p_sample(w, 1, seed=0)
        assert out.shape == (1, 4)
        assert np.all(np.isfinite(out))

    def test_rejects_empty_request(self):
        w = p_weight(np.eye(4))
        with pytest.raises(InvalidInput):
            p_sample(w, 0, seed=0)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (2.5, 0, "samples must be an integer"),
            (2.0, 0, "samples must be an integer"),
            (True, 0, "samples must be an integer"),
            ("2", 0, "samples must be an integer"),
            (2, 1.5, "seed must be an integer"),
            (2, False, "seed must be an integer"),
            (2, None, "seed must be an integer"),
            (2, -1, "seed -1 must be nonnegative"),
        ],
    )
    def test_rejects_bad_counts_and_seeds_before_drawing(self, monkeypatch, n, seed, message):
        # 2.5 and True gave 2 and 1 rows, 1.5 and -1 numpy's TypeError and
        # ValueError, and None a draw from OS entropy.
        def no_draw(*args):
            raise AssertionError("p_sample drew before checking its arguments")

        w = p_weight(np.eye(4))
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InvalidInput, match=message):
            p_sample(w, n, seed)

    def test_accepts_numpy_integers(self):
        w = p_weight(np.eye(4))
        np.testing.assert_array_equal(p_sample(w, np.int64(3), np.int32(5)), p_sample(w, 3, 5))

    @pytest.mark.parametrize(
        "pmat", [-np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0])], ids=["indefinite", "singular"]
    )
    def test_rejects_a_weight_matrix_that_is_not_positive_definite(self, pmat):
        # The spectral root of P^(-1) used to give NaN samples after "invalid
        # value in sqrt", or inf samples after "divide by zero".
        with pytest.raises(InvalidInput, match="positive definite"):
            p_sample(PWeight(pmat, 1.0), 2, 0)

    def test_sample_covariance_converges(self):
        n = 100_000
        w = p_weight(np.eye(4))
        pts = p_sample(w, n, seed=11)
        sample_cov = pts.T @ pts / n
        target = 0.5 * np.eye(4)
        for i in range(4):
            for j in range(4):
                se = math.sqrt(
                    (target[i, i] * target[j, j] + target[i, j] ** 2) / n
                )
                assert abs(sample_cov[i, j] - target[i, j]) <= 3.0 * se

    def test_standardized_covariance_chi2(self):
        # Combined chi-square style bound across entries and states; the
        # threshold is the Wilson-Hilferty 1 - 1e-4 quantile.
        rng = np.random.default_rng(6)
        n = 100_000
        total = 0.0
        k = 0
        for _ in range(5):
            v = random_p_representable(rng)
            w = p_weight(v)
            target = np.linalg.inv(w.pmat)
            pts = p_sample(w, n, seed=13 + k)
            sample_cov = pts.T @ pts / n
            for i in range(4):
                for j in range(i, 4):
                    se = math.sqrt(
                        (target[i, i] * target[j, j] + target[i, j] ** 2) / n
                    )
                    total += ((sample_cov[i, j] - target[i, j]) / se) ** 2
                    k += 1
        z = 3.719  # standard normal quantile at 1e-4
        threshold = k * (1.0 - 2.0 / (9.0 * k) + z * math.sqrt(2.0 / (9.0 * k))) ** 3
        assert total <= threshold


def test_p_representability_not_symplectically_invariant():
    # A thermal state with unit occupations is P-representable, but squeezing
    # one mode pushes a momentum variance below the vacuum floor.
    v = np.eye(4)
    assert is_psd_herm(p_rep_ensemble(v))[0]
    squeezer = np.diag([2.0, 0.5])
    v_squeezed = apply_symp(v, squeezer, np.eye(2))
    with pytest.raises(NotPRepresentable):
        p_rep_ensemble(v_squeezed)
