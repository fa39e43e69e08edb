import contextlib
import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import squeezed_symp
import cvsep
import cvsep.covariance
import cvsep.criteria
import cvsep.squeezing
from cvsep import statezoo
from cvsep.covariance import (
    apply_symp,
    as_covariance,
    invariants,
    is_physical,
    p_rep_ensemble,
    partial_transpose,
    standard_matrix,
    to_standard_form,
)
from cvsep.criteria import (
    Outcome,
    ParamSet,
    classify,
    duan_criterion,
    gap_general,
    gap_separable,
    simon_algebraic,
    simon_bound,
    simon_criterion,
    stringent_criterion,
    weak_gap,
)
from cvsep.audit import _scaled_random_psd, run_audit
from cvsep.errors import (
    CvsepError,
    InvalidEnsembleMatrix,
    InvalidInput,
    NotPRepresentable,
    OutOfDomain,
)
from cvsep.prep import PWeight, char_fn, p_density, p_moment_residual, p_sample, p_weight
from cvsep.statezoo import mixed_physical_state
from cvsep.squeezing import SqueezeParams, apply_squeeze, optimal_squeeze
from cvsep.covariance import (
    _REAL_INDEX,
    _UNCERTAINTY_SHIFT,
    J2,
    StandardForm,
    _real_entries,
    _real_scales,
    _uncertainty_pair,
)
from cvsep.matkit import DEFAULT_TOL, norm_scale


def params(d, f, g, h):
    return ParamSet(np.array(d, float), np.array(f, float), np.array(g, float), np.array(h, float))


ZERO = np.zeros((4, 4))
UNIT_PARAMS = params([1, 0], [0, 1], [0, 1], [1, 0])


def _one_sided(v, i, j, x):
    """v with only the (i, j) entry set to x, not its mirror (j, i)."""
    v = np.array(v, dtype=float)
    v[i, j] = x
    return v


def _overflowing_asymmetry():
    """Finite, but v[0, 1] - v[1, 0] and the first row sum overflow."""
    v = np.zeros((4, 4))
    v[0, 1], v[1, 0] = 1.7e308, -1.7e308
    v[0, 2] = v[2, 0] = 1.7e308
    return v


#: Matrices every public criterion must reject with InvalidInput. The fourth
#: is I/2 with only v[0, 2] set, which an eigensolver reading one triangle
#: would otherwise take for an entangled state; the last was accepted as
#: symmetric after numpy overflow warnings.
BAD_MATRICES = [
    np.full((4, 4), np.nan),
    np.diag([0.5, 0.5, np.inf, 0.5]),
    0.5 * np.eye(3),
    _one_sided(0.5 * np.eye(4), 0, 2, 0.3),
    _overflowing_asymmetry(),
]


class _LinalgCalls(list):
    """Names of the np.linalg functions called, in order; is_psd_herm counts
    the calls to matkit.is_psd_herm, the PSD kernel's front end for any array,
    which runs one of them."""

    is_psd_herm = 0


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the np.linalg functions called while the test runs, in order,
    with the count of matkit.is_psd_herm calls among them (_LinalgCalls)."""
    calls = _LinalgCalls()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(name, fn))
    kernel = cvsep.matkit.is_psd_herm

    def counting_kernel(*args, **kwargs):
        calls.is_psd_herm += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cvsep.matkit, "is_psd_herm", counting_kernel)
    return calls


class TestGaps:
    def test_general_vacuum_saturates(self):
        p = params([1, 0], [0, 0], [0, 1], [0, 0])
        assert gap_general(statezoo.vacuum(), ZERO, p) == pytest.approx(0.0, abs=1e-14)

    def test_general_commutator_free_pair(self):
        p = params([1, 0], [0, 0], [1, 0], [0, 0])
        assert gap_general(statezoo.vacuum(), ZERO, p) == pytest.approx(1.0, abs=1e-14)

    def test_general_with_coherent_excess(self):
        p = params([1, 0], [0, 0], [0, 1], [0, 0])
        assert gap_general(np.eye(4), 0.5 * np.eye(4), p) == pytest.approx(0.0, abs=1e-14)

    def test_separable_vacuum_saturates_both_modes(self):
        p = params([1, 0], [1, 0], [0, 1], [0, 1])
        assert gap_separable(statezoo.vacuum(), ZERO, p) == pytest.approx(0.0, abs=1e-14)

    def test_separable_epr_violation(self):
        # Derived oracle: with c1 = +sinh(2r)/2 the squeezed combinations are
        # q1 - q2 and p1 + p2, each of variance e^{-2r}, so the gap equals
        # 2 e^{-2r} - 2 < 0.
        r = 0.5
        v = statezoo.two_mode_squeezed(r)
        p = params([1, 0], [-1, 0], [0, 1], [0, 1])
        expected = 2.0 * math.exp(-2.0 * r) - 2.0
        assert gap_separable(v, ZERO, p) == pytest.approx(expected, abs=1e-12)
        assert gap_separable(v, ZERO, p) < 0.0

    def test_separable_reduces_to_single_quadratic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = statezoo.random_separable(rng)
            ens = p_rep_ensemble(v)
            d = rng.standard_normal(2)
            p = params(d, [0, 0], [0, 0], [0, 0])
            direct = d @ (v[:2, :2] - ens[:2, :2]) @ d
            assert gap_separable(v, ens, p) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("gap", [gap_general, gap_separable])
    @pytest.mark.parametrize("field", "dfgh")
    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]]],
                             ids=["nan", "three", "one", "matrix"])
    def test_witness_vectors_must_be_finite_2_vectors(self, gap, field, bad):
        vectors = {name: [1.0, 0.0] for name in "dfgh"} | {field: bad}
        with pytest.raises(InvalidInput, match=f"witness {field} must be a finite 2-vector"):
            gap(statezoo.vacuum(), None, ParamSet(*(np.asarray(vectors[n]) for n in "dfgh")))

    @pytest.mark.parametrize("gap", [gap_general, gap_separable])
    @pytest.mark.parametrize("ens", [None, ZERO])
    def test_overflowing_terms_raise_out_of_domain(self, gap, ens):
        # 1e200 squared passes the float maximum, which made numpy warn
        # "overflow encountered in matmul" and the gap inf or nan.
        big, zero = np.array([1e200, 1e200]), np.zeros(2)
        for p in (ParamSet(big, big, big, big), ParamSet(big, zero, zero, zero)):
            with pytest.raises(OutOfDomain, match="overflows"):
                gap(statezoo.vacuum(), ens, p)


class TestStringent:
    def test_vacuum(self):
        rep = stringent_criterion(statezoo.vacuum(), ZERO)
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.witness is None

    def test_two_mode_squeezed_fails_on_transpose_branch(self):
        rep = stringent_criterion(statezoo.two_mode_squeezed(0.5), ZERO)
        assert not rep.satisfied
        assert rep.sign_branch == -1
        assert rep.margin == pytest.approx((math.exp(-1.0) - 1.0) / 2.0, abs=1e-12)

    def test_shifted_vacuum(self):
        rep = stringent_criterion(np.eye(4), 0.5 * np.eye(4))
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_makes_two_lapack_calls(self, linalg_calls):
        # One real eigh decides the ensemble matrix is PSD, one complex
        # (2, 4, 4) stack decides both branches.
        stringent_criterion(np.eye(4), 0.25 * np.eye(4))
        assert linalg_calls == ["eigh", "eigh"]

    def test_rejects_indefinite_ensemble(self):
        with pytest.raises(InvalidEnsembleMatrix):
            stringent_criterion(np.eye(4), np.diag([1.0, -1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "v, ens",
        [
            (np.eye(4), np.diag([1.0, -1.0, 0.0, 0.0])),
            (statezoo.vacuum(), -np.eye(4)),
        ],
        ids=["diag", "vacuum-minus-identity"],
    )
    def test_weak_gap_rejects_indefinite_ensemble_too(self, v, ens, sign):
        with pytest.raises(InvalidEnsembleMatrix):
            stringent_criterion(v, ens)
        with pytest.raises(InvalidEnsembleMatrix):
            weak_gap(v, ens, sign)

    @pytest.mark.parametrize("call", [
        stringent_criterion,
        lambda v, ens, tol=DEFAULT_TOL: weak_gap(v, ens, 1, tol),
        lambda v, ens, tol=DEFAULT_TOL: weak_gap(v, ens, -1, tol),
    ], ids=["stringent", "weak_gap_plus", "weak_gap_minus"])
    def test_overflowing_difference_with_the_ensemble_is_out_of_domain(self, call):
        # Both matrices are finite and the ensemble is PSD, but V - ens and the
        # EPR entries of each pass the float maximum: OutOfDomain, without a
        # numpy overflow warning; a bad tol is still bad input.
        v = np.eye(4)
        v[:2, :2] = 1e308
        ens = np.zeros((4, 4))
        ens[:2, :2] = [[0.8e308, -0.8e308], [-0.8e308, 0.8e308]]
        with pytest.raises(OutOfDomain, match="overflows"):
            call(v, ens)
        with pytest.raises(InvalidInput, match="tol must be"):
            call(v, ens, tol=2.0)


class TestSimon:
    def test_vacuum(self):
        rep = simon_criterion(statezoo.vacuum())
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.sign_branch == 0

    def test_two_mode_squeezed_margin(self):
        rep = simon_criterion(statezoo.two_mode_squeezed(0.5))
        assert not rep.satisfied
        assert rep.sign_branch == -1
        assert rep.margin == pytest.approx((math.exp(-1.0) - 1.0) / 2.0, abs=1e-9)

    def test_boundary_standard_form(self):
        rep = simon_criterion(standard_matrix(1.0, 1.0, 0.75, 0.0))
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-10)

    def test_equals_transposed_physicality(self):
        # The sigma = -1 branch is physicality of the partial transpose, so
        # the overall margin is the smaller of the two physicality margins.
        rng = np.random.default_rng(4)
        for i in range(50):
            v = mixed_physical_state(rng, i)
            rep = simon_criterion(v)
            _, lam_direct = is_physical(v)
            _, lam_pt = is_physical(partial_transpose(v))
            assert rep.margin == pytest.approx(min(lam_direct, lam_pt), abs=1e-12)


class TestSimonAlgebraic:
    def test_boundary_case_exact(self):
        # 4 (1 - 9/16) * 1 = 7/4 equals (1 + 1) + 0 - 1/4 = 7/4.
        rep = simon_algebraic(StandardForm.from_params(1.0, 1.0, 0.75, 0.0))
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_violated_case(self):
        rep = simon_algebraic(StandardForm.from_params(1.0, 1.0, 0.8, 0.0))
        assert not rep.satisfied
        assert rep.margin == pytest.approx(4.0 * 0.36 - 1.75, abs=1e-12)

    def test_vacuum(self):
        rep = simon_algebraic(StandardForm.from_params(0.5, 0.5, 0.0, 0.0))
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_matrix_form(self):
        rng = np.random.default_rng(13)
        for i in range(10_000):
            v = mixed_physical_state(rng, i)
            matrix_rep = simon_criterion(v)
            algebra_rep = simon_algebraic(to_standard_form(v))
            if matrix_rep.satisfied != algebra_rep.satisfied:
                assert abs(matrix_rep.margin) <= 1e-8
                assert abs(algebra_rep.margin) <= 1e-8


class TestDuan:
    def test_vacuum_boundary(self):
        rep = duan_criterion(statezoo.vacuum())
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_squeezed_boundary_state(self):
        # At the extremal squeezing of (1, 1, 0.75, 0) the EPR matrix has a
        # zero eigenvalue on both branches.
        v = apply_squeeze(StandardForm.from_params(1.0, 1.0, 0.75, 0.0), SqueezeParams(2.0, 2.0))
        rep = duan_criterion(v)
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_two_mode_squeezed_violation(self):
        # EPR variance sum cosh(2r) - sinh(2r) - 1 = e^{-2r} - 1 < 0.
        rep = duan_criterion(statezoo.two_mode_squeezed(0.5))
        assert not rep.satisfied
        assert rep.margin == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)

    def test_equals_weak_gap_at_zero_ensemble(self):
        rng = np.random.default_rng(17)
        for i in range(200):
            v = mixed_physical_state(rng, i)
            rep = duan_criterion(v)
            margins = [weak_gap(v, ZERO, s).margin for s in (1, -1)]
            assert rep.margin == pytest.approx(min(margins), abs=1e-12)

    def test_overflowing_epr_matrix_is_out_of_domain(self):
        # The EPR blocks add two entries of V; near the float maximum the sum
        # is inf, and the eigensolver would turn it into a nan margin.
        v = 1e308 * np.eye(4)
        for call in (duan_criterion, lambda v: weak_gap(v, None, -1), classify):
            with pytest.raises(OutOfDomain, match="finite entries"):
                call(v)

    def test_overflowing_correlation_sum_is_out_of_domain_without_a_warning(self):
        # c00 + c11 and c01 - c10 pass the float maximum on Python floats,
        # which give inf silently; the PSD test then refuses the sigma = +1
        # matrix. (classify stops earlier, at its complex stack's row sums.)
        v = standard_matrix(1.0, 1.0, 0.0, 0.0)
        v[0, 2] = v[2, 0] = v[1, 3] = v[3, 1] = 1e308
        v[0, 3] = v[3, 0] = 1e308
        v[1, 2] = v[2, 1] = -1e308
        for call in (duan_criterion, lambda v: weak_gap(v, None, 1)):
            with pytest.raises(OutOfDomain, match="finite entries"):
                call(v)
        # On sigma = -1 the same entries cancel to zero: EPR(-1) - I is 1 * I.
        rep = weak_gap(v, None, -1)
        assert rep.satisfied and rep.margin == 1.0

    @pytest.mark.parametrize("c2, branch", [(1e-15, 0), (-1e-15, 0), (1e-3, 1), (-1e-3, -1)])
    def test_witness_comes_from_the_plus_branch_unless_minus_binds(self, c2, branch):
        # Sub-vacuum blocks with correlations (1e-3, c2): the EPR branches
        # have smallest eigenvalues -0.2 - |1e-3 + sigma c2|, so c2 = -1e-15
        # leaves sigma = -1 lower by 2e-15, inside the 1e-12 tie.
        v = 0.4 * np.eye(4)
        v[0, 2] = v[2, 0] = 1e-3
        v[1, 3] = v[3, 1] = c2
        rep = duan_criterion(v)
        assert not rep.satisfied
        assert rep.sign_branch == branch
        sign = -1 if branch == -1 else 1
        w = rep.witness
        np.testing.assert_array_equal(w.g, J2.T @ w.d)
        np.testing.assert_array_equal(w.h, sign * (J2.T @ w.f))
        assert gap_separable(v, ZERO, w) < 0.0


class TestWeakGap:
    def test_vacuum_both_signs(self):
        for sign in (1, -1):
            rep = weak_gap(statezoo.vacuum(), ZERO, sign)
            assert rep.satisfied
            assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_coherent_excess_ensemble_saturates(self):
        # With the coherent-excess ensemble the blocks cancel exactly to zero.
        rng = np.random.default_rng(19)
        for _ in range(100):
            v = statezoo.random_separable(rng)
            ens = p_rep_ensemble(v)
            for sign in (1, -1):
                rep = weak_gap(v, ens, sign)
                assert rep.satisfied
                assert rep.margin == pytest.approx(0.0, abs=1e-10)

    def test_shifted_vacuum(self):
        for sign in (1, -1):
            rep = weak_gap(np.eye(4), 0.5 * np.eye(4), sign)
            assert rep.margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sign", [0, 2, -2, True, False, 1.0, -1.0, "1", None])
    def test_rejects_a_sign_that_is_not_the_integer_plus_or_minus_one(self, sign):
        with pytest.raises(InvalidInput, match=r"sign branch must be \+1 or -1"):
            weak_gap(statezoo.vacuum(), None, sign)

    def test_numpy_integer_signs_are_accepted(self):
        for sign in (np.int64(1), np.int32(-1)):
            assert weak_gap(statezoo.vacuum(), None, sign).sign_branch == sign


class TestWitnesses:
    def test_every_failure_produces_negative_gap(self):
        rng = np.random.default_rng(23)
        failures = 0
        i = 0
        while failures < 1000:
            i += 1
            choice = i % 3
            if choice == 0:
                v = statezoo.two_mode_squeezed(float(rng.uniform(0.1, 2.0)))
                v = apply_symp(v, statezoo.random_symp2(rng), statezoo.random_symp2(rng))
                rep = simon_criterion(v)
                if not rep.satisfied:
                    assert gap_separable(v, ZERO, rep.witness) < 0.0
                    failures += 1
            elif choice == 1:
                v = statezoo.two_mode_squeezed(float(rng.uniform(0.1, 2.0)))
                rep = duan_criterion(v)
                if not rep.satisfied:
                    assert gap_separable(v, ZERO, rep.witness) < 0.0
                    failures += 1
            else:
                nu = float(rng.uniform(0.05, 0.45))
                v = apply_symp(
                    np.diag([nu, nu, 1.0, 1.0]),
                    statezoo.random_symp2(rng),
                    statezoo.random_symp2(rng),
                )
                verdict = classify(v)
                rep = verdict.reports["physical"]
                assert not rep.satisfied
                assert gap_general(v, ZERO, rep.witness) < 0.0
                failures += 1

    def test_sampling_never_undercuts_spectral_margin(self):
        rng = np.random.default_rng(29)
        for v in (statezoo.two_mode_squeezed(0.5), mixed_physical_state(rng, 2)):
            margin = simon_criterion(v).margin
            lowest = math.inf
            for _ in range(10_000):
                raw = rng.standard_normal(8)
                raw /= np.linalg.norm(raw)
                p = ParamSet(raw[:2], raw[2:4], raw[4:6], raw[6:])
                lowest = min(lowest, gap_general(v, ZERO, p))
            assert lowest >= margin - 1e-9


class TestVerdictInvariance:
    def test_boolean_verdicts_stable_under_local_transforms(self):
        rng = np.random.default_rng(31)
        bases = [
            statezoo.vacuum(),
            statezoo.two_mode_squeezed(0.3),
            statezoo.random_separable(rng),
            statezoo.random_correlated_physical(rng),
        ]
        for v in bases:
            ens = 0.3 * np.eye(4)
            simon_before = simon_criterion(v).satisfied
            stringent_before = stringent_criterion(v, ens).satisfied
            for _ in range(100):
                s1 = statezoo.random_symp2(rng)
                s2 = statezoo.random_symp2(rng)
                w = apply_symp(v, s1, s2)
                ens_w = apply_symp(ens, s1, s2)
                assert simon_criterion(w).satisfied == simon_before
                assert stringent_criterion(w, ens_w).satisfied == stringent_before

    def test_outcome_stable_under_strong_local_squeezing(self):
        # Factors x with |log x| <= 3 on each mode, away from the boundary.
        # Past |log x| of about 9, x near eps^(-1/4) (about 1e4), the block
        # determinants of S A S^T lose every digit in float64.
        rng = np.random.default_rng(55)
        states = [mixed_physical_state(rng, i) for i in range(400)]
        away = [(v, verdict.outcome) for v, verdict in zip(states, map(classify, states))
                if abs(verdict.reports["p_rep_bound"].margin) >= 1e-6][:300]
        assert len(away) == 300
        for v, outcome in away:
            for _ in range(5):
                s1 = squeezed_symp(rng, rng.uniform(-3.0, 3.0))
                s2 = squeezed_symp(rng, rng.uniform(-3.0, 3.0))
                assert classify(apply_symp(v, s1, s2)).outcome is outcome


class TestClassify:
    def test_vacuum_separable(self):
        assert classify(statezoo.vacuum()).outcome is Outcome.SEPARABLE

    def test_two_mode_squeezed_entangled(self):
        verdict = classify(statezoo.two_mode_squeezed(0.5))
        assert verdict.outcome is Outcome.ENTANGLED
        assert not verdict.reports["simon"].satisfied
        assert verdict.consistent

    def test_sub_vacuum_nonphysical(self):
        verdict = classify(0.4 * np.eye(4))
        assert verdict.outcome is Outcome.NONPHYSICAL
        assert verdict.standard_form is None

    def test_overflowing_epr_sum_of_a_standard_matrix_is_out_of_domain(self):
        # c00 + c11 = 2e308: every row sum of the complex stack stays finite,
        # but the real stack's EPR entry overflows; a bad tol is still bad input.
        v = standard_matrix(1.0, 1.0, 0.0, 0.0)
        v[0, 2] = v[2, 0] = v[1, 3] = v[3, 1] = 1e308
        with pytest.raises(OutOfDomain, match="overflows"):
            classify(v)
        with pytest.raises(InvalidInput, match="tol must be"):
            classify(v, math.nan)

    def test_boundary_state_separable(self):
        verdict = classify(standard_matrix(1.0, 1.0, 0.75, 0.0))
        assert verdict.outcome is Outcome.SEPARABLE
        assert verdict.reports["p_rep_bound"].margin == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("bad", BAD_MATRICES)
    def test_rejects_non_finite_or_misshaped(self, bad):
        with pytest.raises(InvalidInput):
            classify(bad)

    def test_validates_its_matrix_once(self, monkeypatch):
        calls = []

        def counting(v):
            calls.append(1)
            return as_covariance(v)

        monkeypatch.setattr(cvsep.criteria, "as_covariance", counting)
        monkeypatch.setattr(cvsep.covariance, "as_covariance", counting)
        verdict = classify(statezoo.two_mode_squeezed(0.5))
        assert verdict.standard_form is not None
        assert len(calls) == 1

    def test_coherent_excess_report_is_the_vacuum_report(self):
        # V - (V - I/2) is I/2 exactly, so the coherent-excess stringent
        # report is one constant: that of the vacuum, at every tol.
        rep = cvsep.criteria._COHERENT_EXCESS_REPORT
        assert (rep.satisfied, rep.margin, rep.witness, rep.sign_branch) == (True, 0.0, None, 0)
        vac = stringent_criterion(0.5 * np.eye(4), ZERO, 5e-324)
        assert (vac.satisfied, vac.witness, vac.sign_branch) == (True, None, 0)
        assert np.float64(vac.margin).tobytes() == np.float64(0.0).tobytes()
        for tol in (5e-324, 1e-10, 0.5):
            verdict = classify(statezoo.thermal(1.0, 1.5), tol)
            assert verdict.ensemble_used == "coherent_excess"
            assert verdict.reports["stringent"] is rep

    @pytest.mark.parametrize("n1", [2.0**53, 1e16 + 3, 2.0**60, 1e75])
    def test_huge_occupation_keeps_the_stringent_report_exact(self, n1):
        # V - (V - I/2) computed per state is no longer I/2 once a diagonal
        # entry reaches 2^53; on these separable, P-representable states it
        # reported the stringent condition violated, margin -0.5, a witness.
        verdict = classify(statezoo.thermal(n1, 0.75))
        assert verdict.outcome is Outcome.SEPARABLE
        assert verdict.ensemble_used == "coherent_excess"
        st = verdict.reports["stringent"]
        assert (st.satisfied, st.margin, st.witness, st.sign_branch) == (True, 0.0, None, 0)

    def test_standard_form_past_the_ab_bound_is_out_of_domain(self):
        # thermal(n, n) has a = b = n: 1e75^2 rounds to just below 1e150.
        assert classify(statezoo.thermal(1e75, 1e75)).outcome is Outcome.SEPARABLE
        with pytest.raises(OutOfDomain, match=r"a \* b <= 1e\+150"):
            classify(statezoo.thermal(1.1e75, 1e75))
        with pytest.raises(OutOfDomain):
            classify(1e100 * np.eye(4))
        # Past about 1.3e154 the block determinants overflow before a and b exist.
        with pytest.raises(OutOfDomain, match="A block determinant overflows"):
            classify(1e160 * np.eye(4))

    @pytest.mark.parametrize(
        "call",
        [
            classify,
            is_physical,
            simon_criterion,
            duan_criterion,
            lambda ens: stringent_criterion(statezoo.vacuum(), ens),
            lambda ens: weak_gap(statezoo.vacuum(), ens, 1),
            p_weight,
        ],
        ids=["classify", "is_physical", "simon_criterion", "duan_criterion",
             "stringent_ens", "weak_gap_ens", "p_weight"],
    )
    def test_overflowing_row_sum_is_out_of_domain_without_a_warning(self, call):
        # Every entry is finite, but a row sums past the float maximum, so the
        # PSD tolerance scale would be inf; numpy used to warn while summing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain, match="row sum"):
                call(np.full((4, 4), 5e307))

    @pytest.mark.parametrize(
        "v",
        [
            standard_matrix(1.0, 1.0, 0.6, 0.0),  # separable, V - I/2 indefinite
            statezoo.thermal(1.0, 1.5),  # P-representable
            statezoo.two_mode_squeezed(0.5),  # entangled
            0.4 * np.eye(4),  # nonphysical
        ],
        ids=["separable", "p_representable", "entangled", "nonphysical"],
    )
    def test_makes_two_lapack_calls(self, linalg_calls, v):
        # One complex (2, 4, 4) stack for physicality and Simon, one real
        # (3, 4, 4) stack for Duan's branches and the coherent excess.
        classify(v)
        assert linalg_calls == ["eigh", "eigh"]

    @pytest.mark.parametrize(
        "call, eigh_calls, kernel_calls",
        [
            (classify, 2, 0),
            (simon_criterion, 1, 0),
            (duan_criterion, 1, 0),
            (is_physical, 1, 0),
            (p_rep_ensemble, 1, 0),
            (p_weight, 1, 0),
            (lambda v: weak_gap(v, 0.1 * np.eye(4), -1), 2, 1),
            # The ensemble check goes through the front end: the count counts.
            (lambda v: stringent_criterion(v, 0.1 * np.eye(4)), 2, 1),
        ],
        ids=["classify", "simon_criterion", "duan_criterion", "is_physical",
             "p_rep_ensemble", "p_weight", "weak_gap_ens", "stringent_ens"],
    )
    @pytest.mark.parametrize(
        "v",
        [
            standard_matrix(1.0, 1.0, 0.6, 0.0),
            statezoo.thermal(1.0, 1.5),
            statezoo.two_mode_squeezed(0.5),
            0.4 * np.eye(4),
        ],
        ids=["separable", "p_representable", "entangled", "nonphysical"],
    )
    def test_decides_its_stacks_without_is_psd_herm(
        self, linalg_calls, call, eigh_calls, kernel_calls, v
    ):
        # Every criterion reads its tolerance scales off V's entries and
        # hands its stack to matkit.decide_psd, one eigh call per stack;
        # p_weight decides from its own full eigendecomposition. Only a
        # caller's ensemble matrix goes through the is_psd_herm front end.
        with contextlib.suppress(NotPRepresentable):  # V - I/2 indefinite
            call(v)
        assert linalg_calls == ["eigh"] * eigh_calls
        assert linalg_calls.is_psd_herm == kernel_calls

    def test_ensemble_used_is_p_rep_ensemble_and_reports_are_the_public_criteria(self):
        # The real stack decides P-representability and Duan together; each
        # must be what the public function alone gives, bit for bit.
        def same(rep, ref):
            assert (rep.satisfied, rep.sign_branch) == (ref.satisfied, ref.sign_branch)
            assert np.float64(rep.margin).tobytes() == np.float64(ref.margin).tobytes()
            assert (rep.witness is None) == (ref.witness is None)
            if rep.witness is not None:
                for x, y in zip(vars(rep.witness).values(), vars(ref.witness).values()):
                    assert x.tobytes() == y.tobytes()

        rng = np.random.default_rng(55)
        seen = {"coherent_excess": 0, "zero": 0}
        for i in range(300):
            v = mixed_physical_state(rng, i)
            for w in (v, 0.8 * v):
                verdict = classify(w)
                seen[verdict.ensemble_used] += 1
                try:
                    p_rep_ensemble(w)
                    p_rep = True
                except NotPRepresentable:
                    p_rep = False
                assert (verdict.ensemble_used == "coherent_excess") == p_rep
                phys = verdict.reports["physical"]
                ok, lam = is_physical(w)
                assert phys.satisfied == ok
                assert np.float64(phys.margin).tobytes() == np.float64(lam).tobytes()
                same(verdict.reports["simon"], simon_criterion(w))
                same(verdict.reports["duan"], duan_criterion(w))
        assert min(seen.values()) > 0

    def test_physical_and_zero_ensemble_reports_reuse_simon(self):
        # Physicality is Simon's sigma = +1 branch and the zero-ensemble
        # stringent condition is Simon's criterion, so classify reads both off
        # the Simon evaluation; scaled copies cover nonphysical states.
        rng = np.random.default_rng(41)
        zero_seen = 0
        for i in range(400):
            v = mixed_physical_state(rng, i)
            for w in (v, 0.8 * v):
                verdict = classify(w)
                phys = verdict.reports["physical"]
                assert (phys.satisfied, phys.margin) == is_physical(w)
                assert phys.sign_branch == 1
                assert (phys.witness is None) == phys.satisfied
                if verdict.ensemble_used == "zero":
                    zero_seen += 1
                    assert verdict.reports["stringent"] is verdict.reports["simon"]
                else:
                    expected = stringent_criterion(w, w - 0.5 * np.eye(4))
                    assert verdict.reports["stringent"].margin == expected.margin
        assert zero_seen > 0

    def test_classify_makes_no_optimal_squeeze_call(self, monkeypatch):
        # classify needs only the bound, so the factors are never computed.
        def fail(*args):
            raise AssertionError("classify called optimal_squeeze")

        for module in (cvsep, cvsep.squeezing, cvsep.criteria):
            if hasattr(module, "optimal_squeeze"):
                monkeypatch.setattr(module, "optimal_squeeze", fail)
        rng = np.random.default_rng(7)
        outcomes = {classify(mixed_physical_state(rng, i)).outcome for i in range(40)}
        assert outcomes == {Outcome.SEPARABLE, Outcome.ENTANGLED}

    def test_p_rep_bound_margin_is_optimal_squeezes_bound_bitwise(self):
        rng = np.random.default_rng(55)
        for i in range(300):
            verdict = classify(mixed_physical_state(rng, i))
            sf = verdict.standard_form
            bound = optimal_squeeze(max(sf.a, 0.5), max(sf.b, 0.5), sf.t).c1_bound
            margin = verdict.reports["p_rep_bound"].margin
            assert np.float64(margin).tobytes() == np.float64(bound - abs(sf.c1)).tobytes()

    def test_consistent_on_mixed_pool(self):
        rng = np.random.default_rng(37)
        for i in range(2000):
            v = mixed_physical_state(rng, i)
            verdict = classify(v)
            assert verdict.outcome in (Outcome.SEPARABLE, Outcome.ENTANGLED)
            assert verdict.consistent


def _nested_epr(rows, sign):
    """Reference for covariance._epr_entries: the EPR block matrix
    [[A + JAJ^T, C + sign*JCJ^T], [.., B + JBJ^T]] written out entry by entry
    as nested lists."""
    (a00, _, c00, c01), (_, a11, c10, c11), (*_, b00, _), (*_, b11) = rows
    ta, tb = a00 + a11, b00 + b11
    return [
        [ta, 0.0, c00 + sign * c11, c01 - sign * c10],
        [0.0, ta, c10 - sign * c01, c11 + sign * c00],
        [c00 + sign * c11, c10 - sign * c01, tb, 0.0],
        [c01 - sign * c10, c11 + sign * c00, 0.0, tb],
    ]


def _nested_real_stack(v):
    """[EPR(+1) - I, EPR(-1) - I, V - I/2] as one nested list less a constant stack."""
    rows = v.tolist()
    shift = np.array([np.eye(4), np.eye(4), 0.5 * np.eye(4)])
    return np.array([_nested_epr(rows, 1), _nested_epr(rows, -1), rows]) - shift


def _nested_weak_gap(v, ens, sign, tol):
    """weak_gap's report from the nested-list EPR matrices."""
    m = np.array(_nested_epr(as_covariance(v).tolist(), sign))
    if ens is not None:
        m = m - np.array(_nested_epr(as_covariance(ens).tolist(), sign))
    ok, lam, vec = cvsep.matkit.is_psd_herm(m - np.eye(4), tol)
    return cvsep.criteria.CriterionReport(
        ok, lam, None if ok else cvsep.criteria._witness(vec, sign), sign)


def _real_stack(v):
    """The real stack classify decides, [EPR(+1) - I, EPR(-1) - I, V - I/2]."""
    return np.array(_real_entries(v.tolist()))[_REAL_INDEX]


def _scaled_pool(seed, n):
    """Audit-pool states with one in five scaled by 0.8, so nonphysical."""
    rng = np.random.default_rng(seed)
    return [(0.8 if i % 5 == 4 else 1.0) * mixed_physical_state(rng, i) for i in range(n)]


@pytest.mark.parametrize("seed", [7, 13, 31])
def test_real_stack_and_epr_reports_match_the_nested_lists_bitwise(seed):
    # The stacks are built from each distinct entry once and one constant
    # index; every bit must stay what the nested lists gave, for both the
    # stack classify decides and the reports of duan_criterion and weak_gap.
    erng = np.random.default_rng(seed + 1)
    for i, v in enumerate(_scaled_pool(seed, 4000)):
        expected = _nested_real_stack(v)
        assert _real_stack(v).tobytes() == expected.tobytes()
        if i % 8:
            continue
        duan = cvsep.criteria._branch_report(*cvsep.matkit.is_psd_herm(expected[:2], DEFAULT_TOL))
        assert _bits(duan_criterion(v)) == _bits(duan)
        g = 0.3 * erng.standard_normal((4, 4))
        for ens in (None, g @ g.T):
            for sign in (1, -1):
                assert _bits(weak_gap(v, ens, sign)) == _bits(
                    _nested_weak_gap(v, ens, sign, DEFAULT_TOL))


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 2): -0.0, (1, 3): -0.0, (0, 3): -0.0, (1, 2): -0.0},
        {(0, 2): -0.0, (1, 3): 0.0, (0, 3): 0.0, (1, 2): -0.0},
        {(0, 2): 5e-324, (1, 3): -5e-324, (0, 3): 2.2e-308, (1, 2): -1e-310},
        {(0, 1): -0.0, (2, 3): 5e-324, (0, 2): 1e-320, (1, 3): 1e-320},
        {(0, 2): 1e300, (1, 3): -1e300, (0, 3): 3e-310, (1, 2): 3e-310},
    ],
    ids=["negative-zeros", "mixed-zeros", "subnormals", "subnormal-blocks", "huge-and-tiny"],
)
def test_real_stack_keeps_signed_zeros_and_subnormals(entries):
    # Signed zeros and subnormals pass through each sum and difference as the
    # nested lists gave them, including the sign of every zero.
    v = standard_matrix(1.0, 1.5, 0.0, 0.0)
    for (i, j), x in entries.items():
        v[i, j] = v[j, i] = x
    assert _real_stack(v).tobytes() == _nested_real_stack(v).tobytes()
    for sign in (1, -1):
        assert _bits(weak_gap(v, None, sign)) == _bits(_nested_weak_gap(v, None, sign, DEFAULT_TOL))


def _assert_scales_are_norm_scale(v):
    """The tolerance scales classify reads off v's floats, for the Hermitian
    pair and for the real stack, are matkit.norm_scale's, bit for bit."""
    pair, scales = _uncertainty_pair(v)
    real = _real_scales(_real_entries(v.tolist()))
    with np.errstate(over="ignore"):  # a row sum past the float maximum is inf in both
        assert np.array(scales).tobytes() == norm_scale(v + _UNCERTAINTY_SHIFT).tobytes()
        assert np.array(real).tobytes() == norm_scale(_real_stack(v)).tobytes()
    assert pair.tobytes() == (v + _UNCERTAINTY_SHIFT).tobytes()


@settings(max_examples=400)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from([1.0, 0.8]),
       st.integers(-30, 150))
def test_scales_are_norm_scale_on_scaled_pool_states(seed, index, factor, k):
    # numpy's complex abs of v01 + i/2 differs from math.hypot and abs(complex)
    # in the last bit on about a quarter of random entries, and numpy sums
    # each row left to right: a scale taken any other way misses its bits.
    v = factor * mixed_physical_state(np.random.default_rng(seed), index)
    _assert_scales_are_norm_scale(v)
    _assert_scales_are_norm_scale(10.0**k * v)


#: Entries of every size a finite matrix can hold: signed zeros, subnormals,
#: halves (V - I/2 and |x + i/2| at the boundary) and entries near 1e308,
#: whose row sums overflow.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324]),
    st.floats(-10.0, 10.0),
    st.floats(1e307, sys.float_info.max),
    st.floats(-sys.float_info.max, -1e307),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400)
@given(st.lists(_ENTRIES, min_size=10, max_size=10))
def test_scales_are_norm_scale_on_extreme_entries(upper):
    v, upper_index = np.zeros((4, 4)), np.triu_indices(4)
    v[upper_index] = v[upper_index[::-1]] = upper  # each entry's sign of zero kept
    _assert_scales_are_norm_scale(v)


def _reference_psd(m, tol):
    """(verdict, smallest eigenvalue, its eigenvector) of one matrix, from
    norm_scale and np.linalg.eigh alone, or the refusal of an overflow."""
    if not np.isfinite(m).all():
        raise OutOfDomain("finite entries")
    with np.errstate(over="ignore"):  # a row sum past the float maximum is inf
        scale = float(norm_scale(m))
    if scale == math.inf:
        raise OutOfDomain("row sum")
    values, vectors = np.linalg.eigh(m)
    return bool(values[0] >= -tol * scale), float(values[0]), vectors[:, 0]


def _reference_branches(ms, tol):
    """The stacked PSD result _branch_report reads, one reference solve each."""
    ok, lam, vec = zip(*(_reference_psd(m, tol) for m in ms))
    return list(ok), list(lam), np.array(vec)


def _reference_results(v, ens, tol):
    """is_physical, p_rep_ensemble, stringent_criterion at ens and weak_gap
    (both signs, at None and ens) of v, each from _reference_psd of the matrix
    it decides, built entry by entry."""
    def uncertainty(m, sign):
        return m + 0.5j * cvsep.covariance.symplectic_form(sign)

    def physical():
        ok, lam, _ = _reference_psd(uncertainty(v, 1), tol)
        return ok, lam

    def p_rep():
        if not _reference_psd(v - 0.5 * np.eye(4), tol)[0]:
            raise NotPRepresentable("V - I/2 has a negative eigenvalue")
        return v - 0.5 * np.eye(4)

    def stringent():
        with np.errstate(over="ignore"):
            excess = v - ens
        return cvsep.criteria._branch_report(
            *_reference_branches([uncertainty(excess, 1), uncertainty(excess, -1)], tol))

    def weak(e, sign):
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.array(_nested_epr(v.tolist(), sign))
            if e is not None:
                m = m - np.array(_nested_epr(e.tolist(), sign))
            ok, lam, vec = _reference_psd(m - np.eye(4), tol)
        return cvsep.criteria.CriterionReport(
            ok, lam, None if ok else cvsep.criteria._witness(vec, sign), sign)

    return [physical, p_rep, stringent] + [
        lambda e=e, sign=sign: weak(e, sign) for e in (None, ens) for sign in (1, -1)]


def _typed_bits(call):
    """_bits of call(), with the type of each field, or its refusal's class
    and whether it names a non-finite entry or a row sum. LAPACK may fail to
    converge on entries near the float maximum; both sides must fail then."""
    try:
        out = call()
    except (NotPRepresentable, OutOfDomain, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, "finite entries" in str(exc), "row sum" in str(exc)
    fields = vars(out).values() if dataclasses.is_dataclass(out) else out
    return _bits(out), tuple(type(x).__name__ for x in fields)


def _assert_kernel_matches_reference(v, ens, tol=DEFAULT_TOL):
    """is_physical, p_rep_ensemble, stringent_criterion and weak_gap give the
    reference's result, bit for bit and type for type."""
    calls = [
        lambda: is_physical(v, tol),
        lambda: p_rep_ensemble(v, tol),
        lambda: stringent_criterion(v, ens, tol),
        lambda: weak_gap(v, None, 1, tol),
        lambda: weak_gap(v, None, -1, tol),
        lambda: weak_gap(v, ens, 1, tol),
        lambda: weak_gap(v, ens, -1, tol),
    ]
    references = _reference_results(as_covariance(v), as_covariance(ens), tol)
    for call, reference in zip(calls, references):
        assert _typed_bits(call) == _typed_bits(reference)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from([1.0, 0.8]),
       st.integers(-30, 150), st.sampled_from([1e-10, 1e-3]))
def test_kernel_criteria_match_a_norm_scale_and_eigh_reference(seed, index, factor, k, tol):
    # is_physical, p_rep_ensemble, stringent_criterion and weak_gap decide
    # through matkit.decide_psd with scales read off V's floats; each must
    # be what one eigh call and norm_scale of its own matrix give.
    rng = np.random.default_rng(seed)
    v = factor * mixed_physical_state(rng, index)
    # A random ensemble below the coherent excess, drawn as the audit draws it.
    if classify(v).ensemble_used == "coherent_excess":
        ens = _scaled_random_psd(rng, v - 0.5 * np.eye(4))
    else:
        ens = 0.1 * np.eye(4)
    for scale in (1.0, 10.0**k):
        _assert_kernel_matches_reference(scale * v, scale * ens, tol)


@settings(max_examples=300)
@example([1.7e308, 0.0, 0.0, 0.0, 1.7e308, 0.0, 0.0, 1.0, 0.0, 1.0],
         [1.7e308, 1.7e308, 0.0, 0.0])  # tr A - tr A_ens is inf - inf
@example([-0.0, -0.0, -0.0, 0.0, 0.5, -0.0, 0.0, 0.5, -0.0, 5e-324], [0.0, 5e-324, 0.0, 0.5])
@given(st.lists(_ENTRIES, min_size=10, max_size=10),
       st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 0.5]), st.floats(0.0, 10.0),
                          st.floats(1e307, sys.float_info.max)), min_size=4, max_size=4))
def test_kernel_criteria_match_the_reference_on_extreme_entries(upper, diagonal):
    # Signed zeros, subnormals and entries near 1e308, against an ensemble
    # diag(e) with entries as large: overflowed entries (inf, or nan where
    # two infs cancel in weak_gap) and row sums are refused as the
    # reference refuses them.
    v, upper_index = np.zeros((4, 4)), np.triu_indices(4)
    v[upper_index] = v[upper_index[::-1]] = upper
    _assert_kernel_matches_reference(v, np.diag(diagonal))


#: Every public entry point that takes a covariance matrix, called on one.
ENTRY_POINTS = {
    "is_physical": is_physical,
    "simon": simon_criterion,
    "duan": duan_criterion,
    "stringent_v": lambda v: stringent_criterion(v, ZERO),
    "stringent_ens": lambda ens: stringent_criterion(statezoo.vacuum(), ens),
    "weak_gap_v": lambda v: weak_gap(v, ZERO, 1),
    "weak_gap_ens": lambda ens: weak_gap(statezoo.vacuum(), ens, -1),
    "p_rep_ensemble": p_rep_ensemble,
    "p_weight": p_weight,
    "p_moment_residual": p_moment_residual,
    "p_sample": lambda m: p_sample(PWeight(m, 1.0), 1, 0),
    "p_density": lambda m: p_density(PWeight(m, 1.0), np.ones(4)),
    "gap_general_v": lambda v: gap_general(v, None, UNIT_PARAMS),
    "gap_general_ens": lambda ens: gap_general(statezoo.vacuum(), ens, UNIT_PARAMS),
    "gap_separable_v": lambda v: gap_separable(v, None, UNIT_PARAMS),
    "gap_separable_ens": lambda ens: gap_separable(statezoo.vacuum(), ens, UNIT_PARAMS),
    "apply_symp": lambda v: apply_symp(v, np.eye(2), np.eye(2)),
    "partial_transpose": partial_transpose,
    "char_fn": lambda v: char_fn(v, np.ones(4)),
    "classify": classify,
    "to_standard_form": to_standard_form,
    "invariants": invariants,
}


@pytest.mark.parametrize("criterion", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("bad", BAD_MATRICES)
def test_public_criteria_reject_bad_matrices(criterion, bad):
    with pytest.raises(InvalidInput):
        criterion(bad)


def _bits(x):
    """x as nested tuples that compare equal exactly when every bit agrees:
    floats and arrays by their bytes, dataclasses and dicts field by field."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple((key, _bits(val)) for key, val in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(_bits(item) for item in x)
    if isinstance(x, (float, np.ndarray)):
        return np.asarray(x).dtype.str, np.shape(x), np.asarray(x).tobytes()
    return x


def _result_bits(call, v):
    """_bits of call(v), or the kind and message of the CvsepError it raises."""
    try:
        return _bits(call(v))
    except CvsepError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("criterion", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_public_criteria_judge_either_triangle_alike(criterion):
    # An accepted asymmetry in v[0, 2] only, in v[2, 0] only, and the two
    # averaged: each entry point judges the one matrix as_covariance returns,
    # so the triangle that carries the asymmetry changes no bit of its result.
    upper = standard_matrix(1.0, 1.0, 0.6, -0.6)
    upper[0, 2] += 4e-10
    lower = upper.T.copy()
    first, *rest = (_result_bits(criterion, v) for v in (upper, lower, 0.5 * (upper + lower)))
    assert rest == [first, first]


#: Every public entry point that reads a real array, with a valid argument
#: of integer values, so that casting it to int keeps every value.
REAL_ARRAY_TAKERS = {
    **{name: (call, np.eye(4)) for name, call in ENTRY_POINTS.items()},
    "as_covariance": (as_covariance, np.eye(4)),
    "char_fn_lam": (lambda lam: char_fn(np.eye(4), lam), np.ones(4)),
    "p_density_z": (lambda z: p_density(p_weight(np.eye(4)), z), np.ones(4)),
    "gap_general_d": (lambda d: gap_general(np.eye(4), None, dataclasses.replace(UNIT_PARAMS, d=d)),
                      np.array([1.0, 0.0])),
    "gap_separable_h": (lambda h: gap_separable(np.eye(4), None,
                                                dataclasses.replace(UNIT_PARAMS, h=h)),
                        np.array([1.0, 0.0])),
    "is_symplectic2": (cvsep.covariance.is_symplectic2, np.eye(2)),
    "apply_symp_s2": (lambda s: apply_symp(np.eye(4), np.eye(2), s), np.eye(2)),
    "ensemble_weights": (lambda w: cvsep.covariance.ensemble_matrix(w, np.ones((1, 4))), np.ones(1)),
    "ensemble_deviations": (lambda m: cvsep.covariance.ensemble_matrix([1.0], m), np.ones((1, 4))),
}

#: Arguments numpy would once have cast to float: an imaginary part dropped
#: with a ComplexWarning, True and "1" read as 1.0.
NOT_REAL = {
    "complex": lambda a: a + 1e-3j,
    "complex-zero-imaginary": lambda a: a.astype(complex),
    "bool": lambda a: a.astype(bool),
    "string-list": lambda a: a.astype(str).tolist(),
    "object": lambda a: a.astype(object),
}


@pytest.mark.parametrize("call, arg", REAL_ARRAY_TAKERS.values(), ids=REAL_ARRAY_TAKERS.keys())
def test_entry_points_take_real_numbers_only(call, arg):
    for cast in NOT_REAL.values():
        with pytest.raises(InvalidInput, match="must have real number entries"):
            call(cast(arg))
    # Integers stay accepted, with the bits of the float argument.
    for dtype in (int, np.int32, np.uint8):
        assert _bits(call(arg.astype(dtype))) == _bits(call(arg))


#: Every public function that takes tol, called with a valid state and a tol.
TOL_TAKERS = {
    "classify": lambda tol: classify(statezoo.vacuum(), tol),
    "is_physical": lambda tol: is_physical(statezoo.vacuum(), tol),
    "simon": lambda tol: simon_criterion(statezoo.vacuum(), tol),
    "duan": lambda tol: duan_criterion(statezoo.vacuum(), tol),
    "stringent": lambda tol: stringent_criterion(statezoo.vacuum(), ZERO, tol),
    "weak_gap": lambda tol: weak_gap(statezoo.vacuum(), None, 1, tol),
    "simon_algebraic": lambda tol: simon_algebraic(StandardForm.from_params(1, 1, 0, 0), tol),
    "p_rep_ensemble": lambda tol: p_rep_ensemble(np.eye(4), tol),
    "p_weight": lambda tol: p_weight(np.eye(4), tol),
    "run_audit": lambda tol: run_audit(1, 0, tol),
}


@pytest.mark.parametrize("call", TOL_TAKERS.values(), ids=TOL_TAKERS.keys())
@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, 5.0, math.nan, math.inf,
                                 Fraction(10**20 - 1, 10**20), Fraction(1, 10**400)])
def test_public_functions_reject_tol_outside_the_unit_interval(call, tol):
    # The CLI rejects these values as usage errors; the API used to judge
    # the vacuum nonphysical at tol = -1 or nan and accept tol = 5. The two
    # fractions lie in (0, 1) but round to 1.0 and 0.0, the floats every
    # test would compute on.
    with pytest.raises(InvalidInput, match=r"tol must be a finite number in \(0, 1\)"):
        call(tol)
    call(1e-3)


def test_simon_bound_is_stable_near_zero_ratio():
    # The quadratic degenerates to linear at t = 0; the stable-root form must
    # approach that value smoothly.
    at_zero = simon_bound(1.3, 0.9, 0.0)
    assert simon_bound(1.3, 0.9, 1e-8) == pytest.approx(at_zero, abs=1e-7)
