import contextlib
import dataclasses
import decimal
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    epr_margin_bound,
    epr_matrix,
    no_convergence_matrix,
    reference_psd,
    row_sum_scale,
    squeezed_symp,
)
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
    simon_criterion,
    stringent_criterion,
    weak_gap,
)
from cvsep.audit import _scaled_random_psd, run_audit
from cvsep.errors import (
    BoundaryPRep,
    CvsepError,
    DegenerateBlock,
    InvalidEnsembleMatrix,
    InvalidInput,
    NotPRepresentable,
    OutOfDomain,
)
from cvsep.prep import PWeight, char_fn, p_density, p_moment_residual, p_sample, p_weight
from cvsep.statezoo import mixed_physical_state
from cvsep.squeezing import SqueezeParams, apply_squeeze, optimal_squeeze, simon_bound
from cvsep.covariance import (
    _STATE_SHIFT,
    J2,
    StandardForm,
    _coherent_excess,
    _epr_entries,
    _state,
    _tol_scale,
)
from cvsep.matkit import DEFAULT_TOL, check_tol, decide_psd


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


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the np.linalg functions called while the test runs, in order."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(name, fn))
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
        lambda v, ens: weak_gap(v, ens, 1),
    ], ids=["stringent", "weak_gap_plus"])
    def test_ensemble_is_judged_against_the_scale_of_the_state(self, call):
        # Against its own row sum, diag(1e6, 1e6, 1e6, -5e-5) was accepted
        # beside the vacuum (scale 1), which then read violated at margin
        # about -1e6, and diag(0.1, 0.1, 0.1, -1e-6) was refused beside
        # thermal(1e6, 1e6) (scale about 1e6), which now reads satisfied.
        with pytest.raises(InvalidEnsembleMatrix):
            call(statezoo.vacuum(), np.diag([1e6, 1e6, 1e6, -5e-5]))
        rep = call(statezoo.thermal(1e6, 1e6), np.diag([0.1, 0.1, 0.1, -1e-6]))
        assert rep.satisfied and rep.witness is None

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3, 0.1])
    @pytest.mark.parametrize("call", [
        stringent_criterion,
        lambda v, ens, tol: weak_gap(v, ens, 1, tol),
        lambda v, ens, tol: weak_gap(v, ens, -1, tol),
    ], ids=["stringent", "weak_gap_plus", "weak_gap_minus"])
    @pytest.mark.parametrize("v", [statezoo.vacuum(), statezoo.thermal(1e6, 1e6)],
                             ids=["scale_1", "scale_1e6"])
    def test_ensemble_passes_at_tol_times_the_scale_of_the_state(self, v, call, tol):
        # An ensemble eigenvalue of -0.5 tol * s passes and one of -1.5 tol * s,
        # between -2 tol * s and -tol * s, is refused, unlike Duan's EPR
        # matrices; s = _tol_scale(V) is 1 for the vacuum and 1e6 + 0.5 for
        # thermal(1e6, 1e6), so the state's scale, not 1, decides.
        s = _tol_scale(v.tolist())
        ens = np.diag([0.0, 0.0, 0.0, -0.5 * tol * s])
        assert call(v, ens, tol).satisfied
        ens[3, 3] = -1.5 * tol * s
        with pytest.raises(InvalidEnsembleMatrix):
            call(v, ens, tol)

    @pytest.mark.parametrize("call", [
        stringent_criterion,
        lambda v, ens, tol=DEFAULT_TOL: weak_gap(v, ens, 1, tol),
        lambda v, ens, tol=DEFAULT_TOL: weak_gap(v, ens, -1, tol),
    ], ids=["stringent", "weak_gap_plus", "weak_gap_minus"])
    def test_overflowing_row_sum_of_v_is_out_of_domain(self, call):
        # Both matrices are finite and the ensemble is PSD, but a row sum of V
        # passes the float maximum, so V has no tolerance scale: OutOfDomain,
        # without a numpy overflow warning; a bad tol is still bad input.
        v = np.eye(4)
        v[:2, :2] = 1e308
        ens = np.zeros((4, 4))
        ens[:2, :2] = [[0.8e308, -0.8e308], [-0.8e308, 0.8e308]]
        with pytest.raises(OutOfDomain, match="overflows"):
            call(v, ens)
        with pytest.raises(InvalidInput, match="tol must be"):
            call(v, ens, tol=2.0)
        # The ensemble is read after the state, so a malformed one is refused
        # for the state's faults first: V's row sum, and before it a bad tol.
        with pytest.raises(OutOfDomain, match="row sum"):
            call(v, np.eye(3))
        with pytest.raises(InvalidInput, match="tol must be"):
            call(v, np.eye(3), tol=2.0)

    @pytest.mark.parametrize("call", [
        stringent_criterion,
        lambda v, ens: weak_gap(v, ens, 1),
        lambda v, ens: weak_gap(v, ens, -1),
    ], ids=["stringent", "weak_gap_plus", "weak_gap_minus"])
    def test_overflowing_difference_with_the_ensemble_is_out_of_domain(self, call):
        # V has a finite tolerance scale and the ensemble is PSD, but
        # v00 - e00 of V - ens, the one matrix both criteria decide, passes
        # the float maximum.
        v = np.eye(4)
        v[0, 0] = -0.8e308
        ens = np.diag([1e308, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain, match="finite entries"):
                call(v, ens)
        # The ensemble is decided after the difference: an indefinite one
        # (eigenvalue -1e300, below -tol * s = -8e297) whose difference with
        # V overflows is OutOfDomain too, not InvalidEnsembleMatrix.
        ens[3, 3] = -1e300
        with pytest.raises(OutOfDomain, match="finite entries"):
            call(v, ens)
        ens[0, 0] = 0.0
        with pytest.raises(InvalidEnsembleMatrix):
            call(v, ens)
        # v00 - e00 = -1.3e308 is finite, but twice that row sum of V - ens
        # is not, though V's own 2s = 1.6e308 is.
        with pytest.raises(OutOfDomain, match="row sum"):
            call(v, np.diag([0.5e308, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("call", [
        stringent_criterion,
        lambda v, ens: weak_gap(v, ens, 1),
        lambda v, ens: weak_gap(v, ens, -1),
    ], ids=["stringent", "weak_gap_plus", "weak_gap_minus"])
    def test_overflowing_row_sum_of_v_is_refused_before_the_ensemble(self, call):
        # The ensemble is decided against V's scale, so a V without one is
        # OutOfDomain "row sum" even beside an indefinite ensemble.
        v = np.eye(4)
        v[:2, :2] = 1e308
        with pytest.raises(OutOfDomain, match="row sum"):
            call(v, np.diag([0.0, 0.0, 0.0, -1.0]))

    @pytest.mark.parametrize("call", [
        stringent_criterion,
        lambda v, ens: weak_gap(v, ens, 1),
        lambda v, ens: weak_gap(v, ens, -1),
    ], ids=["stringent", "weak_gap_plus", "weak_gap_minus"])
    def test_malformed_v_is_refused_before_the_ensemble(self, call):
        # v is checked before the ensemble is decided: InvalidInput, not
        # InvalidEnsembleMatrix, beside an indefinite ensemble.
        with pytest.raises(InvalidInput, match="finite 4x4"):
            call(np.eye(3), np.diag([0.0, 0.0, 0.0, -1.0]))


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

    @pytest.mark.parametrize("c2, branch", [(1e-9, 1), (-1e-9, -1)])
    def test_a_branch_lower_by_a_few_1e_10_binds(self, c2, branch):
        # Nonphysical and almost uncorrelated in p: the two branches' smallest
        # eigenvalues (about -0.0403) differ by 3.8e-10, past the 1e-12
        # relative tie, so the lower one binds and gives the witness.
        v = standard_matrix(1.0, 1.0, 0.8, c2)
        matrices = v + _STATE_SHIFT[:2]
        for rep in (simon_criterion(v), classify(v).reports["simon"]):
            assert not rep.satisfied
            assert rep.sign_branch == branch
            w = rep.witness
            x = np.concatenate([w.d, w.f]) + 1j * np.concatenate([w.g, w.h])
            quotient = np.vdot(x, matrices[(1 - branch) // 2] @ x).real / np.vdot(x, x).real
            assert quotient == pytest.approx(rep.margin, abs=1e-12)
            # Only the sigma = -1 witness passes the physicality gap.
            assert (gap_general(v, None, w) > 0.0) == (branch == -1)
            assert gap_separable(v, None, w) < 0.0


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
        # is inf. Twice the tolerance scale of 1e308 * I overflows first, so
        # V is refused before any EPR entry is formed.
        v = 1e308 * np.eye(4)
        for call in (duan_criterion, lambda v: weak_gap(v, None, -1), classify):
            with pytest.raises(OutOfDomain, match="row sum"):
                call(v)

    def test_overflowing_correlation_sum_is_out_of_domain_without_a_warning(self):
        # c00 + c11 and c01 - c10 would pass the float maximum, but a row sum
        # of V does first: every route refuses V, on both sigma, without a
        # warning, though on sigma = -1 the same entries cancel to zero.
        v = standard_matrix(1.0, 1.0, 0.0, 0.0)
        v[0, 2] = v[2, 0] = v[1, 3] = v[3, 1] = 1e308
        v[0, 3] = v[3, 0] = 1e308
        v[1, 2] = v[2, 1] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (duan_criterion, lambda v: weak_gap(v, None, 1),
                         lambda v: weak_gap(v, None, -1), classify):
                with pytest.raises(OutOfDomain, match="row sum"):
                    call(v)

    @pytest.mark.parametrize("c2, branch", [(1e-15, 0), (-1e-15, 0), (1e-9, 1), (-1e-9, -1),
                                            (1e-3, 1), (-1e-3, -1)])
    def test_witness_comes_from_the_plus_branch_unless_minus_binds(self, c2, branch):
        # Sub-vacuum blocks with correlations (1e-3, c2): the EPR branches
        # have smallest eigenvalues -0.2 - |1e-3 + sigma c2|, so c2 = -1e-15
        # leaves sigma = -1 lower by 2e-15, inside the 1e-12 tie, and
        # c2 = -1e-9 lower by 2e-9, outside it.
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

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3, 0.1])
    @pytest.mark.parametrize("m", [0.5, 1.0])
    def test_epr_margin_is_judged_at_twice_the_tolerance(self, tol, m):
        # diag(n, n, m, m) has EPR margin 2n - 1 = -1.5 tol on both signs and
        # tolerance scale 1: between -2 tol and -tol, so it passes only at
        # Duan's 2 tol * s, as duan_criterion judges the same matrices.
        v = np.diag([0.5 - 0.75 * tol, 0.5 - 0.75 * tol, m, m])
        for sign in (1, -1):
            for ens in (None, ZERO):
                rep = weak_gap(v, ens, sign, tol)
                assert -2.0 * tol <= rep.margin < -tol
                assert (rep.satisfied, rep.witness, rep.sign_branch) == (True, None, sign)
        assert duan_criterion(v, tol).satisfied
        assert classify(v, tol).reports["duan"].satisfied

    def test_numpy_integer_signs_are_accepted(self):
        # The report holds the sign as a Python int, as every other report does,
        # whether it is satisfied (vacuum) or violated with a witness.
        for v in (statezoo.vacuum(), statezoo.two_mode_squeezed(0.5)):
            for sign in (np.int64(1), np.int32(-1), np.int64(-1)):
                rep = weak_gap(v, None, sign)
                assert rep.sign_branch == sign and type(rep.sign_branch) is int


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


def _symmetric(upper):
    """The symmetric matrix of an upper triangle given row by row, each
    entry's sign of zero kept."""
    v, upper_index = np.zeros((4, 4)), np.triu_indices(4)
    v[upper_index] = v[upper_index[::-1]] = upper
    return v


def _assert_one_p_rep_decider(v, tol):
    """classify decides P-representability as the third matrix of its stack
    V + _STATE_SHIFT: where that matrix passes, its eigenvalue and
    eigenvector bits are what covariance._coherent_excess gives run alone,
    and where it fails, _coherent_excess raises NotPRepresentable; and
    ensemble_used is "coherent_excess" exactly when p_rep_ensemble accepts v.
    A V that _tol_scale refuses, p_rep_ensemble refuses too."""
    try:
        w, _, s, tol = _state(v, tol)
    except OutOfDomain:
        with pytest.raises(OutOfDomain, match="row sum"):
            p_rep_ensemble(v, tol)
        return
    try:
        ok, lam, vec = decide_psd(w + _STATE_SHIFT, s, tol)
    except OutOfDomain:  # LAPACK did not converge on the stack
        return
    if ok[2]:
        assert _bits((lam[2], vec[2])) == _bits(_coherent_excess(w, s, tol))
    else:
        with pytest.raises(NotPRepresentable, match="V - I/2 has a negative eigenvalue"):
            _coherent_excess(w, s, tol)
    try:
        verdict = classify(v, tol)
    except (DegenerateBlock, OutOfDomain):
        return  # no verdict records the decision
    assert (verdict.ensemble_used == "coherent_excess") == _is_p_representable(v, tol) == ok[2]


def _verdict_bits(verdict) -> tuple:
    """Every field of a verdict, its reports' witnesses and its standard form
    as bytes, so two verdicts compare bit for bit."""
    def bits(x):
        return None if x is None else np.asarray(x).tobytes()

    reports = tuple(
        (name, rep.satisfied, bits(rep.margin), rep.sign_branch,
         None if rep.witness is None else tuple(bits(x) for x in vars(rep.witness).values()))
        for name, rep in verdict.reports.items()
    )
    sf = verdict.standard_form
    form = None if sf is None else tuple(bits(x) for x in vars(sf).values())
    return (verdict.outcome, verdict.ensemble_used, verdict.consistent, bits(verdict.tol),
            bits(verdict.scale), reports, form)


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
        # c00 + c11 = 2e308: every row sum of V stays finite, but twice the
        # largest does not, and Duan's EPR entry would overflow; a bad tol is
        # still bad input.
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
        # report is, field by field, that of the vacuum, at every tol.
        verdicts = [classify(statezoo.thermal(1.0, 1.5), tol) for tol in (5e-324, 1e-10, 0.5)]
        assert {verdict.ensemble_used for verdict in verdicts} == {"coherent_excess"}
        vac = stringent_criterion(0.5 * np.eye(4), ZERO, 5e-324)
        for rep in [vac] + [verdict.reports["stringent"] for verdict in verdicts]:
            assert (rep.satisfied, rep.witness, rep.sign_branch) == (True, None, 0)
            assert np.float64(rep.margin).tobytes() == np.float64(0.0).tobytes()

    @pytest.mark.parametrize("v", [
        statezoo.two_mode_squeezed(0.5),  # entangled: witnesses, zero ensemble
        statezoo.thermal(1.0, 1.5),  # separable: coherent-excess ensemble
        0.4 * np.eye(4),  # nonphysical: a physicality witness, no standard form
    ])
    def test_each_verdict_owns_its_records(self, v):
        # Records are plain dataclasses, so a caller may edit them; nothing a
        # caller edits may reach a later verdict of the same V.
        verdict = classify(v)
        before = _verdict_bits(verdict)
        for rep in verdict.reports.values():
            if rep.witness is not None:
                for x in vars(rep.witness).values():
                    x[...] = 99.0
            rep.satisfied, rep.margin, rep.sign_branch = None, math.nan, 7
            rep.witness = params([1, 0], [0, 1], [0, 1], [1, 0])
        sf = verdict.standard_form
        if sf is not None:
            sf.s1[...] = sf.s2[...] = 99.0
            sf.a = sf.b = sf.c1 = sf.c2 = math.nan
        verdict.reports.clear()
        verdict.outcome, verdict.ensemble_used, verdict.consistent = None, "edited", None
        assert _verdict_bits(classify(v)) == before

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

    @pytest.mark.parametrize("call", [classify, simon_criterion, is_physical,
                                      lambda v: stringent_criterion(v, ZERO)],
                             ids=["classify", "simon_criterion", "is_physical", "stringent"])
    def test_eigensolver_failure_is_out_of_domain(self, call):
        # LAPACK's LinAlgError is no CvsepError: the CLI and callers that
        # catch the package's errors would crash on it.
        with pytest.raises(OutOfDomain, match="did not converge"):
            call(no_convergence_matrix())

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
    def test_makes_one_lapack_call_per_state(self, linalg_calls, v, monkeypatch):
        # One complex (3, 4, 4) stack holds physicality, Simon's partial
        # transpose and the coherent excess V - I/2, on every state. Duan's
        # two branches are decided in closed form.
        stacks, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: stacks.append((a.shape, a.dtype.kind)) or eigh(a))
        classify(v)
        assert linalg_calls == ["eigh"]
        assert stacks == [((3, 4, 4), "c")]

    @pytest.mark.parametrize(
        "call, eigh_calls",
        [
            (classify, 1),
            (simon_criterion, 1),
            (duan_criterion, 0),
            (lambda v: weak_gap(v, None, 1), 0),
            (is_physical, 1),
            (p_rep_ensemble, 1),
            (p_weight, 1),
            # One eigh call decides the caller's ensemble matrix; weak_gap
            # decides its EPR matrix in closed form, stringent in a stack.
            (lambda v: weak_gap(v, 0.1 * np.eye(4), -1), 1),
            (lambda v: stringent_criterion(v, 0.1 * np.eye(4)), 2),
        ],
        ids=["classify", "simon_criterion", "duan_criterion", "weak_gap", "is_physical",
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
    def test_makes_one_eigh_call_per_stack(self, linalg_calls, call, eigh_calls, v):
        # Every criterion reads its tolerance scale off V's entries and hands
        # each stack, a caller's ensemble matrix included, to
        # matkit.decide_psd, one eigh call per stack; the EPR matrices of
        # Duan and weak_gap need none, and p_weight builds P from the
        # eigendecomposition of the (1, 4, 4) stack of V - I/2 that
        # covariance._coherent_excess decides, the third matrix of classify's
        # stack.
        with contextlib.suppress(NotPRepresentable):  # V - I/2 indefinite
            call(v)
        assert linalg_calls == ["eigh"] * eigh_calls

    def test_ensemble_used_is_p_rep_ensemble_and_reports_are_the_public_criteria(self):
        # classify decides P-representability and Duan on its own path; each
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
                # p_weight takes NotPRepresentable from the same decision; at
                # the boundary it refuses as BoundaryPRep instead.
                try:
                    p_weight(w)
                    weight_refused = False
                except BoundaryPRep:
                    weight_refused = False
                except NotPRepresentable:
                    weight_refused = True
                assert weight_refused != p_rep
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

    @staticmethod
    def _locally_squeezed_thermal_two_mode_squeezed(n):
        """two_mode_squeezed(r) + n I under the local pair diag(x, 1/x),
        diag(y, 1/y): tolerance scale about 3.13, entangled below n of about
        0.1324007."""
        x, y = 1.9788139672173568, 1.8017493360094594
        v = statezoo.two_mode_squeezed(0.15380737517637963) + n * np.eye(4)
        return apply_symp(v, np.diag([x, 1.0 / x]), np.diag([y, 1.0 / y]))

    @pytest.mark.parametrize("n, tol, consistent", [
        (0.13240045231886344, 1.7012581665586314e-07, False),
        (0.132400742789921, 3e-9, True),
    ], ids=["margins_past_1e-8", "margins_within_1e-8"])
    def test_consistent_allows_a_disagreement_only_within_1e_8(self, n, tol, consistent):
        # Simon passes at -tol * s, the p_rep_bound margin at -tol, so both
        # states are ENTANGLED with Simon satisfied. The first has margins
        # -1.55e-7 and -2.98e-7, so its disagreement is no tie; the second
        # -4.1e-9 and -8.0e-9, a tie within 1e-8.
        v = self._locally_squeezed_thermal_two_mode_squeezed(n)
        verdict = classify(v, tol)
        simon, bound = verdict.reports["simon"], verdict.reports["p_rep_bound"]
        assert verdict.outcome is Outcome.ENTANGLED and simon.satisfied
        assert bound.margin < -tol and -tol * _tol_scale(v.tolist()) <= simon.margin < 0.0
        assert (max(abs(bound.margin), abs(simon.margin)) <= 1e-8) is consistent
        assert verdict.consistent is consistent

    def test_consistent_on_mixed_pool(self):
        rng = np.random.default_rng(37)
        for i in range(2000):
            v = mixed_physical_state(rng, i)
            verdict = classify(v)
            assert verdict.outcome in (Outcome.SEPARABLE, Outcome.ENTANGLED)
            assert verdict.consistent

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
    @pytest.mark.parametrize("seed", [7, 13, 31])
    def test_records_the_scale_it_decided_at_on_the_pools(self, seed, tol):
        # The scale is the one float _state reads, bit for bit, on every
        # outcome, the early return of a nonphysical verdict included.
        outcomes = set()
        for v in _scaled_pool(seed, 2000):
            verdict = classify(v, tol)
            outcomes.add(verdict.outcome)
            assert verdict.scale.hex() == _tol_scale(as_covariance(v).tolist()).hex()
        assert outcomes == set(Outcome)

    @settings(max_examples=300)
    @example([0.0] * 10)  # nonphysical at the floor s = 1
    @example([0.5, -0.0, 5e-324, 0.0, 0.5, 0.0, -5e-324, 0.5, 0.0, 0.5])  # separable, s = 1
    @example([1e150, 0.0, 0.0, 0.0, 1e150, 0.0, 0.0, 0.5, 0.0, 0.5])  # separable, s = 1e150
    @example([4.4e307, 0.0, 4.4e307, 0.0, 4.4e307, 0.0, 4.4e307, 1.0, 0.0, 1.0])
    @given(st.lists(_ENTRIES, min_size=10, max_size=10))
    def test_records_the_scale_it_decided_at_on_extreme_entries(self, upper):
        v = _symmetric(upper)
        try:
            verdict = classify(v)
        except (DegenerateBlock, OutOfDomain):
            return  # refused: no verdict records a scale
        assert verdict.scale.hex() == _tol_scale(as_covariance(v).tolist()).hex()

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
    @pytest.mark.parametrize("seed", [7, 13, 31])
    def test_p_representability_has_one_decider_on_the_pools(self, seed, tol):
        for v in _scaled_pool(seed, 2000):
            _assert_one_p_rep_decider(v, tol)

    @settings(max_examples=300)
    @example([0.5, -0.0, 5e-324, 0.0, 0.5, 0.0, -5e-324, 0.5, 0.0, 0.5], DEFAULT_TOL)  # V - I/2 ~ 0
    @example([1.7e308, 0.0, 0.0, 0.0, 1.7e308, 0.0, 0.0, 1.0, 0.0, 1.0], 1e-3)  # s refused
    @given(st.lists(_ENTRIES, min_size=10, max_size=10), st.sampled_from([DEFAULT_TOL, 1e-3]))
    def test_p_representability_has_one_decider_on_extreme_entries(self, upper, tol):
        _assert_one_p_rep_decider(_symmetric(upper), tol)

    @pytest.mark.parametrize("v", [statezoo.two_mode_squeezed(0.5), 0.4 * np.eye(4)],
                             ids=["entangled", "nonphysical"])
    @pytest.mark.parametrize("tol", [1e-3, Fraction(1, 1000), np.float32(1e-3)],
                             ids=["float", "fraction", "float32"])
    def test_records_the_tol_check_tol_read(self, v, tol):
        verdict = classify(v, tol)
        assert type(verdict.tol) is float and verdict.tol.hex() == check_tol(tol).hex()


def _epr_less_identity(v, ens, sign):
    """EPR(sign) of v, less that of ens unless None, less I, each from the
    reference epr_matrix: by linearity the EPR matrix, less I, of the
    V - ens that weak_gap decides."""
    m = np.array(epr_matrix(as_covariance(v).tolist(), sign))
    if ens is not None:
        m = m - np.array(epr_matrix(as_covariance(ens).tolist(), sign))
    return m - np.eye(4)


def _assert_epr_report_matches(rep, ms, signs, bound):
    """rep, a report of duan_criterion (signs (1, -1)) or of weak_gap (one
    sign), against np.linalg.eigvalsh of ms, the matrix EPR(sigma) - I (less
    an ensemble's) of each sigma of signs: the margin lies within
    epr_margin_bound of the reference's; the verdict and sign_branch are the
    reference's wherever it lies farther than that from the threshold and
    from the 1e-12 branch tie; and a violated report's witness is a unit
    eigenvector (d, f) of its witness branch's matrix for the margin, with
    g = J^T d and h = sigma * J^T f. Where LAPACK does not converge only
    the report's own consistency is checked."""
    assert type(rep.margin) is float and type(rep.satisfied) is bool
    assert rep.satisfied == (rep.margin >= bound)
    assert (rep.witness is None) == rep.satisfied
    try:
        lams = [float(np.linalg.eigvalsh(m)[0]) for m in ms]
    except np.linalg.LinAlgError:
        assert math.isfinite(rep.margin)
        return
    err = max(epr_margin_bound(lam, m) for lam, m in zip(lams, ms))
    margin, branch = (cvsep.criteria._binding(*lams) if len(signs) == 2
                      else (lams[0], signs[0]))
    assert abs(rep.margin - margin) <= err
    if abs(margin - bound) > err:
        assert rep.satisfied == (margin >= bound)
    tie = 1e-12 * max(1.0, abs(margin))
    if len(signs) == 1 or abs(abs(lams[0] - lams[1]) - tie) > 2.0 * err:
        assert rep.sign_branch == branch
    if rep.witness is not None:
        w, sign = rep.witness, -1 if rep.sign_branch == -1 else 1
        x = np.concatenate([w.d, w.f])
        assert abs(float(x @ x) - 1.0) <= 1e-14
        assert np.abs(ms[signs.index(sign)] @ x - rep.margin * x).max() <= err
        np.testing.assert_array_equal(w.g, J2.T @ w.d)
        np.testing.assert_array_equal(w.h, sign * (J2.T @ w.f))


def _scaled_pool(seed, n):
    """Audit-pool states with one in five scaled by 0.8, so nonphysical."""
    rng = np.random.default_rng(seed)
    return [(0.8 if i % 5 == 4 else 1.0) * mixed_physical_state(rng, i) for i in range(n)]


@pytest.mark.parametrize("seed", [7, 13, 31])
def test_epr_reports_match_the_eigh_reference_on_the_pools(seed):
    # Duan's two branches and weak_gap's one, with and without an ensemble,
    # are decided in closed form; each must give what np.linalg.eigvalsh of
    # the reference EPR matrix gives. On these pools Duan's margin is also
    # within 1e-12 relative to max(1, |lambda|), with no term for the norm.
    erng = np.random.default_rng(seed + 1)
    for i, v in enumerate(_scaled_pool(seed, 4000)):
        bound = -2.0 * DEFAULT_TOL * float(row_sum_scale(v))
        branches = [_epr_less_identity(v, None, sign) for sign in (1, -1)]
        duan = duan_criterion(v)
        _assert_epr_report_matches(duan, branches, (1, -1), bound)
        lowest = min(float(np.linalg.eigvalsh(m)[0]) for m in branches)
        assert abs(duan.margin - lowest) <= 1e-12 * max(1.0, abs(lowest))
        if i % 8:
            continue
        g = 0.3 * erng.standard_normal((4, 4))
        for ens in (None, g @ g.T):
            for sign in (1, -1):
                _assert_epr_report_matches(weak_gap(v, ens, sign),
                                           [_epr_less_identity(v, ens, sign)], (sign,), bound)


#: The permutation that swaps the two modes, (q1, p1, q2, p2) -> (q2, p2, q1, p1).
MODE_SWAP = np.ix_([2, 3, 0, 1], [2, 3, 0, 1])


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
@pytest.mark.parametrize("seed", [7, 13, 31])
def test_swapping_the_modes_changes_no_verdict(seed, tol):
    # Every criterion is symmetric in the two modes, so relabelling them
    # moves no outcome, flag or branch, and each margin only by rounding.
    for v in _scaled_pool(seed, 2000):
        got, swapped = classify(v, tol), classify(v[MODE_SWAP], tol)
        assert ((got.outcome, got.ensemble_used, got.consistent)
                == (swapped.outcome, swapped.ensemble_used, swapped.consistent))
        assert got.reports.keys() == swapped.reports.keys()
        for name, rep in got.reports.items():
            other = swapped.reports[name]
            assert (rep.satisfied, rep.sign_branch) == (other.satisfied, other.sign_branch), name
            assert abs(rep.margin - other.margin) <= 1e-13 * max(1.0, abs(rep.margin)), name


def _near_the_boundary(verdict, *names):
    """Whether a named report's margin lies within tol * s of zero, at the
    tol and scale the verdict records."""
    return any(abs(verdict.reports[name].margin) <= verdict.tol * verdict.scale
               for name in names)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
@pytest.mark.parametrize("seed", [7, 13, 31])
def test_partial_transpose_keeps_separable_and_makes_entangled_nonphysical(seed, tol):
    # The partial transpose of a separable state is a separable state; that
    # of an entangled state violates physicality, as V violates Simon. Its
    # physicality margin is Simon's sigma = -1 branch of V and its scale is
    # V's, so a verdict may differ only within tol * s of the boundary.
    counts = {Outcome.SEPARABLE: 0, Outcome.ENTANGLED: 0}
    for v in _scaled_pool(seed, 2000):
        verdict = classify(v, tol)
        if verdict.outcome is Outcome.NONPHYSICAL:
            continue
        counts[verdict.outcome] += 1
        entangled = verdict.outcome is Outcome.ENTANGLED
        expected = Outcome.NONPHYSICAL if entangled else Outcome.SEPARABLE
        assert (classify(partial_transpose(v), tol).outcome is expected
                or _near_the_boundary(verdict, "simon", "p_rep_bound"))
    assert min(counts.values()) > 0


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
@pytest.mark.parametrize("seed", [7, 13, 31])
def test_adding_a_psd_matrix_keeps_separable_and_physical_states(seed, tol):
    # V + N, N PSD, is V's state with classical noise added: a separable
    # state stays separable and a physical state physical, except within
    # tol * s of the boundary.
    rng = np.random.default_rng(seed + 1)
    for v in _scaled_pool(seed, 2000):
        g = rng.standard_normal((4, 4))
        verdict = classify(v, tol)
        noisy = classify(v + 0.1 * (g @ g.T), tol).outcome
        if verdict.outcome is Outcome.SEPARABLE:
            assert (noisy is Outcome.SEPARABLE
                    or _near_the_boundary(verdict, "simon", "p_rep_bound"))
        elif verdict.outcome is Outcome.ENTANGLED:
            assert noisy is not Outcome.NONPHYSICAL or _near_the_boundary(verdict, "physical")


def test_two_mode_squeezed_noise_threshold_is_the_closed_form():
    # two_mode_squeezed(r) + n I is entangled exactly when
    # n < n* = (1 - e^(-2r)) / 2, the noise that lifts the partially
    # transposed symplectic eigenvalue e^(-2r)/2 + n to 1/2. consistent is
    # not asserted: for r >= 7 it is False below the threshold, since the
    # p_rep_bound margin is judged at -tol where Simon's is at -tol * s.
    wrong = []
    for k in range(1, 121):
        r = k / 10
        n_star = -0.5 * math.expm1(-2.0 * r)
        for n, expected in ((n_star * (1 - 1e-4), Outcome.ENTANGLED),
                            (n_star * (1 + 1e-4), Outcome.SEPARABLE)):
            outcome = classify(statezoo.two_mode_squeezed(r) + n * np.eye(4)).outcome
            if outcome is not expected:
                wrong.append((r, n, outcome))
    assert wrong == []


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
def test_epr_entries_keep_signed_zeros_and_subnormals(entries):
    # Signed zeros and subnormals pass through each sum and difference of
    # the closed form's entries as the reference EPR matrix gives them,
    # including the sign of every zero, and K(sigma) is the scaled rotation
    # or reflection [[k0, k1], [-sigma k1, sigma k0]] the closed form assumes.
    v = standard_matrix(1.0, 1.5, 0.0, 0.0)
    for (i, j), x in entries.items():
        v[i, j] = v[j, i] = x
    rows = v.tolist()
    epr = _epr_entries(rows)
    for sign in (1, -1):
        m = np.array(epr_matrix(rows, sign)) - np.eye(4)
        k0, k1 = epr[3 - sign], epr[4 - sign]
        assert _bits([m[0, 0], m[2, 2], m[0, 2], m[0, 3]]) == _bits([epr[0], epr[1], k0, k1])
        assert (m[1, 2], m[1, 3]) == (-sign * k1, sign * k0)
        bound = -2.0 * DEFAULT_TOL * float(row_sum_scale(v))
        _assert_epr_report_matches(weak_gap(v, None, sign), [m], (sign,), bound)


def _high_precision_epr_margin(m):
    """The closed form of the smallest eigenvalue of the EPR matrix m, less
    I, evaluated on its float entries with 60 decimal digits."""
    alpha, beta, k0, k1 = (decimal.Decimal(float(m[i, j])) for i, j in
                           ((0, 0), (2, 2), (0, 2), (0, 3)))
    with decimal.localcontext(decimal.Context(prec=60)):
        half_sum, half_diff = (alpha + beta) / 2, (alpha - beta) / 2
        return float(half_sum - (half_diff * half_diff + k0 * k0 + k1 * k1).sqrt())


@settings(max_examples=300, deadline=None)
@example("two_mode_squeezed", 0, 0.5, 1.0, 1.0, 0.0, 0.0, 0.0)  # the golden state
@example("standard", 0, 0.5, 1e6, 1e6, 1.0, -1.0, 3.0)  # pure, squeezed by e^3
@given(st.sampled_from(["mixed", "two_mode_squeezed", "standard"]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0), st.floats(0.5, 1e6), st.floats(0.5, 1e6), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0), st.floats(-3.0, 3.0))
def test_closed_form_epr_margin_matches_eigvalsh_under_local_squeezing(family, seed, r, a, b,
                                                                       t1, t2, log_x):
    # Audit-pool states, two-mode squeezed states and standard forms with
    # a, b up to 1e6 and |c1|, |c2| up to sqrt((a - 1/2)(b - 1/2)), under a
    # local pair of squeezers e^(+-log_x), e^(-+log_x). Each branch's closed-form
    # margin is eigvalsh's smallest eigenvalue of the reference EPR matrix
    # within epr_margin_bound, whose two smallest eigenvalues agree as
    # closely (the degenerate pair); it is within 2 eps of the matrix's
    # row-sum norm of a 60-digit evaluation; and every violated report's
    # witness drives gap_separable negative.
    rng = np.random.default_rng(seed)
    if family == "mixed":
        v = mixed_physical_state(rng, seed % 4)
    elif family == "two_mode_squeezed":
        v = statezoo.two_mode_squeezed(r)
    else:
        cap = math.sqrt((a - 0.5) * (b - 0.5))
        v = standard_matrix(a, b, t1 * cap, t2 * cap)
    v = apply_symp(v, squeezed_symp(rng, log_x), squeezed_symp(rng, -log_x))
    rows, eps = v.tolist(), np.finfo(float).eps
    reports = [weak_gap(v, None, sign) for sign in (1, -1)]
    for sign, rep in zip((1, -1), reports):
        m = np.array(epr_matrix(rows, sign)) - np.eye(4)
        lowest, second = np.linalg.eigvalsh(m)[:2]
        assert abs(rep.margin - lowest) <= epr_margin_bound(lowest, m)
        assert second - lowest <= epr_margin_bound(lowest, m)
        exact = _high_precision_epr_margin(m)
        assert abs(rep.margin - exact) <= 2.0 * eps * float(row_sum_scale(m))
    duan = duan_criterion(v)
    assert duan.margin == min(rep.margin for rep in reports)
    for rep in (*reports, duan):
        if not rep.satisfied:
            assert gap_separable(v, None, rep.witness) < 0.0


@settings(max_examples=400)
@example([1.7e308, 0.0, 0.0, 0.0, 1.7e308, 0.0, 0.0, 1.0, 0.0, 1.0])  # refused
@example([4.4e307, 0.0, 4.4e307, 0.0, 4.4e307, 0.0, 4.4e307, 1.0, 0.0, 1.0])  # EPR rows 2s
@example([2.0, 2.0**-52, 2.0**-52, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # sums left to right
@given(st.lists(_ENTRIES, min_size=10, max_size=10))
def test_every_matrix_built_from_an_accepted_v_is_finite(upper):
    # _tol_scale accepts V exactly when 2s is finite, and then the Hermitian
    # pair, the coherent excess V - I/2 and the EPR matrices of Duan and
    # weak_gap, whose entries and row sums are at most 2s + 1, are finite
    # with finite row sums.
    v = _symmetric(upper)
    rows = v.tolist()
    with np.errstate(over="ignore"):
        s = float(row_sum_scale(v))
        if not math.isfinite(2.0 * s):
            with pytest.raises(OutOfDomain, match="row sum"):
                _tol_scale(rows)
            return
        assert _tol_scale(rows) == s
        epr = [np.array(epr_matrix(rows, sign)) - np.eye(4) for sign in (1, -1)]
        for m in (v + _STATE_SHIFT[:2], v - 0.5 * np.eye(4), *epr):
            assert np.isfinite(m).all() and np.isfinite(row_sum_scale(m)).all()
        # So Duan's closed form, on those entries, answers.
        assert math.isfinite(duan_criterion(v).margin)


def _reference_scale(v):
    """row_sum_scale of v, the one tolerance scale of all its PSD tests, or the
    refusal of a v whose twice that overflows."""
    with np.errstate(over="ignore"):  # a row sum past the float maximum is inf
        scale = float(row_sum_scale(v))
    if not math.isfinite(2.0 * scale):
        raise OutOfDomain("row sum")
    return scale


def _reference_difference(m):
    """m, a matrix computed from v and an ensemble matrix, or the refusal of a
    non-finite entry or of an m whose twice row_sum_scale overflows."""
    if not np.isfinite(m).all():
        raise OutOfDomain("finite entries")
    _reference_scale(m)
    return m


def _reference_results(v, ens, tol):
    """References for is_physical, p_rep_ensemble, simon_criterion and
    stringent_criterion at ens, each from reference_psd of the matrix it
    decides, built entry by entry, against -tol * s, with s the
    _reference_scale of v; then for duan_criterion and weak_gap (both signs,
    at None and ens), the EPR matrix, less I, of v or of the checked v - ens
    that each decides, with the signs and the bound -2 tol * s, for
    _assert_epr_report_matches. An ensemble matrix, once its difference with
    v is accepted, is judged against -tol * s too."""
    def uncertainty(m, sign):
        return m + 0.5j * cvsep.covariance.symplectic_form(sign)

    def branches(ms, bound):
        # In matkit.decide_psd's shape: _branch_report reads only the smallest
        # eigenvalue of each matrix and column 0 of its eigenvectors.
        ok, lam, vec = zip(*(reference_psd(m, bound) for m in ms))
        return cvsep.criteria._branch_report(list(ok), [[x] for x in lam],
                                             np.array(vec)[..., None])

    def physical():
        ok, lam, _ = reference_psd(uncertainty(v, 1), -tol * _reference_scale(v))
        return ok, lam

    def ensemble(e, m):
        """m, once e is PSD within -tol * s; decided after m, as the criteria do."""
        if not reference_psd(e, -tol * _reference_scale(v))[0]:
            raise InvalidEnsembleMatrix("ensemble matrix must be positive semidefinite")
        return m

    def p_rep():
        if not reference_psd(v - 0.5 * np.eye(4), -tol * _reference_scale(v))[0]:
            raise NotPRepresentable("V - I/2 has a negative eigenvalue")
        return v - 0.5 * np.eye(4)

    def less(e):
        """v - e, the one matrix stringent and weak_gap decide at e."""
        with np.errstate(over="ignore"):
            return ensemble(e, _reference_difference(v - e))

    def stringent(e):
        bound = -tol * _reference_scale(v)
        excess = less(e)
        return branches([uncertainty(excess, 1), uncertainty(excess, -1)], bound)

    def epr(e, sign):
        m = v if e is None else less(e)
        return np.array(epr_matrix(m.tolist(), sign)) - np.eye(4)

    def duan():
        bound = -2.0 * tol * _reference_scale(v)
        return [epr(None, 1), epr(None, -1)], (1, -1), bound

    def weak(e, sign):
        bound = -2.0 * tol * _reference_scale(v)
        return [epr(e, sign)], (sign,), bound

    exact = [physical, p_rep, lambda: stringent(np.zeros((4, 4))), lambda: stringent(ens)]
    return exact, [duan] + [
        lambda e=e, sign=sign: weak(e, sign) for e in (None, ens) for sign in (1, -1)]


def _refusal(exc):
    """A refusal's class and whether it names a non-finite entry or a row sum."""
    return type(exc).__name__, "finite entries" in str(exc), "row sum" in str(exc)


def _typed_bits(call):
    """_bits of call(), with the type of each field, or its _refusal. LAPACK
    may fail to converge on entries near the float maximum; both sides
    refuse then."""
    try:
        out = call()
    except (InvalidEnsembleMatrix, NotPRepresentable, OutOfDomain) as exc:
        return _refusal(exc)
    fields = vars(out).values() if dataclasses.is_dataclass(out) else out
    return _bits(out), tuple(type(x).__name__ for x in fields)


def _assert_kernel_matches_reference(v, ens, tol=DEFAULT_TOL):
    """is_physical, p_rep_ensemble, simon_criterion and stringent_criterion
    give the reference's result, bit for bit and type for type; Duan and
    weak_gap refuse as the reference refuses, or match its EPR matrices
    (_assert_epr_report_matches)."""
    exact_calls = [
        lambda: is_physical(v, tol),
        lambda: p_rep_ensemble(v, tol),
        lambda: simon_criterion(v, tol),
        lambda: stringent_criterion(v, ens, tol),
    ]
    epr_calls = [
        lambda: duan_criterion(v, tol),
        lambda: weak_gap(v, None, 1, tol),
        lambda: weak_gap(v, None, -1, tol),
        lambda: weak_gap(v, ens, 1, tol),
        lambda: weak_gap(v, ens, -1, tol),
    ]
    exact, epr = _reference_results(as_covariance(v), as_covariance(ens), tol)
    for call, reference in zip(exact_calls, exact):
        assert _typed_bits(call) == _typed_bits(reference)
    for call, reference in zip(epr_calls, epr):
        try:
            ms, signs, bound = reference()
        except (InvalidEnsembleMatrix, OutOfDomain) as exc:
            assert _typed_bits(call) == _refusal(exc)
            continue
        _assert_epr_report_matches(call(), ms, signs, bound)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from([1.0, 0.8]),
       st.integers(-30, 150), st.sampled_from([1e-10, 1e-3]))
def test_kernel_criteria_match_a_row_sum_and_eigh_reference(seed, index, factor, k, tol):
    # Every criterion decides through matkit.decide_psd against the one
    # tolerance scale read off V's floats; each must be what one eigh call
    # per matrix and row_sum_scale of V give.
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
         [1.7e308, 1.7e308, 0.0, 0.0])  # V refused before V - ens is formed
@example([5e307, 0.0, 0.0, 0.0, 5e307, 0.0, 0.0, 1.0, 0.0, 1.0],
         [1.7e308, 1.7e308, 0.0, 0.0])  # V - ens is finite, but twice its row sum is not
@example([-0.0, -0.0, -0.0, 0.0, 0.5, -0.0, 0.0, 0.5, -0.0, 5e-324], [0.0, 5e-324, 0.0, 0.5])
@example([0.5 - 1.5e-7, 0.0, 0.0, 0.0, 0.5 - 1.5e-7, 0.0, 0.0, 1e3, 0.0, 1e3],
         [0.0, 0.0, 0.0, 0.0])  # physicality eigenvalue -1.5 tol * s
@example([0.0, 0.0, 8.682947293235298e307, 0.0, 0.0, 0.0, 4.0286627683011654e307, 0.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 0.0])  # Duan's witness, from hypot(k0, k1) of 1.3e308
@given(st.lists(_ENTRIES, min_size=10, max_size=10),
       st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 0.5]), st.floats(0.0, 10.0),
                          st.floats(1e307, sys.float_info.max), st.floats(-1e-8, 0.0)),
                min_size=4, max_size=4))
def test_kernel_criteria_match_the_reference_on_extreme_entries(upper, diagonal):
    # Signed zeros, subnormals and entries near 1e308, against an ensemble
    # diag(e) with entries as large, or slightly negative: a V whose twice
    # tolerance scale overflows, an overflowed entry or row sum of V - ens or
    # of its EPR matrix, a solve that does not converge and an ensemble below
    # -tol times V's scale are refused as the reference refuses them.
    _assert_kernel_matches_reference(_symmetric(upper), np.diag(diagonal))


@settings(max_examples=300)
@example([1.0, 0.0, 6e307, 0.0, 1.0, 0.0, 6e307, 1.0, 0.0, 1.0], 1)  # c00 + c11 = 1.2e308
@given(st.lists(_ENTRIES, min_size=10, max_size=10), st.sampled_from([1, -1]))
def test_weak_gap_at_the_zero_ensemble_is_weak_gap_without_one(upper, sign):
    # V - 0 is V bit for bit, signed zeros included, and weak_gap decides
    # the EPR entries of V - ens, so the zero ensemble changes no bit of the
    # report, nor a refusal, even where an EPR entry such as c00 + c11 is
    # past half the float maximum.
    v = _symmetric(upper)
    assert (_typed_bits(lambda: weak_gap(v, ZERO, sign))
            == _typed_bits(lambda: weak_gap(v, None, sign)))


def _is_p_representable(v, tol):
    """Whether p_rep_ensemble accepts v."""
    try:
        p_rep_ensemble(v, tol)
    except NotPRepresentable:
        return False
    return True


@settings(max_examples=300)
@example(1, 1, 0.8, -2.0)  # Simon satisfied, Duan violated, with a scale per matrix
@example(2, 2, 1.0, -1.0)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from([1.0, 0.8]),
       st.floats(-12.0, math.log10(0.9)))
def test_hierarchy_holds_at_every_tol(seed, index, factor, log_tol):
    # Every PSD test of a state is judged against its one tolerance scale,
    # Duan's at twice it, so each implication the audit checks holds at any
    # tol: Simon => Duan, P-representable => Simon, and P-representable =>
    # stringent => Simon at a random ensemble below V - I/2.
    tol = 10.0**log_tol
    rng = np.random.default_rng(seed)
    v = factor * mixed_physical_state(rng, index)
    simon = simon_criterion(v, tol).satisfied
    assert duan_criterion(v, tol).satisfied or not simon
    p_rep = _is_p_representable(v, tol)
    stringent = stringent_criterion(v, _scaled_random_psd(rng, v - 0.5 * np.eye(4)), tol)
    assert simon or not (p_rep or stringent.satisfied)
    assert stringent.satisfied or not p_rep


@settings(max_examples=300, deadline=None)
@example("two_mode_squeezed", 0, 12.0, -1e-4, 0.5, 0.5, 0.0, 0.0, 0.0, -10.0)
@example("standard", 0, 0.0, 0.0, 1e6, 1e6, 1.0, -1.0, 3.0, -12.0)  # pure, squeezed by e^3
@given(st.sampled_from(["two_mode_squeezed", "standard"]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 12.0), st.floats(-1e-4, 1e-4), st.floats(0.5, 1e6), st.floats(0.5, 1e6),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0),
       st.floats(-12.0, math.log10(0.9)))
def test_p_representable_implies_simon_on_large_scale_states(family, seed, r, rel, a, b, t1, t2,
                                                             log_x, log_tol):
    # Two-mode squeezed states plus noise n within 1e-4 relative of the
    # entanglement threshold n* = (1 - e^(-2r))/2, and standard forms with
    # a, b up to 1e6 and |c1|, |c2| up to sqrt((a - 1/2)(b - 1/2)), under a
    # local pair of squeezers e^(+-log_x), e^(-+log_x): wherever
    # p_rep_ensemble accepts V, Simon holds, and classify reports the
    # coherent excess exactly there, though it decides V - I/2 only where
    # Simon holds.
    tol, rng = 10.0**log_tol, np.random.default_rng(seed)
    if family == "two_mode_squeezed":
        n = -0.5 * math.expm1(-2.0 * r) * (1.0 + rel)
        v = statezoo.two_mode_squeezed(r) + n * np.eye(4)
    else:
        cap = math.sqrt((a - 0.5) * (b - 0.5))
        v = standard_matrix(a, b, t1 * cap, t2 * cap)
    v = apply_symp(v, squeezed_symp(rng, log_x), squeezed_symp(rng, -log_x))
    p_rep = _is_p_representable(v, tol)
    assert simon_criterion(v, tol).satisfied or not p_rep
    assert (classify(v, tol).ensemble_used == "coherent_excess") == p_rep


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


@pytest.mark.parametrize("flag", [True, np.True_, np.array(True)], ids=["bool", "numpy-bool", "0-d"])
@pytest.mark.parametrize("call, arg", REAL_ARRAY_TAKERS.values(), ids=REAL_ARRAY_TAKERS.keys())
def test_entry_points_refuse_a_bool_among_numbers(call, arg, flag):
    # numpy reads a nested list with one True among floats as float64, True
    # as 1.0: the value of the entry it replaces here, so only the reader's
    # own check can refuse it, and its message names the bool.
    rows = arg.tolist()
    inner = rows[0] if arg.ndim == 2 else rows
    inner[0] = flag
    message = re.escape(f"must have real number entries, got {flag!r}")
    with pytest.raises(InvalidInput, match=message):
        call(rows)


#: The entry points of REAL_ARRAY_TAKERS that read a matrix.
MATRIX_TAKERS = {name: taker for name, taker in REAL_ARRAY_TAKERS.items() if taker[1].ndim == 2}


@pytest.mark.parametrize("call, arg", MATRIX_TAKERS.values(), ids=MATRIX_TAKERS.keys())
def test_matrix_takers_refuse_a_ragged_nested_list(call, arg):
    # numpy raises its own ValueError on rows of unequal length.
    with pytest.raises(InvalidInput, match="must be a rectangular array, not ragged"):
        call([*arg.tolist(), arg[0, :-1].tolist()])


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
