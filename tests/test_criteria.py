import math

import numpy as np
import pytest

from cvsep import statezoo
from cvsep.covariance import (
    apply_symp,
    is_physical,
    p_rep_ensemble,
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
from cvsep.errors import InvalidEnsembleMatrix, InvalidInput
from cvsep.statezoo import mixed_physical_state
from cvsep.squeezing import SqueezeParams, apply_squeeze
from cvsep.covariance import StandardForm


def params(d, f, g, h):
    return ParamSet(np.array(d, float), np.array(f, float), np.array(g, float), np.array(h, float))


ZERO = np.zeros((4, 4))


def _one_sided(v, i, j, x):
    """v with only the (i, j) entry set to x, not its mirror (j, i)."""
    v = np.array(v, dtype=float)
    v[i, j] = x
    return v


#: Matrices every public criterion must reject with InvalidInput. The last is
#: I/2 with only v[0, 2] set, which an eigensolver reading one triangle would
#: otherwise take for an entangled state.
BAD_MATRICES = [
    np.full((4, 4), np.nan),
    np.diag([0.5, 0.5, np.inf, 0.5]),
    0.5 * np.eye(3),
    _one_sided(0.5 * np.eye(4), 0, 2, 0.3),
]


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

    def test_rejects_indefinite_ensemble(self):
        with pytest.raises(InvalidEnsembleMatrix):
            stringent_criterion(np.eye(4), np.diag([1.0, -1.0, 0.0, 0.0]))


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
        from cvsep.covariance import is_physical, partial_transpose

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

    def test_boundary_state_separable(self):
        verdict = classify(standard_matrix(1.0, 1.0, 0.75, 0.0))
        assert verdict.outcome is Outcome.SEPARABLE
        assert verdict.reports["p_rep_bound"].margin == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("bad", BAD_MATRICES)
    def test_rejects_non_finite_or_misshaped(self, bad):
        with pytest.raises(InvalidInput):
            classify(bad)

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

    def test_consistent_on_mixed_pool(self):
        rng = np.random.default_rng(37)
        for i in range(2000):
            v = mixed_physical_state(rng, i)
            verdict = classify(v)
            assert verdict.outcome in (Outcome.SEPARABLE, Outcome.ENTANGLED)
            assert verdict.consistent


@pytest.mark.parametrize(
    "criterion",
    [
        is_physical,
        simon_criterion,
        duan_criterion,
        lambda v: stringent_criterion(v, ZERO),
        lambda ens: stringent_criterion(statezoo.vacuum(), ens),
    ],
    ids=["is_physical", "simon", "duan", "stringent_v", "stringent_ens"],
)
@pytest.mark.parametrize("bad", BAD_MATRICES)
def test_public_criteria_reject_bad_matrices(criterion, bad):
    with pytest.raises(InvalidInput):
        criterion(bad)


def test_simon_bound_is_stable_near_zero_ratio():
    # The quadratic degenerates to linear at t = 0; the stable-root form must
    # approach that value smoothly.
    at_zero = simon_bound(1.3, 0.9, 0.0)
    assert simon_bound(1.3, 0.9, 1e-8) == pytest.approx(at_zero, abs=1e-7)
