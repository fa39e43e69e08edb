"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from conftest import is_psd
from cvsep import statezoo
from cvsep.audit import run_audit
from cvsep.covariance import (
    apply_symp,
    invariants,
    p_rep_ensemble,
)
from cvsep.criteria import (
    Outcome,
    classify,
    duan_criterion,
    gap_general,
    gap_separable,
    simon_criterion,
)
from cvsep.errors import NotPRepresentable
from cvsep.prep import p_moment_residual, p_sample, p_weight
from cvsep.squeezing import (
    duan_bound_at,
    extremality_residual,
    optimal_squeeze,
    p_rep_bound_at,
    r2_of_r1,
    simon_bound,
    superadditivity_gap,
)

GRID_AB = (0.5, 0.75, 1.0, 1.5, 2.0, 5.0)
GRID_T = tuple(np.linspace(0.0, 1.0, 11))


def _passed(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_boundary_bound_equivalence():
    start = time.monotonic()
    worst = 0.0
    for a in GRID_AB:
        for b in GRID_AB:
            for t in GRID_T:
                sol = optimal_squeeze(a, b, t)
                bounds = (
                    p_rep_bound_at(a, b, sol.params),
                    simon_bound(a, b, t),
                    duan_bound_at(a, b, t, sol.params),
                )
                spread = max(bounds) - min(bounds)
                rel = spread / max(1.0, max(abs(x) for x in bounds))
                worst = max(worst, rel)
                assert rel <= 1e-8, (a, b, t, bounds)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"
    _passed(1, f"boundary-bound-equivalence (worst rel {worst:.2e})")


def test_criterion_02_exact_points():
    sol = optimal_squeeze(1.0, 1.0, 0.0)
    assert abs(sol.params.r1 - 2.0) <= 1e-12
    assert abs(sol.params.r2 - 2.0) <= 1e-12
    assert abs(sol.c1_bound - 0.75) <= 1e-12
    sol1 = optimal_squeeze(1.0, 1.0, 1.0)
    assert abs(sol1.params.r1 - 1.0) <= 1e-12
    assert abs(sol1.params.r2 - 1.0) <= 1e-12
    assert abs(sol1.c1_bound - 0.5) <= 1e-12

    # Independent arithmetic: the algebraic equality condition becomes a
    # quadratic in u = c1^2 once c2 = t c1; solve it literally.
    def equality_root(a, b, t):
        qa = 4.0 * t * t
        qb = 4.0 * a * b * (1.0 + t * t) + 2.0 * t
        qc = (2.0 * a * a - 0.5) * (2.0 * b * b - 0.5)
        if qa == 0.0:
            return math.sqrt(qc / qb)
        disc = qb * qb - 4.0 * qa * qc
        return math.sqrt((qb - math.sqrt(disc)) / (2.0 * qa))

    assert abs(equality_root(1.0, 1.0, 0.0) - 0.75) <= 1e-12
    assert abs(equality_root(1.0, 1.0, 1.0) - 0.5) <= 1e-12
    assert abs(sol.c1_bound - equality_root(1.0, 1.0, 0.0)) <= 1e-12
    assert abs(sol1.c1_bound - equality_root(1.0, 1.0, 1.0)) <= 1e-12
    _passed(2, "exact-point-checks")


def test_criterion_03_matched_factor_endpoints():
    rng = np.random.default_rng(303)
    for _ in range(100):
        a, b = rng.uniform(0.6, 3.0, size=2)
        assert abs(r2_of_r1(a, b, 1.0) - 1.0) <= 1e-12
        assert abs(r2_of_r1(a, b, 2.0 * a) - 2.0 * b) <= 1e-12
    _passed(3, "matched-factor-endpoints")


def test_criterion_04_brute_force_extremality():
    # Nested grids (coarse = every other fine point) make the Richardson
    # error estimate monotone: min_coarse >= min_fine >= analytic bound.
    def grid_min(a, b, t, n):
        r1 = np.linspace(1.0, 2.0 * a, n)[:, None]
        r2 = np.linspace(1.0, 2.0 * b, n)[None, :]
        num = np.sqrt((a * r1 + a / r1 - 1.0) * (b * r2 + b / r2 - 1.0))
        root = np.sqrt(r1 * r2)
        return float((num / (root + t / root)).min())

    rng = np.random.default_rng(404)
    for _ in range(20):
        a, b = rng.uniform(0.6, 2.5, size=2)
        t = float(rng.uniform(0.05, 0.95))
        sol = optimal_squeeze(a, b, t)
        fine = grid_min(a, b, t, 201)
        coarse = grid_min(a, b, t, 101)
        assert fine >= sol.c1_bound - 1e-9
        # Discretization budget: Richardson difference of the nested grids
        # plus the quadratic curvature floor h1^2 + h2^2 (the difference
        # alone collapses to zero when both argmins share a node).
        h1 = (2.0 * a - 1.0) / 200.0
        h2 = (2.0 * b - 1.0) / 200.0
        budget = 3.0 * max(coarse - fine, 0.0) + h1 * h1 + h2 * h2
        assert fine - sol.c1_bound <= budget
        assert abs(extremality_residual(a, b, sol.params)) < 1e-9
    _passed(4, "brute-force-extremality")


def test_criterion_05_hierarchy():
    start = time.monotonic()
    result = run_audit(samples=10_000, seed=55)
    elapsed = time.monotonic() - start
    assert result.counterexamples == 0
    assert result.pairs >= 10_000
    assert elapsed < 60.0, f"hierarchy audit took {elapsed:.2f}s"
    _passed(5, f"criterion-hierarchy ({result.pairs} pairs, {elapsed:.1f}s)")


def test_criterion_06_symplectic_invariance():
    rng = np.random.default_rng(606)

    def det2(m):
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    states = [
        statezoo.two_mode_squeezed(0.4),
        statezoo.random_separable(rng),
        statezoo.random_correlated_physical(rng),
    ]
    for v in states:
        dets = (
            det2(v[:2, :2]),
            det2(v[2:, 2:]),
            det2(v[:2, 2:]),
            float(np.linalg.det(v)),
            *invariants(v),
        )
        simon_before = simon_criterion(v).satisfied
        for _ in range(100):
            s1 = statezoo.random_symp2(rng)
            s2 = statezoo.random_symp2(rng)
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
            assert simon_criterion(w).satisfied == simon_before

    # P-representability is not invariant: squeezing one mode of a unit
    # thermal state pushes a momentum variance below the vacuum floor.
    v = np.eye(4)
    assert is_psd(p_rep_ensemble(v))
    v_squeezed = apply_symp(v, np.diag([2.0, 0.5]), np.eye(2))
    with pytest.raises(NotPRepresentable):
        p_rep_ensemble(v_squeezed)
    _passed(6, "symplectic-invariance")


def test_criterion_07_moment_identity():
    rng = np.random.default_rng(707)
    for _ in range(100):
        assert p_moment_residual(statezoo.random_separable(rng)) < 1e-10

    n = 100_000
    for k in range(5):
        v = statezoo.random_separable(rng)
        w = p_weight(v)
        target = np.linalg.inv(w.pmat)
        pts = p_sample(w, n, seed=7000 + k)
        sample_cov = pts.T @ pts / n
        for i in range(4):
            for j in range(4):
                se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
                assert abs(sample_cov[i, j] - target[i, j]) <= 3.0 * se
    _passed(7, "p-moment-identity")


def test_criterion_08_superadditivity():
    rng = np.random.default_rng(808)
    for i in range(10_000):
        if i % 20 == 0:
            p, q, kappa = rng.uniform(0.01, 4.0, size=3)
            n1, m1, n2, m2 = 0.5 + p, 0.5 + q, 0.5 + kappa * p, 0.5 + kappa * q
        else:
            n1, n2, m1, m2 = rng.uniform(0.5, 5.0, size=4)
        gap, met = superadditivity_gap(n1, n2, m1, m2)
        scale = max(1.0, n1 + n2, m1 + m2)
        assert gap >= -1e-12 * scale
        if gap < 1e-9:
            assert met
        if met:
            assert gap <= 1e-7 * scale

        def f(x):
            return math.sqrt((n1 + x * (n2 - n1) - 0.5) * (m1 + x * (m2 - m1) - 0.5))

        assert 2.0 * f(0.5) >= f(0.0) + f(1.0) - 1e-12 * max(1.0, f(0.5))
    _passed(8, "superadditivity-and-concavity")


def test_criterion_09_two_mode_squeezed_reference_point():
    v = statezoo.two_mode_squeezed(0.5)
    verdict = classify(v)
    assert verdict.outcome is Outcome.ENTANGLED
    rep = verdict.reports["simon"]
    assert rep.sign_branch == -1
    assert abs(rep.margin - (math.exp(-1.0) - 1.0) / 2.0) <= 1e-9
    _passed(9, "two-mode-squeezed-reference")


def test_criterion_10_witness_soundness():
    rng = np.random.default_rng(1010)
    failures = 0
    sound = 0
    i = 0
    while failures < 1000:
        i += 1
        choice = i % 3
        if choice == 0:
            v = apply_symp(
                statezoo.two_mode_squeezed(float(rng.uniform(0.1, 2.0))),
                statezoo.random_symp2(rng),
                statezoo.random_symp2(rng),
            )
            rep = simon_criterion(v)
            if rep.satisfied:
                continue
            if gap_separable(v, None, rep.witness) < 0.0:
                sound += 1
            failures += 1
        elif choice == 1:
            v = statezoo.two_mode_squeezed(float(rng.uniform(0.1, 2.0)))
            rep = duan_criterion(v)
            if rep.satisfied:
                continue
            if gap_separable(v, None, rep.witness) < 0.0:
                sound += 1
            failures += 1
        else:
            nu = float(rng.uniform(0.05, 0.45))
            v = apply_symp(
                np.diag([nu, nu, 1.0, 1.0]),
                statezoo.random_symp2(rng),
                statezoo.random_symp2(rng),
            )
            rep = classify(v).reports["physical"]
            assert not rep.satisfied
            if gap_general(v, None, rep.witness) < 0.0:
                sound += 1
            failures += 1
    assert sound == failures == 1000
    _passed(10, "witness-soundness")
