import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import cvsep
from cvsep import statezoo
from cvsep.covariance import StandardForm, apply_symp, standard_matrix
from cvsep.errors import CvsepError, InvalidInput, InvalidSpec, OutOfDomain
from cvsep.matkit import is_psd_herm
from cvsep.prep import PWeight, p_density
from cvsep.squeezing import (
    SCAN_HEADER,
    SqueezeParams,
    _extremal_factors,
    apply_squeeze,
    duan_bound_at,
    duan_split_residual,
    extremality_residual,
    optimal_squeeze,
    p_rep_bound_at,
    prep_conditions,
    r2_of_r1,
    scan_table,
    simon_bound,
    superadditivity_gap,
)

GRID_AB = (0.5, 0.75, 1.0, 1.5, 2.0, 5.0)
GRID_T = tuple(np.linspace(0.0, 1.0, 11))


class TestApplySqueeze:
    def test_unit_factors_leave_state_unchanged(self):
        sf = StandardForm.from_params(1.2, 0.8, 0.4, -0.1)
        np.testing.assert_allclose(
            apply_squeeze(sf, SqueezeParams(1.0, 1.0)), sf.matrix()
        )

    def test_symmetric_factor_two(self):
        sf = StandardForm.from_params(1.0, 1.0, 0.75, 0.0)
        got = apply_squeeze(sf, SqueezeParams(2.0, 2.0))
        expected = np.array(
            [
                [2.0, 0, 1.5, 0],
                [0, 0.5, 0, 0.0],
                [1.5, 0, 2.0, 0],
                [0, 0.0, 0, 0.5],
            ]
        )
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_matches_symplectic_action(self):
        sf = StandardForm.from_params(1.5, 0.8, 0.6, -0.2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            r1, r2 = rng.uniform(1.0, 3.0, size=2)
            s1 = np.diag([math.sqrt(r1), 1.0 / math.sqrt(r1)])
            s2 = np.diag([math.sqrt(r2), 1.0 / math.sqrt(r2)])
            np.testing.assert_allclose(
                apply_squeeze(sf, SqueezeParams(r1, r2)),
                apply_symp(sf.matrix(), s1, s2),
                atol=1e-12,
            )

    def test_rejects_factors_below_one(self):
        with pytest.raises(OutOfDomain):
            SqueezeParams(0.9, 1.0)


class TestPrepConditions:
    def test_vacuum_at_boundary(self):
        sf = StandardForm.from_params(0.5, 0.5, 0.0, 0.0)
        assert prep_conditions(sf, SqueezeParams(1.0, 1.0)) == (True, True, True, True)

    def test_boundary_equalities(self):
        sf = StandardForm.from_params(1.0, 1.0, 0.75, 0.0)
        assert prep_conditions(sf, SqueezeParams(2.0, 2.0)) == (True, True, True, True)

    def test_first_condition_fails_past_bound(self):
        sf = StandardForm.from_params(1.0, 1.0, 0.8, 0.0)
        c1_ok, c2_ok, tr1_ok, tr2_ok = prep_conditions(sf, SqueezeParams(2.0, 2.0))
        assert not c1_ok
        assert c2_ok and tr1_ok and tr2_ok


class TestOptimalSqueeze:
    def test_uncorrelated_endpoint_exact(self):
        sol = optimal_squeeze(1.0, 1.0, 0.0)
        assert sol.params.r1 == pytest.approx(2.0, abs=1e-12)
        assert sol.params.r2 == pytest.approx(2.0, abs=1e-12)
        assert sol.c1_bound == pytest.approx(0.75, abs=1e-12)
        assert sol.c2_bound == 0.0
        assert sol.d_aux == pytest.approx(1.0, abs=1e-12)

    def test_balanced_endpoint_exact(self):
        sol = optimal_squeeze(1.0, 1.0, 1.0)
        assert sol.params.r1 == pytest.approx(1.0, abs=1e-12)
        assert sol.params.r2 == pytest.approx(1.0, abs=1e-12)
        assert sol.c1_bound == pytest.approx(0.5, abs=1e-12)
        assert sol.c2_bound == pytest.approx(0.5, abs=1e-12)
        assert sol.d_aux == pytest.approx(4.0, abs=1e-12)

    def test_vacuum_blocks_give_zero_bound(self):
        for t in GRID_T:
            sol = optimal_squeeze(0.5, 0.5, t)
            assert sol.c1_bound == pytest.approx(0.0, abs=1e-12)
            assert sol.params.r1 == pytest.approx(1.0, abs=1e-9)

    def test_domain_guards(self):
        with pytest.raises(OutOfDomain):
            optimal_squeeze(0.4, 1.0, 0.0)
        with pytest.raises(OutOfDomain):
            optimal_squeeze(1.0, 0.4, 0.0)
        with pytest.raises(OutOfDomain):
            optimal_squeeze(1.0, 1.0, -0.1)
        with pytest.raises(OutOfDomain):
            optimal_squeeze(1.0, 1.0, 1.1)

    def test_auxiliary_quantity_is_the_radicand(self):
        # Only the radicand reading of the auxiliary quantity gives r1 = 1 at
        # t = 1 and r1 = 2a at t = 0; the alternate reading (using the square
        # root of the radicand under the outer square root) misses both.
        a, b = 1.3, 0.9
        sol0 = optimal_squeeze(a, b, 0.0)
        sol1 = optimal_squeeze(a, b, 1.0)
        assert sol0.params.r1 == pytest.approx(2.0 * a, rel=1e-12)
        assert sol0.params.r2 == pytest.approx(2.0 * b, rel=1e-12)
        assert sol1.params.r1 == pytest.approx(1.0, rel=1e-12)
        assert sol1.params.r2 == pytest.approx(1.0, rel=1e-12)
        for t in (0.0, 1.0):
            radicand = (a * b * (1 - t * t)) ** 2 + t * (a + b * t) * (a * t + b)
            alt_root = math.sqrt(math.sqrt(radicand))
            alt_r1 = (a * b * (1 - t * t) + alt_root) / (a * t + b)
            target = 2.0 * a if t == 0.0 else 1.0
            assert abs(alt_r1 - target) > 1e-2

    def test_closed_form_matches_direct_expression(self):
        # The rationalized bound equals (1/2t) sqrt(2ab(1+t^2) + t - 2 sqrt(D)).
        for a, b in ((1.0, 1.0), (1.5, 0.8), (2.0, 5.0)):
            for t in (0.2, 0.5, 1.0):
                sol = optimal_squeeze(a, b, t)
                direct = (0.5 / t) * math.sqrt(
                    2 * a * b * (1 + t * t) + t - 2 * math.sqrt(sol.d_aux)
                )
                assert sol.c1_bound == pytest.approx(direct, rel=1e-12)

    def test_bound_continuous_at_zero_ratio(self):
        for a, b in ((1.0, 1.0), (1.5, 0.8), (2.0, 5.0)):
            at_zero = optimal_squeeze(a, b, 0.0).c1_bound
            near = optimal_squeeze(a, b, 1e-8).c1_bound
            assert abs(near - at_zero) < 1e-6

    def test_factor_ranges(self):
        for a in GRID_AB:
            for b in GRID_AB:
                for t in GRID_T:
                    sol = optimal_squeeze(a, b, t)
                    assert 1.0 - 1e-12 <= sol.params.r1 <= 2.0 * a + 1e-9
                    assert 1.0 - 1e-12 <= sol.params.r2 <= 2.0 * b + 1e-9
                    assert sol.c2_bound == pytest.approx(t * sol.c1_bound, abs=1e-12)


class TestExtremality:
    def test_symmetric_case_is_zero(self):
        assert extremality_residual(1.2, 1.2, SqueezeParams(1.7, 1.7)) == 0.0

    def test_optimal_solution_satisfies_constraint(self):
        sol = optimal_squeeze(1.5, 0.8, 0.4)
        assert abs(extremality_residual(1.5, 0.8, sol.params)) < 1e-9

    def test_non_extremal_point_is_nonzero(self):
        res = extremality_residual(1.0, 1.0, SqueezeParams(1.5, 1.2))
        expected = (1.5 - 0.5) / (1.0 / 1.5 - 0.5) - (1.2 - 0.5) / (1.0 / 1.2 - 0.5)
        assert res == pytest.approx(expected, rel=1e-12)
        assert abs(res) > 1e-3

    def test_endpoint_defined_as_zero(self):
        sol = optimal_squeeze(1.3, 0.9, 0.0)
        assert extremality_residual(1.3, 0.9, sol.params) == 0.0

    @pytest.mark.parametrize("a, b", [(1e13, 1.0), (1.0, 1e13), (1e150, 1.0), (1.0, 1e150)])
    def test_each_denominator_vanishes_at_its_own_mode_scale(self, a, b):
        # A threshold of 1e-12 * max(1, a, b) for both modes took the small
        # mode's denominator for zero and returned inf at the extremal factors.
        sol = optimal_squeeze(a, b, 0.3)
        assert abs(extremality_residual(a, b, sol.params)) < 1e-12


class TestMatchedFactor:
    def test_endpoints(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = rng.uniform(0.6, 3.0, size=2)
            assert abs(r2_of_r1(a, b, 1.0) - 1.0) < 1e-12
            assert abs(r2_of_r1(a, b, 2.0 * a) - 2.0 * b) < 1e-12

    def test_consistent_with_optimal_squeeze(self):
        sol = optimal_squeeze(1.5, 0.8, 0.4)
        assert r2_of_r1(1.5, 0.8, sol.params.r1) == pytest.approx(
            sol.params.r2, abs=1e-9
        )

    def test_domain_guard(self):
        with pytest.raises(OutOfDomain):
            r2_of_r1(1.0, 1.0, 0.5)
        with pytest.raises(OutOfDomain):
            r2_of_r1(1.0, 1.0, 2.5)
        with pytest.raises(OutOfDomain):
            r2_of_r1(0.5, 1.0, 1.0)  # degenerate matching at a = 1/2


class TestDuanBound:
    def test_uncorrelated_point(self):
        assert duan_bound_at(1.0, 1.0, 0.0, SqueezeParams(2.0, 2.0)) == pytest.approx(
            0.75, abs=1e-14
        )

    def test_balanced_point(self):
        assert duan_bound_at(1.0, 1.0, 1.0, SqueezeParams(1.0, 1.0)) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_vacuum_blocks(self):
        assert duan_bound_at(0.5, 0.5, 0.0, SqueezeParams(1.0, 1.0)) == 0.0

    def test_window_guard(self):
        with pytest.raises(OutOfDomain):
            duan_bound_at(1.0, 1.0, 0.0, SqueezeParams(2.5, 2.0))

    def test_splits_only_at_extremal_factors(self):
        def split_form(a, b, t, p):
            lo = math.sqrt((a * p.r1 - 0.5) * (b * p.r2 - 0.5))
            hi = math.sqrt(
                max(a / p.r1 - 0.5, 0.0) * max(b / p.r2 - 0.5, 0.0)
            )
            root = math.sqrt(p.r1 * p.r2)
            return (lo + hi) / (root + t / root)

        a, b, t = 1.5, 0.8, 0.4
        sol = optimal_squeeze(a, b, t)
        assert duan_bound_at(a, b, t, sol.params) == pytest.approx(
            split_form(a, b, t, sol.params), rel=1e-12
        )
        off = SqueezeParams(1.4, 1.1)
        assert duan_bound_at(a, b, t, off) > split_form(a, b, t, off)


class TestSuperadditivityGap:
    def test_proportional_quadruple_saturates(self):
        gap, met = superadditivity_gap(2.0, 1.0, 2.0, 1.0)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert met

    def test_crossed_quadruple_strict(self):
        gap, met = superadditivity_gap(2.0, 1.0, 1.0, 2.0)
        assert gap == pytest.approx(2.0 - 2.0 * math.sqrt(0.75), abs=1e-12)
        assert not met

    def test_degenerate_edge(self):
        gap, met = superadditivity_gap(0.5, 0.5, 3.0, 7.0)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert met

    def test_domain_guard(self):
        with pytest.raises(OutOfDomain):
            superadditivity_gap(0.4, 1.0, 1.0, 1.0)

    def test_nonnegative_and_equality_characterized(self):
        rng = np.random.default_rng(21)
        for i in range(10_000):
            if i % 20 == 0:
                # Constructed proportional case: equality must hold.
                p, q, kappa = rng.uniform(0.01, 4.0, size=3)
                n1, m1 = 0.5 + p, 0.5 + q
                n2, m2 = 0.5 + kappa * p, 0.5 + kappa * q
            else:
                n1, n2, m1, m2 = rng.uniform(0.5, 5.0, size=4)
            gap, met = superadditivity_gap(n1, n2, m1, m2)
            scale = max(1.0, n1 + n2, m1 + m2)
            assert gap >= -1e-12 * scale
            if met:
                assert gap <= 1e-7 * scale
            if gap > 1e-6 * scale:
                assert not met

    def test_midpoint_concavity_oracle(self):
        # 2 f(1/2) >= f(0) + f(1) for the chord interpolation of the product.
        rng = np.random.default_rng(22)
        for _ in range(10_000):
            n1, n2, m1, m2 = rng.uniform(0.5, 5.0, size=4)

            def f(x):
                return math.sqrt(
                    (n1 + x * (n2 - n1) - 0.5) * (m1 + x * (m2 - m1) - 0.5)
                )

            assert 2.0 * f(0.5) >= f(0.0) + f(1.0) - 1e-12 * max(1.0, f(0.5))


class TestDuanSplit:
    def test_extremal_points_split_exactly(self):
        assert duan_split_residual(1.0, 1.0, SqueezeParams(2.0, 2.0)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert duan_split_residual(1.0, 1.0, SqueezeParams(1.0, 1.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_non_extremal_point_positive(self):
        res = duan_split_residual(1.0, 1.0, SqueezeParams(1.5, 1.2))
        gap, _ = superadditivity_gap(1.5, 1.0 / 1.5, 1.2, 1.0 / 1.2)
        assert res == pytest.approx(gap, abs=1e-14)
        assert res > 0.0

    def test_optimal_squeezing_splits(self):
        for a, b, t in ((1.5, 0.8, 0.4), (2.0, 5.0, 0.7), (1.0, 1.0, 0.2)):
            sol = optimal_squeeze(a, b, t)
            assert abs(duan_split_residual(a, b, sol.params)) < 1e-9


class TestBoundEquivalence:
    def test_three_routes_agree_on_grid(self):
        for a in GRID_AB:
            for b in GRID_AB:
                for t in GRID_T:
                    sol = optimal_squeeze(a, b, t)
                    prep = p_rep_bound_at(a, b, sol.params)
                    simon = simon_bound(a, b, t)
                    duan = duan_bound_at(a, b, t, sol.params)
                    top = max(prep, simon, duan, 1.0)
                    assert max(prep, simon, duan) - min(prep, simon, duan) <= 1e-8 * top
                    assert sol.c1_bound == pytest.approx(prep, rel=1e-10, abs=1e-12)

    def test_second_equality_route_at_positive_ratio(self):
        # sqrt((a/r1 - 1/2)(b/r2 - 1/2)) * sqrt(r1 r2) / t equals the bound.
        for a, b, t in ((1.5, 0.8, 0.4), (1.0, 1.0, 0.9), (2.0, 0.75, 0.25)):
            sol = optimal_squeeze(a, b, t)
            r1, r2 = sol.params.r1, sol.params.r2
            second = (
                math.sqrt((a / r1 - 0.5) * (b / r2 - 0.5)) * math.sqrt(r1 * r2) / t
            )
            assert second == pytest.approx(sol.c1_bound, rel=1e-9)

    def test_squeezed_state_boundary_psd_transition(self):
        for a, b, t in ((1.0, 1.0, 0.0), (1.5, 0.8, 0.4), (2.0, 5.0, 1.0)):
            sol = optimal_squeeze(a, b, t)
            if sol.c1_bound == 0.0:
                continue
            inside = sol.c1_bound * (1.0 - 1e-12)
            sf = StandardForm.from_params(a, b, inside, -t * inside)
            v = apply_squeeze(sf, sol.params)
            assert is_psd_herm(v - 0.5 * np.eye(4))[0]
            outside = sol.c1_bound * (1.0 + 1e-6)
            sf_out = StandardForm.from_params(a, b, outside, -t * outside)
            v_out = apply_squeeze(sf_out, sol.params)
            assert not is_psd_herm(v_out - 0.5 * np.eye(4))[0]


#: (a, b) pairs whose product is exactly 1e150, the largest the routes accept.
AT_THE_AB_BOUND = [(1e150, 1.0), (1.0, 1e150), (2e150, 0.5)]


class TestProductBound:
    @pytest.mark.parametrize("a, b", AT_THE_AB_BOUND)
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_routes_stay_finite_and_agree_at_the_bound(self, a, b, t):
        sol = optimal_squeeze(a, b, t)
        bounds = (
            sol.c1_bound,
            simon_bound(a, b, t),
            p_rep_bound_at(a, b, sol.params),
            duan_bound_at(a, b, t, sol.params),
        )
        assert all(math.isfinite(x) for x in (sol.d_aux, r2_of_r1(a, b, 1.0), *bounds))
        assert bounds == pytest.approx([sol.c1_bound] * 4, rel=1e-12)

    @pytest.mark.parametrize(
        "a, b",
        [(math.nextafter(a, math.inf), b) for a, b in AT_THE_AB_BOUND]
        + [(1e154, 0.75), (1e200, 0.5)],
    )
    def test_every_route_rejects_a_product_past_the_bound(self, a, b):
        p = SqueezeParams(1.0, 1.0)
        routes = [
            lambda: optimal_squeeze(a, b, 0.3),
            lambda: simon_bound(a, b, 0.3),
            lambda: p_rep_bound_at(a, b, p),
            lambda: duan_bound_at(a, b, 0.3, p),
            lambda: extremality_residual(a, b, p),
            lambda: r2_of_r1(a, b, 1.0),
        ]
        for route in routes:
            with pytest.raises(OutOfDomain, match=r"must have a \* b <= 1e\+150"):
                route()


class TestScalarRoutes:
    """p_rep_bound_at, simon_bound and duan_bound_at evaluate scan_table's
    column kernels at one point and hand back a plain float."""

    def test_simon_bound_is_one_function_in_every_namespace(self):
        assert cvsep.simon_bound is cvsep.criteria.simon_bound is cvsep.squeezing.simon_bound

    @pytest.mark.parametrize(
        "a, b", [(a, b) for a in GRID_AB for b in GRID_AB] + AT_THE_AB_BOUND
    )
    def test_routes_return_python_floats(self, a, b):
        for t in (*GRID_T, 0.0, 1.0):
            sol = optimal_squeeze(a, b, t)
            bounds = (
                p_rep_bound_at(a, b, sol.params),
                simon_bound(a, b, t),
                duan_bound_at(a, b, t, sol.params),
            )
            assert [type(x) for x in bounds] == [float] * 3

    def test_numpy_scalar_arguments_still_give_python_floats(self):
        a, b, t = np.float64(1.5), np.float64(0.8), np.float64(0.4)
        p = SqueezeParams(np.float64(1.7), np.float64(1.2))
        assert type(p_rep_bound_at(a, b, p)) is float
        assert type(simon_bound(a, b, t)) is float
        assert type(duan_bound_at(a, b, t, p)) is float

    def test_factors_far_outside_the_window_overflow_without_a_warning(self):
        # Python floats overflow to inf, and inf / inf is nan, silently; the
        # kernel on numpy scalars must do the same (warnings are errors here).
        assert math.isnan(p_rep_bound_at(1.0, 1.0, SqueezeParams(1e200, 1e200)))
        assert p_rep_bound_at(1e100, 1.0, SqueezeParams(1e250, 1.0)) == math.inf


#: Ratios at and next to the ends of [0, 1], where the factors snap.
EDGE_T = [0.0, 5e-324, 1e-17, 1e-8, 0.3, 1.0 - 1e-8, 0.9999999999999999, 1.0]
EDGE_AB = [(0.5, 0.5), (1.0, 1.0), (7.0, 3.0), (1.3, 0.9), (1e13, 1.0), (1e75, 1e75),
           *AT_THE_AB_BOUND, (0.5, 2e150)]


class TestOneFactorKernel:
    """optimal_squeeze and scan_table take their factors from one kernel."""

    @pytest.mark.parametrize("a, b", EDGE_AB)
    def test_point_equals_the_scan_row_bitwise(self, a, b):
        for t in EDGE_T:
            sol = optimal_squeeze(a, b, t)
            row = scan_table([a], [b], [t])[0]
            (d_aux,), _, _ = _extremal_factors(np.array([a]), np.array([b]), np.array([t]))
            expected = [row[SCAN_HEADER.index("r1")], row[SCAN_HEADER.index("r2")], d_aux]
            got = [sol.params.r1, sol.params.r2, sol.d_aux]
            assert [type(x) for x in got] == [float] * 3
            np.testing.assert_array_equal(
                np.array(got).view(np.int64), np.array(expected).view(np.int64)
            )

    @pytest.mark.parametrize("a, b", EDGE_AB)
    def test_factors_snap_onto_the_endpoints(self, a, b):
        assert optimal_squeeze(a, b, 0.0).params == SqueezeParams(2.0 * a, 2.0 * b)
        assert optimal_squeeze(a, b, 1.0).params == SqueezeParams(1.0, 1.0)


#: Every entry point that checks a scalar parameter, with x in one slot; 1.0
#: is a valid value in each.
SCALAR_TAKERS = {
    "thermal_n1": lambda x: statezoo.thermal(x, 1.0),
    "thermal_n2": lambda x: statezoo.thermal(1.0, x),
    "two_mode_squeezed": statezoo.two_mode_squeezed,
    "optimal_squeeze_a": lambda x: optimal_squeeze(x, 1.0, 0.5),
    "optimal_squeeze_b": lambda x: optimal_squeeze(1.0, x, 0.5),
    "optimal_squeeze_t": lambda x: optimal_squeeze(1.0, 1.0, x),
    "simon_bound_t": lambda x: simon_bound(1.0, 1.0, x),
    "p_rep_bound_at_a": lambda x: p_rep_bound_at(x, 1.0, SqueezeParams(1.0, 1.0)),
    "squeeze_params_r1": lambda x: SqueezeParams(x, 1.0),
    "squeeze_params_r2": lambda x: SqueezeParams(1.0, x),
    "r2_of_r1": lambda x: r2_of_r1(1.0, 1.0, x),
    "superadditivity_gap_n1": lambda x: superadditivity_gap(x, 1.0, 1.0, 1.0),
    "superadditivity_gap_m2": lambda x: superadditivity_gap(1.0, 1.0, 1.0, x),
    "scan_table_a": lambda x: scan_table([x], [1.0], [0.5]),
    "scan_table_t": lambda x: scan_table([1.0], [1.0], [0.0, x]),
    "simon_bound_a": lambda x: simon_bound(x, 1.0, 0.5),
    "duan_bound_at_t": lambda x: duan_bound_at(1.0, 1.0, x, SqueezeParams(1.0, 1.0)),
    "extremality_residual_a": lambda x: extremality_residual(x, 1.0, SqueezeParams(1.0, 1.0)),
    "from_params_a": lambda x: StandardForm.from_params(x, 1.0, 0.5, 0.0),
    "standard_form_a": lambda x: StandardForm(x, 1.0, 0.5, 0.0, np.eye(2), np.eye(2)),
    "standard_form_c2": lambda x: StandardForm(1.0, 1.0, 0.5, x, np.eye(2), np.eye(2)),
    "standard_matrix_c2": lambda x: standard_matrix(1.0, 1.0, 0.5, x),
    "p_density_normalization": lambda x: p_density(PWeight(np.eye(4), x), np.zeros(4)),
    "duan_split_residual_a": lambda x: duan_split_residual(x, 1.0, SqueezeParams(1.0, 1.0)),
}


@pytest.mark.parametrize("call", SCALAR_TAKERS.values(), ids=SCALAR_TAKERS.keys())
def test_scalar_parameters_refuse_bools_and_non_numbers(call):
    # True and False would be read as 1 and 0, a string or complex number
    # used to raise a bare TypeError.
    for x in (True, False, np.bool_(True), "1", 1j, None):
        with pytest.raises(InvalidInput, match="must be a real number"):
            call(x)
    for x in (1.0, 1, np.float64(1.0), np.int64(1), np.uint8(1), np.float32(1.0), Fraction(1)):
        call(x)


#: The squeeze routes at interior points, with x in an a, b or r slot and x / 2
#: in a t slot: halving is exact, so x / 2 reads as float(x) / 2.
SQUEEZE_ROUTES = {
    "optimal_squeeze_at_a": lambda x: optimal_squeeze(x, 0.9, 0.4),
    "optimal_squeeze_at_t": lambda x: optimal_squeeze(1.3, 0.9, x / 2),
    "simon_bound_at_t": lambda x: simon_bound(1.3, 0.9, x / 2),
    "p_rep_bound_at_r1": lambda x: p_rep_bound_at(1.3, 0.9, SqueezeParams(x, 1.5)),
    "duan_bound_at_at_t": lambda x: duan_bound_at(1.3, 0.9, x / 2, SqueezeParams(1.2, 1.1)),
    "extremality_residual_at_b": lambda x: extremality_residual(1.3, x, SqueezeParams(1.2, 1.1)),
    "r2_of_r1_at_r1": lambda x: r2_of_r1(1.3, 0.9, x),
    "superadditivity_gap_at_n1_m2": lambda x: superadditivity_gap(x, 0.9, 1.1, x),
    "duan_split_residual_at_b": lambda x: duan_split_residual(1.3, x, SqueezeParams(1.2, 1.1)),
    "scan_table_at_t": lambda x: scan_table([1.3, 2.0], [0.9], [0.0, x / 2]),
}


def _exact(value):
    """value as nested tuples that compare equal only when every type and bit does."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value), *(_exact(getattr(value, f.name)) for f in fields))
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value), value.hex() if isinstance(value, float) else value


def _outcome(call, x):
    """_exact of call(x), or the type and message of the package error it raises."""
    try:
        return _exact(call(x))
    except CvsepError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("x", [np.float32(1.3), Fraction(13, 10), 2, np.int64(2)],
                         ids=["float32", "fraction", "int", "int64"])
@pytest.mark.parametrize("call", [*SCALAR_TAKERS.values(), *SQUEEZE_ROUTES.values()],
                         ids=[*SCALAR_TAKERS.keys(), *SQUEEZE_ROUTES.keys()])
def test_scalar_parameters_compute_on_their_float(call, x):
    # Every route reads a real scalar as the float it rounds to, without a
    # warning: a float32 once ran the squeeze formulas in float32 (with an
    # overflow warning in a cast) and came back as a float32 from r2_of_r1.
    assert _outcome(call, x) == _outcome(call, float(x))


def test_r2_of_r1_returns_a_python_float():
    assert type(r2_of_r1(1.3, 0.9, np.float32(1.5))) is float


@pytest.mark.parametrize("call", SCALAR_TAKERS.values(), ids=SCALAR_TAKERS.keys())
def test_scalar_parameters_past_the_float_range_read_as_inf(call):
    # An integer or Fraction past the float range once raised a bare
    # OverflowError or built an object-dtype matrix.
    for huge, inf in ((10**400, math.inf), (-(10**400), -math.inf),
                      (Fraction(10**400, 3), math.inf)):
        assert _outcome(call, huge) == _outcome(call, inf)


#: The takers without a range of their own: an infinite parameter is theirs to hold.
_UNBOUNDED_TAKERS = ("from_params_a", "standard_form_a", "standard_form_c2",
                     "standard_matrix_c2")


@pytest.mark.parametrize(
    "call", [c for name, c in SCALAR_TAKERS.items() if name not in _UNBOUNDED_TAKERS],
    ids=[name for name in SCALAR_TAKERS if name not in _UNBOUNDED_TAKERS])
def test_scalar_parameters_past_the_float_range_raise_the_range_error(call):
    with pytest.raises((OutOfDomain, InvalidSpec)):
        call(10**400)
