"""One-line mutants of src/cvsep and the tier-1 tests that must kill each.

Each row names a mutant, the module under src/cvsep it edits, an exact
source fragment that occurs once in that module, its replacement, and the
test ids that must fail once the replacement is made. A mutant that no test
can tell from the original stays in the table, with the reason it is
equivalent; a row is never deleted to make the run pass.

tests/test_mutant_table.py checks on every tier-1 run that each fragment
still occurs exactly once, so the table cannot rot. tests/run_mutants.py
applies each row to a temporary copy of the repository and runs its tests:

    python tests/run_mutants.py
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str
    fragment: str
    replacement: str
    tests: tuple
    equivalent: str | None = None


CRITERIA = "tests/test_criteria.py::"
CLI = "tests/test_cli.py::"
COVARIANCE = "tests/test_covariance.py::"
INVARIANTS = COVARIANCE + "TestInvariants::"
SQUEEZING = "tests/test_squeezing.py::"

MUTANTS = (
    Mutant(
        "epr_at_tol_s", "criteria.py",
        "bound = -2.0 * tol * s", "bound = -tol * s",
        (CRITERIA + "TestWeakGap::test_epr_margin_is_judged_at_twice_the_tolerance",
         "tests/test_golden.py::test_cli_outputs_match_golden"),
    ),
    Mutant(
        "branch_tie_at_1e-6", "criteria.py",
        "abs(plus - minus) <= 1e-12 *", "abs(plus - minus) <= 1e-6 *",
        (CRITERIA + "TestSimon::test_a_branch_lower_by_a_few_1e_10_binds",
         CRITERIA + "TestDuan::test_witness_comes_from_the_plus_branch_unless_minus_binds"),
    ),
    Mutant(
        "consistent_tie_at_1e-6", "criteria.py",
        "abs(prep_margin) <= 1e-8 and abs(simon.margin) <= 1e-8",
        "abs(prep_margin) <= 1e-6 and abs(simon.margin) <= 1e-6",
        (CRITERIA + "TestClassify::test_consistent_allows_a_disagreement_only_within_1e_8",),
    ),
    Mutant(
        "consistent_tie_at_1e-10", "criteria.py",
        "abs(prep_margin) <= 1e-8 and abs(simon.margin) <= 1e-8",
        "abs(prep_margin) <= 1e-10 and abs(simon.margin) <= 1e-10",
        (CRITERIA + "TestClassify::test_consistent_allows_a_disagreement_only_within_1e_8",),
    ),
    Mutant(
        "coherent_excess_at_twice_the_scale", "covariance.py",
        "decide_psd(v + _STATE_SHIFT[2:], s, tol)",
        "decide_psd(v + _STATE_SHIFT[2:], 2.0 * s, tol)",
        (CRITERIA + "TestClassify::test_p_representability_has_one_decider_on_the_pools",),
    ),
    Mutant(
        "p_rep_read_from_the_simon_branch", "criteria.py",
        "if ok[2]:", "if ok[1]:",
        (CRITERIA + "TestClassify::test_p_representability_has_one_decider_on_the_pools",
         CRITERIA + "TestClassify::test_ensemble_used_is_p_rep_ensemble_and_reports_are_the_public_criteria"),
    ),
    Mutant(
        "coherent_excess_shift_halved", "covariance.py",
        "-_HALF_I])", "-0.5 * _HALF_I])",
        (CRITERIA + "TestClassify::test_physical_and_zero_ensemble_reports_reuse_simon",
         "tests/test_golden.py::test_cli_outputs_match_golden"),
    ),
    Mutant(
        "classify_records_unit_scale", "criteria.py",
        "Verdict(outcome, reports, sf, ens_kind, consistent, tol, s)",
        "Verdict(outcome, reports, sf, ens_kind, consistent, tol, 1.0)",
        (CLI + "TestClassify::test_pure_state_prints_its_physical_margin_as_zero[8.0]",),
    ),
    Mutant(
        "epr_larger_root", "criteria.py",
        "half_a + half_b - math.hypot(", "half_a + half_b + math.hypot(",
        (CRITERIA + "TestDuan::test_two_mode_squeezed_violation",
         CRITERIA + "test_closed_form_epr_margin_matches_eigvalsh_under_local_squeezing"),
    ),
    Mutant(
        "epr_branches_swap_rho", "criteria.py",
        "_binding(_epr_lowest(alpha, beta, epr[2], epr[3]),\n"
        "                                  _epr_lowest(alpha, beta, epr[4], epr[5]))",
        "_binding(_epr_lowest(alpha, beta, epr[4], epr[5]),\n"
        "                                  _epr_lowest(alpha, beta, epr[2], epr[3]))",
        (CRITERIA + "TestDuan::test_witness_comes_from_the_plus_branch_unless_minus_binds",
         CRITERIA + "test_epr_reports_match_the_eigh_reference_on_the_pools"),
    ),
    Mutant(
        "ensemble_at_twice_the_scale", "criteria.py",
        "decide_psd(ens[None], s, tol)", "decide_psd(ens[None], 2.0 * s, tol)",
        (CRITERIA + "TestStringent::test_ensemble_passes_at_tol_times_the_scale_of_the_state",),
    ),
    Mutant(
        "ensemble_at_unit_scale", "criteria.py",
        "decide_psd(ens[None], s, tol)", "decide_psd(ens[None], 1.0, tol)",
        (CRITERIA + "TestStringent::test_ensemble_is_judged_against_the_scale_of_the_state",
         CRITERIA + "TestStringent::test_ensemble_passes_at_tol_times_the_scale_of_the_state"),
    ),
    Mutant(
        "difference_not_checked_finite", "criteria.py",
        "if not np.isfinite(m).all():", "if False:",
        (CRITERIA + "TestStringent::test_overflowing_difference_with_the_ensemble_is_out_of_domain",),
    ),
    Mutant(
        "difference_row_sum_not_checked", "criteria.py",
        "    _tol_scale(m.tolist())\n", "",
        (CRITERIA + "TestStringent::test_overflowing_difference_with_the_ensemble_is_out_of_domain",),
    ),
    Mutant(
        "shared_coherent_excess_report", "criteria.py",
        "CriterionReport(True, 0.0, None, 0)",
        'classify.__dict__.setdefault("shared", CriterionReport(True, 0.0, None, 0))',
        (CRITERIA + "TestClassify::test_each_verdict_owns_its_records",),
    ),
    Mutant(
        "finite_entries_text_says_row_sum", "criteria.py",
        '"(PSD test needs finite entries)"', '"(PSD test: a row sum overflows)"',
        (CRITERIA + "TestStringent::test_overflowing_difference_with_the_ensemble_is_out_of_domain",),
    ),
    Mutant(
        "row_sum_text_says_finite_entries", "covariance.py",
        '"PSD test: a row sum of the matrix overflows"', '"PSD test needs finite entries"',
        (CRITERIA + "TestClassify::test_overflowing_row_sum_is_out_of_domain_without_a_warning",),
    ),
    Mutant(
        "tol_scale_floor_0.5", "covariance.py",
        "s = max(1.0, _max_row_sum(rows))", "s = max(0.5, _max_row_sum(rows))",
        (CRITERIA + "TestWeakGap::test_epr_margin_is_judged_at_twice_the_tolerance",),
    ),
    Mutant(
        "row_sum_reordered", "covariance.py",
        "abs(x0) + abs(x1) + abs(x2) + abs(x3)", "abs(x0) + ((abs(x1) + abs(x2)) + abs(x3))",
        (CRITERIA + "test_every_matrix_built_from_an_accepted_v_is_finite",),
    ),
    Mutant(
        "is_physical_at_twice_the_scale", "covariance.py",
        "_STATE_SHIFT[:1], s, tol)", "_STATE_SHIFT[:1], 2.0 * s, tol)",
        (CRITERIA + "test_kernel_criteria_match_the_reference_on_extreme_entries",),
    ),
    Mutant(
        "p_weight_not_p_representable_at_unit_scale", "prep.py",
        "_coherent_excess(v, s, tol)", "_coherent_excess(v, 1.0, tol)",
        ("tests/test_prep.py::TestPWeight::test_decides_against_the_tol_scale_of_v",),
    ),
    Mutant(
        "classify_margin_rounding_at_unit_scale", "cli.py",
        "_fmt_value(rep.margin, verdict.scale)", "_fmt_value(rep.margin, 1.0)",
        (CLI + "TestClassify::test_pure_state_prints_its_physical_margin_as_zero",),
    ),
    Mutant(
        "rounding_at_1_eps", "cli.py",
        "_ROUNDING = 16.0 * sys.float_info.epsilon", "_ROUNDING = 1.0 * sys.float_info.epsilon",
        (CLI + "TestClassify::test_rounding_prints_as_zero",),
    ),
    Mutant(
        "p_weight_boundary_at_unit_scale", "prep.py",
        "values[0] <= tol * s", "values[0] <= tol",
        ("tests/test_prep.py::TestPWeight::test_decides_against_the_tol_scale_of_v",),
    ),
    Mutant(
        "bool_entries_read_as_numbers", "covariance.py",
        "if np.asarray(entry).dtype == bool:", "if False:",
        (CRITERIA + "test_entry_points_refuse_a_bool_among_numbers",),
    ),
    Mutant(
        "ragged_input_not_caught", "covariance.py",
        "except ValueError as exc:  # numpy's", "except TypeError as exc:  # numpy's",
        (CRITERIA + "test_matrix_takers_refuse_a_ragged_nested_list",),
    ),
    Mutant(
        "invariants_entry_at_twice_the_scale", "covariance.py",
        "rows = [[n * (k // d) for n, d in row] for row in ratios]",
        "rows = [[n * (k // d) for n, d in row] for row in ratios]; rows[0][0] *= 2",
        (INVARIANTS + "test_bits_match_the_exact_determinants_on_the_pools[7]",),
    ),
    Mutant(
        "det_v_over_k_squared", "covariance.py",
        "_rounded(det_v, k2 * k2)", "_rounded(det_v, k2)",
        (INVARIANTS + "test_bits_match_the_exact_determinants_on_the_pools[7]",),
    ),
    Mutant(
        "overflow_rounds_to_plus_inf", "covariance.py",
        "return math.inf if num > 0 else -math.inf", "return math.inf",
        (INVARIANTS + "test_det_v_is_the_exact_value_where_the_expansion_overflows[negative_1e100]",),
    ),
    Mutant(
        "coherent_excess_accepts_every_state", "covariance.py",
        "    if not ok[0]:\n        raise NotPRepresentable", "    if False:\n        raise NotPRepresentable",
        (CRITERIA + "TestClassify::test_p_representability_has_one_decider_on_the_pools",
         COVARIANCE + "TestPRepEnsemble::test_boundary_standard_form_rejected_unsqueezed",
         "tests/test_prep.py::TestPWeight::test_entangled_state_rejected"),
    ),
    Mutant(
        "sign_not_checked", "matkit.py",
        "if isinstance(sign, bool) or not isinstance(sign, (int, np.integer)) or sign not in (1, -1):",
        "if False:",
        (COVARIANCE + "test_symplectic_form_refuses_a_sign_that_is_not_the_integer_plus_or_minus_one",
         CRITERIA + "TestWeakGap::test_rejects_a_sign_that_is_not_the_integer_plus_or_minus_one"),
    ),
    Mutant(
        "standard_params_not_checked_finite", "covariance.py",
        "if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c1) and math.isfinite(c2)):",
        "if False:",
        (COVARIANCE + "test_standard_form_parameters_must_be_finite",),
    ),
    Mutant(
        "standard_form_c1_overflow_not_checked", "covariance.py",
        "if c1 == math.inf:", "if False:",
        (COVARIANCE + "TestStandardForm::test_overflowing_correlation_singular_value_is_out_of_domain",),
    ),
    Mutant(
        "apply_symp_overflow_not_checked", "covariance.py",
        "if not all(map(math.isfinite, (p00, p01, p11, q00, q01, q11, r00, r01, r10, r11))):",
        "if False:",
        (COVARIANCE + "TestApplySymp::test_overflowing_entry_is_out_of_domain",),
    ),
    Mutant(
        "apply_squeeze_overflow_not_checked", "squeezing.py",
        "if not all(map(math.isfinite, (a1, a2, b1, b2, k1, k2))):", "if False:",
        (SQUEEZING + "TestApplySqueeze::test_overflowing_entry_is_out_of_domain",),
    ),
    Mutant(
        "superadditivity_overflow_not_checked", "squeezing.py",
        "if not math.isfinite(gap):", "if False:",
        (SQUEEZING + "TestSuperadditivityGap::test_overflowing_product_is_out_of_domain",),
    ),
)
