"""Known faults of the program, kept as data, and the runner that applies them.

Each mutant names a file of the tree, an exact text in it, the faulty text
that replaces it, and the tests that fail when it is applied.  The Tier-1
suite (``test_mutants.py``) checks that each text still occurs exactly
once in its file, that the ids are unique, and that each test named in
``caught_by`` is defined at the top level of its file, so an entry whose
code or tests have changed fails loudly instead of going stale.  Applying
a mutant means: copy the tree, replace the text in the copy, and run the
test suite there; every test named in ``caught_by`` fails.

Run ``python tests/mutants.py`` from anywhere to apply every mutant in turn,
each in a temporary copy of the tree.  All the tests a mutant names run in
one pytest process, whose JUnit XML report gives each test's outcome by
file and name, with a limit of ``MUTANT_LIMIT_S`` = 300 seconds per
mutant; past it every test of that mutant counts as survived.  The runner
lists every mutant that survives a test it names (that test passes, does
not run, or its run does not finish in time) and exits 1 if there is one,
else 0.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    caught_by: Tuple[str, ...]


QFIELD = "src/ballquot/qfield.py"
CYCLO = "src/ballquot/cyclo.py"
CUSP = "src/ballquot/cusp.py"
REIDTAI = "src/ballquot/reidtai.py"
CERTIFICATES = "src/ballquot/certificates.py"
EIGEN = "src/ballquot/eigen.py"

MUTANTS: Tuple[Mutant, ...] = (
    # -- scalars and matrices over Q(sqrt(D))
    Mutant("elem_skips_gcd", QFIELD,
           "    g = gcd(den, a, b)\n",
           "    g = 1\n",
           ("tests/test_kernel.py::test_scalar_arithmetic_agrees_with_fraction_pairs",
            "tests/test_kernel.py::test_equal_scalar_values_hash_equal",
            "tests/test_qfield.py::test_equal_values_by_different_routes",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("elem_inverse_keeps_b_sign", QFIELD,
           "return _elem(self.d, n, self.den * self.a, -self.den * self.b)",
           "return _elem(self.d, n, self.den * self.a, self.den * self.b)",
           ("tests/test_kernel.py::test_scalar_arithmetic_agrees_with_fraction_pairs",
            "tests/test_kernel.py::test_equal_scalar_values_hash_equal",
            "tests/test_qfield.py::test_qinv_examples",
            "tests/test_qfield.py::test_field_axioms_random")),
    Mutant("elem_sum_wrong_denominator", QFIELD,
           "x.a * den + a * x.den, x.b * den + b * x.den",
           "x.a * x.den + a * den, x.b * x.den + b * den",
           ("tests/test_kernel.py::test_scalar_arithmetic_agrees_with_fraction_pairs",
            "tests/test_kernel.py::test_equal_scalar_values_hash_equal",
            "tests/test_qfield.py::test_field_axioms_random",
            "tests/test_qfield.py::test_in_ring_closure")),
    Mutant("in_ring_drops_a_minus_b", QFIELD,
           "return (2 * x.b) % x.den == 0 and (x.a - x.b) % x.den == 0",
           "return (2 * x.b) % x.den == 0",
           ("tests/test_qfield.py::test_in_ring_trace_norm_oracle",
            "tests/test_qfield.py::test_in_ring_closure",
            "tests/test_cusp.py::test_uf_lattice_generator_against_scan",
            "tests/test_acceptance.py::test_criterion_08_sigma_oracle")),
    Mutant("eliminate_unflipped_swap_sign", QFIELD,
           "                sign = -sign\n",
           "                sign = sign\n",
           ("tests/test_kernel.py::test_elimination_agrees_with_fraction_kernel",
            "tests/test_kernel.py::test_sympy_oracle_det_inverse_rank")),
    Mutant("mat_skips_gcd", QFIELD,
           "    g = gcd(den, *re, *rt)\n",
           "    g = 1\n",
           ("tests/test_kernel.py::test_every_result_is_in_lowest_terms_and_equal_values_hash_equal",
            "tests/test_kernel.py::test_trusted_results_equal_their_public_rebuild_and_the_fraction_kernel",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    Mutant("inverse_reduces_only_below_pivot", QFIELD,
           "targets = [i for i in range(nr) if i != r] if augment else range(r + 1, nr)",
           "targets = range(r + 1, nr)",
           ("tests/test_kernel.py::test_every_result_is_in_lowest_terms_and_equal_values_hash_equal",
            "tests/test_kernel.py::test_sympy_oracle_det_inverse_rank",
            "tests/test_qfield.py::test_matrix_inverse_and_rank",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    Mutant("block_scale_factor_dropped", QFIELD,
           "                f, lo, hi = den // bden, i * cols, (i + 1) * cols\n",
           "                f, lo, hi = 1, i * cols, (i + 1) * cols\n",
           ("tests/test_kernel.py::test_block_matrix_equals_the_checked_assembly_and_the_fraction_pairs",
            "tests/test_cusp.py::test_q_matrix_and_from_blocks_equal_the_checked_assembly",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    Mutant("block_matrix_skips_tag_check", QFIELD,
           "    check_field_tag(d)\n    grid = [list(block_row) for block_row in blocks]\n",
           "    grid = [list(block_row) for block_row in blocks]\n",
           ("tests/test_kernel.py::test_block_matrix_refuses_bad_tags_and_tilings",)),
    Mutant("submatrix_accepts_empty_slices", QFIELD,
           "        if nrows < 1 or ncols < 1:\n",
           "        if nrows < 0 or ncols < 0:\n",
           ("tests/test_qfield.py::test_every_empty_shape_is_refused_alike",)),
    Mutant("constant_one_skips_tag_check", QFIELD,
           "return _elem(check_field_tag(d), 1, 1, 0)",
           "return _elem(d, 1, 1, 0)",
           ("tests/test_qfield.py::test_constants_refuse_what_the_checked_constructor_refuses",)),
    Mutant("squarefree_primorial_drops_61", QFIELD,
           ", 53, 59, 61)\n",
           ", 53, 59)\n",
           ("tests/test_qfield.py::test_is_squarefree_matches_brute_force",)),
    Mutant("squarefree_trial_starts_past_67", QFIELD,
           "    p = 67\n",
           "    p = 69\n",
           ("tests/test_qfield.py::test_is_squarefree_matches_brute_force",)),
    # -- the orbit stack
    Mutant("is_reducible_cache_untyped", CYCLO,
           "@lru_cache(maxsize=None, typed=True)\ndef is_reducible(",
           "@lru_cache(maxsize=None)\ndef is_reducible(",
           ("tests/test_cyclo.py::test_tag_lookalikes_are_refused_cold_and_warm",)),
    Mutant("is_reducible_takes_any_order", CYCLO,
           "    if not isinstance(d, int) or isinstance(d, bool) or d < 1:\n",
           "    if d < 1:\n",
           ("tests/test_cyclo.py::test_orders_that_are_not_ints_are_refused_cold_and_warm",)),
    Mutant("scan_stops_one_period_short", CYCLO,
           "    for base in range(d, 10 * d, d):\n",
           "    for base in range(d, 9 * d, d):\n",
           ("tests/test_cyclo.py::test_scan_reads_each_prime_once_per_field_in_increasing_order",)),
    Mutant("table_grown_one_entry_short", CYCLO,
           "        for a in range(lo, n + 1):\n",
           "        for a in range(lo, n):\n",
           ("tests/test_cyclo.py::test_is_reducible_matches_character_scan",
            "tests/test_cyclo.py::test_scan_reads_each_prime_once_per_field_in_increasing_order",
            "tests/test_cyclo.py::test_scan_results_do_not_depend_on_the_order_of_visits",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("table_product_unreduced", CYCLO,
           "table[p] * table[a // p] % 3 if p",
           "table[p] * table[a // p] if p",
           ("tests/test_cyclo.py::test_is_reducible_matches_character_scan",
            "tests/test_cyclo.py::test_orbit_sets_match_kronecker_per_unit",
            "tests/test_cyclo.py::test_scan_results_do_not_depend_on_the_order_of_visits",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("table_product_drops_sign", CYCLO,
           "table[p] * table[a // p] % 3 if p",
           "table[p] * table[a // p] % 3 and 1 if p",
           ("tests/test_cyclo.py::test_is_reducible_matches_character_scan",
            "tests/test_cyclo.py::test_orbit_sets_match_kronecker_per_unit",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("slice_pass_one_multiple_late", CYCLO,
           "        m = max(2, -(-lo // p))\n",
           "        m = max(2, -(-lo // p)) + 1\n",
           ("tests/test_cyclo.py::test_table_fill_matches_oracle_in_one_call_and_in_steps",
            "tests/test_cyclo.py::test_is_reducible_matches_character_scan")),
    Mutant("slice_pass_not_repeated_for_prime_powers", CYCLO,
           "        while power * lo <= n:\n",
           "        if power * lo <= n:\n",
           ("tests/test_cyclo.py::test_table_fill_matches_oracle_in_one_call_and_in_steps",
            "tests/test_cyclo.py::test_scan_results_do_not_depend_on_the_order_of_visits",
            "tests/test_cyclo.py::test_orbit_sets_match_kronecker_per_unit")),
    Mutant("mask_drops_the_unit_1", CYCLO,
           'int.from_bytes(flags, "little")',
           'int.from_bytes(flags, "little") & ~0xff',
           ("tests/test_cyclo.py::test_struck_units_and_mask_match_gcd",)),
    Mutant("scan_lookahead_past_10d", CYCLO,
           "min(2 * base - d, 9 * d) + last",
           "min(2 * base - d, 10 * d) + last",
           ("tests/test_cyclo.py::test_scan_reads_each_prime_once_per_field_in_increasing_order",)),
    Mutant("euler_symbol_wrong_sign_at_13", CYCLO,
           "    return -1 if v == p - 1 else v\n",
           "    return (-1 if v == p - 1 else v) * (-1 if p == 13 else 1)\n",
           ("tests/test_cyclo.py::test_euler_symbol_matches_oracle",
            "tests/test_cyclo.py::test_is_reducible_matches_character_scan",
            "tests/test_cyclo.py::test_orbit_sets_match_kronecker_per_unit")),
    Mutant("hom_contribution_skips_tag_below_3", REIDTAI,
           "    if d_tag is not None and is_reducible(d, d_tag):\n",
           "    if d_tag is not None and d >= 3 and is_reducible(d, d_tag):\n",
           ("tests/test_reidtai.py::test_hom_contribution_checks_the_tag_at_orders_that_never_split",)),
    Mutant("omega_always_unsplit", REIDTAI,
           "    omega = min(mc_unsplit(r) if fam.d_field is None\n",
           "    omega = min(mc_unsplit(r) if True\n",
           ("tests/test_reidtai.py::test_case_analysis_tables",)),
    Mutant("small_d_bound_inclusive", REIDTAI,
           "if (ph[d] // 2) * (ph[d] // 2 + 1) < 2 * d",
           "if (ph[d] // 2) * (ph[d] // 2 + 1) <= 2 * d",
           ("tests/test_reidtai.py::test_enumerate_small_d",
            "tests/test_acceptance.py::test_criterion_04_small_d_list",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("exceptional_bound_inclusive", REIDTAI,
           "if (ph[r] // 2 - 1) * (ph[r] // 2) < 2 * r",
           "if (ph[r] // 2 - 1) * (ph[r] // 2) <= 2 * r",
           ("tests/test_reidtai.py::test_enumerate_exceptional_orders",
            "tests/test_acceptance.py::test_criterion_03_exceptional_orders",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("hom_contribution_one_half_only", REIDTAI,
           "        halves = [orbit.members for orbit in orbit_sets(d, d_tag)]\n",
           "        halves = [orbit_sets(d, d_tag)[0].members]\n",
           ("tests/test_reidtai.py::test_hom_contribution_split_matches_kronecker_halves",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("qr_orders_gaussian_drop_4", REIDTAI,
           "        return frozenset({1, 2, 4})\n",
           "        return frozenset({1, 2})\n",
           ("tests/test_reidtai.py::test_qr_allowed_patterns",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    # -- eigenvalue exponents
    # the +1 and -1 eigenspaces trade their dimensions
    Mutant("eigen_orbits_swapped", EIGEN,
           "    plus = n - (m - ident).rank()\n    minus = n - (m + ident).rank()\n",
           "    plus = n - (m + ident).rank()\n    minus = n - (m - ident).rank()\n",
           ("tests/test_eigen.py::test_eigen_exponents_of_identity_and_minus_identity",
            "tests/test_eigen.py::test_involution_exponents_match_trace",
            "tests/test_eigen.py::test_eigen_multiplicities_of_frame_elements_match_sympy",
            "tests/test_cusp.py::test_tangent_exponents_order2",
            "tests/test_acceptance.py::test_criterion_09_boundary_order2_suite",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    # -- the cusp stabiliser
    # nf_element solves the translation relations for v and w without z
    Mutant("translation_relations_without_z", CUSP,
           "    k = (z.conj() * frame.a.conj()).inverse()\n",
           "    k = frame.a.conj().inverse()\n",
           ("tests/test_cusp.py::test_is_in_nf_agrees_with_form_preservation",
            "tests/test_cusp.py::test_nf_group_laws",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    Mutant("wf_skips_x_check", CUSP,
           "and g.z == one\n            and g.x_mat == _identity(frame.d, frame.n - 1))\n",
           "and g.z == one)\n",
           ("tests/test_cusp.py::test_wf_construction_and_shape",
            "tests/test_cusp.py::test_is_in_wf_agrees_with_nf_at_unit_torus")),
    Mutant("wf_tests_blocks_before_nf", CUSP,
           "    return (is_in_NF(g, frame) and g.u == one and g.z == one\n"
           "            and g.x_mat == _identity(frame.d, frame.n - 1))\n",
           "    return (g.u == one and g.z == one\n"
           "            and g.x_mat == _identity(frame.d, frame.n - 1)\n"
           "            and is_in_NF(g, frame))\n",
           ("tests/test_cusp.py::test_memberships_refuse_an_element_of_another_size_or_field",)),
    Mutant("triangularity_skips_last_bottom_entry", CUSP,
           "slice((npl - 1) * npl + 1, npl * npl - 1)",
           "slice((npl - 1) * npl + 1, npl * npl - 2)",
           ("tests/test_cusp.py::test_constructor_needs_block_upper_triangular_shape",)),
    Mutant("membership_memo_unbounded", CUSP,
           "@lru_cache(maxsize=16)\ndef is_in_NF(",
           "@lru_cache(maxsize=None)\ndef is_in_NF(",
           ("tests/test_cusp.py::test_membership_memo_answers_by_element_and_frame_cold_and_warm",)),
    Mutant("compose_factors_reversed", CUSP,
           "        return BoundaryElement(self.mat @ other.mat)\n",
           "        return BoundaryElement(other.mat @ self.mat)\n",
           ("tests/test_cusp.py::test_action_composition",
            "tests/test_cusp.py::test_product_slices_follow_the_block_formulas",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    Mutant("y_sliced_one_row_high", CUSP,
           "        return self.mat.submatrix(1, self.size - 1, self.size - 2, 1)\n",
           "        return self.mat.submatrix(0, self.size - 1, self.size - 2, 1)\n",
           ("tests/test_cusp.py::test_from_blocks_stores_one_matrix_with_its_blocks_as_slices",
            "tests/test_cusp.py::test_product_slices_follow_the_block_formulas",
            "tests/test_cusp.py::test_action_composition",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    Mutant("fixes_point_always_true", CUSP,
           "    return g.x_mat @ w0 + g.y == w0\n",
           "    return True\n",
           ("tests/test_cusp.py::test_tangent_exponents_errors_and_fractional_shift",)),
    Mutant("b_orthogonalize_skips_first_vector", CUSP,
           "    for prev in vecs:\n        c = c - prev.scale(",
           "    for prev in vecs[1:]:\n        c = c - prev.scale(",
           ("tests/test_cusp.py::test_tangent_exponents_order2",
            "tests/test_eigen.py::test_involution_exponents_match_trace",
            "tests/test_acceptance.py::test_criterion_09_boundary_order2_suite")),
    Mutant("q_matrix_corner_unconjugated", CUSP,
           "[a.conj(), row, zero]",
           "[a, row, zero]",
           ("tests/test_cusp.py::test_q_matrix_and_from_blocks_equal_the_checked_assembly",
            "tests/test_cusp.py::test_normalize_random_frames_property",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    # B's numerators in place of B
    Mutant("q_matrix_b_scale_dropped", CUSP,
           "[col, self.b_mat, col]",
           "[col, self.b_mat.scale(self.b_mat.den), col]",
           ("tests/test_cusp.py::test_q_matrix_and_from_blocks_equal_the_checked_assembly",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    Mutant("lattice_generator_drops_den", CUSP,
           "    return Fraction(a.den, g)\n",
           "    return Fraction(1, g)\n",
           ("tests/test_cusp.py::test_uf_lattice_generator_equals_the_fraction_formula_on_a_grid",
            "tests/test_cusp.py::test_uf_lattice_generator_against_scan",
            "tests/test_acceptance.py::test_criterion_08_sigma_oracle")),
    Mutant("lattice_generator_odd_class_drops_2", CUSP,
           "g = gcd(2 * a.a, a.b * d_tag - a.a)",
           "g = gcd(a.a, a.b * d_tag - a.a)",
           ("tests/test_cusp.py::test_uf_lattice_generator_equals_the_fraction_formula_on_a_grid",
            "tests/test_cusp.py::test_uf_lattice_generator_against_scan")),
    Mutant("frame_accepts_empty_b", CUSP,
           "        if self.n < 2:\n"
           "            raise ValueError(\"frames need a nonempty B (ambient dimension n >= 2)\")\n",
           "",
           ("tests/test_cusp.py::test_frame_validation",)),
    Mutant("frame_sigma_gen_doubled", CUSP,
           "        return uf_lattice_generator(self.a)\n",
           "        return 2 * uf_lattice_generator(self.a)\n",
           ("tests/test_cusp.py::test_sigma_gen_of_a_frame_matches_the_scan",
            "tests/test_acceptance.py::test_criterion_09_boundary_order2_suite")),
    Mutant("frame_equality_on_a_alone", CUSP,
           '    _fields = ("a", "b_mat")\n',
           '    _fields = ("a",)\n',
           ("tests/test_cusp.py::test_membership_memo_tells_apart_frames_that_share_a",
            "tests/test_cusp.py::test_q_matrix_is_kept_by_the_frame_without_changing_its_value",
            "tests/test_value_types.py::test_equal_values_compare_and_hash_equal")),
    Mutant("random_qelem_rt_over_wrong_den", CUSP,
           "return _elem(d_tag, q * s, p * s, r * q)",
           "return _elem(d_tag, q * s, p * s, r * s)",
           ("tests/test_cusp.py::test_random_qelem_draws_what_the_fraction_construction_draws",)),
    Mutant("random_qelem_skips_tag_check", CUSP,
           "    check_field_tag(d_tag)\n    while True:\n",
           "    while True:\n",
           ("tests/test_cusp.py::test_random_qelem_refuses_a_bad_tag",)),
    Mutant("inner_unconjugated", CUSP,
           "sum(map(mul, xr, br)) - self.d * sum(map(mul, xt, bt))",
           "sum(map(mul, xr, br)) + self.d * sum(map(mul, xt, bt))",
           ("tests/test_cusp.py::test_inner_equals_the_adjoint_product",
            "tests/test_cusp.py::test_is_in_nf_agrees_with_form_preservation",
            "tests/test_acceptance.py::test_criterion_09_boundary_order2_suite")),
    Mutant("b_inverse_is_b", CUSP,
           "        return self.b_mat.inverse()\n",
           "        return self.b_mat\n",
           ("tests/test_cusp.py::test_b_inverse_is_computed_once_per_frame_and_is_no_field",
            "tests/test_cusp.py::test_nf_group_laws",
            "tests/test_acceptance.py::test_criterion_07_cusp_property_suite")),
    # predicates that answer True to every element they get past a guard
    Mutant("nf_member_after_guard", CUSP,
           "        raise ValueError(\"element size or field does not match the frame\")\n",
           "        raise ValueError(\"element size or field does not match the frame\")\n"
           "    return True\n",
           ("tests/test_cusp.py::test_is_in_nf_agrees_with_form_preservation",
            "tests/test_cusp.py::test_not_in_nf_when_scaling_breaks",
            "tests/test_cusp.py::test_action_errors")),
    Mutant("uf_member_always", CUSP,
           "    return is_in_WF(g, frame) and g.v.is_zero and g.y.is_zero\n",
           "    return True\n",
           ("tests/test_cusp.py::test_uf_membership_examples",
            "tests/test_cusp.py::test_memberships_refuse_an_element_of_another_size_or_field")),
    Mutant("sigma_lattice_member_always", CUSP,
           "    return q.rt == 0 and q.re.denominator == 1\n",
           "    return True\n",
           ("tests/test_cusp.py::test_uf_translation_integrality",)),
    Mutant("qr_congruences_always_hold", CUSP,
           "    return rel1 and rel2 and rel3\n",
           "    return True\n",
           ("tests/test_cusp.py::test_check_qr_congruences_cases",)),
    # -- certificates
    Mutant("checks_note_drops_where", CERTIFICATES,
           "            self.failures.append(where)\n",
           "            self.failures.append({})\n",
           ("tests/test_certificates.py::test_cusp_suite_lists_each_failed_check",
            "tests/test_certificates.py::test_boundary_order2_lists_each_failed_check",
            "tests/test_certificates.py::test_sigma_sweeps_list_each_failed_case")),
    Mutant("cminred_domain_drops_3", CERTIFICATES,
           "DIMENSION_COEFF if d >= 3)",
           "DIMENSION_COEFF if d > 3)",
           ("tests/test_certificates.py::test_verify_claim_api",
            "tests/test_acceptance.py::test_criterion_01_cminred_values",
            "tests/test_golden_report.py::test_report_reproduces_golden_file")),
    Mutant("sigma_step_from_one_coefficient", CERTIFICATES,
           "    for c in (2 * a.a, 2 * a.b * d_tag):\n",
           "    for c in (2 * a.a,):\n",
           ("tests/test_cusp.py::test_integer_sigma_scan_equals_the_fraction_scan",
            "tests/test_cusp.py::test_uf_lattice_generator_examples",
            "tests/test_acceptance.py::test_criterion_08_sigma_oracle")),
)


ROOT = Path(__file__).resolve().parent.parent
MUTANT_LIMIT_S = 300
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                     ".hypothesis", "*.egg-info")


def _outcomes(tree: Path, test_ids: Tuple[str, ...]) -> Dict[str, bool]:
    """For each test function that ran, keyed "file::name", whether some case
    of it failed or erred, from one pytest run in ``tree`` over
    ``test_ids``; raises ``subprocess.TimeoutExpired`` past
    ``MUTANT_LIMIT_S``."""
    report = tree / "mutant-report.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *test_ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=MUTANT_LIMIT_S)
    failed: Dict[str, bool] = {}
    if not report.exists():
        return failed
    for case in ET.parse(report).iter("testcase"):
        # the class name of a top-level test is its module's dotted path
        test_file = case.get("classname").replace(".", "/") + ".py"
        key = f"{test_file}::{case.get('name').split('[')[0]}"
        bad = case.find("failure") is not None or case.find("error") is not None
        failed[key] = failed.get(key, False) or bad
    return failed


def survivors(mutant: Mutant) -> List[str]:
    """The tests named by ``mutant`` that it survives, each with the reason."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_NOT_COPIED)
        target = tree / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return [f"{mutant.file}: the old text does not occur exactly once"]
        target.write_text(text.replace(mutant.old, mutant.new))
        try:
            failed = _outcomes(tree, mutant.caught_by)
        except subprocess.TimeoutExpired:
            return [f"its tests did not finish in {MUTANT_LIMIT_S} s"]
        return [f"{test_id} did not run" if test_id not in failed else f"{test_id} passes"
                for test_id in mutant.caught_by if not failed.get(test_id)]


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        missed = survivors(mutant)
        print(f"{mutant.id}: {'SURVIVES' if missed else 'caught'}", flush=True)
        for line in missed:
            print(f"  {line}", flush=True)
        survived += bool(missed)
    print(f"{len(MUTANTS)} mutants, {survived} surviving")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
