"""Acceptance gate: every criterion of the verification suite must hold.

Each test prints one pass/fail line per executed check.  Two literal
reference values are asserted under strict xfail because they fail
independent verification (details in rmcodes.verify.REFERENCE_ERRATA);
the corrected values are asserted by the regular checks.
"""

from functools import lru_cache

import pytest

from rmcodes import verify
from rmcodes.bounds import table_rows
from rmcodes.cyclotomy import QadicParams, maximal_representatives
from rmcodes.ntheory import mult_order


@lru_cache(maxsize=1)
def all_results():
    return verify.run_checks(seed=verify.DEFAULT_SEED)


def _assert_group(group: str):
    results = [r for r in all_results() if r.cid.split(".")[0] == group]
    assert results, f"no checks ran for group {group}"
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.cid:10s} {r.name:32s} ({r.seconds:.3f}s)  {r.detail}")
    failed = [r.cid for r in results if not r.passed]
    assert not failed, f"failed checks: {failed}"


def test_criterion_1_cyclotomy_goldens():
    _assert_group("1")


def test_criterion_2_table_reproduction():
    _assert_group("2")


def test_criterion_3_exact_distances():
    _assert_group("3")


def test_criterion_4_quotient_witnesses():
    _assert_group("4")


def test_criterion_5_sphere_packing():
    _assert_group("5")


def test_criterion_6_dimension_formulas():
    _assert_group("6")


def test_criterion_7_property_suites():
    _assert_group("7")


def test_criterion_8_scope():
    _assert_group("8")


def test_check_ids_and_names():
    # the 26 checks and the 5 group runtime rows, in report order
    assert [(r.cid, r.name) for r in all_results()] == [
        ("1.1", "representatives_342"), ("1.2", "maximal_342"), ("1.3", "maximal_362"),
        ("1.runtime", "cyclotomy runtime"),
        ("2.1", "table_reference_cells"), ("2.2", "table_bound_rows"),
        ("2.3", "table_rows_verified"), ("2.runtime", "tables runtime"),
        ("3.1", "distance_231"), ("3.2", "distance_241"), ("3.3", "distance_232"),
        ("3.4", "distance_321"), ("3.5", "distance_331"), ("3.6", "distance_241_bar"),
        ("3.7", "distance_repunit_family"),
        ("4.1", "witness_342"), ("4.2", "witness_362_bar"), ("4.runtime", "witnesses runtime"),
        ("5.1", "packing_binary_bar"), ("5.2", "packing_ternary"), ("5.3", "packing_positivity"),
        ("5.runtime", "packing runtime"),
        ("6.1", "dimension_grid"), ("6.2", "dimension_grid_barred"),
        ("6.runtime", "dimensions runtime"),
        ("7.a", "weight_constant_on_classes"), ("7.b", "condition_equivalence"),
        ("7.c", "odd_order_parity"), ("7.d", "quadratic_residue_rule"),
        ("7.e", "generator_divides"),
        ("8.1", "scope_note"),
    ]


@pytest.mark.xfail(
    strict=True,
    reason=verify.REFERENCE_ERRATA["maximal-set-362"],
)
def test_reference_maximal_set_362_literal_value():
    assert set(maximal_representatives(QadicParams(3, 6), 2)) == {8, 11, 20, 28, 58}


@pytest.mark.xfail(
    strict=True,
    reason=verify.REFERENCE_ERRATA["order-table-19"],
)
def test_reference_order_table_19_literal_row():
    rows = {(r.a, r.l, r.e) for r in table_rows(19, 19)[0].rows}
    assert (4, 11, 23) in rows


def test_reference_order_table_19_corrected():
    assert mult_order(-4, 23) == 22
    assert mult_order(4, 23) == 11  # the value the reference row actually lists
