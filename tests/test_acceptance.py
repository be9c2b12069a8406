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
