"""The one argument check, ``errors.check_int``, at every entry point that
takes an int: a float, a bool, a str, and None where None is not allowed,
are refused with one message, before and after an int call is cached."""

import re

import pytest

from rmcodes import bounds as bd
from rmcodes import codes as cd
from rmcodes import cyclotomy as cy
from rmcodes import distance as ds
from rmcodes import gf
from rmcodes import ntheory as nt
from rmcodes import verify
from rmcodes.errors import check_int

P34 = cy.QadicParams(3, 4)

# the caches keyed by loose ints, typed so that 2.0 and True miss the entry of 2
TYPED_CACHES = (gf.build_field, cy.coset_partition, cy.maximal_representatives)

# (entry, the call with one argument left open, its name, its least value, None allowed, a good int)
ENTRIES = [
    ("factorize", nt.factorize, "x", 2, False, 12),
    ("divisors", nt.divisors, "x", 1, False, 12),
    ("divisors_ascending", nt.divisors_ascending, "x", 1, False, 12),
    ("divisors_ascending.stop", lambda stop: nt.divisors_ascending(12, stop), "stop", None, True, 6),
    ("UnitGroup", nt.UnitGroup, "e", 2, False, 9),
    ("UnitGroup.order", lambda b: nt.UnitGroup(9).order(b), "b", None, False, 2),
    ("mult_order.b", lambda b: nt.mult_order(b, 9), "b", None, False, 2),
    ("mult_order.e", lambda e: nt.mult_order(2, e), "e", 2, False, 9),
    ("prime_power_split", nt.prime_power_split, "q", None, False, 9),
    ("is_prime_power", nt.is_prime_power, "q", None, False, 9),
    ("is_probable_prime", nt.is_probable_prime, "n", None, False, 7),
    ("FieldCtx.p", lambda p: gf.FieldCtx(p, 3), "p", None, False, 2),
    ("FieldCtx.s", lambda s: gf.FieldCtx(2, s), "s", 1, False, 3),
    ("build_field.p", lambda p: gf.build_field(p, 3), "p", None, False, 2),
    ("build_field.s", lambda s: gf.build_field(2, s), "s", 1, False, 3),
    ("poly_xn_minus_1_quotient", lambda n: gf.poly_xn_minus_1_quotient(gf.build_field(2, 1), n, (1, 1)),
     "n", 1, False, 2),
    ("QadicParams.q", lambda q: cy.QadicParams(q, 4), "q", 2, False, 3),
    ("QadicParams.m", lambda m: cy.QadicParams(3, m), "m", 2, False, 4),
    ("q_weight", lambda x: cy.q_weight(P34, x), "x", None, False, 20),
    ("coset_of", lambda a: cy.coset_of(P34, a), "a", None, False, 2),
    ("index_set", lambda h: cy.index_set(P34, h), "h", None, False, 2),
    ("coset_partition", lambda h: cy.coset_partition(P34, h), "h", None, False, 2),
    ("maximal_representatives", lambda h: cy.maximal_representatives(P34, h), "h", None, False, 2),
    ("CodeSpec.h", lambda h: cd.CodeSpec(3, 4, h), "h", None, False, 2),
    ("build_code.max_n", lambda max_n: cd.build_code(cd.CodeSpec(2, 3, 1), max_n=max_n),
     "max_n", None, True, 100),
    ("condition_star_holds", lambda e: cd.condition_star_holds(3, 4, 2, e), "e", None, False, 16),
    ("quotient_codeword.e", lambda e: cd.quotient_codeword(3, 4, 2, e), "e", None, False, 16),
    ("quotient_codeword.l", lambda l: cd.quotient_codeword(3, 4, 2, 16, l=l), "l", 1, False, 1),
    ("search_condition_divisors.max_e", lambda max_e: bd.search_condition_divisors(3, 4, 2, max_e),
     "max_e", None, True, 20),
    ("SearchBudget", ds.SearchBudget, "max_messages", 1, False, 100),
    ("find_weight_witness", lambda w: ds.find_weight_witness(cd.build_code(cd.CodeSpec(2, 3, 1)), w),
     "weight", None, False, 3),
    ("sphere_packing_ok.n", lambda n: bd.sphere_packing_ok(n, 4, 2, 3), "n", None, False, 7),
    ("sphere_packing_ok.k", lambda k: bd.sphere_packing_ok(7, k, 2, 3), "k", None, False, 4),
    ("sphere_packing_ok.q", lambda q: bd.sphere_packing_ok(7, 4, q, 3), "q", 2, False, 2),
    ("sphere_packing_ok.d", lambda d: bd.sphere_packing_ok(7, 4, 2, d), "d", 1, False, 3),
    ("repunit_certificate.q", lambda q: bd.repunit_certificate(q, 1), "q", 3, False, 3),
    ("repunit_certificate.h", lambda h: bd.repunit_certificate(3, h), "h", 1, False, 1),
    ("table_rows.q_min", lambda q: bd.table_rows(q, 8), "q_min", None, False, 7),
    ("table_rows.q_max", lambda q: bd.table_rows(7, q), "q_max", None, False, 8),
]

CASES = [
    pytest.param(call, name, low, optional, good, bad, id=f"{entry}-{bad!r}")
    for entry, call, name, low, optional, good in ENTRIES
    for bad in (2.0, True, "2", None)
    if not (bad is None and optional)
]


def message(name, low, optional, value) -> str:
    bound = "" if low is None else f" >= {low}"
    return f"need an int {name}{bound}{' or None' if optional else ''}, got {value!r}"


@pytest.mark.parametrize("call, name, low, optional, good, bad", CASES)
def test_refused_before_and_after_an_int_call_is_cached(call, name, low, optional, good, bad):
    pattern = f"^{re.escape(message(name, low, optional, bad))}$"
    for cache in TYPED_CACHES:
        cache.cache_clear()
    with pytest.raises(ValueError, match=pattern):
        call(bad)
    call(good)
    with pytest.raises(ValueError, match=pattern):
        call(bad)


def test_check_int():
    class Int(int):
        pass

    check_int("x", Int(5), 2)  # an int subclass passes
    check_int("x", None, optional=True)
    check_int("x", -3)
    for value, low, optional in ((1, 2, False), (False, None, False), (None, 0, False), (1.5, None, True)):
        with pytest.raises(ValueError, match=f"^{re.escape(message('x', low, optional, value))}$"):
            check_int("x", value, low, optional=optional)


# a budget is a SearchBudget, or None for the default; a falsy or int budget
# is refused, not read as the default or as an attribute error
@pytest.mark.parametrize("route", [ds.exact_distance, ds.exhaustive_distance, ds.dual_transform_distance])
@pytest.mark.parametrize("bad", [0, 5, False, "5"], ids=repr)
def test_bad_budget_is_refused(route, bad):
    inst = cd.build_code(cd.CodeSpec(3, 2, 1))
    with pytest.raises(ValueError, match=f"^need a SearchBudget budget or None, got {re.escape(repr(bad))}$"):
        route(inst, bad)
    assert route(inst, None).value == route(inst, ds.SearchBudget()).value == 4


def test_certify_refuses_a_bad_budget_before_the_divisor_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("the divisor walk ran")

    monkeypatch.setattr(bd, "_condition_divisors", walk)
    for bad in (0, 5):
        with pytest.raises(ValueError, match="^need a SearchBudget budget or None"):
            bd.certify(cd.CodeSpec(3, 2, 1), budget=bad)


@pytest.mark.parametrize("only", [3, 3.5, ["3"]], ids=repr)
def test_run_checks_refuses_an_only_that_is_no_str(only):
    with pytest.raises(ValueError, match=rf"^unknown check group {re.escape(repr(only))}; groups: 1 cyclotomy, "):
        verify.run_checks(only=only)
