"""Built-in verification suite: golden values, certificates, and property checks.

Each check re-derives a published or formula-level value with independent
arithmetic and fails loudly on any mismatch.  Two reference values are
known to be unreproducible because they fail independent verification
(see REFERENCE_ERRATA); the corrected values are asserted instead and the
discrepancy is reported in the check details.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from math import gcd

from . import bounds as bd
from . import codes as cd
from . import distance as ds
from . import gf
from . import ntheory as nt
from .cyclotomy import (QadicParams, coset_partition, index_set, index_set_size,
                        maximal_representatives, q_weight)
from .errors import InternalError

DEFAULT_SEED = 2024

# Verified rows of the published h = 1 order-search table (q: [(a, l, e)]).
REFERENCE_TABLE_CELLS = {
    7: [(2, 3, 9)],
    9: [(2, 5, 11)],
    11: [(3, 3, 14)],
    13: [(5, 3, 18), (10, 11, 23)],
    16: [(3, 9, 19), (5, 3, 21), (7, 11, 23), (9, 5, 25), (13, 7, 29)],
    19: [(8, 3, 27)],
    23: [(6, 7, 29)],
    25: [(2, 9, 27), (3, 3, 28), (4, 7, 29), (8, 5, 33), (22, 23, 47)],
    27: [(19, 11, 46), (20, 23, 47)],
    29: [(17, 11, 46), (20, 7, 49), (23, 3, 52)],
    31: [(2, 5, 33), (12, 21, 43), (14, 3, 45), (15, 11, 46)],
    32: [(15, 23, 47), (17, 21, 49)],
}

REFERENCE_ERRATA = {
    "order-table-19": (
        "reference row (q=19, a=4, l=11, e=23) fails verification: "
        "the order of -4 mod 23 is 22, not 11 (11 is the order of +4)"
    ),
    "maximal-set-362": (
        "reference value {8, 11, 20, 28, 58} for the (3, 6, 2) maximal set fails "
        "verification: 58 has base-3 digits (1,1,0,2,0,0) of weight 3, and the "
        "orbit of 19 is missing (class sizes must sum to 72); the verified value "
        "is {11, 19, 20, 29, 56}"
    ),
}

# the parameter grid used by the dimension and property checks
GRID = [(q, m, h) for q in (2, 3, 4) for m in range(2, 7) for h in range(1, m)]
BARRED_GRID = [(q, m, h) for (q, m, h) in GRID if h <= (m - 1) // 2]

GROUP_NAMES = {
    "1": "cyclotomy",
    "2": "tables",
    "3": "distances",
    "4": "witnesses",
    "5": "packing",
    "6": "dimensions",
    "7": "properties",
    "8": "scope",
}
GROUP_TIME_LIMITS = {"1": 1.0, "2": 1.0, "4": 10.0, "5": 1.0, "6": 120.0}
PER_CHECK_TIME_LIMITS = {"3": 60.0}


@dataclass
class CheckResult:
    cid: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _require(condition, *msg) -> None:
    """A check that ``python -O`` keeps: raise AssertionError(*msg) unless condition."""
    if not condition:
        raise AssertionError(*msg)


def _build(q, m, h, variant="omega"):
    return cd.build_code(cd.CodeSpec(q, m, h, variant))


# -- criterion 1: cyclotomic goldens ----------------------------------------


def check_representatives_342():
    got = coset_partition(QadicParams(3, 4), 2).representatives
    _require(got == (1, 2, 4, 5, 7, 8, 10, 11, 20), got)
    return f"representatives(3,4,2) = {list(got)}"


def check_maximal_342():
    got = maximal_representatives(QadicParams(3, 4), 2)
    _require(got == (7, 8, 11, 20), got)
    return f"maximal(3,4,2) = {list(got)}"


def check_maximal_362():
    params = QadicParams(3, 6)
    part = coset_partition(params, 2)
    got = maximal_representatives(params, 2)
    _require(got == (11, 19, 20, 29, 56), got)
    sizes = sum(len(c) for c in part.classes)
    _require(sizes == len(index_set(params, 2)) == 72, sizes)
    _require(q_weight(params, 58) == 3)  # the misprinted element cannot occur
    _require(19 in part.representatives)
    return f"maximal(3,6,2) = {list(got)}; ERRATUM: {REFERENCE_ERRATA['maximal-set-362']}"


# -- criterion 2: order-search table -----------------------------------------


def check_table_reference_cells():
    blocks = {b.q: b for b in bd.table_rows(7, 32)}
    matched = 0
    for q, cells in REFERENCE_TABLE_CELLS.items():
        rows = {(r.a, r.l, r.e) for r in blocks[q].rows}
        for cell in cells:
            _require(cell in rows, f"reference cell q={q}, (a,l,e)={cell} not reproduced")
            matched += 1
    return f"all {matched} verified reference cells reproduced"


def check_table_bound_rows():
    blocks = {b.q: b for b in bd.table_rows(7, 32)}
    for q in REFERENCE_TABLE_CELLS:
        b = blocks[q]
        _require((b.d_lower, b.d_upper) == (q + 1, 2 * q - 1), (q, b.d_lower, b.d_upper))
    return "bound rows q+1 and 2q-1 match for all 12 reference q"


def check_table_rows_verified():
    blocks = bd.table_rows(7, 32)
    n_rows = 0
    for b in blocks:
        for r in b.rows:
            _require(gcd(r.a, r.q) == 1 and 2 <= r.a <= r.q - 2)
            _require(r.e == r.q + r.a)
            _require(r.l % 2 == 1)
            _require(pow(-r.a, r.l, r.e) == 1)
            for p in nt.factorize(r.l):
                _require(pow(-r.a, r.l // p, r.e) != 1)
            n_rows += 1
    rows19 = {(r.a, r.l, r.e) for b in blocks if b.q == 19 for r in b.rows}
    _require((4, 11, 23) not in rows19)
    _require(nt.mult_order(-4, 23) == 22)
    return (
        f"all {n_rows} generated rows pass direct order verification; "
        f"ERRATUM: {REFERENCE_ERRATA['order-table-19']}"
    )


# -- criterion 3: exact distances --------------------------------------------


def _distance_check(q, m, h, variant, expected, method):
    inst = _build(q, m, h, variant)
    result = ds.exact_distance(inst)
    _require(result.via == f"enumeration:{method}", result.via)
    _require(result.value == expected, f"d = {result.value}, expected {expected}")
    if result.witness is not None:
        _require(result.witness.weight == result.value)
        _require(cd.is_member(inst, result.witness.coeffs))
    return f"d({variant}(q={q},m={m},h={h})) = {result.value} [{method}]"


def check_distance_repunit_family():
    inst = _build(3, 2, 1)
    result = ds.exact_distance(inst)
    e, _ = bd.repunit_certificate(3, 1)
    _require(result.value == e == 4)
    return f"d(omega(3,2,1)) = {result.value} = (q^(h+1)-1)/(q-1), the certified divisor"


# -- criterion 4: quotient-codeword witnesses ---------------------------------


def _witness_check(q, m, h, e, barred):
    # a plain quotient word has weight e, a mirrored one at most 2e
    w = cd.quotient_codeword(q, m, h, e, barred=barred)
    _require(w.weight <= 2 * e if barred else w.weight == e, w.weight)
    variant = "omega_bar" if barred else "omega"
    inst = _build(q, m, h, variant)
    terms = [(j, c) for j, c in enumerate(w.coeffs) if c]
    for a in inst.zero_exponents:
        _require(inst.emb.evaluate(terms, a) == 0, f"nonzero value at exponent {a}")
    _require(cd.is_member(inst, w.coeffs))
    return (
        f"weight-{w.weight} {'mirrored quotient' if barred else 'quotient'} word vanishes at all "
        f"{len(inst.zero_exponents)} zeros of {variant}({q},{m},{h})"
    )


# -- criterion 5: sphere packing ----------------------------------------------


def _packing_check(q, m, h, variant, n, k, d):
    inst = _build(q, m, h, variant)
    _require((inst.n, inst.k) == (n, k), (inst.n, inst.k))
    _require(not bd.sphere_packing_ok(n, k, q, d + 1))
    _require(bd.distance_optimal(n, k, q, d))
    alphabet = "binary" if q == 2 else "ternary"
    return f"({n},{k}) {alphabet}: d = {d + 1} excluded, d = {d} distance-optimal"


def check_packing_positivity():
    report = bd.positivity_certificates()
    _require(report.cubic_values == (384, 296, 66, 6), report.cubic_values)
    _require(report.quintic_value == 11579850, report.quintic_value)
    _require(report.all_positive)
    return f"cubic chain at 15: {report.cubic_values}; quintic at 26: {report.quintic_value}"


# -- criterion 6: dimension formulas -------------------------------------------


def check_dimension_grid():
    for q, m, h in GRID:
        inst = _build(q, m, h)
        expected = index_set_size(QadicParams(q, m), h)
        got = gf.poly_degree(inst.gen_poly)
        _require(got == expected, f"(q,m,h)=({q},{m},{h}): deg = {got}, formula = {expected}")
    return f"deg(gen) matches the count formula on all {len(GRID)} grid points"


def check_dimension_grid_barred():
    for q, m, h in BARRED_GRID:
        plain = _build(q, m, h)
        mirrored = _build(q, m, h, "omega_bar")
        deg_g = gf.poly_degree(plain.gen_poly)
        deg_bar = gf.poly_degree(mirrored.gen_poly)
        _require(deg_bar == 1 + 2 * deg_g, f"(q,m,h)=({q},{m},{h})")
        _require(mirrored.k == mirrored.n - 1 - 2 * index_set_size(QadicParams(q, m), h))
    return f"deg(gen_bar) = 1 + 2 deg(gen) on all {len(BARRED_GRID)} mirrored grid points"


# -- criterion 7: property suites ----------------------------------------------


def check_weight_constant_on_classes():
    count = 0
    for q, m, h in GRID:
        params = QadicParams(q, m)
        for cls in coset_partition(params, h).classes:
            weights = {q_weight(params, x) for x in cls}
            _require(len(weights) == 1, f"(q,m,h)=({q},{m},{h}), class {cls}")
            count += 1
    return f"q-weight constant on all {count} cosets of the grid"


def check_condition_equivalence():
    checked = 0
    for q, m, h in GRID:
        params = QadicParams(q, m)
        maximal, full = maximal_representatives(params, h), index_set(params, h)
        for e in nt.divisors(params.n):
            if not 2 <= e < params.n:
                continue
            via_full = all(a % e for a in full)
            via_maximal = all(a % e for a in maximal)
            via_anchored = cd.condition_star_holds(q, m, h, e)
            _require(via_full == via_maximal == via_anchored, f"(q,m,h,e)=({q},{m},{h},{e})")
            checked += 1
    return f"maximal-set condition agrees with the full index set on {checked} divisors"


def check_odd_order_parity(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    count = 0
    while count < 10_000:
        e = rng.randrange(3, 1_000_000)
        b = rng.randrange(1, e)
        if gcd(b, e) != 1:
            continue
        group = nt.UnitGroup(e)
        _require((pow(b, group.carmichael_odd, e) == 1) == (group.order(b) % 2 == 1), (b, e))
        count += 1
    return "one-power odd-order screen matches direct order parity on 10^4 seeded coprime pairs"


def check_quadratic_residue_rule():
    checked = 0
    for p in range(3, 500, 4):
        if not nt.is_probable_prime(p):
            continue
        residues = {b * b % p for b in range(1, p)}
        group = nt.UnitGroup(p)
        for b in range(2, p):
            residue = b in residues
            _require((pow(b, group.carmichael_odd, p) == 1) == residue, (b, p))
            _require((group.order(b) % 2 == 1) == residue, (b, p))
            checked += 1
    return f"odd order iff quadratic residue verified for {checked} pairs (p = 3 mod 4, p < 500)"


def check_generator_divides():
    for q, m, h in GRID:
        for variant in ("omega", "omega_bar"):
            if variant == "omega_bar" and h > (m - 1) // 2:
                continue
            inst = _build(q, m, h, variant)
            target = (inst.small.neg(1),) + (0,) * (inst.n - 1) + (1,)
            product = gf.poly_mul(inst.small, inst.gen_poly, inst.check_poly)
            _require(product == target, f"(q,m,h)=({q},{m},{h}), {variant}")
    return "gen * check_poly = x^n - 1 for every constructed grid instance"


# -- criterion 8: scope ----------------------------------------------------------


def check_scope_note():
    # the per-instance evaluator stays exact far beyond construction scale
    n = 5**9 - 1
    k = n - 1 - 2 * (5 - 1) * 9
    _require(isinstance(bd.sphere_packing_ok(n, k, 5, 19), bool))
    return (
        "asymptotic distance claims for growing m are out of scope; they are "
        "covered only by the exact per-instance sphere-packing evaluator"
    )


# (id, name, check): a check returns its detail line and raises on failure
CHECKS = [
    ("1.1", "representatives_342", check_representatives_342),
    ("1.2", "maximal_342", check_maximal_342),
    ("1.3", "maximal_362", check_maximal_362),
    ("2.1", "table_reference_cells", check_table_reference_cells),
    ("2.2", "table_bound_rows", check_table_bound_rows),
    ("2.3", "table_rows_verified", check_table_rows_verified),
    ("3.1", "distance_231", partial(_distance_check, 2, 3, 1, "omega", 3, "message-enumeration")),
    ("3.2", "distance_241", partial(_distance_check, 2, 4, 1, "omega", 3, "message-enumeration")),
    ("3.3", "distance_232", partial(_distance_check, 2, 3, 2, "omega", 7, "message-enumeration")),
    ("3.4", "distance_321", partial(_distance_check, 3, 2, 1, "omega", 4, "message-enumeration")),
    ("3.5", "distance_331", partial(_distance_check, 3, 3, 1, "omega", 4, "dual-transform")),
    ("3.6", "distance_241_bar", partial(_distance_check, 2, 4, 1, "omega_bar", 6, "message-enumeration")),
    ("3.7", "distance_repunit_family", check_distance_repunit_family),
    ("4.1", "witness_342", partial(_witness_check, 3, 4, 2, 16, False)),
    ("4.2", "witness_362_bar", partial(_witness_check, 3, 6, 2, 13, True)),
    ("5.1", "packing_binary_bar", partial(_packing_check, 2, 4, 1, "omega_bar", 15, 6, 6)),
    ("5.2", "packing_ternary", partial(_packing_check, 3, 2, 1, "omega", 8, 4, 4)),
    ("5.3", "packing_positivity", check_packing_positivity),
    ("6.1", "dimension_grid", check_dimension_grid),
    ("6.2", "dimension_grid_barred", check_dimension_grid_barred),
    ("7.a", "weight_constant_on_classes", check_weight_constant_on_classes),
    ("7.b", "condition_equivalence", check_condition_equivalence),
    ("7.c", "odd_order_parity", check_odd_order_parity),
    ("7.d", "quadratic_residue_rule", check_quadratic_residue_rule),
    ("7.e", "generator_divides", check_generator_divides),
    ("8.1", "scope_note", check_scope_note),
]


def run_checks(only: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the verification suite; ``only`` filters by group number or name (a
    check id such as 3.5, or 6.runtime, selects its group); ValueError for any other value."""
    group_filter = None
    if only is not None:
        by_name = {v: k for k, v in GROUP_NAMES.items()}
        group_filter = by_name.get(only, only.split(".")[0]) if isinstance(only, str) else None
        row_ids = {cid for cid, _, _ in CHECKS} | {f"{g}.runtime" for g in GROUP_TIME_LIMITS}
        if group_filter not in GROUP_NAMES or ("." in only and only not in row_ids):
            groups = ", ".join(f"{k} {v}" for k, v in GROUP_NAMES.items())
            raise ValueError(f"unknown check group {only!r}; groups: {groups}")
    results = []
    group_time: dict[str, float] = {}
    for cid, name, fn in CHECKS:
        group = cid.split(".")[0]
        if group_filter is not None and group != group_filter:
            continue
        start = time.perf_counter()
        try:
            detail = fn(seed) if fn is check_odd_order_parity else fn()
            passed = True
        except (AssertionError, InternalError) as exc:
            detail, passed = f"FAILED: {exc}", False
        seconds = time.perf_counter() - start
        group_time[group] = group_time.get(group, 0.0) + seconds
        limit = PER_CHECK_TIME_LIMITS.get(group)
        if limit is not None and seconds > limit:
            passed = False
            detail += f" [exceeded per-check time limit {limit:.0f}s]"
        results.append(CheckResult(cid, name, passed, detail, seconds))
    for group, total in sorted(group_time.items()):
        limit = GROUP_TIME_LIMITS.get(group)
        if limit is None:
            continue
        results.append(
            CheckResult(
                f"{group}.runtime",
                f"{GROUP_NAMES[group]} runtime",
                total <= limit,
                f"{limit:.0f}s allowed",  # the time is in seconds, so two runs agree here
                total,
            )
        )
    results.sort(key=lambda r: (int(r.cid.split(".")[0]), r.cid.split(".")[1].zfill(8)))
    return results
