"""Distance-bound certifiers: generic bounds, divisor conditions, sphere packing.

Every certificate here is exact integer arithmetic.  A BoundReport carries
lower/upper/exact values, each a ``distance.Bound`` tagged with the rule that
produced it, and ``certify`` is the one place that merges every source into
it.  An enumerated bound keeps its witness codeword and word count:

  generic-lower / generic-upper    the always-valid envelope
  generic-lower-doubled            mirrored BCH bound 2(1 + q + ... + q^h)
  binary-exact                     q = 2 closed form
  max-h-exact                      h = m-1 closed form
  ternary-h1-exact                 (q, h) = (3, 1) exact value 4
  repunit-divisor-exact            (h+1) | m, via the divisor 1 + q + ... + q^h
  binary-h1-bar-exact              mirrored q = 2, h = 1, m >= 4 exact value 6
  ternary-h1-bar-upper             mirrored (3, 1), odd m, upper bound 10
  divisor-witness                  least quotient-codeword divisor, searched up to
                                   the closed-form upper bound
  enumeration:<route>              exact distance by enumeration, given a budget
  <lower via>+<upper via>          no exact source, but lower meets upper

The h = 1 odd-order table has one entry point, ``table_rows``, and its
rows and blocks are plain dataclasses, serialized by ``dataclasses.asdict``.

The sphere-packing side provides the exclusion test q^(n-k) >= volume sum
and the distance-optimality check (parameters fine at d, excluded at d+1),
plus exact positivity certificates for the two integer polynomials that
extend the base-case exclusions to every larger length.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import comb, gcd

from .cyclotomy import QadicParams, q_weight
from .codes import CodeSpec, _condition_star, build_code
from .distance import Bound, SearchBudget, _search_budget, exact_distance
from .errors import InternalError, TooLarge, check_int
from .ntheory import UnitGroup, divisors_ascending, is_prime_power, prime_power_split

# The largest q_max of the odd-order table: its time grows about 3.5x per
# doubling of q_max (0.37 s at 2048, 5.2 s and 549,071 rows at 8192)
_TABLE_Q_LIMIT = 1 << 13


@dataclass
class BoundReport:
    q: int
    m: int
    h: int
    variant: str
    lower: Bound
    upper: Bound | None = None
    exact: Bound | None = None
    witnesses: list[tuple[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def validate(self):
        if self.upper is not None and self.lower.value > self.upper.value:
            raise InternalError(f"lower {self.lower.value} > upper {self.upper.value}")
        if self.exact is not None:
            if self.exact.value < self.lower.value:
                raise InternalError("exact value below lower bound")
            if self.upper is not None and self.exact.value > self.upper.value:
                raise InternalError("exact value above upper bound")

    def to_json(self) -> dict:
        def enc(b):
            return None if b is None else b.to_json()

        return {
            "q": self.q,
            "m": self.m,
            "h": self.h,
            "variant": self.variant,
            "lower": enc(self.lower),
            "upper": enc(self.upper),
            "exact": enc(self.exact),
            "witnesses": [list(w) for w in self.witnesses],
            "notes": list(self.notes),
        }


def _merge(report: BoundReport, bound: Bound, source: str = "upper", witness: tuple | None = None):
    """Fold a bound from ``source`` (upper, rule or enumeration) into ``report``.

    Upper bounds and rules replace ``upper`` only when strictly smaller; a rule
    sets ``exact`` only if unset; an enumeration replaces both, even on a tie.
    Differing exact values raise.  A lower bound met by the upper bound with no
    exact value becomes exact, tagged ``<lower via>+<upper via>``.
    """
    if source != "upper":
        old = report.exact
        if old is not None and old.value != bound.value:
            raise InternalError(f"{bound.via} value {bound.value} contradicts {old.via} value {old.value}")
        if old is None or source == "enumeration":
            report.exact = bound
    if report.upper is None or bound.value < report.upper.value or source == "enumeration":
        report.upper = bound
    if report.exact is None and report.upper.value == report.lower.value:
        report.exact = Bound(report.lower.value, f"{report.lower.via}+{report.upper.via}")
    if witness is not None:
        report.witnesses.append(witness)


def generic_bounds(q: int, m: int, h: int, variant: str = "omega") -> BoundReport:
    """Closed-form bounds for the given parameters, refined by the known exact families."""
    CodeSpec(q, m, h, variant)
    repunit = (q ** (h + 1) - 1) // (q - 1)
    if variant == "omega":
        report = BoundReport(q, m, h, variant, Bound(repunit, "generic-lower"),
                             Bound(2 * q**h - 1, "generic-upper"))
        rules = [(q == 2, 2 ** (h + 1) - 1, "binary-exact"),
                 (h == m - 1, (q**m - 1) // (q - 1), "max-h-exact"),
                 ((q, h) == (3, 1), 4, "ternary-h1-exact"),
                 (q >= 3 and m % (h + 1) == 0, repunit, "repunit-divisor-exact")]
    else:  # omega_bar
        if q == 2 and 2 * h >= m - 1:  # the binary nonzeros are the exponents of weight in (h, m - h)
            raise ValueError(f"omega_bar(2, {m}, {h}) is the zero code (2h >= m - 1)")
        # 0, +-1, ..., +-(repunit-1) are zeros (q-weight <= h), so BCH gives 2 * repunit
        report = BoundReport(q, m, h, variant, Bound(2 * repunit, "generic-lower-doubled"))
        if (q, h) == (3, 1) and m % 2 == 1:
            _merge(report, Bound(10, "ternary-h1-bar-upper"))
        rules = [(q >= 3 and m % (h + 1) == 0, 2 * repunit, "repunit-divisor-exact"),
                 (q == 2 and h == 1 and m >= 4, 6, "binary-h1-bar-exact")]
    for applies, value, via in rules:
        if applies:
            _merge(report, Bound(value, via), "rule", ("exact-rule", via))
    report.validate()
    return report


def certify(spec: CodeSpec, *, budget: SearchBudget | None = None) -> BoundReport:
    """Every distance bound for ``spec`` in one report: the closed forms, the least
    divisor passing the divisor condition (d <= e, or 2e for omega_bar) and, given
    a budget, the enumerated distance.  The divisor walk stops at the closed-form
    upper bound (e <= upper, or upper // 2 for omega_bar): a larger divisor can
    tighten nothing.  It walks every divisor only when there is no upper bound.
    A capped walk that finds no divisor leaves a note when no value is exact; a
    search or enumeration too large to run, or a code beyond the default length
    bound, leaves a note too.  Without a budget nothing is built.
    """
    _search_budget(budget)  # a bad budget is refused before the divisor walk
    report = generic_bounds(spec.q, spec.m, spec.h, spec.variant)
    scale = 1 if spec.variant == "omega" else 2
    cap = None if report.upper is None else report.upper.value // scale
    try:
        e = next(_condition_divisors(spec.q, spec.m, spec.h, cap), None)
    except TooLarge as exc:
        report.notes.append(f"divisor search skipped: {exc}")
    else:
        if e is not None:
            _merge(report, Bound(scale * e, "divisor-witness"), witness=("divisor_e", e))
        elif cap is not None and report.exact is None:
            report.notes.append(f"no divisor e <= {cap} passes the divisor condition")
    if budget is not None:
        try:
            result = exact_distance(build_code(spec), budget)
        except TooLarge as exc:
            report.notes.append(f"exact distance skipped: {exc}")
        else:
            _merge(report, result, "enumeration")
    report.validate()
    return report


def _condition_divisors(q: int, m: int, h: int, max_e: int | None = None):
    """The divisors e of q^m - 1 in [2, min(max_e, n-1)] passing the divisor condition, ascending.

    The arguments are checked once, at the call; ``codes._condition_star``
    decides each e and reads the maximal set, or raises TooLarge, at the first e >= 2.
    """
    params = CodeSpec(q, m, h).params
    check_int("max_e", max_e, optional=True)
    n = params.n
    top = n - 1 if max_e is None else min(max_e, n - 1)
    return (e for e in divisors_ascending(n, top) if e >= 2 and _condition_star(params, h, e))


def search_condition_divisors(q: int, m: int, h: int, max_e: int | None = None) -> list[int]:
    """All divisors e of q^m - 1 in [2, min(max_e, n-1)] passing the divisor condition."""
    return list(_condition_divisors(q, m, h, max_e))


def repunit_certificate(q: int, h: int) -> tuple[int, list[str]]:
    """Certify e = 1 + q + ... + q^h as a condition-star divisor at m = h + 1.

    Every multiple t*e with 1 <= t <= q-2 has all h+1 base-q digits equal
    to t, hence q-weight h+1 > h, so e divides no bounded-weight exponent.
    """
    check_int("q", q, 3)
    check_int("h", h, 1)
    prime_power_split(q)  # raises if q is not a prime power
    params = QadicParams(q, h + 1)  # rejects q^(h+1) - 1 beyond 128 bits before building it
    e = params.n // (q - 1)
    trace = []
    for t in range(1, q - 1):
        w = q_weight(params, t * e)
        if w != h + 1:
            raise InternalError(f"q_weight({t}*{e}) = {w}, expected {h + 1}")
        trace.append(f"weight({t}*{e} = {t * e}) = {h + 1}")
    return e, trace


def sphere_packing_ok(n: int, k: int, q: int, d: int) -> bool:
    """Exact sphere-packing feasibility: q^(n-k) >= sum of ball volumes up to t."""
    check_int("n", n)
    check_int("k", k)
    check_int("q", q, 2)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    check_int("d", d, 1)
    t = (d - 1) // 2
    volume = sum((q - 1) ** i * comb(n, i) for i in range(t + 1))
    return q ** (n - k) >= volume


def distance_optimal(n: int, k: int, q: int, d: int) -> bool:
    """True iff (n, k, d) is packing-feasible but (n, k, d+1) is excluded."""
    return sphere_packing_ok(n, k, q, d) and not sphere_packing_ok(n, k, q, d + 1)


def _int_value(coeffs, x):
    """The integer polynomial with these coefficients, lowest first, at the integer x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _int_poly_deriv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


@dataclass(frozen=True)
class PositivityReport:
    cubic_values: tuple[int, ...]  # f, f', f'', f''' at 15
    quintic_value: int  # at 26
    all_positive: bool


def positivity_certificates() -> PositivityReport:
    """Exact positivity of the packing-exclusion polynomials.

    The cubic x^3 - 12x^2 - 19x - 6 and all derivatives positive at 15
    force positivity for every larger argument, so the binary h=1 mirrored
    exclusion holds for every m >= 4; the quintic positive at 26 does the
    same for the ternary h=1 mirrored bound at every odd m >= 3.
    """
    cubic = [-6, -19, -12, 1]
    values = []
    poly = cubic
    for _ in range(4):
        values.append(_int_value(poly, 15))
        poly = _int_poly_deriv(poly)
    quintic = [-30, -104, -390, -80, -75, 4]
    qv = _int_value(quintic, 26)
    ok = all(v > 0 for v in values) and qv > 0
    return PositivityReport(tuple(values), qv, ok)


@dataclass(frozen=True)
class OrderSearchRow:
    """One admissible offset a for q: e = q + a and the odd order l of -a mod e.

    As q = -a mod e, e divides q^l - 1, so the row certifies d <= e for h = 1
    at every length exponent that is an odd multiple of l.
    """

    q: int
    a: int
    l: int
    e: int


@dataclass(frozen=True)
class TableBlock:
    """Search rows for one q plus the generic h = 1 distance bounds."""

    q: int
    rows: tuple[OrderSearchRow, ...]
    d_lower: int  # q + 1
    d_upper: int  # 2q - 1


def table_rows(q_min: int, q_max: int) -> list[TableBlock]:
    """The h = 1 odd-order table over every prime power q in [q_min, q_max], and
    the one entry point of that search: the block of q holds the generic h = 1
    bounds and, as ``OrderSearchRow``s certifying d <= q + a at every odd
    multiple of l, every a in [2, q-2] coprime to q whose negation has odd
    order l modulo q + a.  ``table_rows(q, q)[0].rows`` are the rows of one
    prime power q >= 4.

    The walk goes over the moduli e in ascending order instead of over q.
    A pair (q, a = e - q) with 2 <= a <= q - 2 has (e + 3) // 2 <= q <= e - 2,
    and gcd(a, q) = gcd(e, q).  Each e gets one ``UnitGroup``, which serves
    every q of that window, so e and the p - 1 of its primes are factored
    once per call.  The rows of each q come out in ascending a.

    One power screens each offset: -a has odd order mod e exactly when its
    power to the odd part of lambda(e), ``UnitGroup.carmichael_odd``, is 1.
    Only an offset that passes gets its exact order ``l`` from
    ``UnitGroup.order``, and an even ``l`` there raises InternalError, so
    every row cross-checks the screen.  A q_max above 2^13 raises TooLarge
    before any work.
    """
    check_int("q_min", q_min)
    check_int("q_max", q_max)
    if q_max > _TABLE_Q_LIMIT:
        raise TooLarge(f"q_max = {q_max} exceeds the table bound {_TABLE_Q_LIMIT} (2^13)")
    qs = [q for q in range(max(4, q_min), q_max + 1) if is_prime_power(q)]
    if not qs:
        return []
    rows: dict[int, list[OrderSearchRow]] = {q: [] for q in qs}
    for e in range(qs[0] + 2, 2 * qs[-1] - 1):
        group = None
        for q in qs[bisect_left(qs, (e + 3) // 2) : bisect_right(qs, e - 2)]:
            if gcd(e, q) != 1:
                continue
            if group is None:
                group = UnitGroup(e)
            if pow(q - e, group.carmichael_odd, e) != 1:
                continue
            l = group.order(q - e)
            if l % 2 == 0:
                raise InternalError(f"internal: {q - e} has even order {l} mod {e} "
                                    "but passed the odd-order screen")
            rows[q].append(OrderSearchRow(q, e - q, l, e))
    return [TableBlock(q, tuple(rows[q]), q + 1, 2 * q - 1) for q in qs]


def table_csv(blocks) -> str:
    """CSV with one line per search row; q with no rows keeps its bounds line."""
    lines = ["q,a,l,e,d_lower,d_upper"]
    for b in blocks:
        if not b.rows:
            lines.append(f"{b.q},,,,{b.d_lower},{b.d_upper}")
        for r in b.rows:
            lines.append(f"{r.q},{r.a},{r.l},{r.e},{b.d_lower},{b.d_upper}")
    return "\n".join(lines) + "\n"
