"""Record goldens.json: the content every benchmark op must reproduce.

Usage: python3 benchmarks/record_goldens.py

Runs every op of every workload once, in-process and untraced, and keeps the
content that the output checks compare.  Before writing, each golden is
cross-checked against a value computed independently of the op that produced
it (``cross_check``); the file is not written if any disagrees.  A certify op
that does not finish within RECORD_DEADLINE_S gets its golden from the
independent route alone: the closed-form bounds plus a scan for a divisor
witness below the closed-form upper bound, with no factorization.
"""

from __future__ import annotations

import json
import sys
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads as wl  # noqa: E402

RECORD_DEADLINE_S = 30.0


# ---------------------------------------------------------------------------
# independent values


def weight(a: int, q: int) -> int:
    w = 0
    while a:
        w += a % q != 0
        a //= q
    return w


def zero_set(q: int, m: int, h: int, variant: str) -> list[int]:
    """Exponents of the zeros, from the q-weight definition by direct enumeration."""
    n = q**m - 1
    base = [a for a in range(1, n) if weight(a, q) <= h]
    if variant == "omega":
        return base
    return sorted({0, *base, *(n - a for a in base)})


def independent_bounds(q: int, m: int, h: int, variant: str) -> dict:
    """lower/upper/exact of ``rmcodes bounds`` without --distance, without factoring.

    The divisor witness only matters below the closed-form upper bound, so a
    scan of the candidates under that bound decides it exactly.
    """
    from rmcodes import bounds, codes

    report = bounds.generic_bounds(q, m, h, variant)
    if report.upper is None:
        raise ValueError(f"no closed-form upper bound to cap the scan for ({q}, {m}, {h})")
    scale = 1 if variant == "omega" else 2
    n = q**m - 1
    for e in range(2, min(n, -(-report.upper.value // scale))):
        if n % e == 0 and codes.condition_star_holds(q, m, h, e):
            report.upper = bounds.Bound(scale * e, "divisor-witness")
            break
    return wl.bound_fields(report.to_json())


def is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def table_csv_independent(q_min: int, q_max: int) -> str:
    """The odd-order table, recomputed with brute-force multiplicative orders."""
    lines = [",".join(wl.TABLE_COLUMNS)]
    for q in range(max(4, q_min), q_max + 1):
        if not is_prime_power(q):
            continue
        rows = []
        for a in range(2, q - 1):
            if gcd(a, q) != 1:
                continue
            e, b = q + a, (-a) % (q + a)
            l, x = 1, b
            while x != 1:
                x, l = x * b % e, l + 1
            if l % 2:
                rows.append(f"{q},{a},{l},{e},{q + 1},{2 * q - 1}")
        lines.extend(rows or [f"{q},,,,{q + 1},{2 * q - 1}"])
    return "\n".join(lines) + "\n"


def cross_check(goldens: dict, *, full: bool = True) -> list[str]:
    """Disagreements between the goldens and independent values.

    ``full`` adds the slow parts: zero sets by enumeration, the table
    recomputation and the certify bounds.
    """
    from rmcodes import bounds, cyclotomy

    bad = []
    for spec in wl.CONSTRUCT_SPECS:
        q, m, h, variant = spec
        key = wl.spec_key(spec)
        g, w = goldens["code"][key], goldens["witness"][key]
        n, deg = q**m - 1, len(g["gen_poly"]) - 1
        size = cyclotomy.index_set_size(cyclotomy.QadicParams(q, m), h)
        want_deg = size if variant == "omega" else 1 + 2 * size
        if g["n"] != n or g["k"] != n - deg or deg != len(g["zero_exponents"]) or deg != want_deg:
            bad.append(f"code {key}: n, k or the zero count disagree with index_set_size")
        if g["gen_poly"][-1] != 1:
            bad.append(f"code {key}: generator not monic")
        if full and g["zero_exponents"] != zero_set(q, m, h, variant):
            bad.append(f"code {key}: zero exponents disagree with the q-weight definition")
        lower = bounds.generic_bounds(q, m, h, variant).lower.value
        if n % w["e"] or w["value"] != (w["e"] if variant == "omega" else 2 * w["e"]) \
                or w["value"] < lower or w["weight"] != w["value"]:
            bad.append(f"witness {key}: {w} inconsistent with e | n and the lower bound {lower}")
    for spec in wl.DISTANCE_SPECS:
        key = wl.spec_key(spec) + " distance"
        g = goldens["bounds"][key]
        generic = bounds.generic_bounds(*spec)
        exact = g["exact"]
        if exact is None or not exact["via"].startswith("enumeration:"):
            bad.append(f"bounds {key}: no enumerated exact distance")
        elif generic.exact is not None:
            if exact["value"] != generic.exact.value:
                bad.append(f"bounds {key}: distance {exact['value']} != {generic.exact.via} "
                           f"{generic.exact.value}")
        elif exact["value"] < generic.lower.value or (
                generic.upper is not None and exact["value"] > generic.upper.value):
            bad.append(f"bounds {key}: distance outside the closed-form bounds")
    if full:
        for spec in wl.certify_specs():
            key = wl.spec_key(spec)
            if goldens["bounds"][key] != independent_bounds(*spec):
                bad.append(f"bounds {key}: disagrees with the closed forms and divisor scan")
        want = wl.table_digest(table_csv_independent(7, 512))
        if goldens["tables"] != want:
            bad.append(f"tables: {goldens['tables']} != independent {want}")
    checks = goldens["paper"]["checks"]
    if not all(v is True for v in checks.values()) or len(checks) != 31:
        bad.append("paper: the goldens must list 31 passing checks")
    return bad


# ---------------------------------------------------------------------------
# recording


def record() -> dict:
    goldens = {"code": {}, "witness": {}, "bounds": {}, "tables": {}, "paper": {}}
    for op in wl.make_ops("construct", 1):
        got = wl.content(op, wl.execute(op))
        if op.kind != "roundtrip":
            goldens[op.kind][op.key] = got
        elif not got["member"] or got["flipped_member"]:
            raise RuntimeError(f"round trip on {op.key} failed: {got}")
    for op in wl.make_ops("distance", 1):
        goldens["bounds"][op.key] = wl.content(op, wl.execute(op))
    for op in wl.make_ops("certify", 1):
        op = wl.Op(op.kind, op.key, op.argv, op.spec, RECORD_DEADLINE_S)
        try:
            got = wl.content(op, wl.execute(op))
        except wl.DeadlineExceeded:
            print(f"{op.key}: over {RECORD_DEADLINE_S:g} s, golden from the independent route")
            got = independent_bounds(*op.spec)
        if op.kind == "tables":
            goldens["tables"] = got
        else:
            goldens["bounds"][op.key] = got
    (paper,) = wl.make_ops("paper", 1)
    goldens["paper"]["checks"] = wl.content(paper, wl.execute(paper))["checks"]
    return goldens


def write(goldens: dict, path: Path) -> None:
    """One line per golden, so a changed golden shows as a one-line diff."""
    lines = ["{"]
    sections = sorted(goldens)
    for i, section in enumerate(sections):
        body = goldens[section]
        lines.append(f" {json.dumps(section)}: {{")
        keys = sorted(body)
        for j, key in enumerate(keys):
            sep = "," if j < len(keys) - 1 else ""
            lines.append(f"  {json.dumps(key)}: {json.dumps(body[key], separators=(',', ':'))}{sep}")
        lines.append(" }" + ("," if i < len(sections) - 1 else ""))
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    goldens = record()
    bad = cross_check(goldens)
    for line in bad:
        print("cross-check failed:", line, file=sys.stderr)
    if bad:
        return 1
    write(goldens, wl.GOLDENS_PATH)
    print(f"wrote {wl.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
