"""Command-line front end: code construction, bounds, divisor search, tables.

Subcommands: code, bounds, search-e, tables, verify-paper.  Output is
text by default; --format json/csv selects machine-readable forms (no csv
for verify-paper).  Each subcommand takes only the flags it reads; --max-n
bounds the construction size of code (default 2^20).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import bounds as bd
from . import codes as cd
from . import distance as ds
from . import verify
from .errors import FactorizationIncomplete
from .gf import poly_degree


def _format_flag(parser, choices=("text", "json", "csv")):
    parser.add_argument("--format", choices=choices, default="text")


def _spec_args(parser):
    parser.add_argument("q", type=int)
    parser.add_argument("m", type=int)
    parser.add_argument("h", type=int)
    parser.add_argument("--variant", choices=cd.VARIANTS, default="omega")


def cmd_code(args) -> int:
    spec = cd.CodeSpec(args.q, args.m, args.h, args.variant)
    inst = cd.build_code(spec, max_n=args.max_n)
    doc = cd.code_to_json(inst)
    if args.emit:
        Path(args.emit).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print("q,m,h,variant,n,k,deg_gen,num_zeros")
        print(
            f"{spec.q},{spec.m},{spec.h},{spec.variant},{inst.n},{inst.k},"
            f"{poly_degree(inst.gen_poly)},{len(inst.zero_exponents)}"
        )
    else:
        print(f"{spec.variant}(q={spec.q}, m={spec.m}, h={spec.h})")
        print(f"  n = {inst.n}")
        print(f"  k = {inst.k}")
        print(f"  deg(gen) = {poly_degree(inst.gen_poly)}")
        print(f"  zeros: {len(inst.zero_exponents)} exponents")
        print(f"  gen coefficients (low to high): {list(inst.gen_poly)}")
    return 0


def cmd_bounds(args) -> int:
    budget = None
    if args.distance:
        budget = ds.SearchBudget() if args.max_messages is None else ds.SearchBudget(args.max_messages)
    elif args.max_messages is not None:
        raise ValueError("--max-messages needs --distance")
    report = bd.certify(cd.CodeSpec(args.q, args.m, args.h, args.variant), budget=budget)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    elif args.format == "csv":
        print("q,m,h,variant,lower,upper,exact")
        upper = report.upper.value if report.upper else ""
        exact = report.exact.value if report.exact else ""
        print(f"{report.q},{report.m},{report.h},{report.variant},{report.lower.value},{upper},{exact}")
    else:
        name = "d" if args.variant == "omega" else "d_bar"
        print(f"{name}(q={args.q}, m={args.m}, h={args.h}):")
        print(f"  lower = {report.lower.value}  [{report.lower.via}]")
        if report.upper:
            print(f"  upper = {report.upper.value}  [{report.upper.via}]")
        if report.exact:
            print(f"  exact = {report.exact.value}  [{report.exact.via}]")
        for kind, value in report.witnesses:
            print(f"  witness: {kind} = {value}")
        for note in report.notes:
            print(f"  note: {note}")
    return 0


def cmd_search_e(args) -> int:
    divs = bd.search_condition_divisors(args.q, args.m, args.h, args.max_e)
    if args.format == "json":
        print(json.dumps({"q": args.q, "m": args.m, "h": args.h, "divisors": divs}))
    elif args.format == "csv":
        print("q,m,h,e")
        for e in divs:
            print(f"{args.q},{args.m},{args.h},{e}")
    else:
        n = args.q**args.m - 1
        print(f"divisors e of n = {n} with e dividing no weight-<= {args.h} exponent:")
        print(f"  {divs}" if divs else "  none")
    return 0


def cmd_tables(args) -> int:
    blocks = bd.table_rows(args.q_min, args.q_max)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(b) for b in blocks], indent=2))
    elif args.format == "csv":
        print(bd.table_csv(blocks), end="")
    else:
        for b in blocks:
            print(f"q = {b.q}   (q+1 = {b.d_lower}, 2q-1 = {b.d_upper})")
            if not b.rows:
                print("  no admissible a")
            for r in b.rows:
                print(f"  a = {r.a:3d}   l = {r.l:3d}   e = {r.e:3d}")
    return 0


def cmd_verify_paper(args) -> int:
    results = verify.run_checks(only=args.only, seed=args.seed)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "id": r.cid,
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "seconds": round(r.seconds, 4),
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.cid:10s} {r.name:32s} ({r.seconds:7.3f}s)  {r.detail}")
        npass = sum(r.passed for r in results)
        print(f"{npass}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(
        prog="rmcodes",
        description="bounded-weight-zero-set cyclic codes: construction, distances, certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code", help="build a code and print its parameters")
    _spec_args(p)
    p.add_argument("--emit", metavar="PATH", default=None, help="also write the JSON document here")
    _format_flag(p)
    p.add_argument("--max-n", type=int, default=None, help="construction size bound")
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("bounds", help="distance bounds with provenance")
    _spec_args(p)
    p.add_argument("--distance", action="store_true", help="add the exact distance if it fits the budget")
    p.add_argument(
        "--max-messages", type=int, default=None, help="enumeration budget for exact distances"
    )
    _format_flag(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("search-e", help="divisors of q^m - 1 giving explicit low-weight codewords")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("h", type=int)
    p.add_argument("--max-e", type=int, default=None)
    _format_flag(p)
    p.set_defaults(fn=cmd_search_e)

    p = sub.add_parser("tables", help="odd-order search table for h = 1 over a range of q")
    p.add_argument("--q-min", type=int, default=7)
    p.add_argument("--q-max", type=int, default=32)
    _format_flag(p)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("verify-paper", help="run the built-in verification suite")
    p.add_argument("--only", default=None, help="restrict to one criterion group (number or name)")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    _format_flag(p, ("text", "json"))
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FactorizationIncomplete, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
