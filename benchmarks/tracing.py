"""Spans around the program's public functions, recorded from the benchmark.

``install`` wraps each traced function in every ``rmcodes`` module namespace
that holds it, including by-name imports such as ``codes.build_field``, so a
call is recorded however the caller looks the function up.  Spans stay in
memory, with parent links, and are written out when the traced batch ends.
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# module -> functions wrapped in a span; every gf.poly_* function is added at install
TRACED = {
    "gf": ("build_field", "embed_subfield"),
    "cyclotomy": ("coset_partition", "maximal_representatives"),
    "codes": ("build_code", "minimal_poly", "encode", "is_member", "quotient_codeword"),
    "distance": (
        "exhaustive_distance",
        "dual_transform_distance",
        "weight_distribution_from_dual",
        "find_weight_witness",
        "witness_upper_bound",
    ),
    "ntheory": ("factorize", "divisors", "mult_order", "is_probable_prime"),
    "bounds": ("generic_bounds", "search_condition_divisors", "table_rows"),
    "verify": ("run_checks",),
    "cli": ("main",),
}

# spans whose DistanceResult.enumerated counts the words a route walked
WORDS_OF = {"distance.exhaustive_distance": "message", "distance.dual_transform_distance": "dual"}

# the check ids whose own reported seconds become verify.<id>.s
VERIFY_CHECKS = ("6.1", "6.2", "7.c", "7.e", "4.2")

# (metric, unit): every per-layer metric, in report order
LAYER_METRICS = (
    ("gf.build_field.calls", "count"),
    ("gf.build_field.self_s", "s"),
    ("gf.build_field.elems_per_s", "1/s"),
    ("gf.embed_subfield.self_s", "s"),
    ("gf.poly_mul.calls", "count"),
    ("gf.poly_mul.self_s", "s"),
    ("gf.poly_lcm.self_s", "s"),
    ("gf.poly_divmod.calls", "count"),
    ("gf.poly_divmod.self_s", "s"),
    ("codes.guard_divmod_s", "s"),
    ("cyclotomy.coset_partition.self_s", "s"),
    ("cyclotomy.maximal_representatives.calls", "count"),
    ("cyclotomy.maximal_representatives.self_s", "s"),
    ("codes.build_code.calls", "count"),
    ("codes.build_code.self_s", "s"),
    ("codes.minimal_poly.calls", "count"),
    ("codes.minimal_poly.self_s", "s"),
    ("codes.encode.self_s", "s"),
    ("codes.is_member.self_s", "s"),
    ("codes.quotient_codeword.self_s", "s"),
    ("distance.exhaustive_distance.self_s", "s"),
    ("distance.message.words", "count"),
    ("distance.message.words_per_s", "1/s"),
    ("distance.weight_distribution_from_dual.self_s", "s"),
    ("distance.dual.words", "count"),
    ("distance.dual.words_per_s", "1/s"),
    ("distance.find_weight_witness.calls", "count"),
    ("distance.find_weight_witness.self_s", "s"),
    ("ntheory.factorize.calls", "count"),
    ("ntheory.factorize.self_s", "s"),
    ("ntheory.factorize.failed", "count"),
    ("ntheory.divisors.self_s", "s"),
    ("ntheory.is_probable_prime.calls", "count"),
    ("ntheory.mult_order.calls", "count"),
    ("ntheory.mult_order.self_s", "s"),
    ("bounds.table_rows.self_s", "s"),
    ("bounds.search_condition_divisors.self_s", "s"),
    ("bounds.generic_bounds.self_s", "s"),
    *((f"verify.{cid}.s", "s") for cid in VERIFY_CHECKS),
    ("cli.main.self_s", "s"),
)


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Span ``i`` is column ``i`` of the arrays: its name code, its parent span
    (-1 at top level), its start and end in ns and whether it raised.
    Columns keep a million spans in tens of MB.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.name_codes = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.failed = array("B")
        self.words: dict[int, int] = {}  # span id -> words enumerated or field order built
        self.stack: list[int] = [-1]

    def __len__(self):
        return len(self.starts)

    def wrap(self, name: str, fn):
        self.names.append(name)
        code = len(self.names) - 1
        name_codes, parents, starts, ends = self.name_codes, self.parents, self.starts, self.ends
        failed, words, stack, clock = self.failed, self.words, self.stack, self.clock
        counts_words = name in WORDS_OF
        builds = name == "gf.build_field"
        seen_fields: set[int] = set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_codes.append(code)
            parents.append(stack[-1])
            ends.append(0)
            failed.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if counts_words:
                words[sid] = out.enumerated
            elif builds and id(out) not in seen_fields:  # the first return of a field is its build
                seen_fields.add(id(out))
                words[sid] = out.order
            return out

        return traced

    def dump(self, path) -> None:
        """A JSON header line, then the raw columns in header order."""
        header = {"names": self.names, "count": len(self), "words": self.words,
                  "columns": [[c, getattr(self, c).typecode] for c in COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in COLUMNS:
                getattr(self, column).tofile(fh)

    @classmethod
    def load(cls, path) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            tracer.names = header["names"]
            tracer.words = {int(k): v for k, v in header["words"].items()}
            for column, typecode in header["columns"]:
                values = array(typecode)
                values.fromfile(fh, header["count"])
                setattr(tracer, column, values)
        return tracer


COLUMNS = ("name_codes", "parents", "starts", "ends", "failed")


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever an ``rmcodes`` module binds it."""
    from rmcodes import gf

    targets = {mod: list(names) for mod, names in TRACED.items()}
    targets["gf"] += sorted(n for n in vars(gf) if n.startswith("poly_") and callable(getattr(gf, n)))
    modules = [m for n, m in list(sys.modules.items()) if n == "rmcodes" or n.startswith("rmcodes.")]
    for mod, names in targets.items():
        home = sys.modules[f"rmcodes.{mod}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{mod}.{fname}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def self_times(tracer: Tracer) -> array:
    """Each span's duration minus the durations of its child spans (spans nest)."""
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    out = array("q", (e - s for s, e in zip(starts, ends)))
    for sid, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[sid] - starts[sid]
    return out


def layer_metrics(tracer: Tracer, check_seconds: dict | None = None) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the recorded spans (zero for an idle layer)."""
    names = tracer.names
    k = len(names)
    calls, self_ns, total_ns, failed = [0] * k, [0] * k, [0] * k, [0] * k
    for code, own, start, end, bad in zip(tracer.name_codes, self_times(tracer), tracer.starts,
                                          tracer.ends, tracer.failed):
        calls[code] += 1
        self_ns[code] += own
        total_ns[code] += end - start
        failed[code] += bad
    index = {name: i for i, name in enumerate(names)}

    def per(values, name):
        return values[index[name]] if name in index else 0

    words = {route: 0 for route in WORDS_OF.values()}
    built_elems = built_ns = guard_ns = 0
    guard_code, build_code = index.get("gf.poly_divmod"), index.get("codes.build_code")
    for sid, w in tracer.words.items():
        name = names[tracer.name_codes[sid]]
        if name in WORDS_OF:
            words[WORDS_OF[name]] += w
        else:
            built_elems += w
            built_ns += tracer.ends[sid] - tracer.starts[sid]
    if guard_code is not None and build_code is not None:
        for sid, (code, parent) in enumerate(zip(tracer.name_codes, tracer.parents)):
            if code == guard_code and parent >= 0 and tracer.name_codes[parent] == build_code:
                guard_ns += tracer.ends[sid] - tracer.starts[sid]

    def rate(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    out = {}
    for metric, _unit in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if metric.startswith("verify."):
            out[metric] = float((check_seconds or {}).get(metric[len("verify."):-len(".s")], 0.0))
        elif field == "calls":
            out[metric] = per(calls, span)
        elif field == "self_s":
            out[metric] = per(self_ns, span) / 1e9
        elif field == "failed":
            out[metric] = per(failed, span)
        elif field == "words":
            out[metric] = words[span.split(".")[1]]
    out["codes.guard_divmod_s"] = guard_ns / 1e9
    out["gf.build_field.elems_per_s"] = rate(built_elems, built_ns)
    out["distance.message.words_per_s"] = rate(
        words["message"], per(total_ns, "distance.exhaustive_distance"))
    out["distance.dual.words_per_s"] = rate(
        words["dual"], per(total_ns, "distance.weight_distribution_from_dual"))
    return out
