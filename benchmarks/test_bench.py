"""Self-tests of the benchmark.  Run: python3 -m pytest benchmarks/test_bench.py"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import record_goldens  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

GOLDENS = wl.load_goldens()


def test_self_time_on_synthetic_nest():
    # A [0,100] holds B [10,40], which holds C [20,30], and then D [50,80]
    tracer = tracing.Tracer()
    tracer.names = ["A", "B", "C", "D"]
    for code, parent, start, end in ((0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 20, 30), (3, 0, 50, 80)):
        tracer.name_codes.append(code)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.failed.append(0)
    assert list(tracing.self_times(tracer)) == [40, 20, 10, 30]


def test_wrapped_calls_nest_aggregate_and_round_trip(tmp_path):
    ticks = iter(range(0, 10**6, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("ntheory.factorize", lambda: None)

    def fail():
        inner()
        raise ValueError

    outer = tracer.wrap("bounds.generic_bounds", lambda: (inner(), inner()))
    failing = tracer.wrap("ntheory.divisors", fail)
    outer()
    try:
        failing()
    except ValueError:
        pass
    assert list(tracer.parents) == [-1, 0, 0, -1, 3]
    assert list(tracer.failed) == [0, 0, 0, 1, 0]
    tracer.dump(tmp_path / "spans.bin")
    loaded = tracing.Tracer.load(tmp_path / "spans.bin")
    assert (loaded.names, loaded.words) == (tracer.names, tracer.words)
    assert all(getattr(loaded, c) == getattr(tracer, c) for c in tracing.COLUMNS)
    m = tracing.layer_metrics(loaded)
    assert m["ntheory.factorize.calls"] == 3
    assert m["ntheory.factorize.self_s"] == 30e-9
    assert m["bounds.generic_bounds.self_s"] == 30e-9
    assert m["gf.build_field.calls"] == 0


def certify_op(q, m):
    (op,) = [o for o in wl.make_ops("certify", 1) if o.spec == (q, m, 1, "omega")]
    return op


def test_deadline_cut_op_fails_and_next_op_checks():
    stall = certify_op(2, 122)
    cut = wl.run_op(wl.Op(stall.kind, stall.key, stall.argv, stall.spec, 0.2), GOLDENS)
    assert (cut.status, cut.failed) == ("deadline", 1)
    nxt = wl.run_op(certify_op(3, 80), GOLDENS)
    assert (nxt.status, nxt.failed, nxt.reason) == ("ok", 0, "")


def test_perturbed_gen_poly_is_rejected():
    (op,) = [o for o in wl.make_ops("construct", 1)
             if o.kind == "code" and o.spec == (3, 6, 2, "omega_bar")]
    got = wl.content(op, wl.execute(op))
    assert wl.mismatches(op, got, GOLDENS) == []
    got["gen_poly"][3] = (got["gen_poly"][3] + 1) % 3
    (bad,) = wl.mismatches(op, got, GOLDENS)
    assert bad.startswith("gen_poly:") and "differing at 3" in bad


def test_extra_output_fields_are_ignored():
    op = wl.make_ops("distance", 1)[0]
    got = dict(GOLDENS["bounds"][op.key], provenance="new field")
    assert wl.mismatches(op, got, GOLDENS) == []


def test_goldens_agree_with_independent_values():
    assert record_goldens.cross_check(GOLDENS, full=False) == []


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert run.quantile([7.0] * 5, 0.9) == pytest.approx(7.0)
    assert 2.0 < run.quantile([1.0, 2.0, 3.0], 0.9) < 3.0
    assert run.beta_cdf(0.3, 2, 3) == pytest.approx(1 - 0.7**3 * (1 + 3 * 0.3))


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
