"""rmcodes benchmark: run one workload (or all four) and print its metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload {construct,distance,certify,paper,all}
                              --seed N --seconds S --trace {0,1}

Every batch runs in a fresh single-threaded process (``worker.py``), one
after another, with one client in a closed loop.  ``--trace 0`` repeats the
batch until ``--seconds`` have passed (at least once) and prints the
end-to-end metrics; set-up is measured in SETUP_PROBES more fresh processes
as well.  ``--trace 1`` runs one untraced and one traced batch and prints
the per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object; the run record goes to ``benchmarks/out/<workload>.trace<0|1>.json``
and is compared with the previous record there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
)
# Per-layer metrics of the result line (and of BENCHMARK.json).  A layer that a
# workload never reaches reads exactly 0 s on every run of it, so the result
# line keeps only the per-layer times that distance, certify and paper all
# move, plus every count and rate.  The report and the run record carry all of
# REPORTED_LAYERS.
REPORTED_LAYERS = (*tracing.LAYER_METRICS, ("trace.overhead_frac", "ratio"))
TIMES_ON_EVERY_WORKLOAD = (
    "cyclotomy.maximal_representatives.self_s",
    "ntheory.factorize.self_s",
    "ntheory.divisors.self_s",
    "cli.main.self_s",
)
PER_LAYER = tuple((n, u) for n, u in REPORTED_LAYERS if u != "s" or n in TIMES_ON_EVERY_WORKLOAD)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float, spans: Path | None = None) -> dict:
    """Run worker.py once and return its result, with ``setup_s`` measured from its start."""
    cmd = [sys.executable, str(WORKER), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    started = time.monotonic()
    if deadline <= started:
        raise BenchError(f"no time left for the {mode} process of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=deadline - started)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process of {workload} overran the run limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process of {workload} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """P(X <= x) for X ~ Beta(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    With the few ops of some workloads, a single order statistic jumps
    between ops whenever two of them swap rank; the weighted mean does not.
    """
    s = sorted(values)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(s))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        batches = [spawn(workload, seed, "batch", deadline),
                   spawn(workload, seed, "traced", deadline, OUT_DIR / f"{workload}.spans.bin")]
    else:
        setups = [spawn(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        batches = []
        start = time.monotonic()
        while not batches or time.monotonic() - start < seconds:
            batches.append(spawn(workload, seed, "batch", deadline))
        setups += [b["setup_s"] for b in batches]
    outcomes = [o for b in batches for o in b["outcomes"]]
    attempted = sum(o["count"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    if trace:
        base, traced = batches
        metrics = {**traced["layers"], "trace.overhead_frac": traced["wall_s"] / base["wall_s"] - 1}
        units = REPORTED_LAYERS
        samples = {"spans": traced["spans"]}
    else:
        latencies = [o["seconds"] for o in outcomes]
        metrics = {
            "wall_s": statistics.median(b["wall_s"] for b in batches),
            "setup_s": statistics.median(setups),
            "op_p50_s": quantile(latencies, 0.5),
            "op_p90_s": quantile(latencies, 0.9),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        }
        units = END_TO_END
        samples = {"batches": len(batches), "op_latencies": len(latencies), "setups": len(setups)}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "correct": all(o["status"] != "wrong" for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "batch_wall_s": [b["wall_s"] for b in batches],
        "op_seconds": [[f"{o['kind']} {o['key']}", o["seconds"]] for o in outcomes],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        "failures": [{"op": o["key"], "kind": o["kind"], "status": o["status"],
                      "reason": o["reason"]} for o in outcomes if o["failed"]],
    }


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def save_record(record: dict) -> list[str]:
    """Write the run record; return lines comparing it with the previous record."""
    path = OUT_DIR / f"{record['workload']}.trace{record['trace']}.json"
    lines = []
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        path.replace(path.with_suffix(".prev.json"))
        lines.append(f"  change against the previous run (seed {previous['seed']}):")
        for name, m in record["metrics"].items():
            old = previous["metrics"].get(name, {}).get("value")
            if old is None:
                continue
            ratio = f"{m['value'] / old - 1:+.1%}" if old else "n/a"
            lines.append(f"    {name:48s} {old:14.6g} -> {m['value']:14.6g}  {ratio}")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return lines


def report(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
             f"samples {record['samples']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    lines.append(f"  attempted {record['attempted']}  failed {record['failed']}  "
                 f"correct {record['correct']}")
    for f in record["failures"]:
        lines.append(f"  failed op [{f['kind']} {f['op']}] {f['status']}: {f['reason']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report(record) + save_record(record)), flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    keep = {name for name, _ in (PER_LAYER if args.trace else END_TO_END)}
    metrics = {(k if len(records) == 1 else f"{r['workload']}.{k}"): v
               for r in records for k, v in r["metrics"].items() if k in keep}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
