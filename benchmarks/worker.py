"""One fresh single-threaded process: set up a workload, run one batch of it.

Usage: python3 benchmarks/worker.py WORKLOAD SEED {setup,batch,traced} [SPANS_PATH]

``setup`` stops after set-up, for the set-up time samples.  ``batch`` runs
every op of the workload once; ``traced`` does the same with spans around
the program's layers and writes the spans to SPANS_PATH.  The last line of
stdout is one JSON object; set-up ends at its ``ready`` stamp, taken from
the system-wide monotonic clock so the parent can compare it with the time
it started this process.
"""

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if not (SRC / "rmcodes" / "__init__.py").is_file():
        print(f"no rmcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from rmcodes import cli  # noqa: F401  (the import is part of set-up)

    import workloads

    goldens = workloads.load_goldens()
    ops = workloads.make_ops(workload, seed)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    outcomes = [workloads.run_op(op, goldens) for op in ops]
    wall = time.perf_counter() - start
    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": [asdict(o) for o in outcomes],
    }
    if tracer is not None:
        check_seconds = next((o.check_seconds for o in outcomes if o.check_seconds), None)
        result["layers"] = tracing.layer_metrics(tracer, check_seconds)
        result["spans"] = len(tracer)
        tracer.dump(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
