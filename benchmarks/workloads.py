"""The four benchmark workloads: their ops, their seeded inputs and the checks
on every op's output.

An op is one CLI subcommand run in-process through ``rmcodes.cli.main`` with
stdout captured, or a library call where no subcommand reaches the layer:
``construct`` follows each build with a ``witness_upper_bound`` op and an
``encode``/``is_member`` round-trip op on the built code.  Every call into the
program goes through a module attribute (``cli.main``, ``codes.encode``, ...)
so that the traced run can wrap it.

The output checks compare the mathematical content of each op with the
goldens in ``goldens.json`` and ignore every other output field.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

WORKLOADS = ("construct", "distance", "certify", "paper")

CONSTRUCT_SPECS = (
    (2, 18, 1, "omega"),
    (2, 16, 3, "omega"),
    (3, 10, 1, "omega"),
    (4, 6, 5, "omega"),
    (3, 8, 2, "omega"),
    (2, 12, 5, "omega_bar"),
    (4, 6, 2, "omega_bar"),
    (3, 6, 2, "omega_bar"),
)

DISTANCE_SPECS = (
    (2, 5, 2, "omega"),  # message route, 2^16 words
    (2, 5, 1, "omega_bar"),  # message route, 2^20 words (dual side 2^11)
    (4, 3, 1, "omega"),  # dual route, 4^9 words
    (5, 2, 1, "omega"),  # dual route, 5^8 words
    (3, 5, 1, "omega"),  # dual route, 3^10 words, n = 242
    (2, 7, 1, "omega_bar"),  # dual route, 2^15 words
)

CERTIFY_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
CERTIFY_LIMIT = 1 << 128
CERTIFY_MS_PER_Q = 7
TABLES_ARGV = ("tables", "--q-min", "7", "--q-max", "512", "--format", "csv")
TABLE_COLUMNS = ("q", "a", "l", "e", "d_lower", "d_upper")

# Per-op deadline of certify.  It sits between the slowest op that succeeds
# (29^25 - 1: 2 s on an idle 2-core Xeon VM, 3.3 s when its host is busy) and
# the fastest stall (19^29 - 1, about 12 s), so the count of deadline failures
# repeats exactly.
CERTIFY_DEADLINE_S = 6.0

# Nonzero symbols in each round-trip message.  encode skips zero message
# symbols, so this fixes the encode cost; is_member costs the same for any word.
ROUND_TRIP_NONZEROS = 16


class DeadlineExceeded(Exception):
    """Raised by the interval timer inside an op; ``cli.main`` does not catch it."""


class ExitStatus(Exception):
    """The CLI reported an error and exited non-zero."""


@dataclass(frozen=True)
class Op:
    """One unit of work.  ``kind`` selects how it runs and how it is checked."""

    kind: str  # code | witness | roundtrip | bounds | tables | paper
    key: str  # the golden key: "q m h variant", plus " distance" for --distance
    argv: tuple[str, ...] = ()
    spec: tuple = ()
    deadline_s: float | None = None
    message_seed: int = 0  # roundtrip: seeds the message and the perturbed position


@dataclass
class Outcome:
    """Result of one op: ``status`` is ok, deadline, exit, exception or wrong."""

    key: str
    kind: str
    status: str
    seconds: float
    reason: str = ""
    count: int = 1  # ops this outcome stands for (verify-paper reports many checks)
    failed: int = 0
    check_seconds: dict | None = None  # verify-paper: the seconds it reports per check


def spec_key(spec) -> str:
    return " ".join(str(x) for x in spec)


def spec_argv(spec) -> list[str]:
    q, m, h, variant = spec
    return [str(q), str(m), str(h), "--variant", variant]


def code_argv(spec) -> tuple[str, ...]:
    return ("code", *spec_argv(spec), "--format", "json")


def certify_specs():
    """The 7 largest m with q^m - 1 <= 2^128 for every prime power q <= 32."""
    specs = []
    for q in CERTIFY_QS:
        ms = [m for m in range(2, 129) if q**m - 1 <= CERTIFY_LIMIT]
        specs.extend((q, m, 1, "omega") for m in ms[-CERTIFY_MS_PER_Q:])
    return specs


def load_goldens(path: Path = GOLDENS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's op list; ``seed`` picks the round-trip messages and the verify seed."""
    rng = random.Random(seed)
    if workload == "construct":
        ops = []
        for s in CONSTRUCT_SPECS:
            key = spec_key(s)
            ops += [Op("code", key, code_argv(s), s), Op("witness", key, spec=s),
                    Op("roundtrip", key, spec=s, message_seed=rng.getrandbits(64))]
        return ops
    if workload == "distance":
        return [
            Op("bounds", spec_key(s) + " distance",
               ("bounds", *spec_argv(s), "--distance", "--format", "json"), s)
            for s in DISTANCE_SPECS
        ]
    if workload == "certify":
        ops = [
            Op("bounds", spec_key(s), ("bounds", *spec_argv(s), "--format", "json"), s,
               deadline_s=CERTIFY_DEADLINE_S)
            for s in certify_specs()
        ]
        ops.append(Op("tables", "tables", TABLES_ARGV, deadline_s=CERTIFY_DEADLINE_S))
        return ops
    if workload == "paper":
        return [Op("paper", "paper", ("verify-paper", "--format", "json", "--seed", str(seed)))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# running ops


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float | None):
    """Raise DeadlineExceeded inside the block once ``seconds`` have passed."""
    if seconds is None:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv) -> tuple[int, str, str]:
    from rmcodes import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _library_op(op: Op) -> dict:
    """A witness or round-trip op on the code that the preceding ``code`` op built."""
    from rmcodes import bounds, codes, distance

    q, m, h, variant = op.spec
    inst = codes.build_code(codes.CodeSpec(q, m, h, variant))
    if op.kind == "witness":
        e = bounds.search_condition_divisors(q, m, h)[0]
        quotient = codes.quotient_codeword(q, m, h, e, barred=variant == "omega_bar")
        witness = distance.witness_upper_bound(inst, [quotient])
        return {"e": e, "value": witness.value, "weight": quotient.weight}
    rng = random.Random(op.message_seed)
    msg = [0] * inst.k
    for i in rng.sample(range(inst.k), min(inst.k, ROUND_TRIP_NONZEROS)):
        msg[i] = rng.randrange(1, q)
    word = codes.encode(inst, msg).coeffs
    flipped = list(word)
    at = rng.randrange(inst.n)
    flipped[at] = (flipped[at] + 1) % q
    return {
        "length": len(word),
        "weight": sum(1 for c in word if c),
        "member": codes.is_member(inst, word),
        "flipped_member": codes.is_member(inst, flipped),
    }


def execute(op: Op):
    """Run one op: a library op's result dict, or (rc, stdout, stderr) of a CLI call."""
    with deadline(op.deadline_s):
        if op.kind in ("witness", "roundtrip"):
            return _library_op(op)
        return run_cli(op.argv)


# ---------------------------------------------------------------------------
# output checks


def bound_fields(doc: dict) -> dict:
    return {k: None if doc[k] is None else {"value": doc[k]["value"], "via": doc[k]["via"]}
            for k in ("lower", "upper", "exact")}


def table_digest(csv_text: str) -> dict:
    """Row count and SHA-256 of the rows restricted to TABLE_COLUMNS."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    canon = "\n".join(",".join(r[c] for c in TABLE_COLUMNS) for r in rows)
    return {"rows": len(rows), "sha256": hashlib.sha256(canon.encode()).hexdigest()}


def content(op: Op, raw) -> dict:
    """The mathematical content of an op's output, in the goldens' layout."""
    if op.kind in ("witness", "roundtrip"):
        return raw
    rc, out, err = raw
    if op.kind == "paper":
        results = json.loads(out)
        return {"checks": {r["id"]: r["passed"] for r in results},
                "seconds": {r["id"]: r["seconds"] for r in results}}
    if rc != 0:
        first = err.strip().splitlines()[0] if err.strip() else ""
        raise ExitStatus(f"exit code {rc}: {first}")
    if op.kind == "code":
        doc = json.loads(out)
        return {k: doc[k] for k in ("n", "k", "gen_poly", "zero_exponents")}
    if op.kind == "bounds":
        return bound_fields(json.loads(out))
    if op.kind == "tables":
        return table_digest(out)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _diff(want: dict, got: dict) -> list[str]:
    bad = []
    for field, value in want.items():
        shown = got.get(field)
        if shown == value:
            continue
        if isinstance(value, list) and isinstance(shown, list):
            at = next((i for i, (a, b) in enumerate(zip(shown, value)) if a != b), None)
            shown = f"a list of {len(shown)} (golden {len(value)}) first differing at {at}"
        bad.append(f"{field}: got {shown}")
    return bad


def mismatches(op: Op, got: dict, goldens: dict) -> list[str]:
    """Human-readable differences between ``got`` and the golden (empty when right)."""
    if op.kind == "paper":
        want = goldens["paper"]["checks"]
        bad = [f"check {cid}: passed={got['checks'].get(cid)!r}" for cid in want
               if got["checks"].get(cid) is not True]
        return bad + [f"unexpected check {cid}" for cid in got["checks"] if cid not in want]
    if op.kind == "tables":
        return _diff(goldens["tables"], got)
    if op.kind == "roundtrip":
        want = {"length": goldens["code"][op.key]["n"], "member": True, "flipped_member": False}
        bad = _diff(want, got)
        return bad + (["a nonzero message encoded to the zero word"] if got["weight"] < 1 else [])
    return _diff(goldens[op.kind][op.key], got)


def run_op(op: Op, goldens: dict) -> Outcome:
    """Run, time and check one op; never raises for a failure of the program."""
    count = len(goldens["paper"]["checks"]) if op.kind == "paper" else 1
    start = time.perf_counter()
    try:
        raw = execute(op)
    except DeadlineExceeded:
        status, reason = "deadline", f"deadline {op.deadline_s:g} s"
    except Exception as exc:  # the program raised: record it and keep the batch going
        status, reason = "exception", f"{type(exc).__name__}: {exc}"
    else:
        seconds = time.perf_counter() - start
        seconds_per_check = None
        try:
            got = content(op, raw)
        except ExitStatus as exc:
            return Outcome(op.key, op.kind, "exit", seconds, str(exc), count, count)
        except (ValueError, KeyError, TypeError) as exc:
            bad = [f"unreadable output: {type(exc).__name__}: {exc}"]
        else:
            bad = mismatches(op, got, goldens)
            seconds_per_check = got.get("seconds") if op.kind == "paper" else None
        return Outcome(op.key, op.kind, "wrong" if bad else "ok", seconds, "; ".join(bad),
                       count, min(count, len(bad)), seconds_per_check)
    return Outcome(op.key, op.kind, status, time.perf_counter() - start, reason, count, count)
