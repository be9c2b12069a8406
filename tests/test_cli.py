import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import rmcodes
from rmcodes import bounds as bd
from rmcodes import codes as cd
from rmcodes import ntheory as nt
from rmcodes import verify
from rmcodes.cli import main
from rmcodes.errors import TooLarge


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ECM curves the finisher runs, from a cleared cache, on each q^m - 1 whose
# least passing divisor needs it: 42 curves on 8 composite cofactors
FINISHER_CURVES = {(3, 79): 7, (5, 53): 4, (7, 43): 28, (29, 23): 1, (31, 23): 2}


class TestCode:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "code", "3", "2", "1")
        assert code == 0
        assert "n = 8" in out and "k = 4" in out

    def test_mirrored_json(self, capsys):
        code, out, _ = run(capsys, "code", "2", "4", "1", "--variant", "omega_bar", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["k"], doc["variant"]) == (15, 6, "omega_bar")

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "code", "2", "2", "2")
        assert code == 2
        assert "error" in err

    def test_emit(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        code, _, _ = run(capsys, "code", "3", "2", "1", "--emit", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc == cd.code_to_json(cd.build_code(cd.CodeSpec(3, 2, 1)))

    def test_emit_to_a_missing_directory(self, capsys, tmp_path):
        path = str(tmp_path / "absent" / "x.json")
        code, _, err = run(capsys, "code", "3", "2", "1", "--emit", path)
        assert code == 2
        assert err.startswith("error: ") and path in err and "Traceback" not in err

    def test_max_n(self, capsys):
        code, _, err = run(capsys, "code", "3", "2", "1", "--max-n", "5")
        assert code == 2 and err == "error: n = 8 exceeds the construction bound 5\n"
        code, _, _ = run(capsys, "code", "3", "2", "1", "--max-n", "100")
        assert code == 0

    def test_max_n_above_the_materialize_limit(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "code", "2", "100", "1", "--max-n", str(2**101))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == f"error: n = {2**100 - 1} exceeds the construction bound {2**26}\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "code", "3", "2", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "3,2,1,omega,8,4,4,4"


class TestBounds:
    def test_342_with_divisor_witness(self, capsys):
        code, out, _ = run(capsys, "bounds", "3", "4", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"]["value"] == 13
        assert doc["upper"] == {"value": 16, "via": "divisor-witness", "witness": None, "enumerated": 0}
        assert ["divisor_e", 16] in doc["witnesses"]

    def test_mirrored_binary_exact(self, capsys):
        code, out, _ = run(capsys, "bounds", "2", "5", "1", "--variant", "omega_bar", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"]["value"] == 6

    def test_25_2_1(self, capsys):
        code, out, _ = run(capsys, "bounds", "25", "2", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["exact"]["value"] == 26

    def test_with_distance(self, capsys):
        code, out, _ = run(capsys, "bounds", "3", "2", "1", "--distance", "--format", "json")
        assert code == 0
        exact = json.loads(out)["exact"]
        assert exact["value"] == 4
        assert exact["via"] == "enumeration:message-enumeration"
        assert exact["enumerated"] == 3**4 - 1
        inst = cd.build_code(cd.CodeSpec(3, 2, 1))
        assert len(exact["witness"]) == inst.n
        assert sum(1 for c in exact["witness"] if c) == 4
        assert cd.is_member(inst, exact["witness"])

    def test_distance_budget_note(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "3", "4", "2", "--distance", "--max-messages", "100", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is None
        assert any("skipped" in note for note in doc["notes"])

    def test_zero_budget_is_an_error(self, capsys):
        code, out, err = run(capsys, "bounds", "3", "2", "1", "--distance", "--max-messages", "0")
        assert code == 2
        assert out == "" and "max_messages" in err

    def test_max_messages_needs_distance(self, capsys):
        code, out, err = run(capsys, "bounds", "3", "2", "1", "--max-messages", "5")
        assert code == 2
        assert out == "" and "--distance" in err

    def test_skipped_distance_note_is_short(self, capsys):
        code, out, _ = run(capsys, "bounds", "4", "6", "1", "--distance", "--format", "json")
        assert code == 0
        (note,) = json.loads(out)["notes"]
        assert "4^4077" in note and "4^18" in note
        assert len(note) < 200

    def test_factoring_budget_exhausted(self, capsys, monkeypatch):
        # Phi_43(7) = (7^43 - 1)/6 is a 119-bit product of two primes, which
        # an empty curve table leaves unsplit; the finisher cache would
        # otherwise answer from an earlier factorization with every curve. The
        # uncapped walk of search-e needs that split; bounds stops at 13
        monkeypatch.setattr(nt, "_ECM_ROUNDS", ())
        nt._finish.cache_clear()
        try:
            code, out, err = run(capsys, "search-e", "7", "43", "1")
        finally:
            nt._finish.cache_clear()
        assert code == 2 and out == ""
        assert err == f"error: composite cofactor {(7**43 - 1) // 6} survived every ECM curve\n"

    @pytest.mark.parametrize("q, m, e", [(3, 79, 432853009), (5, 53, 5960555749),
                                         (7, 43, 166003607842448777), (29, 23, 131327761273),
                                         (31, 23, 1509997)])
    def test_divisor_witness_past_the_trial_bound(self, capsys, monkeypatch, q, m, e):
        # the five certify moduli whose least passing divisor needs the
        # finisher; for 7^43 - 1 the stage-1 divisors 1, 2, 3, 6 run out below
        # TRIAL_LIMIT. bounds stops below e, so the uncapped walk of search-e
        # reaches it. Each takes the ECM curves of FINISHER_CURVES, 42 in all;
        # the cache is cleared so that the finisher runs
        calls = []
        curve = nt._ecm_curve
        monkeypatch.setattr(nt, "_ecm_curve", lambda *args: calls.append(args) or curve(*args))
        nt._finish.cache_clear()
        try:
            code, out, _ = run(capsys, "search-e", str(q), str(m), "1", "--max-e", str(e),
                               "--format", "json")
        finally:
            nt._finish.cache_clear()
        assert code == 0
        assert json.loads(out)["divisors"] == [e]
        assert len(calls) == FINISHER_CURVES[q, m]

    @pytest.mark.parametrize("q, m, e", [(19, 29, 59), (11, 31, 50159)])
    def test_divisor_walk_skips_the_finisher(self, capsys, monkeypatch, q, m, e):
        # q^m - 1 has a composite cofactor that an empty curve table leaves
        # unsplit, but its least passing divisor is below TRIAL_LIMIT
        monkeypatch.setattr(nt, "_ECM_ROUNDS", ())
        nt._finish.cache_clear()
        try:
            code, out, err = run(capsys, "search-e", str(q), str(m), "1", "--max-e", str(e),
                                 "--format", "json")
        finally:
            nt._finish.cache_clear()
        assert code == 0, err
        assert json.loads(out)["divisors"] == [e]

    @pytest.mark.parametrize("q, m", FINISHER_CURVES)
    def test_finisher_moduli_need_no_split(self, capsys, monkeypatch, q, m):
        # the walk of bounds stops at the upper bound, below the least passing
        # divisor, so it splits no cofactor, even with an empty curve table
        monkeypatch.setattr(nt, "_ECM_ROUNDS", ())
        nt._finish.cache_clear()
        try:
            code, out, err = run(capsys, "bounds", str(q), str(m), "1", "--format", "json")
        finally:
            nt._finish.cache_clear()
        assert code == 0, err
        assert all(kind != "divisor_e" for kind, _ in json.loads(out)["witnesses"])

    def test_note_when_no_divisor_passes_below_the_cap(self, capsys):
        note = "no divisor e <= 17 passes the divisor condition"
        code, out, _ = run(capsys, "bounds", "3", "5", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["upper"]["via"] == "generic-upper" and doc["exact"] is None
        assert doc["witnesses"] == [] and doc["notes"] == [note]
        code, out, _ = run(capsys, "bounds", "3", "5", "2")
        assert code == 0
        assert out.splitlines()[-2:] == ["  upper = 17  [generic-upper]", f"  note: {note}"]

    @pytest.mark.parametrize("q, m, h, size, lower, upper", [(2, 30, 10, 53009101, 2047, 2047),
                                                          (3, 20, 8, 45235088, 9841, 13121)])
    def test_divisor_search_skipped(self, capsys, q, m, h, size, lower, upper):
        # the index set is too large for the maximal set: the closed forms
        # are still printed, with a note instead of the divisor witness
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", str(q), str(m), str(h), "--format", "json")
        assert time.perf_counter() - start < 5.0
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["lower"]["value"], doc["upper"]["value"]) == (lower, upper)
        assert all(kind != "divisor_e" for kind, _ in doc["witnesses"])
        assert doc["notes"] == [
            f"divisor search skipped: the index set of (q={q}, m={m}, h={h}) has {size} "
            "exponents, more than the maximal-set limit 65536"
        ]

    def test_zero_code_is_an_error(self, capsys):
        code, out, err = run(capsys, "bounds", "2", "2", "1", "--variant", "omega_bar")
        assert code == 2
        assert out == "" and "zero code" in err

    def test_meet_prints_exact(self, capsys):
        code, out, _ = run(capsys, "bounds", "2", "6", "2", "--variant", "omega_bar")
        assert code == 0
        assert "exact = 14  [generic-lower-doubled+divisor-witness]" in out

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "bounds", "3", "5", "1", "--variant", "omega_bar")
        assert code == 0
        assert "d_bar" in out and "upper = 10" in out

    @pytest.mark.parametrize("argv, row", [(("2", "5", "1"), "2,5,1,omega,3,3,3"),
                                           (("3", "5", "2", "--variant", "omega_bar"),
                                            "3,5,2,omega_bar,26,44,")])
    def test_csv(self, capsys, argv, row):
        # an empty last cell when no source gives the exact value
        code, out, _ = run(capsys, "bounds", *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["q,m,h,variant,lower,upper,exact", row]

    def test_text_note_on_a_skipped_divisor_search(self, capsys):
        code, out, _ = run(capsys, "bounds", "2", "30", "10")
        assert code == 0
        assert out.splitlines()[-1] == (
            "  note: divisor search skipped: the index set of (q=2, m=30, h=10) has 53009101 "
            "exponents, more than the maximal-set limit 65536"
        )


class TestSearchE:
    def test_342(self, capsys):
        code, out, _ = run(capsys, "search-e", "3", "4", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["divisors"] == [16, 40]

    def test_362_includes_13(self, capsys):
        code, out, _ = run(capsys, "search-e", "3", "6", "2", "--format", "json")
        assert 13 in json.loads(out)["divisors"]

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "search-e", "2", "3", "1", "--max-e", "6", "--format", "json")
        assert json.loads(out)["divisors"] == []

    def test_capped_search_skips_the_finisher(self, capsys, monkeypatch):
        # 7^43 - 1 has the stage-1 divisors 1, 2, 3, 6; a search capped at 6
        # needs no later divisor, so it splits no cofactor, even with an
        # empty curve table
        monkeypatch.setattr(nt, "_ECM_ROUNDS", ())
        nt._finish.cache_clear()
        try:
            code, out, err = run(capsys, "search-e", "7", "43", "1", "--max-e", "6", "--format", "json")
        finally:
            nt._finish.cache_clear()
        assert code == 0, err
        assert json.loads(out)["divisors"] == []

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "search-e", "3", "4", "2", "--format", "csv")
        assert out.splitlines() == ["q,m,h,e", "3,4,2,16", "3,4,2,40"]

    @pytest.mark.parametrize("argv, lines", [
        (("3", "4", "2"), ["divisors e of n = 80 with e dividing no weight-<= 2 exponent:", "  [16, 40]"]),
        (("2", "3", "1", "--max-e", "6"),
         ["divisors e of n = 7 with e dividing no weight-<= 1 exponent:", "  none"]),
    ])
    def test_text(self, capsys, argv, lines):
        code, out, _ = run(capsys, "search-e", *argv)
        assert code == 0
        assert out.splitlines() == lines

    @pytest.mark.parametrize(
        "argv,message",
        [(("6", "3", "1"), "6 is not a prime power"), (("2", "3", "5"), "need 1 <= h <= m-1 = 2, got 5")],
    )
    def test_outside_the_domain(self, capsys, argv, message):
        code, out, err = run(capsys, "search-e", *argv)
        assert code == 2
        assert out == "" and err == f"error: {message}\n"

    def test_past_128_bits_fails_before_factoring(self, capsys, monkeypatch):
        def no_factoring(x, **kwargs):
            raise AssertionError(f"{x} was factored before the parameters were checked")

        monkeypatch.setattr(nt, "factorize", no_factoring)
        monkeypatch.setattr(nt, "_factor", no_factoring)  # the unchecked body the library itself calls
        code, out, err = run(capsys, "search-e", "7", "46", "1")
        assert code == 2
        assert out == "" and err == "error: 7^46 - 1 exceeds the supported 128-bit range\n"

    def test_maximal_set_too_large(self, capsys):
        # the index set of (2, 40, 20) has about 6 * 10^11 exponents
        start = time.perf_counter()
        code, out, err = run(capsys, "search-e", "2", "40", "20")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert err.startswith("error: the index set of (q=2, m=40, h=20) has ")
        assert "more than the maximal-set limit 65536" in err


@pytest.mark.parametrize("command", ["code", "bounds", "search-e"])
@pytest.mark.parametrize("m", [10**7, 4 * 10**7])
def test_long_m_rejected_promptly(capsys, command, m):
    # q^m is never built: m alone puts 3^m - 1 past 128 bits
    start = time.perf_counter()
    code, out, err = run(capsys, command, "3", str(m), "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: 3^{m} - 1 exceeds the supported 128-bit range\n"


class TestTables:
    def test_csv_cells(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,a,l,e,d_lower,d_upper"
        assert "7,2,3,9,8,13" in lines
        assert "25,22,23,47,26,49" in lines
        assert "8,,,,9,15" in lines  # emitted but with no admissible offsets

    def test_json_block_count(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "json")
        blocks = json.loads(out)
        assert [b["q"] for b in blocks] == [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

    def test_custom_range(self, capsys):
        code, out, _ = run(capsys, "tables", "--q-min", "13", "--q-max", "13", "--format", "json")
        blocks = json.loads(out)
        assert len(blocks) == 1
        assert [(r["a"], r["l"], r["e"]) for r in blocks[0]["rows"]] == [(5, 3, 18), (10, 11, 23)]

    def test_q_max_above_the_table_bound_is_refused_at_once(self, capsys, monkeypatch):
        # q_max 2^13 is the last one accepted; above it the refusal comes
        # before any prime-power test or unit group
        assert [b.q for b in bd.table_rows(8192, 8192)] == [8192]
        monkeypatch.setattr(bd, "is_prime_power", lambda q: pytest.fail("table work before the refusal"))
        start = time.perf_counter()
        code, out, err = run(capsys, "tables", "--q-max", "8193")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: q_max = 8193 exceeds the table bound 8192 (2^13)\n"
        with pytest.raises(TooLarge, match="exceeds the table bound 8192"):
            bd.table_rows(7, 10**9)


class TestVerifyPaper:
    def test_only_tables(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "tables")
        assert code == 0
        assert "PASS" in out and "2.1" in out
        assert "FAIL" not in out

    def test_only_packing_json(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "5", "--format", "json")
        assert code == 0
        results = json.loads(out)
        assert all(r["passed"] for r in results)

    def test_corrupted_golden_fails_the_gate(self, capsys, monkeypatch):
        from rmcodes import verify

        bogus = dict(verify.REFERENCE_TABLE_CELLS)
        bogus[7] = [(3, 3, 10)]
        monkeypatch.setattr(verify, "REFERENCE_TABLE_CELLS", bogus)
        code, out, _ = run(capsys, "verify-paper", "--only", "tables")
        assert code == 1
        assert "FAIL" in out and "(3, 3, 10)" in out
        # python -O strips assert statements; the checks must fail there too
        script = (
            "import sys\n"
            "from rmcodes import cli, verify\n"
            "verify.REFERENCE_TABLE_CELLS[7] = [(99, 99, 99)]\n"
            "sys.exit(cli.main(['verify-paper', '--only', 'tables']))\n"
        )
        src = str(Path(rmcodes.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL" in proc.stdout and "(99, 99, 99)" in proc.stdout

    # a dotted value must name a check or a runtime row: 3.9 and 3.x name none
    # in group 3, and group 3 has no runtime row; an empty value names no group
    @pytest.mark.parametrize("only", ["bogus", "9", "9.1", "3.9", "3.x", "3.runtime", ""])
    def test_unknown_group_is_a_usage_error(self, capsys, only):
        code, out, err = run(capsys, "verify-paper", "--only", only)
        assert code == 2
        assert "unknown check group" in err and "checks passed" not in out

    def test_check_id_selects_its_group(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "3.5")
        assert code == 0
        assert "3.1" in out and "3.7" in out and "2.1" not in out
        code, out, _ = run(capsys, "verify-paper", "--only", "2.runtime")
        assert code == 0
        assert "2.1" in out and "2.runtime" in out and "3.1" not in out

    def test_internal_error_is_a_failed_check(self, capsys, monkeypatch):
        # with lambda(e) as the screen's exponent every unit passes, and the
        # first admitted offset of even order breaks table_rows' cross-check
        init = nt.UnitGroup.__init__

        def admit_all(self, e):
            init(self, e)
            self.carmichael_odd = self.carmichael

        monkeypatch.setattr(nt.UnitGroup, "__init__", admit_all)
        code, out, err = run(capsys, "verify-paper", "--only", "2")
        assert code == 1 and "Traceback" not in err
        lines = {line.split()[1]: line for line in out.splitlines() if line[:4] in ("PASS", "FAIL")}
        assert sorted(lines) == ["2.1", "2.2", "2.3", "2.runtime"]
        for cid in ("2.1", "2.2", "2.3"):
            assert lines[cid].startswith("FAIL") and "but passed the odd-order screen" in lines[cid]
        assert lines["2.runtime"].startswith("PASS")


def test_per_check_time_limit(monkeypatch):
    # every check of a group with a per-check limit is held to it
    monkeypatch.setattr(verify, "PER_CHECK_TIME_LIMITS", {"3": 0.0})
    results = verify.run_checks(only="3")
    assert [r.cid for r in results] == [f"3.{i}" for i in range(1, 8)]
    for r in results:
        assert not r.passed and r.detail.endswith(" [exceeded per-check time limit 0s]"), r


def test_runtime_detail_names_only_the_limit(monkeypatch):
    # a group's time is in its seconds field, so two runs of the same code
    # differ in no detail, even under clocks of different speeds
    details, seconds = [], []
    for step in (0.001, 0.01):
        ticks = itertools.count()
        monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * step))
        rows = [r for r in verify.run_checks(only="1") if r.cid.endswith(".runtime")]
        details.append([(r.cid, r.passed, r.detail) for r in rows])
        seconds.append([r.seconds for r in rows])
    assert details[0] == details[1] == [("1.runtime", True, "1s allowed")]
    assert seconds[0] != seconds[1]


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "tables", "--format", "csv")
    _, second, _ = run(capsys, "tables", "--format", "csv")
    assert first == second
    _, b1, _ = run(capsys, "bounds", "3", "4", "2", "--format", "json")
    _, b2, _ = run(capsys, "bounds", "3", "4", "2", "--format", "json")
    assert b1 == b2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-paper", "--format", "csv"),
        ("tables", "--seed", "1"),
        ("search-e", "3", "4", "2", "--max-n", "100"),
        ("code", "3", "2", "1", "--max-messages", "100"),
        ("bounds", "3", "2", "1", "--max-n", "100"),
    ],
)
def test_flags_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    from rmcodes import cli

    calls = [
        ("code", "3", "2", "1", "--format", "json"),
        ("bounds", "3", "4", "2"),
        ("search-e", "3", "4", "2", "--format", "csv"),
        ("tables", "--q-min", "7", "--q-max", "16"),
        ("code", "2", "4", "1", "--variant", "omega_bar"),
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()
    for i, argv in enumerate(calls):
        assert run(capsys, *argv) == fresh[i], argv
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--seed", str(i)])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err
