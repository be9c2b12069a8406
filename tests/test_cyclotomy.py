import random
import time

import pytest

from rmcodes import cyclotomy
from rmcodes.cyclotomy import (
    QadicParams,
    coset_of,
    coset_partition,
    index_set,
    index_set_size,
    maximal_representatives,
    q_weight,
)
from rmcodes.errors import TooLarge


def brute_index_set(q, m, h):
    """Independent oracle: scan all of [1, n-1] counting nonzero digits."""
    n = q**m - 1
    out = []
    for a in range(1, n):
        x, w = a, 0
        for _ in range(m):
            if x % q:
                w += 1
            x //= q
        if w <= h:
            out.append(a)
    return tuple(out)


class TestDigitsAndWeight:
    def test_128_bit_range(self):
        QadicParams(2, 128)
        with pytest.raises(TooLarge, match=r"7\^46 - 1 exceeds the supported 128-bit range"):
            QadicParams(7, 46)
        with pytest.raises(TooLarge, match=r"2\^129 - 1 exceeds"):
            QadicParams(2, 129)

    def test_q_below_two(self):
        with pytest.raises(ValueError, match="need an int q >= 2, got 1"):
            QadicParams(1, 3)

    def test_long_m_rejected_promptly(self):
        # 3^(10^7) has about 16 million bits; m alone rules it out
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=r"3\^10000000 - 1 exceeds the supported 128-bit range"):
            QadicParams(3, 10**7)
        assert time.perf_counter() - start < 1.0

    def test_non_integer_parameters_and_exponents(self):
        for q, m in ((2, 3.5), (2.0, 3), (3, 2.0), ("2", 3), (True, 3), (2, True)):
            with pytest.raises(ValueError, match="need an int (q|m) >= 2"):
                QadicParams(q, m)
        # QadicParams(2.0, 3) would compare and hash equal to the cached (2, 3)
        assert index_set(QadicParams(2, 3), 1) == (1, 2, 4)
        with pytest.raises(ValueError, match="need an int (q|m) >= 2"):
            index_set(QadicParams(2.0, 3), 1)
        params = QadicParams(2, 3)
        for a in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="need an int a"):
                coset_of(params, a)

    def test_weight_examples(self):
        params = QadicParams(3, 4)
        assert q_weight(params, 20) == 2
        assert q_weight(params, -1) == 4  # -1 = 79 = 1 + 2*3 + 2*9 + 2*27
        assert q_weight(params, 0) == 0
        assert q_weight(params, params.n) == 0

    def test_weight_invariant_under_q_shift(self):
        rng = random.Random(9)
        for q, m in [(2, 6), (3, 5), (4, 4), (5, 3)]:
            params = QadicParams(q, m)
            for _ in range(200):
                a = rng.randrange(params.n)
                assert q_weight(params, a * q) == q_weight(params, a)


class TestIndexSets:
    def test_small_goldens(self):
        assert index_set(QadicParams(2, 3), 1) == (1, 2, 4)
        assert index_set(QadicParams(3, 2), 1) == (1, 2, 3, 6)

    def test_cardinality_formula_and_brute_force(self):
        for q, m, h in [(3, 4, 2), (2, 5, 3), (4, 3, 2), (3, 3, 1)]:
            got = index_set(QadicParams(q, m), h)
            assert got == brute_index_set(q, m, h)
            assert len(got) == index_set_size(QadicParams(q, m), h)
        assert index_set_size(QadicParams(3, 4), 2) == 32

    def test_bad_range(self):
        with pytest.raises(ValueError, match="need 1 <= h <= m-1 = 3, got 0"):
            index_set(QadicParams(3, 4), 0)
        with pytest.raises(ValueError, match="need 1 <= h <= m-1 = 3, got 4"):
            index_set(QadicParams(3, 4), 4)

    def test_materialization_guard(self):
        # the size formula alone triggers the guard, before any generation
        with pytest.raises(TooLarge, match="index set too large to materialize"):
            index_set(QadicParams(2, 40), 20)
        # spot-check the representatives against the formula-driven count on
        # a midsize case
        params = QadicParams(2, 16)
        reps = coset_partition(params, 2).representatives
        total = sum(len(coset_of(params, r)) for r in reps)
        assert total == index_set_size(params, 2)

    def test_partition_size_limit(self, monkeypatch):
        # the same gate as index_set's: (3, 4, 2) has 32 exponents
        coset_partition.cache_clear()
        monkeypatch.setattr(cyclotomy, "MATERIALIZE_LIMIT", 31)
        with pytest.raises(TooLarge, match="index set too large to materialize"):
            coset_partition(QadicParams(3, 4), 2)
        monkeypatch.setattr(cyclotomy, "MATERIALIZE_LIMIT", 32)
        assert coset_partition(QadicParams(3, 4), 2).representatives == (1, 2, 4, 5, 7, 8, 10, 11, 20)
        monkeypatch.undo()
        # (2, 64, 32) has about 2^63 exponents: rejected from the size formula
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="index set too large to materialize"):
            coset_partition(QadicParams(2, 64), 32)
        assert time.perf_counter() - start < 1.0

    def test_disjoint_mirror_for_small_h(self):
        for q, m in [(2, 5), (3, 5), (4, 4)]:
            for h in range(1, (m - 1) // 2 + 1):
                params = QadicParams(q, m)
                fwd = set(index_set(params, h))
                back = {params.n - a for a in fwd}
                assert not fwd & back
                assert len(fwd | back | {0}) == 2 * len(fwd) + 1


class TestCosets:
    def test_representative_goldens(self):
        part = coset_partition(QadicParams(3, 4), 2)
        assert part.representatives == (1, 2, 4, 5, 7, 8, 10, 11, 20)
        assert maximal_representatives(QadicParams(3, 4), 2) == (7, 8, 11, 20)

    def test_maximal_362_corrected(self):
        # the printed reference {8, 11, 20, 28, 58} is impossible: 58 has
        # base-3 weight 3, and without the orbit of 19 the class sizes sum
        # to 66 instead of |index set| = 72
        params = QadicParams(3, 6)
        part = coset_partition(params, 2)
        assert q_weight(params, 58) == 3
        assert sum(len(c) for c in part.classes) == 72
        assert part.representatives == (1, 2, 4, 5, 7, 8, 10, 11, 19, 20, 28, 29, 56)
        assert maximal_representatives(params, 2) == (11, 19, 20, 29, 56)

    def test_h1_representatives_are_1_to_q_minus_1(self):
        for q, m in [(3, 2), (3, 5), (4, 3), (5, 4), (7, 3)]:
            part = coset_partition(QadicParams(q, m), 1)
            assert part.representatives == tuple(range(1, q))

    def test_partition_properties(self):
        for q, m, h in [(3, 4, 2), (2, 6, 3), (4, 3, 2)]:
            params = QadicParams(q, m)
            part = coset_partition(params, h)
            union = [x for cls in part.classes for x in cls]
            assert sorted(union) == list(index_set(params, h))
            assert len(set(union)) == len(union)
            for cls in part.classes:
                assert m % len(cls) == 0
                assert cls[0] == min(cls)
                for x in cls:
                    assert (x * q) % params.n in cls

    def test_streaming_matches_partition(self, monkeypatch):
        # every (q, m, h) with q in {2, 3, 4, 5, 7, 8, 9}, q^m - 1 in the
        # 128-bit range and at most 2^12 exponents, so the cosets shorter than
        # m are covered too
        specs = [(q, m, h)
                 for q in (2, 3, 4, 5, 7, 8, 9)
                 for m in range(2, 129) if q**m - 1 <= cyclotomy.EXPONENT_LIMIT
                 for h in range(1, m)
                 if index_set_size(QadicParams(q, m), h) <= 1 << 12]
        assert len(specs) == 773
        walked = []
        walk = cyclotomy.coset_of
        monkeypatch.setattr(cyclotomy, "coset_of", lambda params, a: walked.append(walk(params, a)) or walked[-1])
        short = set()
        for q, m, h in specs:
            params = QadicParams(q, m)
            coset_partition.cache_clear()
            maximal_representatives.cache_clear()
            walked.clear()
            part = coset_partition(params, h)
            # the partition walks each coset exactly once
            assert sorted(walked) == list(part.classes)
            # the per-orbit minima of the materialized index set, independently
            want = sorted({min(coset_of(params, a)) for a in index_set(params, h)})
            assert part.representatives == tuple(want)
            assert maximal_representatives(params, h) == tuple(
                r for r in want if not any(r != s and s % r == 0 for s in want)
            )
            short.update((q, m, h, c) for c in part.classes if len(c) < m)
        assert {(2, 6, 3, (21, 42)), (4, 4, 2, (17, 68)), (2, 8, 4, (85, 170))} <= short

    def test_maximal_set_size_limit(self, monkeypatch):
        # (2, 30, 10) has 53,009,101 exponents: rejected from the size formula
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="has 53009101 exponents, more than the maximal-set limit 65536"):
            maximal_representatives(QadicParams(2, 30), 10)
        assert time.perf_counter() - start < 1.0
        # the limit is on the index set: (3, 4, 2) has 32 exponents
        maximal_representatives.cache_clear()
        monkeypatch.setattr(cyclotomy, "_MAXIMAL_LIMIT", 31)
        with pytest.raises(TooLarge, match="has 32 exponents, more than the maximal-set limit 31"):
            maximal_representatives(QadicParams(3, 4), 2)
        monkeypatch.setattr(cyclotomy, "_MAXIMAL_LIMIT", 32)
        assert maximal_representatives(QadicParams(3, 4), 2) == (7, 8, 11, 20)

    def test_maximal_definition(self):
        for q, m, h in [(3, 4, 2), (3, 6, 2), (2, 6, 2)]:
            params = QadicParams(q, m)
            reps = coset_partition(params, h).representatives
            naive = tuple(
                r for r in reps if not any(r != s and s % r == 0 for s in reps)
            )
            assert maximal_representatives(params, h) == naive

    def test_coset_of(self):
        assert coset_of(QadicParams(3, 4), 11) == (11, 19, 33, 57)
        assert coset_of(QadicParams(3, 6), 19) == (19, 57, 83, 171, 249, 513)


def fold(params: QadicParams, a: int) -> int:
    """a -> (a mod q^m) + floor(a / q^m), repeated, until a < q^m."""
    qm = params.q**params.m
    while a >= qm:
        a = a % qm + a // qm
    return a


class TestFolding:
    def test_folds_into_index_set(self):
        rng = random.Random(21)
        for q, m, h, l in [(3, 2, 1, 3), (3, 4, 2, 2), (2, 4, 2, 3), (4, 2, 1, 2)]:
            params = QadicParams(q, m)
            wide = QadicParams(q, m * l)
            members = set(index_set(params, h))
            # sample wide exponents of weight <= h by explicit digit patterns
            for _ in range(100):
                r = rng.randrange(1, h + 1)
                support = rng.sample(range(m * l), r)
                a = sum(rng.randrange(1, q) * q**i for i in support)
                assert 1 <= q_weight(wide, a) <= h
                folded = fold(params, a)
                assert folded in members
                assert (folded - a) % params.n == 0
