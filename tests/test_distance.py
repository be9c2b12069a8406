import random
import time
from functools import cache
from itertools import product

import pytest

from rmcodes import distance as ds
from rmcodes.bounds import generic_bounds
from rmcodes.codes import VARIANTS, CodeSpec, build_code, encode, is_member, quotient_codeword
from rmcodes.cyclotomy import QadicParams, index_set
from rmcodes.gf import build_field, poly_mul, poly_normalize
from rmcodes.ntheory import prime_power_split
from rmcodes.distance import (
    SearchBudget,
    dual_transform_distance,
    exact_distance,
    exhaustive_distance,
    find_weight_witness,
    weight_distribution_from_dual,
    witness_upper_bound,
)
from rmcodes.codes import Codeword
from rmcodes.errors import InternalError, TooLarge
from rmcodes.verify import BARRED_GRID, GRID


GOLDEN = [
    (CodeSpec(2, 3, 1), 3),
    (CodeSpec(2, 4, 1), 3),
    (CodeSpec(2, 3, 2), 7),
    (CodeSpec(3, 2, 1), 4),
    (CodeSpec(2, 4, 1, "omega_bar"), 6),
]


class TestExhaustive:
    @pytest.mark.parametrize("spec,expected", GOLDEN)
    def test_goldens(self, spec, expected):
        inst = build_code(spec)
        result = exhaustive_distance(inst)
        assert result.value == expected
        assert result.via == "enumeration:message-enumeration"
        assert result.enumerated == spec.q**inst.k - 1
        assert dual_transform_distance(inst).enumerated == spec.q ** (inst.n - inst.k) - 1
        assert result.witness.weight == expected
        assert is_member(inst, result.witness.coeffs)

    def test_budget_exceeded(self):
        inst = build_code(CodeSpec(3, 3, 1))
        with pytest.raises(TooLarge, match=r"q\^k = 3\^20 exceeds the message budget 16777216"):
            exhaustive_distance(inst)
        small = build_code(CodeSpec(3, 2, 1))
        with pytest.raises(TooLarge, match=r"q\^k = 3\^4 exceeds the message budget 10"):
            exhaustive_distance(small, SearchBudget(max_messages=10))

    def test_zero_code(self):
        inst = build_code(CodeSpec(2, 3, 1, "omega_bar"))
        with pytest.raises(ValueError):
            exhaustive_distance(inst)

    def test_within_generic_bounds(self):
        for spec, _ in GOLDEN:
            if spec.variant != "omega":
                continue
            inst = build_code(spec)
            report = generic_bounds(spec.q, spec.m, spec.h)
            d = exhaustive_distance(inst).value
            assert report.lower.value <= d <= report.upper.value


def _grid_dimensions():
    """(spec, k) for every GRID point of both variants, from the zero-set size alone."""
    out = []
    for variant in VARIANTS:
        for q, m, h in GRID:
            params = QadicParams(q, m)
            zeros = set(index_set(params, h))
            if variant == "omega_bar":
                zeros |= {0, *(params.n - a for a in zeros)}
            out.append((CodeSpec(q, m, h, variant), params.n - len(zeros)))
    return out


SMALL = 1 << 12
MESSAGE_SIDE = [(s, k) for s, k in _grid_dimensions() if k and s.q**k <= SMALL]
BOTH_SIDES = [s for s, k in _grid_dimensions() if k and max(s.q**k, s.q ** (s.n - k)) <= 1 << 20]

# _CHUNK bounds the messages that one pass of the kernel covers: a single
# word, one low digit, 32 messages, and the default
CHUNKS = {"word": lambda q: 1, "digit": lambda q: q, "32": lambda q: 32, "default": lambda q: ds._CHUNK}


def _brute_force(q, n, dim, weight_of):
    """Weight histogram over all q^dim messages, and (weight, message) of the
    least message, read as the integer sum m_i q^i, of least nonzero weight."""
    hist = [0] * (n + 1)
    least = None  # (weight, reversed message), so tuple order is integer order
    for msg in product(range(q), repeat=dim):
        weight = weight_of(msg)
        hist[weight] += 1
        if any(msg) and (least is None or (weight, msg[::-1]) < least):
            least = (weight, msg[::-1])
    return hist, (least[0], least[1][::-1])


def _spec_id(spec):
    return f"{spec.q}-{spec.m}-{spec.h}-{spec.variant}"


@cache
def _arbitrary_cases(q):
    """Seeded random g with their brute-force answers: (g, n, dim, hist, least)."""
    ctx = build_field(*prime_power_split(q))
    rng = random.Random(q)
    max_dim = max(d for d in range(1, 13) if q**d <= SMALL)
    cases = []
    for _ in range(40):
        deg = rng.randrange(1, 6) if rng.random() < 0.5 else rng.randrange(6, 71)
        dim = rng.randrange(1, max_dim + 1)
        g = tuple(rng.randrange(q) for _ in range(deg)) + (rng.randrange(1, q),)
        n = deg + dim

        def weight(msg):
            return sum(1 for c in poly_mul(ctx, poly_normalize(msg), g) if c)

        cases.append((g, n, dim, *_brute_force(q, n, dim, weight)))
    return ctx, cases


class TestKernel:
    """The bit-sliced kernel against independent enumerations.

    The kernel walks the messages in chunks that share their high digits.
    Each brute-force case runs with several chunk sizes, so the histogram is
    summed across chunks and the least message is chosen across them.
    """

    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    @pytest.mark.parametrize("spec,k", MESSAGE_SIDE, ids=[_spec_id(s) for s, _ in MESSAGE_SIDE])
    def test_matches_brute_force(self, spec, k, chunk, monkeypatch):
        monkeypatch.setattr(ds, "_CHUNK", chunk(spec.q))
        inst = build_code(spec)
        assert inst.k == k
        q, n = spec.q, inst.n
        hist, least = _brute_force(q, n, k, lambda msg: encode(inst, msg).weight)
        got_hist, got_msg = ds._multiples(inst.small, inst.gen_poly, n, k, q)
        assert got_hist == hist
        assert tuple(got_msg) == least[1]
        result = exhaustive_distance(inst)
        assert result.value == least[0]
        assert result.witness == encode(inst, got_msg)

    # p = 2 with s = 1, 2, 3; odd p with s = 1 and s = 2
    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 31])
    def test_arbitrary_polynomials(self, q, chunk, monkeypatch):
        """Seeded random g, whose lightest multiples are mostly not g itself.

        Degrees reach 70, so n reaches 82 and the weight counter needs 7 bit
        planes.
        """
        monkeypatch.setattr(ds, "_CHUNK", chunk(q))
        ctx, cases = _arbitrary_cases(q)
        for g, n, dim, hist, least in cases:
            got_hist, got_msg = ds._multiples(ctx, g, n, dim, q)
            assert got_hist == hist
            assert tuple(got_msg) == least[1]

    @pytest.mark.parametrize("spec", BOTH_SIDES, ids=_spec_id)
    def test_macwilliams_both_sides(self, spec):
        inst = build_code(spec)
        hist, _ = ds._multiples(inst.small, inst.gen_poly, inst.n, inst.k, spec.q)
        assert hist == weight_distribution_from_dual(inst)

    def test_multiples_must_fit_the_length(self):
        ctx = build_field(3, 1)
        with pytest.raises(ValueError):
            ds._multiples(ctx, (1, 2, 1), 4, 3, 3)

    def test_empty_message_space(self):
        # the general walk at dim 0: one lane, no digits, the zero word alone
        inst = build_code(CodeSpec(2, 3, 1))
        assert ds._multiples(inst.small, inst.gen_poly, inst.n, 0, 2) == ([1] + [0] * inst.n, [])

    def test_zero_code_through_dispatch(self):
        inst = build_code(CodeSpec(2, 3, 1, "omega_bar"))
        with pytest.raises(ValueError):
            exact_distance(inst)


def _side(inst, side):
    """(generator, dimension, nonzeros) of the code's message or dual side."""
    n = inst.n
    if side == "message":
        return inst.gen_poly, inst.k, set(range(n)).difference(inst.zero_exponents)
    return ds.dual_generator(inst), n - inst.k, {-a % n for a in inst.zero_exponents}


def _orbit_sides():
    """(spec, side) for both sides of the GRID omega and BARRED_GRID omega_bar
    codes with 1 <= dim and q^dim <= 2^20 words on that side."""
    barred = {CodeSpec(q, m, h, "omega_bar") for q, m, h in BARRED_GRID}
    out = []
    for spec, k in _grid_dimensions():
        if spec.variant == "omega" or spec in barred:
            for side, dim in (("message", k), ("dual", spec.n - k)):
                if dim and spec.q**dim <= 1 << 20:
                    out.append((spec, side))
    return out


ORBIT_SIDES = _orbit_sides()


def _spy_dims(monkeypatch):
    """Record (dimension, number of fixed words) of every ``_multiples`` call."""
    dims, walk = [], ds._multiples

    def spy(ctx, g, n, dim, q, **kwargs):
        dims.append((dim, len(kwargs.get("offsets", ((),)))))
        return walk(ctx, g, n, dim, q, **kwargs)

    monkeypatch.setattr(ds, "_multiples", spy)
    return dims


class TestOrbits:
    """The orbit histogram and the target walk against the full walk of ``_multiples``."""

    @pytest.mark.parametrize("spec,side", ORBIT_SIDES,
                             ids=[f"{_spec_id(s)}-{side}" for s, side in ORBIT_SIDES])
    def test_orbit_histogram_matches_the_full_walk(self, spec, side):
        inst = build_code(spec)
        g, dim, nonzeros = _side(inst, side)
        hist, msg = ds._multiples(inst.small, g, inst.n, dim, spec.q)
        assert ds._orbit_histogram(inst, g, dim, nonzeros) == hist
        d = next(w for w in range(1, inst.n + 1) if hist[w])
        assert ds._multiples(inst.small, g, inst.n, dim, spec.q, target=d)[1] == msg

    def test_sides_cover_the_grid(self):
        # 17 message and 20 dual sides; omega_bar(2,3,1), a zero code, has a dual side only
        sides = [side for _, side in ORBIT_SIDES]
        assert (sides.count("message"), sides.count("dual")) == (17, 20)

    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    def test_target_walk_at_every_chunk_size(self, chunk, monkeypatch):
        monkeypatch.setattr(ds, "_CHUNK", chunk(2))
        inst = build_code(CodeSpec(2, 5, 2))
        hist, msg = ds._multiples(inst.small, inst.gen_poly, inst.n, inst.k, 2)
        assert ds._multiples(inst.small, inst.gen_poly, inst.n, inst.k, 2, target=7)[1] == msg
        assert exhaustive_distance(inst).witness == encode(inst, msg)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_offset_matches_brute_force(self, q):
        """Seeded random g and fixed words w: the walk of m g + w, and of two
        words over one mask table against the sum of their two walks."""
        ctx, cases = _arbitrary_cases(q)
        rng = random.Random(-q)
        for g, n, dim, _, _ in cases[:10]:
            words = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(2)]

            def walk(w):
                def weight(msg):
                    prod = poly_mul(ctx, poly_normalize(msg), g)
                    return sum(1 for j in range(n) if ctx.add(prod[j] if j < len(prod) else 0, w[j]))

                return _brute_force(q, n, dim, weight)[0]

            first, second = map(walk, words)
            assert ds._multiples(ctx, g, n, dim, q, offsets=[words[0]])[0] == first
            both = ds._multiples(ctx, g, n, dim, q, offsets=words)[0]
            assert both == [a + b for a, b in zip(first, second)]

    def test_several_classes_per_coset(self, monkeypatch):
        # the dual nonzeros of omega(5,2,1) are the cosets of 19, 14, 9 and 4,
        # of ord 24, 12, 8 and 6: 1, 2, 3 and 4 classes of F_25^*
        inst = build_code(CodeSpec(5, 2, 1))
        g, dim, nonzeros = _side(inst, "dual")
        full, _ = ds._multiples(inst.small, g, inst.n, dim, 5)
        dims = _spy_dims(monkeypatch)
        assert ds._orbit_histogram(inst, g, dim, nonzeros) == full
        # one kernel call per coset, with one fixed word per class
        assert dims == [(6, 1), (4, 2), (2, 3), (0, 4)]

    def test_zero_coset_has_q_minus_1_classes(self, monkeypatch):
        # the dual nonzeros of omega_bar(3,2,1) are its zeros {0} u I u -I: the
        # cosets of 1 and 5 (ord 8, one class), of 2 (ord 4, two classes) and
        # {0} (ord 1, q - 1 = 2 classes)
        inst = build_code(CodeSpec(3, 2, 1, "omega_bar"))
        g, dim, nonzeros = _side(inst, "dual")
        assert 0 in nonzeros
        full, _ = ds._multiples(inst.small, g, inst.n, dim, 3)
        dims = _spy_dims(monkeypatch)
        assert ds._orbit_histogram(inst, g, dim, nonzeros) == full
        assert dims == [(5, 1), (3, 1), (1, 2), (0, 2)]

    def test_hamming_dual_walks_one_word(self, monkeypatch):
        # the dual of the [1023, 1013, 3] Hamming code is one primitive orbit
        inst = build_code(CodeSpec(2, 10, 1))
        dims = _spy_dims(monkeypatch)
        dist = weight_distribution_from_dual(inst)
        assert dims == [(0, 1)]
        n = inst.n
        assert dist[3] == n * (n - 1) // 6

    def test_nonzeros_must_be_the_side(self):
        inst = build_code(CodeSpec(2, 4, 1))
        g, dim, nonzeros = _side(inst, "dual")
        assert nonzeros == {7, 11, 13, 14}  # -{1, 2, 4, 8}, one coset
        for wrong in ({11, 13, 14}, nonzeros | {0}):
            with pytest.raises(InternalError, match="no union of cosets"):
                ds._orbit_histogram(inst, g, dim, wrong)
        # a coset of the right size that is a zero of g, not a nonzero
        with pytest.raises(InternalError, match="do not account for every word"):
            ds._orbit_histogram(inst, g, dim, {1, 2, 4, 8})


class TestWitnessUpperBound:
    def test_quotient_witness(self):
        inst = build_code(CodeSpec(3, 4, 2))
        result = witness_upper_bound(inst, [quotient_codeword(3, 4, 2, 16)])
        assert result.value == 16
        assert result.via == "candidate-witnesses"

    def test_witness_at_least_exhaustive(self):
        inst = build_code(CodeSpec(3, 2, 1))
        witness = quotient_codeword(3, 2, 1, 4)
        assert witness_upper_bound(inst, [witness]).value >= exhaustive_distance(inst).value

    def test_empty(self):
        inst = build_code(CodeSpec(3, 2, 1))
        with pytest.raises(ValueError, match="no candidate codewords supplied"):
            witness_upper_bound(inst, [])

    def test_not_a_member(self):
        inst = build_code(CodeSpec(3, 2, 1))
        bad = Codeword((1,) + (0,) * (inst.n - 1))
        with pytest.raises(ValueError, match="candidate of weight 1 is not in the code"):
            witness_upper_bound(inst, [bad])

    def test_out_of_range_entries_rejected(self):
        """A negative index must not wrap around to a field element and pass as a member."""
        inst = build_code(CodeSpec(3, 2, 1))
        with pytest.raises(ValueError, match="field element indices"):
            witness_upper_bound(inst, [Codeword((-2, 0) * 4)])

    def test_zero_word_rejected(self):
        """e = n gives F = 1, and the mirrored quotient word is then zero."""
        inst = build_code(CodeSpec(2, 4, 1, "omega_bar"))
        zero = quotient_codeword(2, 4, 1, 15, barred=True)
        assert zero.weight == 0
        with pytest.raises(ValueError, match="zero word"):
            witness_upper_bound(inst, [zero])

    def test_weight_is_derived_from_coeffs(self):
        inst = build_code(CodeSpec(2, 4, 1, "omega_bar"))
        w = quotient_codeword(2, 4, 1, 3, barred=True)
        with pytest.raises(TypeError):
            Codeword(w.coeffs, 1)
        assert Codeword(w.coeffs).weight == 6
        assert witness_upper_bound(inst, [Codeword(w.coeffs)]).value == 6


class TestDualTransform:
    @pytest.mark.parametrize("spec,expected", GOLDEN)
    def test_agrees_with_message_enumeration(self, spec, expected):
        inst = build_code(spec)
        if inst.spec.q ** (inst.n - inst.k) > 1 << 20:
            pytest.skip("dual side too large")
        assert dual_transform_distance(inst).value == expected

    def test_3_3_1(self):
        inst = build_code(CodeSpec(3, 3, 1))
        result = dual_transform_distance(inst)
        assert result.value == 4
        assert result.via == "enumeration:dual-transform"
        assert result.witness is not None
        assert result.witness.weight == 4
        assert is_member(inst, result.witness.coeffs)

    def test_long_hamming_distribution_is_fast(self):
        # the [8191, 8178, 3] Hamming code: its dual has two nonzero weights,
        # so the transform sums two Krawtchouk columns, not all n + 1
        inst = build_code(CodeSpec(2, 13, 1))
        start = time.perf_counter()
        dist = weight_distribution_from_dual(inst)
        assert time.perf_counter() - start < 5.0
        n = inst.n
        assert dist[1] == dist[2] == 0
        assert dist[3] == n * (n - 1) // 6 == 11_180_715

    def test_distribution_checks(self):
        inst = build_code(CodeSpec(3, 2, 1))
        dist = weight_distribution_from_dual(inst)
        assert dist[0] == 1
        assert sum(dist) == 3**inst.k
        assert dist[1] == dist[2] == dist[3] == 0
        assert dist[4] > 0

    def test_dual_words_orthogonal_to_code(self):
        import random

        from rmcodes.distance import dual_generator
        from rmcodes.codes import encode
        from rmcodes.gf import poly_mul, poly_normalize

        inst = build_code(CodeSpec(3, 3, 1))
        dgen = dual_generator(inst)
        small, n = inst.small, inst.n
        rng = random.Random(41)
        for _ in range(25):
            msg = [rng.randrange(3) for _ in range(inst.k)]
            cw = encode(inst, msg).coeffs
            dmsg = poly_normalize([rng.randrange(3) for _ in range(n - inst.k)])
            dword = poly_mul(small, dmsg, dgen)
            dword = tuple(dword) + (0,) * (n - len(dword))
            inner = 0
            for a, b in zip(cw, dword):
                inner = small.add(inner, small.mul(a, b))
            assert inner == 0


class TestWeightWitness:
    def test_below_distance_yields_none(self):
        inst = build_code(CodeSpec(3, 2, 1))
        assert find_weight_witness(inst, 3) is None
        assert find_weight_witness(inst, 4) is not None

    def test_search_cap(self, monkeypatch):
        inst = build_code(CodeSpec(3, 3, 1))
        monkeypatch.setattr(ds, "_MAX_CANDIDATES", 10)
        assert find_weight_witness(inst, 10) is None

    def test_gate(self):
        inst = build_code(CodeSpec(3, 2, 1))
        with pytest.raises(ValueError):
            find_weight_witness(inst, 0)


class TestExactDispatch:
    def test_message_side(self):
        result = exact_distance(build_code(CodeSpec(3, 2, 1)))
        assert result.via == "enumeration:message-enumeration"

    def test_dual_side(self):
        result = exact_distance(build_code(CodeSpec(3, 3, 1)))
        assert result.via == "enumeration:dual-transform"
        assert result.value == 4

    def test_neither_fits(self):
        inst = build_code(CodeSpec(3, 3, 1))
        with pytest.raises(TooLarge, match=r"neither q\^k = 3\^20 nor q\^\(n-k\) = 3\^6 fits the budget 8"):
            exact_distance(inst, SearchBudget(max_messages=8))

    def test_json(self):
        result = exact_distance(build_code(CodeSpec(2, 3, 1)))
        doc = result.to_json()
        assert doc["value"] == 3 and doc["via"] == "enumeration:message-enumeration"
