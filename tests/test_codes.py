import json
import time
from itertools import product

import pytest

from rmcodes import codes as cd
from rmcodes import gf
from rmcodes.codes import VARIANTS, CodeSpec, build_code, encode, is_member, quotient_codeword
from rmcodes.cyclotomy import QadicParams, coset_of, coset_partition, index_set
from rmcodes.bounds import search_condition_divisors
from rmcodes.errors import TooLarge
from rmcodes.gf import (
    poly_degree,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_normalize,
    poly_reciprocal,
    poly_xn_minus_1_quotient,
)
from rmcodes.ntheory import prime_power_split
from rmcodes.verify import BARRED_GRID, GRID


def root_failures(inst, exponents=None) -> list[int]:
    """The exponents a, of ``exponents`` or else all n, at which gen(alpha^a) = 0
    disagrees with a being in the zero set."""
    zeros = set(inst.zero_exponents)
    terms = [(j, c) for j, c in enumerate(inst.gen_poly) if c]
    return [a for a in (range(inst.n) if exponents is None else exponents)
            if (inst.emb.evaluate(terms, a) == 0) != (a in zeros)]


class TestCodeSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="need 1 <= h <= m-1 = 1, got 2"):
            CodeSpec(2, 2, 2)  # h > m - 1
        with pytest.raises(ValueError, match="6 is not a prime power"):
            CodeSpec(6, 3, 1)
        with pytest.raises(ValueError, match="need an int m >= 2, got 1"):
            CodeSpec(3, 1, 1)
        with pytest.raises(ValueError, match="variant must be one of"):
            CodeSpec(3, 3, 1, "omega_hat")

    def test_n(self):
        assert CodeSpec(3, 4, 2).n == 80

    # QadicParams refuses a q or m that is not an int, CodeSpec an h
    @pytest.mark.parametrize("args", [(3, 2.0, 1), (3.0, 2, 1), (3, 2, 1.0), ("3", 2, 1), (3, 2, True)])
    def test_non_integer_parameters(self, args):
        with pytest.raises(ValueError, match="need an int (q >= 2|m >= 2|h), got"):
            CodeSpec(*args)


class TestMinimalPoly:
    def test_alpha_over_gf2(self):
        inst = build_code(CodeSpec(2, 3, 1))
        # the coset of 1 is {1, 2, 4}; alpha's minimal polynomial is the modulus
        mp = cd.minimal_poly(inst.emb, coset_of(QadicParams(2, 3), 1))
        assert mp == (1, 1, 0, 1)
        assert poly_degree(mp) == 3

    def test_exponent_zero(self):
        inst2 = build_code(CodeSpec(2, 3, 1))
        inst3 = build_code(CodeSpec(3, 2, 1))
        assert cd.minimal_poly(inst2.emb, coset_of(QadicParams(2, 3), 0)) == (1, 1)
        assert cd.minimal_poly(inst3.emb, coset_of(QadicParams(3, 2), 0)) == (2, 1)

    def test_singleton_coset_gf9(self):
        # 4 * 3 = 12 = 4 mod 8, so the coset of 4 is {4} and alpha^4 = -1
        inst = build_code(CodeSpec(3, 2, 1))
        mp = cd.minimal_poly(inst.emb, coset_of(QadicParams(3, 2), 4))
        assert mp == (1, 1)  # x + 1 = x - (-1)

    def test_degree_is_coset_size(self):
        inst = build_code(CodeSpec(3, 4, 2))
        partition = coset_partition(QadicParams(3, 4), 2)
        for a, orbit in zip(partition.representatives, partition.classes):
            mp = cd.minimal_poly(inst.emb, coset_of(QadicParams(3, 4), a))
            assert poly_degree(mp) == len(orbit)
            assert mp[-1] == 1


class TestBuildCode:
    def test_hamming(self):
        inst = build_code(CodeSpec(2, 3, 1))
        assert (inst.n, inst.k) == (7, 4)
        assert inst.gen_poly == (1, 1, 0, 1)
        assert inst.zero_exponents == (1, 2, 4)

    def test_repetition_dual_side(self):
        inst = build_code(CodeSpec(2, 3, 2))
        assert inst.k == 1
        assert inst.gen_poly == (1,) * 7  # (x^7 - 1)/(x - 1)

    def test_mirrored_binary(self):
        inst = build_code(CodeSpec(2, 4, 1, "omega_bar"))
        assert (inst.n, inst.k) == (15, 6)
        assert len(inst.zero_exponents) == 9
        assert 0 in inst.zero_exponents

    def test_ternary(self):
        inst = build_code(CodeSpec(3, 2, 1))
        assert (inst.n, inst.k) == (8, 4)

    def test_zero_code(self):
        inst = build_code(CodeSpec(2, 3, 1, "omega_bar"))
        assert inst.k == 0
        assert poly_degree(inst.gen_poly) == 7

    def test_too_large(self):
        with pytest.raises(TooLarge, match="n = 2097151 exceeds the construction bound 1048576"):
            build_code(CodeSpec(2, 21, 1))
        with pytest.raises(TooLarge, match="n = 31 exceeds the construction bound 10"):
            build_code(CodeSpec(2, 5, 1), max_n=10)
        assert build_code(CodeSpec(2, 5, 1), max_n=100).n == 31

    @pytest.mark.parametrize("max_n", ["5", 5.5, 100.0, True, False])
    def test_non_integer_max_n_rejected(self, max_n, monkeypatch):
        # refused before the build; a bool is not an int
        monkeypatch.setattr(cd, "_build", None)
        with pytest.raises(ValueError, match=f"need an int max_n or None, got {max_n!r}"):
            build_code(CodeSpec(2, 3, 1), max_n=max_n)

    def test_no_bound_above_the_materialize_limit(self):
        # a build holds tuples of n + 1 coefficients: max_n cannot lift n past 2^26
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"n = {2**100 - 1} exceeds the construction bound {2**26}"):
            build_code(CodeSpec(2, 100, 1), max_n=2**101)
        with pytest.raises(TooLarge, match=f"n = {2**27 - 1} exceeds the construction bound {2**26}"):
            build_code(CodeSpec(2, 27, 1), max_n=2**27)
        assert time.perf_counter() - start < 1.0

    def test_one_build_per_spec(self):
        spec = CodeSpec(3, 4, 2)
        assert build_code(spec, max_n=2**21) is build_code(spec)
        # the bound is checked before the cache: a long spec built under a
        # larger bound is still refused under the default one
        long = CodeSpec(2, 21, 1)
        assert build_code(long, max_n=2**21).n == 2**21 - 1
        with pytest.raises(TooLarge, match="n = 2097151 exceeds the construction bound 1048576"):
            build_code(long)

    def test_gen_divides_xn_minus_1(self):
        for spec in [CodeSpec(3, 4, 2), CodeSpec(4, 3, 1), CodeSpec(3, 4, 1, "omega_bar")]:
            inst = build_code(spec)
            n = inst.n
            xn1 = [0] * (n + 1)
            xn1[0] = inst.small.neg(1)
            xn1[n] = 1
            quot, rem = poly_divmod(inst.small, tuple(xn1), inst.gen_poly)
            assert rem == ()
            assert poly_degree(quot) == inst.k

    @pytest.mark.parametrize(
        "spec",
        [
            CodeSpec(2, 4, 1),
            CodeSpec(2, 4, 1, "omega_bar"),
            CodeSpec(3, 4, 2),
            CodeSpec(3, 4, 2, "omega_bar"),
            CodeSpec(3, 2, 1),
            CodeSpec(4, 2, 1),
            CodeSpec(4, 3, 2, "omega_bar"),
        ],
    )
    def test_roots_exhaustive(self, spec):
        assert root_failures(build_code(spec)) == []

    def test_roots_sampled_large(self):
        inst = build_code(CodeSpec(4, 6, 1))
        sample = set(inst.zero_exponents) | set(range(0, inst.n, inst.n // 64))
        assert root_failures(inst, sample) == []

    @pytest.mark.parametrize("spec", [CodeSpec(3, 4, 2), CodeSpec(2, 4, 1, "omega_bar")])
    def test_roots_catch_a_dropped_factor(self, spec):
        inst = build_code(spec)
        last = inst.zero_representatives[-1]
        factor = cd.minimal_poly(inst.emb, coset_of(spec.params, last))
        gen, rem = poly_divmod(inst.small, inst.gen_poly, factor)
        assert rem == ()
        broken = cd.CodeInstance(
            spec, inst.zero_exponents, gen, inst.check_poly, inst.emb, inst.zero_representatives
        )
        assert root_failures(broken) == list(coset_of(spec.params, last))

    def test_mirrored_zero_set(self):
        inst = build_code(CodeSpec(3, 4, 2, "omega_bar"))
        n = inst.n
        fwd = set(build_code(CodeSpec(3, 4, 2)).zero_exponents)
        assert set(inst.zero_exponents) == {0} | fwd | {n - a for a in fwd}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_set_matches_the_index_set(self, variant):
        # differential: the build takes its zeros from the coset classes, the
        # test from the index set I: I for omega, {0} u I u (n - I) for omega_bar
        built = 0
        for q, m, h in GRID:
            params = QadicParams(q, m)
            zeros = set(index_set(params, h))
            if variant == "omega_bar":
                zeros |= {0, *(params.n - a for a in zeros)}
            inst = build_code(CodeSpec(q, m, h, variant))
            assert poly_mul(inst.small, inst.gen_poly, inst.check_poly) == _xn_minus_1(inst.small, params.n)
            if len(zeros) == params.n:
                continue  # the zero code
            assert inst.zero_exponents == tuple(sorted(zeros)), (q, m, h)
            minima = {min(coset_of(params, a)) for a in zeros}
            assert inst.zero_representatives == tuple(sorted(minima)), (q, m, h)
            built += 1
        assert built == (45 if variant == "omega" else 34)  # 11 mirrored codes are zero

    @pytest.mark.parametrize(
        "spec", [CodeSpec(3, 4, 2), CodeSpec(4, 3, 2, "omega_bar")], ids=["omega", "omega_bar"]
    )
    def test_zero_representatives_are_coset_minima(self, spec):
        inst = build_code(spec)
        minima = {coset_of(spec.params, a)[0] for a in inst.zero_exponents}
        assert inst.zero_representatives == tuple(sorted(minima))

    @pytest.mark.parametrize(
        "qmh",
        [qmh for qmh in GRID if qmh not in ((4, 6, 4), (4, 6, 5))],
        ids=lambda qmh: "-".join(map(str, qmh)),
    )
    def test_mirrored_generator_matches_lcm_reference(self, qmh):
        # the definition (x - 1) * lcm(g, g^), with lcm = g * g^ / gcd(g, g^)
        plain = build_code(CodeSpec(*qmh))
        F, g = plain.small, plain.gen_poly
        ghat = poly_reciprocal(F, g)
        lcm, rem = poly_divmod(F, poly_mul(F, g, ghat), poly_gcd(F, g, ghat))
        assert rem == ()
        reference = poly_mul(F, (F.neg(1), 1), lcm)
        assert build_code(CodeSpec(*qmh, "omega_bar")).gen_poly == reference


def _xn_minus_1(F, n):
    return (F.neg(1),) + (0,) * (n - 1) + (1,)


QUOTIENT_SPECS = [
    CodeSpec(*qmh, variant)
    for variant, grid in (("omega", GRID), ("omega_bar", BARRED_GRID))
    for qmh in grid
    if qmh[0] ** qmh[1] - 1 <= 1023
] + [CodeSpec(4, 6, 2)]


class TestXnMinus1Quotient:
    @pytest.mark.parametrize("spec", QUOTIENT_SPECS, ids=str)
    def test_matches_long_division(self, spec):
        inst = build_code(spec)
        quot, rem = poly_divmod(inst.small, _xn_minus_1(inst.small, inst.n), inst.gen_poly)
        assert rem == ()
        assert poly_xn_minus_1_quotient(inst.small, inst.n, inst.gen_poly) == quot

    @pytest.mark.parametrize("spec", [CodeSpec(3, 4, 2), CodeSpec(4, 3, 1)], ids=str)
    def test_constant_term_inverted_only_when_not_1(self, spec, monkeypatch):
        # every nonzero multiple c*g of the generator, and the constant c,
        # divides x^n - 1; the constant term is inverted once, unless it is 1
        inst = build_code(spec)
        F, n = inst.small, inst.n
        inverted = []
        monkeypatch.setattr(F, "inv", lambda x, inv=F.inv: inverted.append(x) or inv(x))
        for c in range(1, F.order):
            for g in (tuple(F.mul(c, a) for a in inst.gen_poly), (c,)):
                inverted.clear()
                h = poly_xn_minus_1_quotient(F, n, g)
                assert h is not None and poly_mul(F, g, h) == _xn_minus_1(F, n), (c, g)
                assert inverted == ([] if g[0] == 1 else [g[0]]), (c, g)

    def test_rejects_non_divisors(self):
        inst = build_code(CodeSpec(3, 4, 2))
        F, n, g = inst.small, inst.n, inst.gen_poly
        for i in (0, 1, len(g) // 2, len(g) - 2):
            perturbed = g[:i] + (F.add(g[i], 1),) + g[i + 1 :]
            assert poly_xn_minus_1_quotient(F, n, perturbed) is None, i
        assert poly_xn_minus_1_quotient(F, n, (0,) + g) is None  # g(0) = 0
        assert poly_xn_minus_1_quotient(F, n, _xn_minus_1(F, n) + (0, 1)) is None  # deg > n
        assert poly_xn_minus_1_quotient(F, n, ()) is None
        with pytest.raises(ValueError, match="need an int n >= 1, got 0"):
            poly_xn_minus_1_quotient(F, 0, (1,))

    @pytest.mark.parametrize("q,n", [(2, 1), (3, 8), (4, 15), (9, 80)])
    def test_edge_quotients(self, q, n):
        F = gf.build_field(*prime_power_split(q))
        xn1 = _xn_minus_1(F, n)
        assert poly_xn_minus_1_quotient(F, n, (1,)) == xn1
        assert poly_xn_minus_1_quotient(F, n, xn1) == (1,)
        c = F.order - 1  # a unit other than 1 when q > 2
        assert poly_xn_minus_1_quotient(F, n, (c,)) == gf.poly_scale(F, F.inv(c), xn1)
        assert poly_xn_minus_1_quotient(F, n, gf.poly_scale(F, c, xn1)) == (F.inv(c),)


def test_field_layer_caches_are_bounded():
    for cache in (gf.build_field, gf.embed_subfield, cd.minimal_poly):
        assert cache.cache_info().maxsize is not None


class TestEncodeAndMembership:
    def test_zero_message(self):
        inst = build_code(CodeSpec(3, 2, 1))
        w = encode(inst, [0] * inst.k)
        assert w.weight == 0 and set(w.coeffs) == {0}
        assert is_member(inst, w.coeffs)

    def test_identity_message_gives_generator(self):
        inst = build_code(CodeSpec(3, 2, 1))
        w = encode(inst, [1] + [0] * (inst.k - 1))
        assert w.coeffs[: len(inst.gen_poly)] == inst.gen_poly
        assert set(w.coeffs[len(inst.gen_poly) :]) <= {0}

    def test_length_mismatch(self):
        inst = build_code(CodeSpec(3, 2, 1))
        with pytest.raises(ValueError, match="message length 5 != k = 4"):
            encode(inst, [0] * (inst.k + 1))
        with pytest.raises(ValueError, match="word length 7 != n = 8"):
            is_member(inst, [0] * (inst.n - 1))

    def test_exhaustive_weights_ternary(self):
        inst = build_code(CodeSpec(3, 2, 1))
        weights = [
            encode(inst, msg).weight
            for msg in product(range(3), repeat=inst.k)
            if any(msg)
        ]
        assert len(weights) == 3**4 - 1
        assert min(weights) == 4

    def test_membership_vs_divisibility(self):
        inst = build_code(CodeSpec(3, 4, 2))
        import random

        rng = random.Random(13)
        for _ in range(40):
            word = [rng.randrange(3) for _ in range(inst.n)]
            by_eval = is_member(inst, word)
            _, rem = poly_divmod(inst.small, poly_normalize(word), inst.gen_poly)
            assert by_eval == (rem == ())

    def test_mirrored_membership_vs_divisibility(self):
        inst = build_code(CodeSpec(3, 4, 1, "omega_bar"))
        import random

        rng = random.Random(17)
        for _ in range(20):
            word = list(encode(inst, [rng.randrange(3) for _ in range(inst.k)]).coeffs)
            assert is_member(inst, word)
            word[rng.randrange(inst.n)] = rng.randrange(3)
            _, rem = poly_divmod(inst.small, poly_normalize(word), inst.gen_poly)
            assert is_member(inst, word) == (rem == ())

    @pytest.mark.parametrize(
        "word",
        [(-2, 0) * 4, (3,) + (0,) * 7, (1.0,) + (0,) * 7, (True,) + (0,) * 7],
        ids=["negative", "q", "float", "bool"],
    )
    def test_out_of_range_entries_rejected(self, word):
        """(-2, 0) * 4 would wrap to a member through the embedding table; 3 would index past it;
        a float or a bool is not an element index, though 1.0 == True == 1."""
        inst = build_code(CodeSpec(3, 2, 1))
        with pytest.raises(ValueError, match="word entries must be field element indices"):
            is_member(inst, word)
        with pytest.raises(ValueError, match="message entries must be field element indices"):
            encode(inst, word[: inst.k])

    def test_int_subclass_entries_pass_and_bool_is_refused(self):
        """Entries follow check_int's rule: an int subclass passes, a bool does not."""
        class Int(int):
            pass

        inst = build_code(CodeSpec(3, 2, 1))
        msg = (1, 2, 0, 1)
        word = encode(inst, msg).coeffs
        assert encode(inst, tuple(map(Int, msg))) == encode(inst, msg)
        assert encode(inst, (Int(1),) + msg[1:]) == encode(inst, msg)
        assert is_member(inst, tuple(map(Int, word)))
        assert is_member(inst, (Int(word[0]),) + word[1:])
        assert not is_member(inst, (Int((word[0] + 1) % 3),) + word[1:])
        with pytest.raises(ValueError, match="message entries must be field element indices"):
            encode(inst, (True,) + msg[1:])
        with pytest.raises(ValueError, match="word entries must be field element indices"):
            is_member(inst, (Int(1), True) + word[2:])

    @pytest.mark.parametrize(
        "q,m,h,barred", [(4, 6, 1, False), (3, 6, 2, True)], ids=["omega", "omega_bar"]
    )
    def test_quotient_codewords_and_their_neighbours(self, q, m, h, barred):
        """Every quotient codeword is a member; changing one entry leaves the code, whose d > 1."""
        inst = build_code(CodeSpec(q, m, h, "omega_bar" if barred else "omega"))
        divisors = search_condition_divisors(q, m, h)
        assert len(divisors) == (7 if barred else 21)
        for e in divisors:
            word = list(quotient_codeword(q, m, h, e, barred=barred).coeffs)
            assert is_member(inst, word), e
            for j in (0, 1, inst.n - 1):
                changed = list(word)
                changed[j] = (changed[j] + 1) % q
                assert not is_member(inst, changed), (e, j)

    def test_single_coordinate_not_member(self):
        inst = build_code(CodeSpec(3, 2, 1))
        word = [0] * inst.n
        word[3] = 2
        assert not is_member(inst, word)

    def test_cyclic_shift_stays_member(self):
        inst = build_code(CodeSpec(3, 4, 2))
        import random

        rng = random.Random(19)
        for _ in range(10):
            msg = [rng.randrange(3) for _ in range(inst.k)]
            w = list(encode(inst, msg).coeffs)
            shift = rng.randrange(1, inst.n)
            shifted = w[-shift:] + w[:-shift]
            assert is_member(inst, shifted)

    def test_encoding_injective_small(self):
        inst = build_code(CodeSpec(2, 3, 1))
        seen = {encode(inst, msg).coeffs for msg in product(range(2), repeat=4)}
        assert len(seen) == 16


class TestQuotientCodeword:
    def test_weight_16_witness(self):
        w = quotient_codeword(3, 4, 2, 16)
        assert w.weight == 16
        assert len(w.coeffs) == 80
        assert is_member(build_code(CodeSpec(3, 4, 2)), w.coeffs)

    def test_mirrored_witness(self):
        w = quotient_codeword(3, 6, 2, 13, barred=True)
        assert w.weight == 26
        assert is_member(build_code(CodeSpec(3, 6, 2, "omega_bar")), w.coeffs)

    def test_plain_is_also_member_of_mirrored_source(self):
        w = quotient_codeword(3, 6, 2, 13)
        assert w.weight == 13
        assert is_member(build_code(CodeSpec(3, 6, 2)), w.coeffs)

    def test_degenerate_full_divisor(self):
        w = quotient_codeword(2, 3, 1, 7)
        assert w.weight == 7
        assert set(w.coeffs) == {1}
        assert is_member(build_code(CodeSpec(2, 3, 1)), w.coeffs)

    def test_extension_length(self):
        w = quotient_codeword(3, 2, 1, 4, l=2)
        assert len(w.coeffs) == 80
        assert w.weight == 4
        assert is_member(build_code(CodeSpec(3, 4, 1)), w.coeffs)
        wb = quotient_codeword(3, 2, 1, 4, l=2, barred=True)
        assert wb.weight == 8
        assert is_member(build_code(CodeSpec(3, 4, 1, "omega_bar")), wb.coeffs)

    def test_condition_fails(self):
        with pytest.raises(ValueError, match="5 divides a maximal bounded-weight exponent"):
            quotient_codeword(3, 4, 2, 5)  # 5 divides 20, a maximal representative

    def test_not_a_divisor(self):
        with pytest.raises(ValueError, match="6 does not divide 80"):
            quotient_codeword(3, 4, 2, 6)
        with pytest.raises(ValueError, match="need 2 <= e < n = 80, got 1"):
            quotient_codeword(3, 4, 2, 1)

    def test_non_integer_arguments_rejected(self):
        with pytest.raises(ValueError, match="need an int (e|l)"):
            quotient_codeword(3, 4, 2, 16, l=2.0)
        with pytest.raises(ValueError, match="need an int (e|l)"):
            quotient_codeword(3, 4, 2, 16.0)
        with pytest.raises(ValueError, match="need an int (e|l)"):
            quotient_codeword(3, 4, 2, 16, l=True)

    def test_extension_factor_below_one(self):
        for l in (0, -1):
            with pytest.raises(ValueError, match=f"need an int l >= 1, got {l}"):
                quotient_codeword(3, 4, 2, 16, l=l)

    def test_too_large_target(self):
        with pytest.raises(TooLarge, match="target length 3486784400 exceeds the construction bound"):
            quotient_codeword(3, 4, 2, 16, l=5)
        # 3^200000 - 1 is never computed, nor printed
        with pytest.raises(TooLarge, match=r"target length q\^\(m\*l\) - 1 = 3\^200000 - 1 exceeds"):
            quotient_codeword(3, 2, 1, 4, l=10**5)


class TestSerialization:
    def test_round_trip(self):
        inst = build_code(CodeSpec(3, 2, 1))
        doc = cd.code_to_json(inst)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["gen_poly"] == list(inst.gen_poly)
        assert doc["k"] == inst.k

    def test_element_ordering_documented(self):
        # gen poly entries are indices whose base-p digits are the coefficients
        inst = build_code(CodeSpec(4, 2, 1))
        small = inst.small
        for c in inst.gen_poly:
            assert small.element_from_coeffs(small.element_coeffs(c)) == c
