import random
import time
from itertools import product
from math import isqrt

import pytest

from rmcodes import gf
from rmcodes.errors import InternalError, TooLarge
from rmcodes.gf import (
    build_field,
    embed_subfield,
    poly_degree,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_normalize,
    poly_reciprocal,
)


def untabled(p, s):
    """F_{p^s} built without exp/log tables, outside the field cache.  The prime
    field, which the modulus search reads through build_field, is built
    first, so the cache keeps the tabled one."""
    build_field(p, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "TABLE_THRESHOLD", 0)
        return gf.FieldCtx(p, s)


class TestBuildField:
    def test_gf2(self):
        F = build_field(2, 1)
        assert F.order == 2
        assert F.primitive_elem == 1

    def test_gf3_primitive(self):
        F = build_field(3, 1)
        assert F.primitive_elem == 2
        assert F.mul(2, 2) == 1

    def test_gf8_primitive_order(self):
        F = build_field(2, 3)
        assert F.order == 8
        x = F.primitive_elem
        powers = {1}
        t = x
        order = 1
        while t != 1:
            powers.add(t)
            t = F.mul(t, x)
            order += 1
        assert order == 7

    def test_gf8_modulus_and_product(self):
        # ascending search lands on x^3 + x + 1; then x * x^2 = x + 1
        F = build_field(2, 3)
        assert F.modulus == (1, 1, 0, 1)
        assert F.mul(2, 4) == 3

    def test_not_prime(self):
        with pytest.raises(ValueError, match="4 is not prime"):
            build_field(4, 2)
        with pytest.raises(ValueError, match="1 is not prime"):
            build_field(1, 1)

    def test_overflow(self):
        with pytest.raises(TooLarge, match=r"2\^200 exceeds the supported 128-bit range"):
            build_field(2, 200)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            build_field(2, 0)

    def test_cached(self):
        assert build_field(3, 2) is build_field(3, 2)

    def test_pseudoprime_characteristic_rejected_promptly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="318665857834031151167461 is not prime"):
            build_field(318665857834031151167461, 1)  # psi_12, composite
        assert time.perf_counter() - start < 1.0

    def test_long_exponent_rejected_promptly(self):
        # 3^(10^7) has about 16 million bits; the exponent alone rules it out
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="exceeds the supported 128-bit range"):
            build_field(3, 10**7)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(TooLarge, match=r"2\^129 exceeds"):
            build_field(2, 129)

    def test_unprovable_characteristic_overflows(self):
        with pytest.raises(TooLarge, match="primality of 3317044064679887385961981 cannot be proven"):
            build_field(3317044064679887385961981, 1)  # psi_13, passes every base


# (p, s) -> index of the modulus f in the ascending search, i.e. the base-p
# number whose digits are the coefficients of f - x^s, lowest first
MODULUS_INDEX = {
    **dict(zip(((2, s) for s in range(2, 25)), (
        3, 3, 3, 5, 3, 3, 27, 3, 9, 5, 9, 27, 33, 3, 43, 9, 9, 39, 9, 5, 3, 33, 27))),
    **dict(zip(((3, s) for s in range(2, 16)), (1, 7, 5, 7, 5, 11, 11, 64, 19, 11, 11, 7, 5, 11))),
    (5, 2): 2, (5, 3): 6, (5, 4): 2, (5, 5): 21,
    (7, 2): 1, (7, 3): 2, (13, 2): 2, (1021, 2): 2,
}


@pytest.mark.parametrize("p,s", sorted(MODULUS_INDEX))
def test_modulus_table(p, s):
    index = MODULUS_INDEX[p, s]
    want = tuple(index // p**i % p for i in range(s)) + (1,)
    assert untabled(p, s).modulus == want


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2), (2, 4), (5, 2)])
class TestFieldAxioms:
    def test_inverse_law(self, p, s):
        F = build_field(p, s)
        for x in range(1, F.order):
            assert F.mul(x, F.inv(x)) == 1
        with pytest.raises(ZeroDivisionError, match="inverse of 0"):
            F.inv(0)

    def test_lagrange(self, p, s):
        F = build_field(p, s)
        for x in range(1, F.order):
            assert F.pow(x, F.order - 1) == 1

    def test_sampled_axioms(self, p, s):
        F = build_field(p, s)
        rng = random.Random(7)
        for _ in range(10_000 // 4):
            a, b, c = (rng.randrange(F.order) for _ in range(3))
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0


def test_primitive_powers_pairwise_distinct():
    for p, s in [(2, 6), (3, 6)]:
        F = build_field(p, s)
        seen = set()
        t = 1
        for _ in range(F.order - 1):
            assert t not in seen
            seen.add(t)
            t = F.mul(t, F.primitive_elem)
        assert len(seen) == F.order - 1


def test_negative_exponent():
    F = build_field(3, 2)
    for x in range(1, 9):
        assert F.pow(x, -1) == F.inv(x)
        assert F.pow(x, -3) == F.inv(F.pow(x, 3))


def test_tableless_field_matches_table_field():
    ref = build_field(3, 4)
    raw = untabled(3, 4)
    assert raw.exp is None and raw.log is None
    assert raw.modulus == ref.modulus
    assert raw.primitive_elem == ref.primitive_elem
    rng = random.Random(3)
    for _ in range(300):
        a, b = rng.randrange(81), rng.randrange(81)
        assert raw.add(a, b) == ref.add(a, b)
        assert raw.mul(a, b) == ref.mul(a, b)
        if a:
            assert raw.inv(a) == ref.inv(a)
        assert raw.pow(a, 17) == ref.pow(a, 17)
    # every power is square-and-multiply over mul: check it against repeated
    # products, on tabled fields and on their untabled twins
    for p, s in ((2, 4), (3, 3), (5, 2), (2, 8), (7, 2)):
        for F in (build_field(p, s), untabled(p, s)):
            n = F.order - 1
            exponents = [*range(-3, 21), n - 1, n]
            for x in range(1, F.order):
                inverse = F.inv(x)
                assert F.mul(x, inverse) == 1, (F, x)
                powers = {0: 1}
                for e in range(1, max(n, 20) + 1):
                    powers[e] = F.mul(powers[e - 1], x)
                for e in range(1, 4):
                    powers[-e] = F.mul(powers[1 - e], inverse)
                for e in exponents:
                    assert F.pow(x, e) == powers[e], (F, x, e)
            for e in exponents:
                assert F.alpha_pow(e) == F.pow(F.primitive_elem, e), (F, e)


def test_element_coeffs_roundtrip():
    F = build_field(3, 2)
    for x in range(9):
        assert F.element_from_coeffs(F.element_coeffs(x)) == x
    assert F.element_coeffs(5) == (2, 1)  # 5 = 2 + 1*3


def _order_brute(F, x):
    """The least k >= 1 with x^k = 1, by repeated products."""
    y, k = x, 1
    while y != 1:
        y = F.mul(y, x)
        k += 1
    return k


class TestEmbedding:
    def test_prime_subfield_of_gf8(self):
        big, small = build_field(2, 3), build_field(2, 1)
        emb = embed_subfield(big, small)
        assert emb.beta == 1
        assert emb.to_big == (0, 1)

    def test_gf3_into_gf9(self):
        big, small = build_field(3, 2), build_field(3, 1)
        emb = embed_subfield(big, small)
        assert emb.beta == big.alpha_pow(4)
        assert _order_brute(big, emb.beta) == 2

    def test_gf4_into_gf16(self):
        big, small = build_field(2, 4), build_field(2, 2)
        emb = embed_subfield(big, small)
        assert emb.beta == big.alpha_pow(5)
        assert _order_brute(big, emb.beta) == 3
        image = set(emb.to_big)
        assert len(image) == 4
        for a in image:
            assert big.pow(a, 4) == a
            for b in image:
                assert big.add(a, b) in image
                assert big.mul(a, b) in image

    def test_beta_of_wrong_order_is_internal_error(self):
        # beta = 1 has order 1, not q - 1 = 2: beta^((q-1)/2) = 1
        big = gf.FieldCtx(3, 2)
        big.alpha_pow = lambda e: 1
        with pytest.raises(InternalError, match="beta .*order.* 2"):
            embed_subfield.__wrapped__(big, build_field(3, 1))

    def test_embedding_is_homomorphism(self):
        big, small = build_field(3, 3), build_field(3, 1)
        emb = embed_subfield(big, small)
        for a in range(3):
            for b in range(3):
                assert emb.to_big[small.add(a, b)] == big.add(emb.to_big[a], emb.to_big[b])
                assert emb.to_big[small.mul(a, b)] == big.mul(emb.to_big[a], emb.to_big[b])

    def test_gf289_into_gf83521_all_pairs(self):
        # q = 17^2 > 256: every sum and product in GF(289) must survive the lift
        big, small = build_field(17, 4), build_field(17, 2)
        lift = embed_subfield(big, small).to_big
        q = small.order
        for a in range(q):
            la = lift[a]
            for b in range(q):
                assert lift[small.add(a, b)] == big.add(la, lift[b]), (a, b)
                assert lift[small.mul(a, b)] == big.mul(la, lift[b]), (a, b)

    def test_binary_prime_subfield_has_unit_beta(self):
        # beta = alpha^(2^m - 1) = 1 by the formula every q uses
        for m in range(2, 9):
            emb = embed_subfield(build_field(2, m), build_field(2, 1))
            assert emb.beta == 1, m
            assert emb.to_big == (0, 1), m

    def test_not_a_subfield(self):
        with pytest.raises(ValueError, match="8 is not a power of 4"):
            embed_subfield(build_field(2, 3), build_field(2, 2))
        with pytest.raises(ValueError, match="characteristics differ: 3 vs 2"):
            embed_subfield(build_field(3, 2), build_field(2, 1))


class TestPolys:
    def test_divmod_geometric_sum(self):
        F = build_field(2, 1)
        xn1 = (1, 0, 0, 0, 0, 0, 0, 1)  # x^7 - 1 = x^7 + 1 over GF(2)
        quot, rem = poly_divmod(F, xn1, (1, 1))
        assert quot == (1, 1, 1, 1, 1, 1, 1)
        assert rem == ()

    def test_divmod_reconstruction(self, monkeypatch):
        # a = quot * b + rem with deg rem < deg b, which fixes quot and rem; the
        # divisor's lead is inverted only when it is not 1
        inverted = []
        for p, s in ((2, 1), (3, 1), (2, 2), (3, 2)):
            F = build_field(p, s)
            monkeypatch.setattr(F, "inv", lambda x, inv=F.inv: inverted.append(x) or inv(x))
            rng = random.Random(11)
            for _ in range(200):
                a = poly_normalize([rng.randrange(F.order) for _ in range(rng.randrange(1, 12))])
                b = poly_normalize([rng.randrange(F.order) for _ in range(rng.randrange(1, 8))])
                if not b:
                    continue
                inverted.clear()
                quot, rem = poly_divmod(F, a, b)
                assert poly_degree(rem) < poly_degree(b)
                recon = poly_normalize(
                    [x for x in _poly_add(F, poly_mul(F, quot, b), rem)]
                )
                assert recon == a
                assert inverted == ([] if b[-1] == 1 or len(a) < len(b) else [b[-1]]), (p, s, a, b)

    def test_divmod_by_zero(self):
        F = build_field(2, 1)
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            poly_divmod(F, (1, 1), ())

    def test_gcd_self(self):
        F = build_field(3, 1)
        f = (2, 1, 2)  # 2 + x + 2x^2
        g = poly_gcd(F, f, f)
        assert g == (1, 2, 1)  # monic normalization
        assert g[-1] == 1

    def test_reciprocal(self):
        F2 = build_field(2, 1)
        assert poly_reciprocal(F2, (1, 1)) == (1, 1)
        assert poly_reciprocal(F2, (1, 1, 0, 1)) == (1, 0, 1, 1)
        with pytest.raises(ValueError, match="reciprocal needs a nonzero constant term"):
            poly_reciprocal(F2, (0, 1))

    def test_reciprocal_involution_and_weight(self):
        F = build_field(3, 1)
        rng = random.Random(5)
        from rmcodes.gf import poly_monic

        for _ in range(100):
            f = poly_normalize([rng.randrange(3) for _ in range(rng.randrange(2, 10))])
            if not f or f[0] == 0:
                continue
            r = poly_reciprocal(F, f)
            assert sum(1 for c in r if c) == sum(1 for c in poly_monic(F, f) if c)
            assert poly_reciprocal(F, r) == poly_monic(F, f)

    def test_eval(self):
        big = build_field(3, 2)
        emb = embed_subfield(big, build_field(3, 1))
        xn1 = [(0, 2), (8, 1)]  # x^8 - 1 vanishes at every power of alpha
        assert all(emb.evaluate(xn1, a) == 0 for a in range(8))
        assert emb.evaluate([(0, 2), (1, 1)], 0) == 0  # x - 1 at 1


def _horner_lifted(emb, f, x):
    """Horner's rule for the small-field polynomial f at the big-field point x; the oracle."""
    big, acc = emb.big, 0
    for c in reversed(f):
        acc = big.add(big.mul(acc, x), emb.to_big[c])
    return acc


class TestEvaluate:
    @pytest.mark.parametrize(
        "p,s,m,tabled",
        [(2, 1, 4, True), (3, 1, 4, True), (2, 2, 3, True), (3, 1, 4, False)],
        ids=["GF2-in-GF16", "GF3-in-GF81", "GF4-in-GF64", "GF3-in-untabled-GF81"],
    )
    def test_matches_horner(self, p, s, m, tabled):
        small = build_field(p, s)
        big = build_field(p, s * m) if tabled else untabled(p, s * m)
        assert (big.exp is None) == (not tabled)
        emb = embed_subfield(big, small)
        n, q = big.order - 1, small.order
        rng = random.Random(big.order)
        words = [(), (small.neg(1),) + (0,) * (n - 1) + (1,)]  # the zero word and x^n - 1
        for _ in range(3):
            words.append(_random_poly(rng, q, n))  # dense
            sparse = [0] * n
            for j in rng.sample(range(n), 4):
                sparse[j] = rng.randrange(1, q)
            words.append(tuple(sparse))
        for f in words:
            terms = [(j, c) for j, c in enumerate(f) if c]
            for a in range(n):
                assert emb.evaluate(terms, a) == _horner_lifted(emb, f, big.alpha_pow(a)), (f, a)


def _poly_add(F, a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly_normalize(out)


def _schoolbook_mul(F, a, b):
    """The schoolbook product that Kronecker substitution replaced; the oracle."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return poly_normalize(out)


def _random_poly(rng, q, length):
    """Uniform coefficients, so the top one may be 0 (an unnormalized input)."""
    return tuple(rng.randrange(q) for _ in range(length))


def _prime_powers(top):
    primes = [p for p in range(2, top + 1) if all(p % d for d in range(2, isqrt(p) + 1))]
    return [(p, s) for p in primes for s in range(1, top.bit_length()) if p**s <= top]


class TestPolyMul:
    @pytest.mark.parametrize("p,s", _prime_powers(32))
    def test_matches_schoolbook(self, p, s):
        F = build_field(p, s)
        rng = random.Random(p**s)
        lengths = [(0, 0), (0, 7), (5, 0), (1, 1), (1, 600), (600, 1), (2, 600)]
        lengths += [(rng.randrange(601), rng.randrange(61)) for _ in range(6)]
        lengths += [(rng.randrange(100, 201), rng.randrange(100, 201))]
        for la, lb in lengths:
            a, b = _random_poly(rng, F.order, la), _random_poly(rng, F.order, lb)
            want = _schoolbook_mul(F, a, b)
            assert poly_mul(F, a, b) == want, (la, lb)
            assert poly_mul(F, b, a) == want, (lb, la)
        # constants, including the unnormalized zero
        assert poly_mul(F, (0, 0, 0), (1, 1)) == ()
        assert poly_mul(F, (F.order - 1,), (1,)) == (F.order - 1,)

    @pytest.mark.parametrize(
        "p,s", [(2, 1), (7, 1)] + [(2, s) for s in range(2, 9)] + [(3, 2), (3, 3), (3, 4), (5, 2), (7, 3)]
    )
    def test_full_slots(self, p, s):
        """All digits p - 1 make the largest slot of the reduced planes reach its
        bound len * (p-1)^2 * _slot_scale, and no slot exceeds it.  The lengths
        put that bound just below and just above one byte."""
        F = build_field(p, s)
        unit = (p - 1) ** 2 * gf._slot_scale(p, F.modulus)
        for length in {max(1, 255 // unit), 256 // unit + 1}:
            a = (F.order - 1,) * length
            planes = gf._reduce(gf._plane_product(gf._planes(F, a, 16), gf._planes(F, a, 16)), F.modulus, p)
            slots = [v for c in planes for v in gf._unpack(c, 16, 2 * length - 1)]
            assert max(slots) == length * unit, length
            assert poly_mul(F, a, a) == _schoolbook_mul(F, a, a), length
            b = tuple(reversed(_random_poly(random.Random(length), F.order, length + 3))) + a
            assert poly_mul(F, a, b) == _schoolbook_mul(F, a, b), length

    @pytest.mark.parametrize(
        "p,s,la,lb",
        [
            (4294967311, 1, 300, 256),  # a slot needs 256 * (p-1)^2 > 2^72
            (2, 40, 256, 3),  # p^(2s-1) = 2^79: far beyond any lookup table
            (2, 40, 20, 17),
        ],
    )
    def test_wide_slots_and_tableless_fields(self, p, s, la, lb):
        F = build_field(p, s)
        assert F.exp is None
        rng = random.Random(la * lb)
        a, b = _random_poly(rng, F.order, la), _random_poly(rng, F.order, lb)
        assert poly_mul(F, a, b) == _schoolbook_mul(F, a, b)

    def test_big_endian_slot_order(self, monkeypatch):
        """A big-endian host packs every slot in reverse order; the byte-string
        paths replay that here, with the array paths switched off."""
        monkeypatch.setattr(gf, "byteorder", "big")
        monkeypatch.setattr(gf, "_ARRAY_CODES", {})
        rng = random.Random(9)
        for p, s in [(2, 1), (3, 2), (2, 3), (2, 2), (2, 8), (5, 2), (2, 9)]:
            F = build_field(p, s)
            for la, lb in [(40, 25), (300, 200)]:
                a, b = _random_poly(rng, F.order, la), _random_poly(rng, F.order, lb)
                assert poly_mul(F, a, b) == _schoolbook_mul(F, a, b), (p, s, la, lb)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        rng = random.Random(2)
        for p in (2, 3, 31, 1021, 4294967311):
            F = build_field(p, 1)
            lengths = [(rng.randrange(1, 601), rng.randrange(1, 61)) for _ in range(3)]
            for la, lb in lengths + [(200, 150)]:
                a, b = _random_poly(rng, p, la), _random_poly(rng, p, lb)
                prod = sympy.Poly(a[::-1], x, modulus=p) * sympy.Poly(b[::-1], x, modulus=p)
                want = poly_normalize(int(c) % p for c in reversed(prod.all_coeffs()))
                assert poly_mul(F, a, b) == want, p


@pytest.mark.parametrize("p,s", _prime_powers(256) + [(17, 2), (7, 3), (5, 4), (3, 6), (3, 7)])
def test_tabled_arithmetic_matches_raw(p, s):
    """exp/log multiplication and Zech addition against the table-free
    arithmetic; the pairs (x, -x) hit the Zech table's -1 entry."""
    F = build_field(p, s)
    q = F.order
    assert (F.zech is None) == (p == 2)
    if q <= 64:
        pairs = product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(10_000)]
        pairs += [(x, F.neg(x)) for x in range(q)]
    for a, b in pairs:
        assert F.add(a, b) == F._raw_add(a, b), (a, b)
        assert F.mul(a, b) == F._raw_mul(a, b), (a, b)


@pytest.mark.parametrize("p,s", _prime_powers(256))
def test_neg_matches_digitwise(p, s):
    """-x negates each base-p digit, with and without the tables."""
    for F in (build_field(p, s), untabled(p, s)):
        for x in range(F.order):
            assert F.neg(x) == F.element_from_coeffs((-d) % p for d in F.element_coeffs(x)), x
            assert F.add(x, F.neg(x)) == 0, x


def _raw_walk(F):
    """The powers of the primitive element by repeated ``_raw_mul``; the oracle."""
    t, powers = 1, []
    for _ in range(F.order - 1):
        powers.append(t)
        t = F._raw_mul(t, F.primitive_elem)
    assert t == 1
    return powers


@pytest.mark.parametrize(
    "fields", [[(2, 16)], [(3, 8)], _prime_powers(1 << 12)], ids=["GF(2^16)", "GF(3^8)", "up-to-2^12"]
)
def test_linear_step_tables_match_raw_walk(fields):
    """exp, log and zech from the linear step against the _raw_mul walk, on
    every field of at most 2^12 elements among others; GF(2^12) has the
    primitive element 3 = x + 1, not x."""
    assert build_field(2, 12).primitive_elem == 3
    for p, s in fields:
        F = build_field(p, s)
        assert F.exp == _raw_walk(F), (p, s)
        assert F.log[0] == -1 and all(F.log[x] == i for i, x in enumerate(F.exp)), (p, s)
        if p > 2:
            assert F.zech == [F.log[F._raw_add(1, x)] for x in F.exp], (p, s)


def _least_primitive_brute(F):
    """The least index of order q - 1, by walking powers from index 1."""
    for x in range(1, F.order):
        y, k = x, 1
        while y != 1:
            y = F.mul(y, x)
            k += 1
        if k == F.order - 1:
            return x


def test_least_primitive_matches_brute_force():
    # the search skips the prime subfield for s >= 2 and factors q - 1 once
    for p, s in _prime_powers(1 << 12):
        F = build_field(p, s)
        assert F.primitive_elem == _least_primitive_brute(F), (p, s)
    # the primitive element does not depend on the tables, which would hold 1021^2 entries
    assert untabled(1021, 2).primitive_elem == 1035


def test_primitive_search_stops_at_first_failing_prime():
    # one ladder per prime r of q - 1 up to the first x^((q-1)/r) == 1, not a
    # candidate's full order
    build_field(3, 1)  # the modulus search reads the cached prime field
    calls = 0
    field_pow = gf.FieldCtx.pow

    def counting(self, x, e):
        nonlocal calls
        if self.order == 3**10:  # not the prime field's inverses in the modulus search
            calls += 1
        return field_pow(self, x, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf.FieldCtx, "pow", counting)
        F = gf.FieldCtx(3, 10)
    assert F.primitive_elem == build_field(3, 10).primitive_elem
    assert calls <= 34


def test_log_walk_rejects_a_non_primitive_element(monkeypatch):
    # index 3 of GF(9) is x, of order 4 mod x^2 + 1: its walk misses 4 of the 8 units
    build_field(3, 1)
    monkeypatch.setattr(gf.FieldCtx, "primitives", lambda self: iter((3,)))
    with pytest.raises(InternalError, match="primitive element check failed"):
        gf.FieldCtx(3, 2)
