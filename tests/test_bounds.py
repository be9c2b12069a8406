import hashlib
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import takewhile, zip_longest
from math import comb, gcd, prod

import pytest

from rmcodes import bounds as bd
from rmcodes import codes as cd
from rmcodes import ntheory as nt
from rmcodes.cli import main
from rmcodes.codes import CodeSpec, build_code
from rmcodes.cyclotomy import QadicParams, coset_partition, index_set, maximal_representatives
from rmcodes.distance import SearchBudget, exact_distance, find_weight_witness
from rmcodes.errors import InternalError, TooLarge
from rmcodes.verify import DEFAULT_SEED, GRID


def dimension(q, m, h, variant):
    """k = n minus the size of the zero set, from the cyclotomy layer alone."""
    params = QadicParams(q, m)
    zeros = set(index_set(params, h))
    if variant == "omega_bar":
        zeros |= {0, *(params.n - a for a in zeros)}
    return params.n - len(zeros)


class TestFactorize:
    def test_goldens(self):
        assert nt.factorize(728) == {2: 3, 7: 1, 13: 1}
        assert nt.factorize(2) == {2: 1}
        assert nt.factorize(80) == {2: 4, 5: 1}

    def test_reconstruction_random(self):
        rng = random.Random(17)
        for _ in range(300):
            x = rng.randrange(2, 10**9)
            fac = nt.factorize(x)
            prod = 1
            for p, a in fac.items():
                assert nt.is_probable_prime(p)
                prod *= p**a
            assert prod == x

    def test_large_semiprime_via_ecm(self):
        p, q = 1_000_003, 1_000_033
        assert nt.factorize(p * q) == {p: 1, q: 1}
        # both beyond TRIAL_LIMIT, so trial division finds neither
        p, q = 16_777_259, 33_554_467
        assert nt.factorize(p * q) == {p: 1, q: 1}

    def test_ecm_alone_splits_mersenne_products(self):
        # beyond TRIAL_LIMIT**2 and not of the form b^k - 1, so these reach
        # the finisher whole
        m31, m61 = 2**31 - 1, 2**61 - 1
        assert nt.factorize(m31**2) == {m31: 2}
        assert nt.factorize(m31 * m61) == {m31: 1, m61: 1}

    def test_incomplete_budget(self, monkeypatch):
        # an exact power needs no ECM curve, so only the product is left open
        m31, m61 = 2**31 - 1, 2**61 - 1
        monkeypatch.setattr(nt, "_ECM_ROUNDS", ())
        nt._finish.cache_clear()
        try:
            assert nt.factorize(m61**2) == {m61: 2}
            with pytest.raises(nt.FactorizationIncomplete) as exc:
                nt.factorize(m31 * m61)
        finally:
            nt._finish.cache_clear()
        assert exc.value.cofactor == m31 * m61

    def test_exact_powers_of_large_primes(self):
        # the square of a 64-bit prime is as hard for ECM as a product of two
        # such primes, and the ECM curves ran out on it; the finisher takes
        # its root instead, also after ECM has split off r
        rng = random.Random(61)
        r = seeded_prime(rng, 25)
        for p in [10808818712792617177, *(seeded_prime(rng, 64) for _ in range(2))]:
            assert nt.factorize(p**2) == {p: 2}
            assert nt.factorize(p**2 * r) == {p: 2, r: 1}

    def test_rejects_small(self):
        with pytest.raises(ValueError, match="need an int x >= 2, got 1"):
            nt.factorize(1)

    def test_divisors(self):
        assert nt.divisors(80) == [1, 2, 4, 5, 8, 10, 16, 20, 40, 80]
        assert nt.divisors(1) == [1]

    def test_psi12_splits(self):
        # psi_12, the least strong pseudoprime to the first 12 prime bases
        assert nt.factorize(PSI_12) == {399165290221: 1, 798330580441: 1}

    def test_iroot(self):
        rng = random.Random(41)
        for _ in range(300):
            y = rng.randrange(1, 1 << rng.randrange(1, 300))
            k = rng.randrange(2, 40)
            r = nt._iroot(y, k)
            assert r**k <= y < (r + 1) ** k, (y, k)

    def test_iroot_small_roots_are_prompt(self):
        # a root near 2 under a large k: from a float guess rounded down to 2,
        # Newton's first step overshoots by about 1.27^299 and the walk back
        # down takes 1.4 s
        y = 299**49 * 7
        start = time.perf_counter()
        for k in range(2, y.bit_length()):
            r = nt._iroot(y, k)
            assert r**k <= y < (r + 1) ** k, k
        assert nt._iroot(y, 300) == 2
        assert time.perf_counter() - start < 1.0

    def test_power_base(self):
        assert nt._power_base(2**122) == (2, 122)
        assert nt._power_base(3**80) == (3, 80)
        assert nt._power_base(6**25) == (6, 25)
        assert nt._power_base(10**20 + 1) == (10**20 + 1, 1)

    def test_power_base_matches_exhaustive_search(self):
        """Prime exponents only, each while it gives a root, against every
        exponent 2..bit_length; the seeded bases include perfect powers."""

        def exhaustive(y):
            k = max((k for k in range(2, y.bit_length()) if nt._iroot(y, k) ** k == y), default=1)
            return (nt._iroot(y, k) if k > 1 else y), k

        rng = random.Random(43)
        ys = [2**64, 6**36, 3**81, 2**64 + 1, 6**36 - 1, 2 * 3**40, 10**20 + 1, 2, 3, 4]
        for _ in range(60):
            b, k = rng.randrange(2, 300), rng.randrange(1, 50)
            ys += [b**k, b**k + 1, b**k * rng.randrange(2, 9)]
        for y in ys:
            assert nt._power_base(y) == exhaustive(y), y

    @staticmethod
    def wheel_factors(x):
        """Both stages over the primes and the 6k +- 1 wheel alone, without the cyclotomic split."""
        return nt._stage([nt._wheel(x)], None)[0]

    def test_split_matches_generic(self):
        checked = 0
        for q in filter(nt.is_prime_power, range(2, 33)):
            m = 2
            while q**m - 1 <= 1 << 64:
                n = q**m - 1
                assert nt.factorize(n) == self.wheel_factors(n), (q, m)
                checked += 1
                m += 1
        assert checked == 366

    def test_split_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        pairs = [(q, m) for q in filter(nt.is_prime_power, range(2, 33))
                 for m in range(2, 129) if 1 << 40 < q**m - 1 <= 1 << 128]
        for q, m in random.Random(43).sample(pairs, 6):
            assert nt.factorize(q**m - 1) == sympy.factorint(q**m - 1), (q, m)

    def test_former_stalls(self):
        # q^m - 1 that trial division alone did not factor in 69-83 s
        # (19^29 - 1: 12 s); every prime is below the proof bound
        for (q, m), want in FORMER_STALLS.items():
            product = 1
            for p, a in want.items():
                assert p < nt.PROVEN_PRIME_BOUND and nt.is_probable_prime(p)
                product *= p**a
            assert product == q**m - 1
            assert nt.factorize(q**m - 1) == want, (q, m)

    def test_ecm_splits_phi_43_of_7(self):
        # Phi_43(7) = (7^43 - 1)/6, 119 bits, is a product of two primes near 2^57 and 2^61
        cofactor = (7**43 - 1) // 6
        assert nt._ecm(cofactor) in (166003607842448777, 2192537062271178641)

    def test_every_ecm_round_runs(self, monkeypatch):
        # with no curve splitting, _ECM_ROUNDS is the one limit: all 25 curves
        # at B1 = 2000 run, then all 49 at 11,000, sigma 6..79 in order, and 0 comes back
        calls = []
        monkeypatch.setattr(nt, "_ecm_curve", lambda n, sigma, b1: calls.append((sigma, b1)) or 1)
        assert nt._ecm((2**31 - 1) * (2**61 - 1)) == 0
        assert [sigma for sigma, _ in calls] == list(range(6, 80))
        assert Counter(b1 for _, b1 in calls) == dict(nt._ECM_ROUNDS) == {2_000: 25, 11_000: 49}

    def test_small_kernel_matches_trial_division(self):
        # _factor's one-gcd screen against a plain trial division by every
        # integer up to isqrt of what is left, key order included, on its
        # whole domain's edges and a dense sample
        def trial(x):
            fac, c = {}, 2
            while c * c <= x:
                while x % c == 0:
                    x, fac[c] = x // c, fac.get(c, 0) + 1
                c += 1
            if x > 1:
                fac[x] = fac.get(x, 0) + 1
            return fac

        rng = random.Random(67)
        below = [x for x in range(nt.TRIAL_LIMIT - 1, nt.TRIAL_LIMIT - 200, -2) if nt.is_probable_prime(x)][:5]
        edges = [1021**2, 1019 * 1021, 2 * 1021, nt.TRIAL_LIMIT - 1, nt.TRIAL_LIMIT, *below]
        xs = [*range(2, 1 << 16), *(rng.randrange(2, nt.TRIAL_LIMIT + 1) for _ in range(10_000)), *edges]
        for x in xs:
            assert tuple(nt._factor(x).items()) == tuple(trial(x).items()), x
        assert below[0] == 1_048_573 and len(below) == 5

    def test_every_small_and_seeded_x(self):
        for x, fac in factorized_samples():
            assert all(nt.is_probable_prime(p) for p in fac), x
            assert prod(p**a for p, a in fac.items()) == x

    def test_small_and_seeded_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for x, fac in factorized_samples():
            assert fac == sympy.factorint(x), x


def seeded_prime(rng, bits):
    """The least prime >= a seeded odd number of ``bits`` bits."""
    p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    while not nt.is_probable_prime(p):
        p += 2
    return p


def reference_ladder(k, x, z, a24, n):
    """kP by the Montgomery ladder on a P = (x : z) of any z, k >= 1: the
    ladder of ECM before it normalized its base point."""

    def xdbl(x, z):
        s = (x + z) * (x + z) % n
        d = (x - z) * (x - z) % n
        t = s - d
        return s * d % n, t * (d + a24 * t) % n

    def xadd(x1, z1, x2, z2):
        u = (x1 - z1) * (x2 + z2)
        v = (x1 + z1) * (x2 - z2)
        return z * (u + v) ** 2 % n, x * (u - v) ** 2 % n

    x0, z0 = x, z
    x1, z1 = xdbl(x, z)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0 = xadd(x1, z1, x0, z0)
            x1, z1 = xdbl(x1, z1)
        else:
            x1, z1 = xadd(x0, z0, x1, z1)
            x0, z0 = xdbl(x0, z0)
    return x0, z0


def reference_curve(n, sigma, b1):
    """(gcd, branch) of one ECM curve as it ran before its points were
    normalized: unnormalized ladders and the stage-2 term X_G Z_B - X_B Z_G.
    The branch that returned is "den", "stage 1" or "stage 2", or "stage 2 Z"
    when the product of the stage-2 Z's is not a unit."""
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    x, z = u * u * u % n, v * v * v % n
    den = 16 * x * v % n
    if gcd(den, n) != 1:
        return gcd(den, n), "den"
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    x, z = reference_ladder(nt._stage1_multiplier(b1), x, z, a24, n)
    if gcd(z, n) != 1:
        return gcd(z, n), "stage 1"
    babies = [reference_ladder(i, x, z, a24, n) for i in nt._ECM_BABY]
    m = max(1, b1 // nt._ECM_D)
    xs, zs = reference_ladder(nt._ECM_D, x, z, a24, n)
    xg, zg = reference_ladder(m * nt._ECM_D, x, z, a24, n)
    xh, zh = reference_ladder((m + 1) * nt._ECM_D, x, z, a24, n)
    acc, zs_product = 1, prod(zi for _, zi in babies) % n
    while m * nt._ECM_D - nt._ECM_D // 2 <= nt._ECM_B2_RATIO * b1:
        zs_product = zs_product * zg % n
        for xi, zi in babies:
            acc = acc * (xg * zi - xi * zg) % n
        u = (xh - zh) * (xs + zs)
        v = (xh + zh) * (xs - zs)
        xg, zg, xh, zh = xh, zh, zg * (u + v) ** 2 % n, xg * (u - v) ** 2 % n
        m += 1
    return gcd(acc, n), "stage 2" if gcd(zs_product, n) == 1 else "stage 2 Z"


# (n, sigma, B1) of the curve that splits each composite cofactor the
# finisher meets on the certify moduli 3^79, 5^53, 7^43, 29^23 and 31^23 - 1
CERTIFY_SPLITS = [
    (24634804902390987219347201701063882933, 6, 2000),
    (56912634058623321755277902437, 11, 2000),
    (2775557561562891351059079170227050781, 6, 2000),
    (102247936477613721269, 8, 2000),
    (363969062665299433184885375458972057, 33, 11000),
    (154168597062479134669314941883571, 6, 2000),
    (667110388134976008804624141476513, 6, 2000),
    (10836304360474553035470649, 6, 2000),
]


def two_branch_ladder(k, x, a24, n):
    """kP for P = (x : 1): the ladder with one mirrored loop body per bit value,
    as ECM ran it before the two bodies became one."""
    x0, z0 = x, 1
    s, d = (x + 1) * (x + 1) % n, (x - 1) * (x - 1) % n
    t = s - d
    x1, z1 = s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        if bit == "1":  # P0 <- P0 + P1, P1 <- 2 P1
            a, b = x1 + z1, x1 - z1
            u = b * (x0 + z0) % n
            v = a * (x0 - z0) % n
            w, y = u + v, u - v
            x0, z0 = w * w % n, x * y * y % n
            s, d = a * a % n, b * b % n
            t = s - d
            x1 = s * d % n
            z1 = t * (d + a24 * t) % n
        else:  # P1 <- P0 + P1, P0 <- 2 P0
            a, b = x0 + z0, x0 - z0
            u = b * (x1 + z1) % n
            v = a * (x1 - z1) % n
            w, y = u + v, u - v
            x1, z1 = w * w % n, x * y * y % n
            s, d = a * a % n, b * b % n
            t = s - d
            x0 = s * d % n
            z0 = t * (d + a24 * t) % n
    return x0, z0


class TestLadder:
    def test_one_body_matches_two_branches(self):
        # k: the smallest, the stage-1 multiplier at B1 = 2000, long runs of
        # 1 bits and of 0 bits, and seeded bit strings
        rng = random.Random(73)
        ks = [1, 2, 3, nt._stage1_multiplier(2000), (1 << 64) - 1, 1 << 64, ((1 << 40) - 1) << 40,
              (1 << 80) + 1, int("1" * 30 + "0" * 30 + "1" * 30 + "0" * 30, 2)]
        ks += [rng.getrandbits(rng.randrange(2, 200)) | 1 for _ in range(20)]
        for _ in range(40):
            n = seeded_prime(rng, rng.randrange(22, 41)) * seeded_prime(rng, rng.randrange(22, 41))
            x, a24 = rng.randrange(n), rng.randrange(n)
            for k in ks:
                assert nt._ladder(k, x, a24, n) == two_branch_ladder(k, x, a24, n), (k, x, a24, n)


class TestEcmCurve:
    """The normalized curve against the reference: its scalings are by units
    mod n, so it returns the reference's gcd, except where a product of
    stage-2 Z's is not a unit, where it returns a gcd > 1."""

    @staticmethod
    def samples():
        rng = random.Random(67)
        semiprimes = [seeded_prime(rng, rng.randrange(22, 41)) * seeded_prime(rng, rng.randrange(22, 41))
                      for _ in range(350)]
        cases = [(n, rng.randrange(6, 1 << 32), rng.choice((50, 120, 300))) for n in semiprimes[:300]]
        cases += [(n * rng.choice((2, 3, 5, 7, 11, 13)), rng.randrange(6, 1 << 32), rng.choice((50, 120, 300)))
                  for n in semiprimes[300:]]
        return cases + CERTIFY_SPLITS

    def test_same_gcd_as_the_reference(self):
        branches = {}
        for n, sigma, b1 in self.samples():
            want, branch = reference_curve(n, sigma, b1)
            got = nt._ecm_curve(n, sigma, b1)
            if branch == "stage 2 Z":
                assert got > 1, (n, sigma, b1)
            else:
                assert got == want, (n, sigma, b1)
            assert 1 < want < n or (n, sigma, b1) not in CERTIFY_SPLITS
            branches[branch] = branches.get(branch, 0) + (1 < want < n)
        # every branch ran, and stage 1 and stage 2 each split many n
        assert set(branches) == {"den", "stage 1", "stage 2", "stage 2 Z"}, branches
        assert branches["stage 1"] >= 20 and branches["stage 2"] >= 20, branches


@lru_cache(maxsize=None)
def factorized_samples():
    """(x, factorize(x)) for every x in [2, 2^16] and 10^4 seeded x < 2^40."""
    rng = random.Random(53)
    xs = [*range(2, (1 << 16) + 1), *(rng.randrange(2, 1 << 40) for _ in range(10_000))]
    return [(x, nt.factorize(x)) for x in xs]


FORMER_STALLS = {
    (2, 122): {3: 1, 768614336404564651: 1, 2305843009213693951: 1},
    (4, 61): {3: 1, 768614336404564651: 1, 2305843009213693951: 1},
    (7, 43): {2: 1, 3: 1, 166003607842448777: 1, 2192537062271178641: 1},
    (19, 29): {2: 1, 3: 2, 59: 1, 233: 1, 297003021451861: 1, 165049085515149863: 1},
}


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestPrimality:
    def test_psi12_is_composite(self):
        assert not nt.is_probable_prime(PSI_12)

    def test_psi13_is_the_proof_bound(self):
        # psi_13 is composite yet passes every base, so it bounds the proof
        assert PSI_13 == nt.PROVEN_PRIME_BOUND == 1287836182261 * 2575672364521
        assert nt.is_probable_prime(PSI_13)

    def test_prime_power_split(self):
        assert nt.prime_power_split(2) == (2, 1) and nt.prime_power_split(81) == (3, 4)
        for q in (1, 0, -4):
            with pytest.raises(ValueError, match=f"{q} is not a prime power"):
                nt.prime_power_split(q)

    def test_matches_sympy_below_1e5(self):
        sympy = pytest.importorskip("sympy")
        for n in range(100_000):
            assert nt.is_probable_prime(n) == sympy.isprime(n), n


class TestTrialDivisionProof:
    """A leftover is prime by trial division only below the next candidate squared."""

    # the two least primes above TRIAL_LIMIT = 2^20; the wheel stops at 2^20 + 1
    P, Q = 1_048_583, 1_048_589

    def test_two_primes_above_the_limit(self):
        assert nt.TRIAL_LIMIT < self.P < self.Q
        assert nt.factorize(self.P * self.Q) == {self.P: 1, self.Q: 1}

    def test_square_of_a_prime_above_the_limit(self):
        assert nt.factorize(self.P**2) == {self.P: 2}

    def test_cyclotomic_leftover_of_two_primes(self):
        # Phi_67(2) = 2^67 - 1 (Cole, 1903); both primes are 1 mod lcm(2, 67)
        r, s = 193_707_721, 761_838_257_287
        assert nt.TRIAL_LIMIT < r < s and r % 134 == s % 134 == 1
        assert nt.factorize(2**67 - 1) == {r: 1, s: 1}

    def test_small_x_needs_no_miller_rabin(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"is_probable_prime({n}) called")

        monkeypatch.setattr(nt, "is_probable_prime", refuse)
        for x in (*range(2, 5000), 7 * self.P, 1_000_003 * 1_000_033, (1 << 40) - 87):
            nt.factorize(x)
        for e in range(3, 2000, 7):
            nt.UnitGroup(e | 1).order(2)


class TestDivisorWalk:
    @staticmethod
    def product_list(x, bound=None):
        """The divisors of x, or those <= bound, sorted: the products over factorize(x)."""
        divs = [1]
        for p, a in nt.factorize(x).items():
            divs = [d * p**i for d in divs for i in range(a + 1)]
            if bound is not None:
                divs = [d for d in divs if d <= bound]
        return sorted(divs)

    def test_every_x_below_3000(self):
        assert list(nt.divisors_ascending(1)) == [1]
        for x in range(2, 3000):
            assert list(nt.divisors_ascending(x)) == self.product_list(x), x

    @staticmethod
    def certify_moduli():
        """(q, m) for the 7 largest m with q^m - 1 <= 2^128, every prime power q <= 32."""
        moduli = []
        for q in filter(nt.is_prime_power, range(2, 33)):
            ms = [m for m in range(2, 129) if q**m - 1 <= 1 << 128]
            moduli += [(q, m) for m in ms[-7:]]
        return moduli

    def test_certify_moduli(self):
        moduli = self.certify_moduli()
        assert len(moduli) == 126
        for q, m in moduli:
            x = q**m - 1
            assert nt.divisors(x) == self.product_list(x), x

    def test_lazy_prefix_matches_full_walk(self):
        # the lazy walk finishes a cofactor only past TRIAL_LIMIT; its first 300
        # divisors must be those of the full factorization, whether or not it
        # got that far
        rng = random.Random(61)
        xs = [q**m - 1 for q, m in self.certify_moduli()]
        xs += [rng.randrange(1 << 41, 1 << 90) for _ in range(12)]
        for x in xs:
            prefix = [d for d, _ in zip(nt.divisors_ascending(x), range(300))]
            assert prefix == self.product_list(x, prefix[-1])[:300], x

    def test_finisher_runs_only_past_the_trial_bound(self, monkeypatch):
        # the uncapped walk of search-e reads the least divisor passing the
        # condition; only these five moduli need one above TRIAL_LIMIT or beyond
        # the stage-1 divisors. certify stops at 2q - 1, below each of them
        calls = []
        finish = nt._finish
        monkeypatch.setattr(nt, "_finish", lambda y: calls.append(y) or finish(y))
        needs = {}
        for q, m in self.certify_moduli():
            calls.clear()
            e = next(bd._condition_divisors(q, m, 1), None)
            if calls:
                needs[q**m - 1] = e
        assert needs == {3**79 - 1: 432853009, 5**53 - 1: 5960555749,
                         7**43 - 1: 166003607842448777, 29**23 - 1: 131327761273,
                         31**23 - 1: 1509997}

    def test_trial_bound_follows_the_walk(self, monkeypatch):
        # every stage-1 call divides by the primes up to 1024 in one screen;
        # the walk raises its trial bound, 1024 -> 65536 -> TRIAL_LIMIT, only
        # when it needs a larger divisor. So a walk that reaches e <= 1024
        # reduces the modulus only by its own primes, with no progression
        # candidate, and any other tries no candidate above max(1024, e^2)
        tried = []

        class Spy(int):
            """An int that records each trial candidate it is reduced by."""

            def __mod__(self, c):
                tried.append(c)
                return int(self) % c

            def __floordiv__(self, c):
                return Spy(int(self) // c)

        value = nt._cyclotomic_value
        monkeypatch.setattr(nt, "_cyclotomic_value", lambda b, d: Spy(value(b, d)))
        checked = screened = 0
        try:
            for q, m in self.certify_moduli():
                nt._piece.cache_clear()
                tried.clear()
                e = next(bd._condition_divisors(q, m, 1), None)
                if e is not None and e <= 1024:
                    assert all(c <= 1024 and (q**m - 1) % c == 0 for c in tried), (q, m, e)
                    screened += 1
                elif e is not None and e <= nt.TRIAL_LIMIT:
                    assert tried and max(tried) <= max(1024, e * e), (q, m, e, max(tried))
                checked += e is not None and e <= nt.TRIAL_LIMIT
        finally:
            nt._piece.cache_clear()
        assert (checked, screened) == (119, 108)

    def test_stage_one_is_a_function_of_piece_and_bound(self):
        # 3^78 - 1 and 3^52 - 1 share Phi_d(3) for d in {1, 2, 13, 26}; factoring
        # the one must not change what stage 1 reports on the other. At the
        # walk's first bound, 1024, stage 1 has screened every piece and proven
        # two leftovers prime; Phi_52(3) = 53 * 4795973261 stays open
        nt._piece.cache_clear()
        fresh = nt._stage(nt._pieces(3**52 - 1), 1024)
        nt.factorize(3**78 - 1)
        assert fresh == nt._stage(nt._pieces(3**52 - 1), 1024)
        assert fresh == ({2: 4, 5: 1, 797161: 1, 398581: 1, 53: 1}, True)

    def test_interleaved_walks_on_shared_pieces(self):
        # each of two walks over shared pieces, advanced in turn, yields what
        # it yields walked alone from an empty cache
        def walk(x):
            return takewhile(lambda d: d <= 10**12, nt.divisors_ascending(x))

        xs, alone = (3**78 - 1, 3**52 - 1), []
        for x in xs:
            nt._piece.cache_clear()
            alone.append(list(walk(x)))
        nt._piece.cache_clear()
        got = [[], []]
        for pair in zip_longest(*map(walk, xs)):
            for divs, d in zip(got, pair):
                if d is not None:
                    divs.append(d)
        assert got == alone and [len(a) for a in alone] == [1720, 74]

    def test_walk_across_the_schedule_bounds(self):
        # s and r are the primes next to each trial bound, below and above it
        for s, bound, r in ((1021, 1024, 1031), (65521, 1 << 16, 65537),
                            (1048573, nt.TRIAL_LIMIT, 1048583)):
            assert [p for p in range(s, r + 1) if nt.is_probable_prime(p)] == [s, r] and s < bound < r
            for x in (r * s, r * r):
                assert list(nt.divisors_ascending(x)) == self.product_list(x), x

    def test_walk_on_seeded_bands(self):
        rng = random.Random(71)
        for k in range(8, 91):
            for x in (rng.randrange(1 << k, 1 << (k + 1)) for _ in range(3)):
                assert list(nt.divisors_ascending(x)) == self.product_list(x), x

    def test_walk_matches_the_eager_walk(self):
        # the reference is the eager walk over the full factorization; the
        # stops sit on each trial bound of the walk's schedule, 1024, 65536 and
        # TRIAL_LIMIT, and next to it, and on the bounds of an earlier schedule
        stops = (0, 1, 15, 16, 17, 255, 256, 257, 1023, 1024, 1025, 65535, 65536, 65537,
                 nt.TRIAL_LIMIT - 1, nt.TRIAL_LIMIT, nt.TRIAL_LIMIT + 1)
        rng = random.Random(83)
        xs = [q**m - 1 for q, m in self.certify_moduli()]
        xs += [rng.randrange(1 << k, 1 << (k + 1)) for k in range(1, 91, 3)]
        for x in xs:
            ref = list(nt._walk(nt.factorize(x)))
            assert nt.divisors(x) == ref, x
            for s in (*stops, x - 1, x, 2 * x):
                assert list(nt.divisors_ascending(x, s)) == [d for d in ref if d <= s], (x, s)

    def test_power_past_the_screen_is_one_piece(self):
        # 1030^2062 - 1 = b^k - 1 with k = 2 * 1031: its piece Phi_2062(1030)
        # would need the prime 1031 of 2d, above the screen, as a candidate,
        # so x stays one piece. 1031^2 divides it (1030 = -1 mod 1031), and
        # stage 1 at 2^16 finds both; split into pieces, it found one
        x = 1030**2062 - 1
        pieces = nt._pieces(x)
        assert len(pieces) == 1 and nt._stage(pieces, 1 << 16)[0][1031] == 2 and x % 1031**3 != 0
        assert list(nt.divisors_ascending(x, 2100)) == [d for d in range(1, 2101) if x % d == 0]

    def test_capped_walk_runs_no_curve(self, monkeypatch):
        # the five certify moduli whose least passing divisor needs the
        # finisher have none in the window [2, 2q - 2]; a walk that stops at
        # 2q - 2 never needs the divisor after it, so it splits no cofactor
        calls = []
        curve = nt._ecm_curve
        monkeypatch.setattr(nt, "_ecm_curve", lambda *args: calls.append(args) or curve(*args))
        nt._finish.cache_clear()
        nt._piece.cache_clear()
        for q, m in ((3, 79), (5, 53), (7, 43), (29, 23), (31, 23)):
            assert bd.search_condition_divisors(q, m, 1, max_e=2 * q - 2) == [], (q, m)
        assert calls == []

    def test_rejects_bad_input(self):
        for x in (0, -6, 6.0, "6", None, True):
            with pytest.raises(ValueError, match="need an int x >= 1"):
                nt.divisors_ascending(x)
            with pytest.raises(ValueError, match="need an int x >= 1"):
                nt.divisors(x)
        # a stop is refused at the call, not at the first next()
        for stop in ("6", 6.5, True, False):
            with pytest.raises(ValueError, match="need an int stop or None"):
                nt.divisors_ascending(12, stop)
        assert list(nt.divisors_ascending(12, -1)) == []

    def test_prefix_of_a_large_walk(self):
        # 19^30 - 1 has 393,216 divisors; certify needs only the first 16
        walk = nt.divisors_ascending(19**30 - 1)
        assert [next(walk) for _ in range(16)] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 18, 20]


def euler_phi(e: int) -> int:
    """phi(e) from the primes of e: the route mult_order took before UnitGroup."""
    out = e
    for p in nt.factorize(e) if e > 1 else ():
        out = out // p * (p - 1)
    return out


class TestPhiAndOrder:
    def test_phi_goldens(self):
        assert euler_phi(1) == 1
        assert euler_phi(9) == 6
        for a in range(1, 11):
            assert euler_phi(2**a) == 2 ** (a - 1)

    def test_phi_brute(self):
        for e in range(1, 500):
            assert euler_phi(e) == sum(1 for i in range(1, e + 1) if gcd(i, e) == 1)

    def test_order_goldens(self):
        assert nt.mult_order(-2, 27) == 9
        assert nt.mult_order(-2, 9) == 3
        assert nt.mult_order(1, 17) == 1

    def test_order_brute(self):
        rng = random.Random(23)
        for _ in range(300):
            e = rng.randrange(3, 500)
            b = rng.randrange(1, e)
            if gcd(b, e) != 1:
                continue
            x, l = b % e, 1
            while x != 1:
                x = x * b % e
                l += 1
            assert nt.mult_order(b, e) == l

    def test_order_brute_every_pair_below_300(self):
        for e in range(2, 300):
            for b in range(1, e):
                if gcd(b, e) != 1:
                    continue
                x, l = b, 1
                while x != 1:
                    x = x * b % e
                    l += 1
                assert nt.mult_order(b, e) == l, (b, e)

    def test_order_matches_phi_then_factor(self):
        # the former route as oracle: factor e inside euler_phi, then factor phi(e)
        rng = random.Random(59)
        checked = 0
        while checked < 10_000:
            e = rng.randrange(3, 10**6)
            b = rng.randrange(1, e)
            if gcd(b, e) != 1:
                continue
            l = euler_phi(e)
            for r in nt.factorize(l):
                while l % r == 0 and pow(b, l // r, e) == 1:
                    l //= r
            assert nt.mult_order(b, e) == l, (b, e)
            checked += 1

    def test_order_divides_phi(self):
        rng = random.Random(29)
        for _ in range(500):
            e = rng.randrange(3, 10**6)
            b = rng.randrange(2, e)
            if gcd(b, e) != 1:
                continue
            assert euler_phi(e) % nt.mult_order(b, e) == 0

    def test_not_coprime(self):
        with pytest.raises(ValueError, match=r"gcd\(6, 27\) != 1"):
            nt.mult_order(6, 27)


def odd_order(e, b):
    """Whether b has odd order mod e, by the one-power screen of UnitGroup."""
    return pow(b, nt.UnitGroup(e).carmichael_odd, e) == 1


class TestOddOrder:
    def test_goldens(self):
        assert odd_order(27, -2)
        for q in (4, 5, 7, 9, 16, 25):
            assert not odd_order(q + 1, -1)

    def test_matches_parity_sampled(self):
        rng = random.Random(31)
        for _ in range(2000):
            e = rng.randrange(3, 10**5)
            b = rng.randrange(1, e)
            if gcd(b, e) != 1:
                continue
            assert odd_order(e, b) == (nt.mult_order(b, e) % 2 == 1)

    def test_steps_on_quadratic_residue_pairs(self):
        # sha256 of every (b, p, is_odd) of verify check 7.d, recorded from the
        # per-prime-power structural test that the screen replaced
        digest = hashlib.sha256()
        pairs = 0
        for p in filter(nt.is_probable_prime, range(3, 500, 4)):
            for b in range(2, p):
                digest.update(repr((b, p, odd_order(p, b))).encode())
                pairs += 1
        assert pairs == 11470
        assert digest.hexdigest() == (
            "ccb2d0aca396054f9e2a4f987abb1c41a55deb14d0b6c2c6629be971b36b3be7"
        )


class TestUnitGroup:
    def test_every_unit_below_300(self):
        # brute force, the phi route of test_order_matches_phi_then_factor,
        # and lambda(e) as the largest order
        for e in range(2, 300):
            group = nt.UnitGroup(e)
            lam = group.carmichael
            assert group.carmichael_primes == (tuple(nt.factorize(lam)) if lam > 1 else ())
            phi = euler_phi(e)
            largest = 1
            for b in range(1, e):
                if gcd(b, e) != 1:
                    continue
                x, l = b, 1
                while x != 1:
                    x = x * b % e
                    l += 1
                via_phi = phi
                for r in nt.factorize(phi) if phi > 1 else ():
                    while via_phi % r == 0 and pow(b, via_phi // r, e) == 1:
                        via_phi //= r
                assert group.order(b) == group.order(b - e) == l == via_phi, (b, e)
                largest = max(largest, l)
            assert group.carmichael == largest, e

    def test_odd_part_screens_odd_orders(self):
        # b^carmichael_odd == 1 exactly when the order of b is odd
        for e in range(2, 301):
            group = nt.UnitGroup(e)
            odd = group.carmichael_odd
            assert odd % 2 == 1 and (group.carmichael // odd).bit_count() == 1, e
            for b in range(1, e):
                if gcd(b, e) == 1:
                    assert (pow(b, odd, e) == 1) == (group.order(b) % 2 == 1), (b, e)

    def test_table_cross_checks_the_screen(self, monkeypatch):
        # with lambda(e) as the screen's exponent every unit passes, and the
        # first admitted offset of even order raises
        init = nt.UnitGroup.__init__

        def admit_all(self, e):
            init(self, e)
            self.carmichael_odd = self.carmichael

        monkeypatch.setattr(nt.UnitGroup, "__init__", admit_all)
        with pytest.raises(InternalError, match="has even order .* but passed the odd-order screen"):
            bd.table_rows(7, 64)

    def test_gates(self):
        with pytest.raises(ValueError, match="need an int e >= 2, got 1"):
            nt.UnitGroup(1)
        group = nt.UnitGroup(27)
        with pytest.raises(ValueError, match=r"gcd\(6, 27\) != 1"):
            group.order(33)

    def test_check_7d_factors_each_prime_once(self, monkeypatch):
        from rmcodes import verify

        calls = []
        factor = nt._factor
        monkeypatch.setattr(nt, "_factor", lambda x: calls.append(x) or factor(x))
        verify.check_quadratic_residue_rule()
        primes = [p for p in range(3, 500, 4) if nt.is_probable_prime(p)]
        assert len(primes) == 50
        assert len(calls) <= 2 * len(primes)  # p and p - 1; a group per pair makes ~2 per pair

    def test_check_7c_group_factors_e_and_each_p_minus_1_once(self, monkeypatch):
        # the first 50 moduli that check 7.c draws: a group factors e, then p - 1
        # for each odd prime p of e, and nothing else
        calls = []
        factor = nt._factor
        monkeypatch.setattr(nt, "_factor", lambda x: calls.append(x) or factor(x))
        rng = random.Random(DEFAULT_SEED)
        for _ in range(50):
            e = rng.randrange(3, 1_000_000)
            rng.randrange(1, e)
            odd_primes = [p for p in factor(e) if p > 2]
            calls.clear()
            nt.UnitGroup(e)
            assert calls == [e, *(p - 1 for p in odd_primes)], e  # 1 + len(odd_primes) calls

    def test_argument_checked_once(self, monkeypatch):
        # the public entry checks its argument, and nothing it computes from it
        # is checked again (values whose leftovers trial division proves prime,
        # as is_probable_prime checks its own argument)
        checked = []
        check_int = nt.check_int
        monkeypatch.setattr(nt, "check_int", lambda name, *args, **kwargs: checked.append(name)
                            or check_int(name, *args, **kwargs))
        for e in (2, 9, 720720, 999_983, 1 << 20, (1 << 20) + 7, 3 * 1_048_583):
            checked.clear()
            nt.UnitGroup(e)
            assert checked == ["e"], e
        for q in (1, 6, 7, 8, 1024, 1021 * 1021, 1_048_583, 3**25):
            checked.clear()
            nt.is_prime_power(q)
            assert checked == ["q"], q

    def test_table_builds_one_group_per_modulus(self, monkeypatch):
        built = []
        init = nt.UnitGroup.__init__

        def counted(self, e):
            built.append(e)
            init(self, e)

        monkeypatch.setattr(nt.UnitGroup, "__init__", counted)
        blocks = bd.table_rows(7, 64)
        assert len(built) == len(set(built)) and built == sorted(built)
        assert {r.e for b in blocks for r in b.rows} <= set(built)


class TestGenericBounds:
    def test_342(self):
        report = bd.generic_bounds(3, 4, 2)
        assert report.lower.value == 13
        assert report.upper.value == 17
        assert report.exact is None

    def test_25_2_1(self):
        report = bd.generic_bounds(25, 2, 1)
        assert report.exact.value == 26
        barred = bd.generic_bounds(25, 2, 1, "omega_bar")
        assert barred.exact.value == 52

    def test_binary_exact(self):
        assert bd.generic_bounds(2, 5, 3).exact.value == 15
        assert bd.generic_bounds(2, 7, 1).exact.value == 3

    def test_max_h(self):
        assert bd.generic_bounds(4, 3, 2).exact.value == 21  # (4^3-1)/3

    def test_ternary_h1(self):
        for m in (2, 3, 4, 7):
            assert bd.generic_bounds(3, m, 1).exact.value == 4

    def test_binary_bar_exact_6(self):
        for m in (4, 5, 9):
            report = bd.generic_bounds(2, m, 1, "omega_bar")
            assert report.exact.value == 6
        with pytest.raises(ValueError, match=r"omega_bar\(2, 3, 1\) is the zero code"):
            bd.generic_bounds(2, 3, 1, "omega_bar")

    def test_ternary_bar(self):
        odd = bd.generic_bounds(3, 5, 1, "omega_bar")
        assert odd.lower.value == 8
        assert odd.upper.value == 10
        assert odd.exact is None
        even = bd.generic_bounds(3, 4, 1, "omega_bar")
        assert even.exact.value == 8

    def test_lower_le_upper_sweep(self):
        for q in (2, 3, 4, 5):
            for m in range(2, 7):
                for h in range(1, m):
                    for variant in ("omega", "omega_bar"):
                        if dimension(q, m, h, variant) == 0:
                            with pytest.raises(ValueError, match="is the zero code"):
                                bd.generic_bounds(q, m, h, variant)
                        else:
                            bd.generic_bounds(q, m, h, variant).validate()

    def test_doubled_lower_is_a_bch_run_of_zeros(self):
        # 0, +-1, ..., +-(R-1) lie in {0} u I u -I, so BCH gives d >= 2R for every h
        for q, m, h in GRID:
            if dimension(q, m, h, "omega_bar") == 0:
                continue
            params = QadicParams(q, m)
            fwd = index_set(params, h)
            zeros = {0, *fwd, *(params.n - a for a in fwd)}
            repunit = (q ** (h + 1) - 1) // (q - 1)
            assert all(a % params.n in zeros for a in range(1 - repunit, repunit)), (q, m, h)
            lower = bd.generic_bounds(q, m, h, "omega_bar").lower
            assert lower == bd.Bound(2 * repunit, "generic-lower-doubled")

    def test_bad_params(self):
        with pytest.raises(ValueError, match="6 is not a prime power"):
            bd.generic_bounds(6, 4, 2)
        with pytest.raises(ValueError, match="need 1 <= h <= m-1 = 1, got 2"):
            bd.generic_bounds(3, 2, 2)
        with pytest.raises(ValueError, match="variant must be one of"):
            bd.generic_bounds(3, 2, 1, "omega_hat")


class TestConditionStar:
    def test_goldens(self):
        assert cd.condition_star_holds(3, 4, 2, 16)
        assert cd.condition_star_holds(3, 6, 2, 13)

    def test_small_e_always_fails(self):
        # e <= q - 1 divides itself, a weight-1 exponent
        for q, m, h in [(3, 4, 2), (5, 2, 1), (4, 3, 2)]:
            n = q**m - 1
            for e in range(2, q):
                if n % e == 0:
                    assert not cd.condition_star_holds(q, m, h, e)

    def test_gates(self):
        with pytest.raises(ValueError, match="need 2 <= e < n = 80, got 80"):
            cd.condition_star_holds(3, 4, 2, 80)
        with pytest.raises(ValueError, match="need 2 <= e < n = 80, got 1"):
            cd.condition_star_holds(3, 4, 2, 1)
        with pytest.raises(ValueError, match="6 does not divide 80"):
            cd.condition_star_holds(3, 4, 2, 6)

    def test_domain_checked_in_codespec(self):
        with pytest.raises(ValueError, match="6 is not a prime power"):
            cd.condition_star_holds(6, 2, 1, 5)

    def test_non_integer_e_rejected(self):
        with pytest.raises(ValueError, match="need an int e, got 16.0"):
            cd.condition_star_holds(3, 4, 2, 16.0)

    def test_long_m_rejected_promptly(self):
        # n = 3^(4 * 10^7) - 1 is never built: m alone puts it past 128 bits
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=r"3\^40000000 - 1 exceeds the supported 128-bit range"):
            cd.condition_star_holds(3, 4 * 10**7, 1, 2)
        assert time.perf_counter() - start < 1.0

    def test_search_divisors(self):
        assert bd.search_condition_divisors(3, 4, 2) == [16, 40]
        assert 13 in bd.search_condition_divisors(3, 6, 2)
        assert bd.search_condition_divisors(2, 3, 1, max_e=6) == []

    def test_search_builds_one_spec(self, monkeypatch):
        # (q, m, h) is checked once per search, not once per divisor: every
        # CodeSpec splits its q, and 2^48 - 1 has 768 divisors
        calls = []
        split = cd.prime_power_split
        monkeypatch.setattr(cd, "prime_power_split", lambda q: calls.append(q) or split(q))
        assert len(bd.search_condition_divisors(2, 48, 1)) == 766
        assert calls == [2]

    def test_non_integer_max_e_rejected(self):
        for max_e in (True, False, 100.0, "100"):
            with pytest.raises(ValueError, match="need an int max_e or None"):
                bd.search_condition_divisors(3, 4, 2, max_e=max_e)

    def test_accepted_divisors_at_least_repunit(self):
        for q, m, h in [(3, 4, 2), (3, 6, 2), (2, 6, 2), (4, 3, 1), (5, 4, 1)]:
            lower = (q ** (h + 1) - 1) // (q - 1)
            for e in bd.search_condition_divisors(q, m, h):
                assert e >= lower

    def test_three_route_equivalence(self):
        # deciding on the full index set, the representatives, the maximal
        # set, the anchored exponents of condition_star_holds, or the gcds of
        # the anchored exponents with n in the divisor walk must agree
        # for every divisor of n (divisibility by a divisor of n is constant
        # on cosets; arbitrary e have no such law), over every (q, m, h) with
        # q^m <= 2^12 for the 18 prime powers of the certify workload
        checked = 0
        for q in filter(nt.is_prime_power, range(2, 33)):
            for m in takewhile(lambda m: q**m <= 1 << 12, range(2, 13)):
                params = QadicParams(q, m)
                for h in range(1, m):
                    reps = coset_partition(params, h).representatives
                    full = index_set(params, h)
                    maximal = maximal_representatives(params, h)
                    walk = set(bd.search_condition_divisors(q, m, h))
                    for e in nt.divisors(params.n):
                        if not 2 <= e < params.n:
                            continue
                        via_full = all(a % e for a in full)
                        via_reps = all(a % e for a in reps)
                        via_max = all(a % e for a in maximal)
                        via_anchored = cd.condition_star_holds(q, m, h, e)
                        via_gcds = e in walk
                        assert via_full == via_reps == via_max == via_anchored == via_gcds, (q, m, h, e)
                        checked += 1
        assert checked == 1326


class TestRepunitCertificate:
    def test_goldens(self):
        assert bd.repunit_certificate(3, 1)[0] == 4
        assert bd.repunit_certificate(3, 2)[0] == 13
        assert bd.repunit_certificate(25, 1)[0] == 26

    def test_gate(self):
        with pytest.raises(ValueError, match="need an int q >= 3, got 2"):
            bd.repunit_certificate(2, 1)
        with pytest.raises(ValueError, match="6 is not a prime power"):
            bd.repunit_certificate(6, 1)

    def test_long_h_rejected_promptly(self):
        # 3^(10^7 + 1) is never built: the exponent alone puts it past 128 bits
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="exceeds the supported 128-bit range"):
            bd.repunit_certificate(3, 10**7)
        assert time.perf_counter() - start < 0.5

    def test_certified_divisor_passes_condition(self):
        for q, h in [(3, 1), (3, 2), (4, 1), (5, 2), (9, 1)]:
            e, trace = bd.repunit_certificate(q, h)
            assert len(trace) == q - 2
            assert cd.condition_star_holds(q, h + 1, h, e)


class TestSpherePacking:
    def test_exclusions(self):
        assert not bd.sphere_packing_ok(15, 6, 2, 7)
        assert not bd.sphere_packing_ok(8, 4, 3, 5)

    def test_trivial_and_perfect(self):
        assert bd.sphere_packing_ok(12, 12, 3, 1)
        assert bd.sphere_packing_ok(7, 4, 2, 3)
        assert bd.sphere_packing_ok(7, 4, 2, 4)  # Hamming code is perfect: equality at t=1

    def test_optimality(self):
        assert bd.distance_optimal(15, 6, 2, 6)
        assert bd.distance_optimal(8, 4, 3, 4)
        assert not bd.distance_optimal(7, 4, 2, 3)  # regression pin: d+1 still packs

    def test_alphabet_below_two_rejected(self):
        # q = 1 and q = 0 passed the int check and answered True and False
        for q in (1, 0):
            for check in (bd.sphere_packing_ok, bd.distance_optimal):
                with pytest.raises(ValueError, match=f"^need an int q >= 2, got {q}$"):
                    check(7, 4, q, 3)

    def test_exact_volume(self):
        # 2^9 = 512 < 576 = sum_{i<=3} C(15, i)
        assert sum(comb(15, i) for i in range(4)) == 576

    def test_positivity(self):
        report = bd.positivity_certificates()
        assert report.cubic_values == (384, 296, 66, 6)
        assert report.quintic_value == 11579850
        assert report.all_positive


def rows_of(q):
    """The order-search rows of one q, through the table's one entry point."""
    return bd.table_rows(q, q)[0].rows


class TestOrderSearch:
    def test_exact_blocks(self):
        assert [(r.a, r.l, r.e) for r in rows_of(7)] == [(2, 3, 9)]
        assert [(r.a, r.l, r.e) for r in rows_of(13)] == [(5, 3, 18), (10, 11, 23)]
        assert [(r.a, r.l, r.e) for r in rows_of(27)] == [(19, 11, 46), (20, 23, 47)]
        assert [(r.a, r.l, r.e) for r in rows_of(29)] == [
            (17, 11, 46),
            (20, 7, 49),
            (23, 3, 52),
        ]
        assert [(r.a, r.l, r.e) for r in rows_of(32)] == [(15, 23, 47), (17, 21, 49)]

    def test_q25_superset_with_extras(self):
        rows = {(r.a, r.l, r.e) for r in rows_of(25)}
        for cell in [(2, 9, 27), (3, 3, 28), (4, 7, 29), (8, 5, 33), (22, 23, 47)]:
            assert cell in rows
        # a valid admissible offset absent from the published table
        assert (6, 3, 31) in rows
        assert pow(-6, 3, 31) == 1 and pow(-6, 1, 31) != 1

    def test_q16_includes_omitted_row(self):
        rows = {(r.a, r.l, r.e) for r in rows_of(16)}
        assert (11, 9, 27) in rows
        assert pow(-11, 9, 27) == 1 and pow(-11, 3, 27) != 1

    def test_q8_empty(self):
        assert rows_of(8) == ()
        assert nt.mult_order(-3, 11) % 2 == 0
        assert nt.mult_order(-5, 13) % 2 == 0

    def test_row_invariants(self):
        for q in (7, 9, 16, 25, 31):
            for r in rows_of(q):
                assert gcd(r.a, q) == 1 and 2 <= r.a <= q - 2
                assert r.l % 2 == 1
                assert pow(-r.a, r.l, r.e) == 1


class TestDivisorCheckAndTables:
    def test_bounded_divisor(self):
        assert pow(7, 3, 9) == 1  # 9 divides 7^3 - 1 and lies in [q+1, 2q-1]
        for q in (3, 4, 7, 11):
            for m in (3, 5):  # q = -1 mod q+1, so q^m = -1 for odd m
                assert pow(q, m, q + 1) != 1
        # 7 has order 3 mod 9; q^m is never built
        assert pow(7, 3 * (10**18 + 1), 9) == 1
        assert pow(7, 10**18 + 1, 9) != 1

    def test_table_blocks(self):
        blocks = bd.table_rows(7, 32)
        assert [b.q for b in blocks] == [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
        by_q = {b.q: b for b in blocks}
        assert by_q[8].rows == ()
        assert by_q[25].d_lower == 26 and by_q[25].d_upper == 49

    def test_table_matches_one_order_per_offset(self):
        # the former route as oracle: one mult_order per q and a, q by q
        for b in bd.table_rows(1, 130):
            want = []
            for a in range(2, b.q - 1):
                l = nt.mult_order(-a, b.q + a) if gcd(a, b.q) == 1 else 0
                if l % 2 == 1:
                    want.append(bd.OrderSearchRow(b.q, a, l, b.q + a))
            assert b.rows == tuple(want), b.q
        assert bd.table_rows(5, 6) == [bd.TableBlock(5, (), 6, 9)]
        assert bd.table_rows(6, 6) == bd.table_rows(20, 10) == []

    def test_table_csv_digest(self):
        # sha256 of the table CSV on [4, 700], recorded when table_rows still
        # called odd_order_search once per q
        csv = bd.table_csv(bd.table_rows(4, 700))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "46266c8dd5546b7937823575a1b8eed3d60e378ed8cc98df5b5e04c2682417fa"
        )

    def test_tables_json_digest(self, capsys):
        # sha256 of `tables --q-min 7 --q-max 32 --format json`, recorded when
        # each table dataclass still wrote its own JSON fields
        assert main(["tables", "--q-min", "7", "--q-max", "32", "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "c9f3eff41dd3162e4f7eb8616311cfb595a67ff6c724ba7bc4e27cae2114b695"
        )

    def test_table_csv(self):
        blocks = bd.table_rows(7, 9)
        csv = bd.table_csv(blocks)
        lines = csv.strip().split("\n")
        assert lines[0] == "q,a,l,e,d_lower,d_upper"
        assert "7,2,3,9,8,13" in lines
        assert "8,,,,9,15" in lines
        assert "9,2,5,11,10,17" in lines


def cli_merge(spec, budget=None):
    """The merge ``rmcodes bounds`` did in the CLI before ``certify``: the reference.

    It walks every divisor. It keeps the least passing one only when its bound
    is at most the upper bound, and otherwise, with no exact value, names the
    cap in a note.
    """
    report = bd.generic_bounds(spec.q, spec.m, spec.h, spec.variant)
    e = next(bd._condition_divisors(spec.q, spec.m, spec.h), None)
    scale = 1 if spec.variant == "omega" else 2
    if e is not None and (report.upper is None or scale * e <= report.upper.value):
        value = scale * e
        if report.upper is None or value < report.upper.value:
            report.upper = bd.Bound(value, "divisor-witness")
        report.witnesses.append(("divisor_e", e))
    elif report.upper is not None and report.exact is None:
        report.notes.append(f"no divisor e <= {report.upper.value // scale} passes the divisor condition")
    if budget is not None:
        try:
            result = exact_distance(build_code(spec), budget)
        except TooLarge as exc:
            report.notes.append(f"exact distance skipped: {exc}")
        else:
            assert report.exact is None or report.exact.value == result.value
            report.exact = result
            report.upper = report.exact
    report.validate()
    return report


def nonzero_grid_specs():
    for q, m, h in GRID:
        for variant in ("omega", "omega_bar"):
            if dimension(q, m, h, variant) > 0:
                yield CodeSpec(q, m, h, variant)


def budgeted_grid_specs(budget):
    """The nonzero GRID codes with a side (message or dual) that fits the budget."""
    specs = []
    for spec in nonzero_grid_specs():
        k = dimension(spec.q, spec.m, spec.h, spec.variant)
        n = spec.q**spec.m - 1
        if min(spec.q**k, spec.q ** (n - k)) <= budget.max_messages:
            specs.append(spec)
    return specs


BUDGET = SearchBudget(1 << 16)
MEET = CodeSpec(2, 6, 2, "omega_bar")


def _ones(n):
    return tuple((j, 1) for j in range(n))


# (q, m, h, variant) -> (d, the nonzero terms (j, c) of the witness that
# find_weight_witness returns at weight d, or None when its candidate cap
# stops the search), on every budgeted spec
WITNESS_PINS = {
    (2, 2, 1, "omega"): (3, _ones(3)),
    (2, 3, 1, "omega"): (3, ((0, 1), (1, 1), (3, 1))),
    (2, 3, 2, "omega"): (7, _ones(7)),
    (2, 4, 1, "omega"): (3, ((0, 1), (1, 1), (4, 1))),
    (2, 4, 1, "omega_bar"): (6, ((0, 1), (1, 1), (3, 1), (9, 1), (11, 1), (12, 1))),
    (2, 4, 2, "omega"): (7, ((0, 1), (1, 1), (2, 1), (4, 1), (5, 1), (8, 1), (10, 1))),
    (2, 4, 3, "omega"): (15, _ones(15)),
    (2, 5, 1, "omega"): (3, ((0, 1), (1, 1), (18, 1))),
    (2, 5, 1, "omega_bar"): (6, ((0, 1), (1, 1), (2, 1), (3, 1), (10, 1), (24, 1))),
    (2, 5, 2, "omega"): (7, ((0, 1), (1, 1), (2, 1), (5, 1), (11, 1), (18, 1), (19, 1))),
    (2, 5, 3, "omega"): (15, None),
    (2, 5, 4, "omega"): (31, _ones(31)),
    (2, 6, 1, "omega"): (3, ((0, 1), (1, 1), (6, 1))),
    (2, 6, 1, "omega_bar"): (6, None),
    (2, 6, 4, "omega"): (31, None),
    (2, 6, 5, "omega"): (63, _ones(63)),
    (3, 2, 1, "omega"): (4, ((0, 1), (1, 2), (3, 2), (4, 2))),
    (3, 2, 1, "omega_bar"): (8, ((0, 1), (1, 2), (2, 1), (3, 2), (4, 1), (5, 2), (6, 1), (7, 2))),
    (3, 3, 1, "omega"): (4, ((0, 1), (1, 1), (5, 1), (23, 2))),
    (3, 3, 2, "omega"): (13, None),
    (3, 3, 2, "omega_bar"): (26, None),
    (3, 4, 1, "omega"): (4, ((0, 1), (1, 1), (35, 2), (68, 1))),
    (3, 4, 3, "omega_bar"): (80, None),
    (3, 5, 1, "omega"): (4, None),
    (3, 5, 4, "omega_bar"): (242, None),
    (3, 6, 5, "omega_bar"): (728, None),
    (4, 2, 1, "omega"): (5, ((0, 1), (1, 3), (2, 2), (4, 3), (8, 2))),
    (4, 2, 1, "omega_bar"): (10, None),
    (4, 3, 2, "omega_bar"): (42, None),
}


@pytest.mark.parametrize("key", WITNESS_PINS, ids=lambda key: "-".join(map(str, key)))
def test_find_weight_witness_pins(key):
    d, want = WITNESS_PINS[key]
    witness = find_weight_witness(build_code(CodeSpec(*key)), d)
    got = None if witness is None else tuple((j, c) for j, c in enumerate(witness.coeffs) if c)
    assert got == want


def test_witness_pins_cover_the_budgeted_specs():
    specs = budgeted_grid_specs(BUDGET)
    assert [(s.q, s.m, s.h, s.variant) for s in specs] == list(WITNESS_PINS)
    assert sum(want is not None for _, want in WITNESS_PINS.values()) == 18


class TestCertify:
    def assert_matches_cli_merge(self, spec, budget=None):
        want = cli_merge(spec, budget)
        if spec == MEET and budget is None:
            want.exact = bd.Bound(14, "generic-lower-doubled+divisor-witness")
        assert bd.certify(spec, budget=budget).to_json() == want.to_json(), spec

    def test_matches_cli_merge_without_budget(self):
        specs = list(nonzero_grid_specs())
        assert len(specs) == 79
        for spec in specs:
            self.assert_matches_cli_merge(spec)

    def test_matches_cli_merge_with_budget(self):
        specs = budgeted_grid_specs(BUDGET)
        assert len(specs) == 29
        for spec in specs:
            self.assert_matches_cli_merge(spec, BUDGET)

    def test_capped_walk_matches_the_uncapped_walk(self):
        # certify walks divisors only up to the upper bound; a larger divisor
        # tightens nothing, so every value and via is that of the uncapped walk
        def values(report):
            bounds = (report.lower, report.upper, report.exact)
            return [None if b is None else (b.value, b.via) for b in bounds]

        grid = list(nonzero_grid_specs())
        moduli = [CodeSpec(q, m, 1) for q, m in TestDivisorWalk.certify_moduli()]
        assert (len(grid), len(moduli)) == (79, 126)
        for spec in grid + moduli:
            want = cli_merge(spec)
            if spec == MEET:
                want.exact = bd.Bound(14, "generic-lower-doubled+divisor-witness")
            assert values(bd.certify(spec)) == values(want), spec

    def test_certify_moduli_run_no_curve(self, monkeypatch):
        calls = []
        curve = nt._ecm_curve
        monkeypatch.setattr(nt, "_ecm_curve", lambda *args: calls.append(args) or curve(*args))
        nt._finish.cache_clear()
        nt._piece.cache_clear()
        for q, m in TestDivisorWalk.certify_moduli():
            bd.certify(CodeSpec(q, m, 1))
        assert calls == []

    def test_enumerated_exact_keeps_its_witness(self):
        routes = []
        for spec in budgeted_grid_specs(BUDGET):
            exact = bd.certify(spec, budget=BUDGET).exact
            assert exact.via.startswith("enumeration:") and exact.enumerated > 0, spec
            if exact.via == "enumeration:message-enumeration":
                assert exact.witness is not None, spec
                assert exact.witness.weight == exact.value, spec
                assert cd.is_member(build_code(spec), exact.witness.coeffs), spec
            routes.append(exact.via)
        assert routes.count("enumeration:message-enumeration") == 21

    def test_meet_is_exact(self):
        report = bd.certify(MEET)
        assert report.lower == bd.Bound(14, "generic-lower-doubled")
        assert report.upper == bd.Bound(14, "divisor-witness")
        assert report.exact == bd.Bound(14, "generic-lower-doubled+divisor-witness")

    def test_contradicting_enumeration_raises(self, monkeypatch):
        wrong = bd.Bound(5, "enumeration:message-enumeration", None, 8)
        monkeypatch.setattr(bd, "exact_distance", lambda inst, budget: wrong)
        with pytest.raises(InternalError, match="value 5 contradicts max-h-exact value 4"):
            bd.certify(CodeSpec(3, 2, 1), budget=SearchBudget())

    def test_skipped_distance_note(self):
        report = bd.certify(CodeSpec(3, 4, 2), budget=SearchBudget(100))
        assert report.exact is None
        assert report.notes == [
            "exact distance skipped: neither q^k = 3^48 nor q^(n-k) = 3^32 fits the budget 100"
        ]
        too_long = bd.certify(CodeSpec(2, 21, 1), budget=SearchBudget())
        assert too_long.exact.via == "binary-exact"
        assert too_long.notes == ["exact distance skipped: n = 2097151 exceeds the construction bound 1048576"]

    def test_divisor_search_stops_at_first_hit(self, monkeypatch):
        calls = []
        walk = bd.divisors_ascending

        def counted(x, stop):
            for e in walk(x, stop):
                calls.append(e)
                yield e

        monkeypatch.setattr(bd, "divisors_ascending", counted)
        report = bd.certify(CodeSpec(3, 80, 1))
        assert calls == [1, 2, 4]  # 3^80 - 1 has 16128 divisors; 1 is not tested
        assert ("divisor_e", 4) in report.witnesses

    def test_divisor_search_leaves_the_partition_cache(self):
        # the divisor search walks no partition, it reads the anchored exponents:
        # a cached partition per modulus would hold classes of 128-bit exponents
        coset_partition.cache_clear()
        bd.certify(CodeSpec(31, 25, 1))
        assert coset_partition.cache_info().currsize == 0

    def test_divisor_search_reads_no_maximal_set(self):
        # the anchored exponents decide the condition: neither the capped walk
        # of certify nor the uncapped search partitions or scans an index set
        coset_partition.cache_clear()
        maximal_representatives.cache_clear()
        bd.certify(CodeSpec(31, 25, 1))
        assert bd.search_condition_divisors(2, 16, 7) == [255, 3855, 13107, 21845]
        for cached in (coset_partition, maximal_representatives):
            info = cached.cache_info()
            assert info.hits + info.misses == 0, cached

    def test_divisor_search_refused_above_the_maximal_set_limit(self):
        # the anchored exponents keep the maximal set's size gate and its text
        assert bd.certify(CodeSpec(2, 18, 9)).notes == [
            "divisor search skipped: the index set of (q=2, m=18, h=9) has 155381 exponents, "
            "more than the maximal-set limit 65536"
        ]

    def test_no_budget_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(bd, "build_code", None)
        assert bd.certify(CodeSpec(3, 4, 2)).notes == []
