"""Exact integer number theory: factorization and multiplicative orders.

Everything here is deterministic and uses arbitrary-precision integers only.
Factoring runs in two stages.  Stage 1 is trial division, then Miller-Rabin
on what is left: a pure function of x and the trial bound.  Each stage-1
call starts with one screen, ``_screen``: a gcd with the product of the
primes up to 1024, then division by the primes of that gcd alone.  An
x = b^k - 1, k <= 1024, beyond the reach of trial division is split into its
cyclotomic pieces Phi_d(b), d | k (Brillhart et al., *Factorizations of
b^n +- 1*), each cached per bound.  A prime of Phi_d(b) divides d, inside
the screen, or is 1 mod d, so the screen is followed by 1 + lcm(2, d)*j
above 1024; any other x by the 6k +- 1 wheel from 1025.  Both go up to
``TRIAL_LIMIT``; a leftover below the square of the next candidate is prime
by the division itself, so x < TRIAL_LIMIT**2 needs no Miller-Rabin.
A larger leftover is a prime by Miller-Rabin (a proof below
``PROVEN_PRIME_BOUND``) or a composite cofactor, every prime of which
exceeds ``TRIAL_LIMIT``.  Stage 2, the finisher, splits each composite
cofactor: an exact power b^k is taken to its base b, and a composite b is
split by Lenstra's elliptic-curve method (ECM) on Montgomery curves with
fixed parameters, stage 1 and a stage-2 continuation (Montgomery, *Speeding
the Pollard and elliptic curve methods of factorization*, 1987).  A curve
scales its points to Z = 1 where that saves products: the base point of its
x-only ladder, and its stage-2 points by one simultaneous inversion per
block.  Each scaling is by a unit mod n, which changes no gcd with n, so a
curve returns the gcd of the unscaled computation; the one exception is a
stage-2 block whose product of Z's is not a unit, where the curve returns
that product's gcd with n.  ``_ECM_ROUNDS``, a fixed table of curves, is
the one bound on the ECM work on each composite; a composite cofactor that
survives its last curve is reported, never mislabeled as prime.

``factorize`` is the one factoring entry point; the cyclotomic pieces,
``UnitGroup`` and ``prime_power_split`` call its body, ``_factor``, without
the argument check.  An x <= ``TRIAL_LIMIT`` takes the screen alone: what is
left has no prime up to 1024, and TRIAL_LIMIT < 1031^2, so it is 1 or a
prime, proven by the division as in stage 1.  A larger x runs stage 1
straight to ``TRIAL_LIMIT`` and then the finisher.
``divisors_ascending`` is the one divisor walk, lazy in both stages: it runs
stage 1 at the bounds 1024 (no lower bound finds less), 2^16 and
``TRIAL_LIMIT`` in turn, each only when its walk needs a larger divisor, and
the finisher only when the walk gets past ``TRIAL_LIMIT`` or past the
divisors stage 1 knows.  A divisor <= the bound has no prime above it, so
stage 1 has found all of its primes.  Given a ``stop``, the walk ends at the first divisor above it,
or once its bound reaches it, so it factors no further than the divisors it
yields; ``divisors`` is the walk run to its end.

``UnitGroup(e)`` factors a modulus e once per group, and each p - 1 once,
and holds the Carmichael exponent lambda(e); orders reduce from lambda(e).
Its odd part, ``carmichael_odd``, is the one odd-order test: a unit has odd
order exactly when its power to it is 1.  ``mult_order`` builds one group for
one unit, so a caller with many units mod the same e builds the group once
and asks it.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from heapq import heappop, heappush
from itertools import accumulate, combinations, compress, cycle
from math import gcd, isqrt, prod

from .errors import FactorizationIncomplete, check_int


TRIAL_LIMIT = 1 << 20

# The first 13 primes as strong Miller-Rabin bases.  Sorenson and Webster
# (2015) proved that no composite below psi_13 = PROVEN_PRIME_BOUND passes
# all of them, so the test is a proof there.  psi_13 itself is composite and
# passes, so at or above the bound a "prime" answer is only probable.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_PRIME_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Strong-pseudoprime test to the bases ``_MR_BASES``; exact for n < PROVEN_PRIME_BOUND."""
    check_int("n", n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ECM: (B1, curves) per round, the usual B1 for factors of 15 and 20 digits.
# The table is the one limit on ECM work: each composite gets these 74 curves
# at most.  Stage 2 covers the primes up to B2 = _ECM_B2_RATIO * B1 in giant
# steps of _ECM_D, against the baby steps i < D/2 prime to D.
_ECM_ROUNDS = ((2_000, 25), (11_000, 49))
_ECM_B2_RATIO = 50
_ECM_D = 210
_ECM_BABY = tuple(i for i in range(1, _ECM_D // 2, 2) if gcd(i, _ECM_D) == 1)


def _primes(n: int) -> tuple[int, ...]:
    """The primes <= n >= 2, by a sieve of Eratosthenes over the odd numbers."""
    sieve = bytearray([1]) * ((n + 1) // 2)  # sieve[i] stands for 2i + 1
    sieve[0] = 0
    for i in range(1, (isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return (2, *compress(range(1, n + 1, 2), sieve))


@lru_cache(maxsize=None)
def _stage1_multiplier(b1: int) -> int:
    """The product of the largest powers of each prime p <= b1 that stay <= b1."""
    k = 1
    for p in _primes(b1):
        pk = p
        while pk * p <= b1:
            pk *= p
        k *= pk
    return k


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """kP = (X : Z) for P = (x : 1) on y^2 = x^3 + Ax^2 + x, a24 = (A + 2)/4, k >= 1.

    Montgomery's ladder keeps (P0, P1) = (jP, (j + 1)P); each bit of k adds
    them, with difference P, and doubles P0 on a 0 bit, P1 on a 1 bit.  One
    body does both, as the pair is kept swapped while the bits are 1.  As P
    has Z = 1, the sum costs one product less than with a general difference."""
    x0, z0 = x, 1
    s, d = (x + 1) * (x + 1) % n, (x - 1) * (x - 1) % n
    t = s - d
    x1, z1 = s * d % n, t * (d + a24 * t) % n
    swapped = "0"
    for bit in bin(k)[3:]:
        if bit != swapped:
            x0, x1 = x1, x0
            z0, z1 = z1, z0
            swapped = bit
        a, b = x0 + z0, x0 - z0
        u = b * (x1 + z1) % n
        v = a * (x1 - z1) % n
        w, y = u + v, u - v
        x1, z1 = w * w % n, x * y * y % n
        s, d = a * a % n, b * b % n
        t = s - d
        x0 = s * d % n
        z0 = t * (d + a24 * t) % n
    return (x1, z1) if swapped == "1" else (x0, z0)


def _normalized(points: list[tuple[int, int]], n: int) -> tuple[int, list[int]]:
    """(g, [X/Z mod n for each (X, Z) in ``points``]) by one inversion
    (Montgomery's simultaneous inversion), with g = gcd(product of the Z's, n);
    if g != 1 the list is empty."""
    prefix = list(accumulate((z for _, z in points), lambda p, z: p * z % n))
    g = gcd(prefix[-1], n)
    if g != 1:
        return g, []
    inv = pow(prefix[-1], -1, n)  # 1 / (z_0 ... z_j) for j from the last down
    xs = [0] * len(points)
    for j in range(len(points) - 1, 0, -1):
        x, z = points[j]
        xs[j] = x * inv * prefix[j - 1] % n
        inv = inv * z % n
    xs[0] = points[0][0] * inv % n
    return 1, xs


def _ecm_giants(b1: int) -> range:
    """The giant steps m of stage 2, from max(1, B1 // D) while m*D - D/2 <= B2."""
    return range(max(1, b1 // _ECM_D), (_ECM_B2_RATIO * b1 + _ECM_D // 2) // _ECM_D + 1)


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """One ECM curve with Suyama's parameter ``sigma``: a gcd that may be 1 or n.

    Each point is scaled to Z = 1 where that saves products: the base point
    of the stage-1 ladder, and the baby and giant points of stage 2, by one
    inversion per block of at most len(_ECM_BABY) points.  Every scaling is by
    a unit mod n, and a unit changes no gcd with n, so the curve returns the
    gcd of the unscaled computation, whose stage-2 term for a giant G and a
    baby B is X_G Z_B - X_B Z_G.  The one exception: if the product of a
    block's Z's is not a unit, the curve returns its gcd with n, as stage 1
    does with its Z."""
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    x = u * u * u % n
    den = 16 * x * v % n  # a24 = (v - u)^3 (3u + v) / (16 u^3 v)
    g = gcd(den, n)
    if g != 1:
        return g
    inv = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * inv % n
    w = 16 * x * u * inv % n  # u / v, so the base point (u^3 : v^3) is (w^3 : 1)
    x, z = _ladder(_stage1_multiplier(b1), w * w * w % n, a24, n)
    g = gcd(z, n)
    if g != 1:
        return g
    # stage 2: a prime l in (B1, B2] is m*D +- i; l*Q = 0 forces mD*Q = +-i*Q,
    # which the difference of the normalized x coordinates detects
    x = x * pow(z, -1, n) % n
    g, babies = _normalized([_ladder(i, x, a24, n) for i in _ECM_BABY], n)
    if g != 1:
        return g
    giants = _ecm_giants(b1)
    xs, zs = _ladder(_ECM_D, x, a24, n)
    xg, zg = _ladder(giants.start * _ECM_D, x, a24, n)
    xh, zh = _ladder((giants.start + 1) * _ECM_D, x, a24, n)
    acc = 1
    for start in range(0, len(giants), len(_ECM_BABY)):
        block = []
        for _ in giants[start : start + len(_ECM_BABY)]:
            block.append((xg, zg))
            u = (xh - zh) * (xs + zs) % n  # (m + 2)D = (m + 1)D + D, difference mD
            v = (xh + zh) * (xs - zs) % n
            w, y = u + v, u - v
            xg, zg, xh, zh = xh, zh, zg * w * w % n, xg * y * y % n
        g, block = _normalized(block, n)
        if g != 1:
            return g
        for xm in block:
            for xb in babies:
                acc = acc * (xm - xb) % n
    return gcd(acc, n)


def _ecm(n: int) -> int:
    """A proper factor of the odd composite ``n`` by ECM, or 0 after the last
    curve of ``_ECM_ROUNDS``: the curves take sigma = 6, 7, 8, ... through its
    rounds in order."""
    for sigma, b1 in enumerate((b1 for b1, curves in _ECM_ROUNDS for _ in range(curves)), 6):
        g = _ecm_curve(n, sigma, b1)
        if 1 < g < n:
            return g
    return 0


@lru_cache(maxsize=256)
def _finish(y: int) -> tuple[tuple[int, int], ...]:
    """Stage 2: the (prime, exponent) pairs of the composite ``y``.

    Each composite is first reduced to its power base: b^k, k maximal, stands
    for b with k times the exponent.  ECM finds the prime p of p^2 no sooner
    than a prime of the same size in p*q, while ``_power_base`` takes it at
    once.  A composite b is split by ECM."""
    factors: dict[int, int] = {}
    stack = [(y, 1)]
    while stack:
        y, k = stack.pop()
        y, j = _power_base(y)
        k *= j
        if j > 1 and is_probable_prime(y):
            factors[y] = factors.get(y, 0) + k
            continue
        g = _ecm(y)
        if g == 0:
            raise FactorizationIncomplete(y)
        for z in (g, y // g):
            if is_probable_prime(z):
                factors[z] = factors.get(z, 0) + k
            else:
                stack.append((z, k))
    return tuple(sorted(factors.items()))


def _iroot(y: int, k: int) -> int:
    """floor(y ** (1/k)) for y >= 1, k >= 2, by Newton's method from above, in integers.

    The start 2^ceil(bits(y)/k) exceeds the root and is at most twice it.
    From any r above the root a step stays at or above floor(root), by AM-GM,
    and decreases, so the first step that does not decrease ends the walk."""
    r = 1 << -(-y.bit_length() // k)
    while True:
        s = ((k - 1) * r + y // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _power_base(y: int) -> tuple[int, int]:
    """(b, k) with b**k == y >= 2 and k as large as possible.

    Only prime exponents l are tried, each while it keeps giving an exact
    root: if b = c^j with c no perfect power, b is an l-th power iff l | j,
    so a prime that fails on b fails on every later root of b as well."""
    b, k, l = y, 1, 2
    while l < b.bit_length():
        r = _iroot(b, l)
        if r**l == b:
            b, k = r, k * l
        else:
            l += 1
            while not is_probable_prime(l):
                l += 1
    return b, k


def _cyclotomic_value(b: int, d: int) -> int:
    """Phi_d(b), the Moebius product of the b^e - 1 over the divisors e of d."""
    primes = list(_factor(d)) if d > 1 else []
    num = den = 1
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            if r % 2:
                den *= b ** (d // prod(subset)) - 1
            else:
                num *= b ** (d // prod(subset)) - 1
    return num // den


_SCREEN_BOUND = isqrt(TRIAL_LIMIT)  # 1024: every stage-1 call divides by the primes up to it
_SMALL_PRIMES = _primes(_SCREEN_BOUND)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)  # their product, a 1420-bit int


def _screen(x: int) -> tuple[int, dict[int, int]]:
    """(what is left of ``x`` >= 1, {prime: exponent} of its primes <= 1024, keys
    ascending).  g = gcd(x, _SMALL_PRODUCT) is the product of those primes,
    each once, and x is divided by them alone, taken out of g smallest first
    while c^2 <= g; what is left of g is then 1 or one prime, the largest."""
    g = gcd(x, _SMALL_PRODUCT)
    factors = {}
    for c in _SMALL_PRIMES:
        if c * c > g:
            break
        if g % c == 0:
            g //= c
            x, a = x // c, 1
            while x % c == 0:
                x, a = x // c, a + 1
            factors[c] = a
    if g > 1:
        x, a = x // g, 1
        while x % g == 0:
            x, a = x // g, a + 1
        factors[g] = a
    return x, factors


def _trial(x: int, d: int, step: int, wheel: int,
           bound: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Stage 1 on ``x`` up to ``bound``: (what is left of x, the (prime, exponent)
    pairs found).  ``_screen`` divides out the primes up to 1024 at any bound;
    then the candidates d > 1024, d + step, ... (steps alternate with wheel -
    step) are divided out up to min(bound, isqrt(x)).

    Every prime factor of x above 1024 must be a candidate, so a leftover 1 < x
    < c^2 at the first untried candidate c is prime; past TRIAL_LIMIT, so is one
    that passes Miller-Rabin.  Either is recorded and x becomes 1.  Any other
    leftover has only prime factors above the last candidate tried."""
    x, found = _screen(x)
    limit = min(bound, isqrt(x))
    for c in accumulate(cycle((step, wheel - step)), initial=d):
        if c > limit:
            break
        if x % c == 0:
            x, a = x // c, 1
            while x % c == 0:
                x, a = x // c, a + 1
            found[c] = a
            limit = min(bound, isqrt(x))
    if 1 < x and (x < c * c or c > TRIAL_LIMIT and is_probable_prime(x)):
        found[x] = 1
        x = 1
    return x, tuple(found.items())


@lru_cache(maxsize=1024)
def _piece(b: int, d: int, bound: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Stage 1 on Phi_d(b) up to ``bound``, as ``_trial`` returns it, for d <=
    1024, so the primes of 2d are inside the screen.  Any other prime r of
    Phi_d(b) is odd, and b has order d mod r, so r is 1 mod lcm(2, d): one of
    the candidates 1 + lcm(2, d)*j above 1024, as ``_trial`` requires."""
    step = d if d % 2 == 0 else 2 * d
    return _trial(_cyclotomic_value(b, d), 1 + step * -(-_SCREEN_BOUND // step), step, 2 * step, bound)


def _pieces(x: int) -> list:
    """The pieces of ``x`` >= 2, each stage 1 on it as a function of the trial
    bound.  Above TRIAL_LIMIT**2, an x with x + 1 = b^k, 2 <= k <= 1024 (k <=
    128 for x <= 2^128), is the product of ``_piece(b, d, bound)`` over d | k;
    any other x is one piece, ``_wheel(x)``, memoized for the life of the list,
    as the finisher step of a walk asks it again at TRIAL_LIMIT."""
    if x > TRIAL_LIMIT * TRIAL_LIMIT:
        b, k = _power_base(x + 1)
        if 1 < k <= _SCREEN_BOUND:
            return [partial(_piece, b, d) for d in range(1, k + 1) if k % d == 0]
    return [cache(_wheel(x))]


def _wheel(x: int) -> partial:
    """Stage 1 on ``x`` as one piece, as a function of the trial bound: the
    screen, then the 6k +- 1 wheel from 1025."""
    return partial(_trial, x, 1025, 2, 6)


def _stage(pieces: list, bound: int | None) -> tuple[dict[int, int], bool]:
    """Run stage 1 on each piece up to ``bound``, or with ``bound`` None up to
    TRIAL_LIMIT and then the finisher on each composite cofactor.  Returns the
    {prime: exponent} map found and whether a piece is left open: unfactored,
    with every prime above ``bound``."""
    factors, open_ = {}, False
    for piece in pieces:
        y, pairs = piece(bound or TRIAL_LIMIT)
        if y > 1 and bound is None:
            pairs += _finish(y)
        for p, a in pairs:
            factors[p] = factors.get(p, 0) + a
        open_ = open_ or y > 1 and bound is not None
    return factors, open_


def _factor(x: int) -> dict[int, int]:
    """``factorize`` without the argument check, for an x >= 2 the library
    computed itself; a new dict on each call, which the caller may change."""
    if x <= TRIAL_LIMIT:
        x, factors = _screen(x)
        if x > 1:  # no prime <= 1024 and x <= TRIAL_LIMIT < 1031^2: a prime
            factors[x] = 1
        return factors
    pieces = _pieces(x)
    factors = _stage(pieces, None)[0]
    return factors if len(pieces) == 1 else dict(sorted(factors.items()))


def factorize(x: int) -> dict[int, int]:
    """Factor ``x`` >= 2 into a {prime: exponent} map, keys ascending.  An
    x <= TRIAL_LIMIT is divided by the primes of its gcd with the product of
    the primes up to 1024 (``_screen``), and its leftover is prime as x <
    1031^2.  A larger x runs stage 1, the same screen and then the
    progressions, then the finisher on each composite cofactor.

    A factor that trial division finds, or leaves below the square of its
    next candidate, is proven prime by the division.  Any other factor is
    proven prime by Miller-Rabin when it is below PROVEN_PRIME_BOUND and only
    a strong probable prime at or above it.  Raises FactorizationIncomplete
    if a composite cofactor survives every curve of ``_ECM_ROUNDS``, the one
    bound on the ECM work on each cofactor.
    """
    check_int("x", x, 2)
    return _factor(x)


def _walk(factors: dict[int, int]):
    """The divisors of the product of p^a over ``factors``, smallest first: a heap
    walk that extends a divisor only by primes >= its largest, so each is pushed once."""
    fac = sorted(factors.items())
    heap = [(1, 0, 0)]  # (divisor, index of its largest prime, that prime's exponent)
    while heap:
        d, i, k = heappop(heap)
        yield d
        if i < len(fac) and k < fac[i][1]:
            heappush(heap, (d * fac[i][0], i, k + 1))
        for j in range(i + 1, len(fac)):
            heappush(heap, (d * fac[j][0], j, 1))


def divisors_ascending(x: int, stop: int | None = None):
    """The divisors of ``x`` >= 1, smallest first, lazily, up to ``stop`` if one
    is given; ``x`` is factored only as far as the walk goes.

    Stage 1 runs at the bounds 1024, 2^16 and TRIAL_LIMIT in turn, afresh at
    each, and raises the bound only when the walk needs a larger divisor.
    Below 1024 a bound would find no more than the screen does at 1024.
    A divisor <= the bound is a product of primes <= it, all found, so the walk
    yields every such divisor.  The finisher splits the cofactors only when the
    walk needs more past TRIAL_LIMIT: a divisor above it, or more than the
    stage-1 divisors (7^43 - 1 has only 1, 2, 3, 6).  After each step the walk
    goes on over the larger factorization, past what it has yielded.  It ends
    at the first divisor above ``stop``, or once its bound is at least
    ``stop``, so it never factors further for a divisor it will not yield.
    A bad ``x`` or ``stop`` is refused at the call, not at the first step.
    """
    check_int("x", x, 1)
    check_int("stop", stop, optional=True)
    return _ascending(_pieces(x) if x > 1 else [], stop)


def _ascending(pieces: list, stop: int | None):
    last = 0
    for bound in (_SCREEN_BOUND, 1 << 16, TRIAL_LIMIT, None):
        factors, open_ = _stage(pieces, bound)
        for d in _walk(factors):
            if open_ and d > bound:
                break
            if stop is not None and d > stop:
                return
            if d > last:
                yield d
                last = d
        if not open_ or stop is not None and bound >= stop:
            return


def divisors(x: int) -> list[int]:
    """All positive divisors of ``x`` >= 1, sorted ascending: the divisor walk
    run to its end."""
    return list(divisors_ascending(x))


class UnitGroup:
    """The group of units mod ``e`` >= 2, with ``e`` factored once.

    Building it factors ``e``, and ``p - 1`` once for each odd prime p of
    ``e``.  From these it holds the Carmichael exponent ``carmichael`` =
    lambda(e), the least common multiple of the lambda(p^a): p^(a-1)(p - 1)
    for odd p, 1, 2 and 2^(a-2) for 2, 4 and 2^a with a >= 3, and the primes
    of lambda(e) in ``carmichael_primes``.  Every order divides lambda(e), so
    ``order`` reduces from it.  It also holds the odd part of lambda(e) in
    ``carmichael_odd``: an order is odd exactly when it divides that part, so a
    unit has odd order exactly when its power to ``carmichael_odd`` is 1, one
    power where ``order`` makes one per prime of lambda(e) at least.  That
    power is the one odd-order test.  One group serves any number of ``order``
    calls and odd-order tests without factoring again.
    """

    def __init__(self, e: int):
        check_int("e", e, 2)
        self.e = e
        lam: dict[int, int] = {}
        for p, a in _factor(e).items():
            if p == 2:
                piece = {2: a - 1 if a < 3 else a - 2}
            else:
                piece = _factor(p - 1)
                if a > 1:
                    piece[p] = a - 1
            for r, k in piece.items():
                if k > lam.get(r, 0):
                    lam[r] = k
        self.carmichael_odd = prod(r**k for r, k in lam.items() if r != 2)
        self.carmichael = self.carmichael_odd << lam.get(2, 0)
        self.carmichael_primes = tuple(sorted(lam))

    def _unit(self, b: int) -> int:
        check_int("b", b)
        b %= self.e
        if gcd(b, self.e) != 1:
            raise ValueError(f"gcd({b}, {self.e}) != 1")
        return b

    def order(self, b: int) -> int:
        """Least l >= 1 with b**l == 1 (mod e); b may be negative."""
        b, e = self._unit(b), self.e
        l = self.carmichael
        for r in self.carmichael_primes:
            while l % r == 0 and pow(b, l // r, e) == 1:
                l //= r
        return l


def mult_order(b: int, e: int) -> int:
    """Least l >= 1 with b**l == 1 (mod e); b may be negative.  Factors e once,
    through ``UnitGroup(e)``, and reduces from lambda(e)."""
    return UnitGroup(e).order(b)


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**s for prime p, or raise ValueError."""
    check_int("q", q)
    if q >= 2:
        fac = _factor(q)
        if len(fac) == 1:
            ((p, s),) = fac.items()
            return p, s
    raise ValueError(f"{q} is not a prime power")


def is_prime_power(q: int) -> bool:
    check_int("q", q)  # a non-int is refused; False is only for an int that is no prime power
    return q >= 2 and len(_factor(q)) == 1
