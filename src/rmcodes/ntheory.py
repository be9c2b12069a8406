"""Exact integer number theory: factorization, Euler phi, multiplicative orders.

Everything here is deterministic and uses arbitrary-precision integers only.
Factorization is trial division up to ``TRIAL_LIMIT`` followed by Brent's
cycle-finding variant of Pollard rho with a fixed iteration budget; a
composite cofactor that survives the budget is reported, never mislabeled
as prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import FactorizationIncomplete, InternalError


TRIAL_LIMIT = 1 << 20

# The first 13 primes as strong Miller-Rabin bases.  Sorenson and Webster
# (2015) proved that no composite below psi_13 = PROVEN_PRIME_BOUND passes
# all of them, so the test is a proof there.  psi_13 itself is composite and
# passes, so at or above the bound a "prime" answer is only probable.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_PRIME_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Strong-pseudoprime test to the bases ``_MR_BASES``; exact for n < PROVEN_PRIME_BOUND."""
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


def _brent_rho(n: int, max_iters: int) -> int:
    """One Brent-rho attempt per polynomial offset; 0 if nothing found."""
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        iters = 0
        while g == 1 and iters < max_iters:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            iters += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return 0


def factorize(x: int, *, rho_budget: int = 1 << 22) -> dict[int, int]:
    """Factor ``x`` >= 2 into a {prime: exponent} map.

    Each reported factor is proven prime when it is below
    PROVEN_PRIME_BOUND and only a strong probable prime at or above it.
    Raises FactorizationIncomplete if a composite cofactor survives the
    Pollard-rho iteration budget.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    # wheel over 6k +- 1
    d = 7
    limit = min(TRIAL_LIMIT, isqrt(x))
    step = 4
    while d <= limit:
        if x % d == 0:
            while x % d == 0:
                factors[d] = factors.get(d, 0) + 1
                x //= d
            limit = min(TRIAL_LIMIT, isqrt(x))
        d += step
        step = 6 - step
    if x == 1:
        return factors
    stack = [x]
    while stack:
        y = stack.pop()
        if y == 1:
            continue
        if is_probable_prime(y):
            factors[y] = factors.get(y, 0) + 1
            continue
        g = _brent_rho(y, rho_budget)
        if g == 0:
            raise FactorizationIncomplete(y)
        stack.append(g)
        stack.append(y // g)
    return factors


def divisors(x: int) -> list[int]:
    """All positive divisors of ``x``, sorted ascending."""
    if x == 1:
        return [1]
    divs = [1]
    for p, a in sorted(factorize(x).items()):
        divs = [d * p**i for d in divs for i in range(a + 1)]
    return sorted(divs)


def euler_phi(e: int) -> int:
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    if e == 1:
        return 1
    out = e
    for p in factorize(e):
        out //= p
        out *= p - 1
    return out


def mult_order(b: int, e: int) -> int:
    """Least l >= 1 with b**l == 1 (mod e); b may be negative."""
    if e < 2:
        raise ValueError(f"need modulus e >= 2, got {e}")
    b %= e
    if gcd(b, e) != 1:
        raise ValueError(f"gcd({b}, {e}) != 1")
    l = euler_phi(e)
    for r in factorize(l):
        while l % r == 0 and pow(b, l // r, e) == 1:
            l //= r
    return l


@dataclass(frozen=True)
class OddOrderResult:
    is_odd: bool
    steps: tuple[str, ...]


def odd_order_test(b: int, e: int) -> OddOrderResult:
    """Decide whether the order of ``b`` mod ``e`` is odd, structurally.

    The decision splits ``e`` into prime powers (the order mod ``e`` is the
    lcm of the orders mod each prime power): for 2**a the order is odd only
    when it is 1; for an odd prime power the parity equals the parity of the
    order mod p, which is odd exactly when b is a 2**t-th power mod p where
    p - 1 = 2**t * N with N odd, i.e. when b**N == 1 (mod p).

    The structural answer is cross-checked against the parity of the order
    computed directly; a disagreement raises InternalError.
    """
    if e < 2:
        raise ValueError(f"need modulus e >= 2, got {e}")
    b %= e
    if gcd(b, e) != 1:
        raise ValueError(f"gcd({b}, {e}) != 1")
    steps = []
    is_odd = True
    for p, a in sorted(factorize(e).items()):
        pa = p**a
        if p == 2:
            part = b % pa == 1
            steps.append(f"2^{a}: odd order iff b = 1 mod {pa}; b mod {pa} = {b % pa}")
        else:
            n_odd = p - 1
            t = 0
            while n_odd % 2 == 0:
                n_odd //= 2
                t += 1
            part = pow(b, n_odd, p) == 1
            steps.append(
                f"{p}^{a}: p-1 = 2^{t}*{n_odd}; b^{n_odd} mod {p} = {pow(b, n_odd, p)}"
            )
        if not part:
            is_odd = False
    direct = mult_order(b, e) % 2 == 1
    if direct != is_odd:
        raise InternalError(
            f"structural odd-order answer {is_odd} != direct parity {direct} for b={b}, e={e}"
        )
    return OddOrderResult(is_odd, tuple(steps))


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**s for prime p, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, s),) = fac.items()
    return p, s


def is_prime_power(q: int) -> bool:
    try:
        prime_power_split(q)
    except ValueError:
        return False
    return True
