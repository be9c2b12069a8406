"""Exact arithmetic in finite fields F_{p^s} and dense polynomials over them.

Field elements are plain integer indices in [0, p^s): the base-p digits of
the index are the element's coordinates in the polynomial basis, lowest
power first.  Index 0 is the zero element, index 1 the unit, index p the
basis element x.  This makes the index itself the canonical serialization
order (the i-th field element is the one whose coordinate vector is the
base-p expansion of i).

A field is built deterministically: the modulus is the first monic
irreducible polynomial of its degree in ascending index order, and the
primitive element is the least index x (for s >= 2 from index p on) with
x^((q-1)/r) != 1 for each prime r of q - 1, q = p^s (Lidl and Niederreiter,
*Finite Fields*, ch. 2); the exp/log walk of a tabled field proves it.
The characteristic p must be below ``ntheory.PROVEN_PRIME_BOUND``, where
the primality test is a proof, and p^s at most ``cyclotomy.EXPONENT_LIMIT``
= 2^128.  ``build_field(p, s)`` is the one cached constructor.  Fields of
at most ``TABLE_THRESHOLD`` elements, a constant read when the field is
constructed, carry discrete exp/log tables and, for odd p, a Zech table
zech[i] = log(1 + alpha^i), so that x + y is x * (1 + y/x) in three lookups
(for p = 2 it is XOR); larger fields fall back to direct polynomial
arithmetic, where an odd-p sum adds the digits of ``element_coeffs``.  The tables come from a walk in
which multiplying by alpha is an F_p-linear map of the digits, a few
lookups per step.  Only ``mul``, ``add`` and ``alpha_pow`` read them; every
other field power, the inverse x^(q-2) included, is ``_power`` over ``mul``.

A subfield F_q of F_{q^m} is embedded by matching the powers of a primitive
element of F_q with the powers of beta = alpha^((q^m-1)/(q-1)).  Such a map
phi is multiplicative with phi(1) = 1, so it is additive exactly when
phi(1 + c) = 1 + phi(c) for every c in F_q, because
phi(a + b) = phi(a) * phi(1 + b/a); that test of q values is exact.
``SubfieldEmbedding.evaluate`` is the one evaluation of a small-field word
at a power alpha^a: it sums c * alpha^(a*j) over the word's nonzero terms
(j, c), one ``alpha_pow``, ``mul`` and ``add`` each, so it costs time in
proportion to the weight of the word, not its length.

Polynomials over a field are tuples of element indices, lowest degree
first, with no trailing zeros; the zero polynomial is the empty tuple.

``poly_mul`` uses Kronecker substitution on digit planes.  A polynomial
over F_{p^s} is s polynomials over F_p, one per base-p digit of its
coefficients, and each of them fills fixed-width slots of one integer.
Karatsuba over the planes forms the 2s - 1 product planes from big-integer
multiplies (3 for s = 2, 1 for s = 1).  Reducing y^s by the modulus, for the
field generator y, adds multiples of the high planes into the low s, and
then each slot is taken mod p: one AND with the low-bit mask for p = 2.  The
slot width is whole bytes, without an upper cutoff, and holds the largest
slot of the reduced planes (for p = 2 also a whole index, which is packed
before its bits are split), so no slot ever carries into the next.
``poly_xn_minus_1_quotient`` finds (x^n - 1)/g as the power series -1/g
mod x^(n - deg g + 1), by Newton's iteration, and checks g times it exactly.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import product
from sys import byteorder

from .cyclotomy import EXPONENT_LIMIT
from .errors import InternalError, TooLarge, check_int
from .ntheory import PROVEN_PRIME_BOUND, factorize, is_probable_prime

TABLE_THRESHOLD = 1 << 20


class FieldCtx:
    """Immutable arithmetic context for F_{p^s}; safe to share freely."""

    def __init__(self, p: int, s: int):
        check_int("p", p)
        if p >= PROVEN_PRIME_BOUND:
            raise TooLarge(f"primality of {p} cannot be proven (needs p < {PROVEN_PRIME_BOUND})")
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        check_int("s", s, 1)
        # p >= 2, so p^s >= 2^s: a long exponent is rejected before the power
        if s > EXPONENT_LIMIT.bit_length() or p**s > EXPONENT_LIMIT:
            raise TooLarge(f"{p}^{s} exceeds the supported 128-bit range")
        self.p = p
        self.s = s
        self.order = p**s
        self.modulus = _find_modulus(p, s)
        self._group_primes = tuple(factorize(self.order - 1)) if self.order > 2 else ()
        self.exp: list[int] | None = None
        self.log: list[int] | None = None
        self.zech: list[int] | None = None

        self.primitive_elem = next(self.primitives())
        if self.order <= TABLE_THRESHOLD:
            self._build_log_tables()

    # -- raw arithmetic on indices (no tables) ------------------------------

    def _raw_add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        p = self.p
        return self.element_from_coeffs(
            (a + b) % p for a, b in zip(self.element_coeffs(x), self.element_coeffs(y)))

    def _raw_mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self.s == 1:
            return x * y % self.p
        p = self.p
        a, b = self.element_coeffs(x), self.element_coeffs(y)
        r = [0] * (2 * self.s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    r[i + j] = (r[i + j] + ai * bj) % p
        f = self.modulus
        for k in range(len(r) - 1, self.s - 1, -1):
            c = r[k]
            if c:
                off = k - self.s
                for i in range(self.s):
                    r[off + i] = (r[off + i] - c * f[i]) % p
        return self.element_from_coeffs(r[: self.s])

    def _build_log_tables(self):
        """exp/log, and for odd p the Zech table, by the walk t -> t * alpha.

        For s >= 2 that step is F_p-linear on the digit vector of t: it is the
        sum of the images of t's low k digits and of its high s - k digits, one
        lookup each in tables of p^k and p^(s-k) entries.  For p = 2 the sum is
        XOR.  For odd p each image holds one digit per ``bits``-wide field, so
        the sum does not carry, and one lookup per half of the sum takes its
        fields, each at most 2(p - 1), mod p.
        """
        q, p, s, a = self.order, self.p, self.s, self.primitive_elem
        exp = [0] * (q - 1)
        log = [-1] * q
        t = 1
        if s == 1:
            for i in range(q - 1):
                exp[i] = t
                log[t] = i
                t = t * a % p
        else:
            k = (s + 1) // 2
            P = p**k  # t = lo + hi * P
            lo_image = [self._raw_mul(lo, a) for lo in range(P)]
            hi_image = [self._raw_mul(hi * P, a) for hi in range(q // P)]
            if p == 2:
                mask = P - 1
                for i in range(q - 1):
                    exp[i] = t
                    log[t] = i
                    t = lo_image[t & mask] ^ hi_image[t >> k]
            else:
                bits = (2 * p - 2).bit_length()

                def spread(digits):
                    return sum(d << bits * j for j, d in enumerate(digits))

                lo_image = [spread(self.element_coeffs(x)) for x in lo_image]
                hi_image = [spread(self.element_coeffs(x)) for x in hi_image]
                # the fields of one half of a sum -> that half's index
                to_index = {
                    spread(v): sum(d % p * p**j for j, d in enumerate(v))
                    for v in product(range(2 * p - 1), repeat=k)
                }
                shift = bits * k
                mask = (1 << shift) - 1
                lo, hi = 1, 0
                for i in range(q - 1):
                    exp[i] = t
                    log[t] = i
                    w = lo_image[lo] + hi_image[hi]
                    lo, hi = to_index[w & mask], to_index[w >> shift]
                    t = lo + hi * P
        # alpha is primitive iff the walk reaches every nonzero element
        if t != 1 or log.count(-1) != 1:
            raise InternalError(f"primitive element check failed: {a} does not generate GF({q})*")
        self.exp, self.log = exp, log
        if p > 2:
            # Zech logarithms: zech[i] = log(1 + alpha^i), -1 where 1 + alpha^i = 0.
            # Adding 1 steps the lowest base-p digit, so after[x] = log(x + 1)
            # is log shifted by one index, with each block of p wrapped around.
            after = log[1:] + log[:1]
            after[p - 1 :: p] = log[::p]
            self.zech = list(map(after.__getitem__, exp))

    # -- public ops ----------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        """x + y; on a tabled odd field x * (1 + y/x) by the Zech table."""
        if self.zech is None:
            return self._raw_add(x, y)
        if x == 0 or y == 0:
            return x or y
        n, lx = self.order - 1, self.log[x]
        z = self.zech[(self.log[y] - lx) % n]
        return 0 if z < 0 else self.exp[(lx + z) % n]

    def neg(self, x: int) -> int:
        """-x, as x times the index p - 1 of -1."""
        return x if self.p == 2 else self.mul(x, self.p - 1)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.log is not None:
            if x == 0 or y == 0:
                return 0
            return self.exp[(self.log[x] + self.log[y]) % (self.order - 1)]
        return self._raw_mul(x, y)

    def inv(self, x: int) -> int:
        """1/x, as x^(q-2)."""
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(x, self.order - 2)

    def pow(self, x: int, e: int) -> int:
        """x**e by ``_power`` over ``mul``; a negative e inverts x first."""
        if e < 0:
            return self.pow(self.inv(x), -e)
        return _power(self.mul, 1, x, e)

    def alpha_pow(self, e: int) -> int:
        """primitive_elem ** e, for any integer e: one lookup on a tabled field."""
        e %= self.order - 1
        if self.exp is not None:
            return self.exp[e]
        return self.pow(self.primitive_elem, e)

    def primitives(self):
        """The primitive elements, in ascending index order; for s >= 2 from
        index p on, since indices below p are the prime subfield.  x is
        primitive iff x^((q-1)/r) != 1 for every prime r of q - 1."""
        n = self.order - 1
        start = self.p if self.s > 1 else 1
        return (x for x in range(start, self.order)
                if all(self.pow(x, n // r) != 1 for r in self._group_primes))

    def element_coeffs(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coordinate vector (length s, lowest power first)."""
        p = self.p
        v = []
        for _ in range(self.s):
            v.append(x % p)
            x //= p
        return tuple(v)

    def element_from_coeffs(self, v) -> int:
        x, unit = 0, 1
        for c in v:
            x += c * unit
            unit *= self.p
        return x

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.s}))"


def _power(mul, one, x, e: int):
    """x**e by square-and-multiply, for an associative ``mul`` with unit ``one``."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        x = mul(x, x)
        e >>= 1
    return result


@lru_cache(maxsize=32, typed=True)
def build_field(p: int, s: int) -> FieldCtx:
    """Construct F_{p^s} deterministically (cached; the result is immutable)."""
    return FieldCtx(p, s)


# ---------------------------------------------------------------------------
# subfield embedding


class SubfieldEmbedding:
    """The image of F_q inside F_{q^m}, with both-way element maps.

    ``beta`` is alpha**((q^m-1)/(q-1)), a generator of the order-(q-1)
    subgroup; the embedding matches beta-powers with powers of a primitive
    element g of the small field.  That map is multiplicative, and it is
    accepted only if phi(1 + c) = 1 + phi(c) for all q elements c, which
    holds iff it preserves every sum.  The first g in ascending order that
    passes is used.
    """

    def __init__(self, big: FieldCtx, small: FieldCtx, beta: int, to_big: tuple[int, ...]):
        self.big = big
        self.small = small
        self.beta = beta
        self.to_big = to_big
        self.to_small = {b: a for a, b in enumerate(to_big)}

    def evaluate(self, terms, a: int) -> int:
        """The word sum c * x^j, given as its (position j, small-field c) terms, at x = alpha^a."""
        big, lift = self.big, self.to_big
        add, mul, apow = big.add, big.mul, big.alpha_pow
        acc = 0
        for j, c in terms:
            acc = add(acc, mul(lift[c], apow(a * j)))
        return acc

    def __repr__(self):
        return f"SubfieldEmbedding(GF({self.small.order}) -> GF({self.big.order}))"


@lru_cache(maxsize=32)
def embed_subfield(big: FieldCtx, small: FieldCtx) -> SubfieldEmbedding:
    """Embed the small field into the big one; big.order must be a power of small.order."""
    if big.p != small.p:
        raise ValueError(f"characteristics differ: {big.p} vs {small.p}")
    q = small.order
    t = q
    while t < big.order:
        t *= q
    if t != big.order:
        raise ValueError(f"{big.order} is not a power of {q}")
    beta = big.alpha_pow((big.order - 1) // (q - 1))
    # beta^(q-1) = 1, and beta^((q-1)/r) != 1 for each prime r of q - 1 (``primitives``' rule)
    n = q - 1
    if big.pow(beta, n) != 1 or any(big.pow(beta, n // r) == 1 for r in small._group_primes):
        raise InternalError(f"beta = {beta} does not have order {n}")

    for g in small.primitives():
        to_big = [0] * q
        xs, xb = 1, 1
        for _ in range(q - 1):
            to_big[xs] = xb
            xs = small.mul(xs, g)
            xb = big.mul(xb, beta)
        # to_big is multiplicative with 1 -> 1, so it is additive iff it
        # commutes with c -> 1 + c: phi(a + b) = phi(a) * phi(1 + b/a)
        if all(to_big[small.add(1, c)] == big.add(1, to_big[c]) for c in range(q)):
            emb = SubfieldEmbedding(big, small, beta, tuple(to_big))
            for x in emb.to_big:
                if big.pow(x, q) != x:
                    raise InternalError(f"image element {x} fails x^q = x")
            return emb
    raise InternalError(
        f"no multiplicative matching of GF({q}) into GF({big.order}) is additive"
    )


# ---------------------------------------------------------------------------
# dense polynomials over a field (tuples of element indices, lowest first)


def poly_normalize(coeffs) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def poly_degree(f) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(f) - 1


def poly_add(ctx: FieldCtx, a, b) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ctx.add(out[i], c)
    return poly_normalize(out)


# array typecode of each item width in bytes, ascending
_ARRAY_CODES = {array(c).itemsize: c for c in "BHILQ"}


def poly_mul(ctx: FieldCtx, a, b) -> tuple[int, ...]:
    """Product by Kronecker substitution on digit planes (see the module docstring)."""
    if not a or not b:
        return ()
    p, f, count = ctx.p, ctx.modulus, len(a) + len(b) - 1
    # a slot holds any slot of the reduced planes, and for p = 2 a whole index
    bound = max(min(len(a), len(b)) * (p - 1) ** 2 * _slot_scale(p, f), ctx.order - 1)
    width = (bound.bit_length() + 7) // 8
    for w in _ARRAY_CODES:  # the least array item width that holds a slot
        if w >= width:
            width = w
            break
    planes = _plane_product(_planes(ctx, a, width), _planes(ctx, b, width))
    if len(planes) > 1:
        planes = _reduce(planes, f, p)
    if p == 2:  # a slot mod 2 is its low bit
        ones, packed = _ones(count, width), 0
        for c in reversed(planes):
            packed = packed << 1 | c & ones
        return poly_normalize(_unpack(packed, width, count))
    out = [d % p for d in _unpack(planes.pop(), width, count)]
    for c in reversed(planes):
        out = [v * p + d % p for v, d in zip(out, _unpack(c, width, count))]
    return poly_normalize(out)


def _reduce(planes: list, f, p: int) -> list:
    """The 2s - 1 product planes with y^s = -(f_0 + f_1 y + ... + f_(s-1) y^(s-1))
    put in, as s planes of nonnegative slots."""
    s = len(f) - 1
    for k in range(len(planes) - 1, s - 1, -1):
        for i in range(s):
            if f[i]:
                planes[k - s + i] += (p - f[i]) * planes[k]
    return planes[:s]


@lru_cache(maxsize=32)
def _slot_scale(p: int, f) -> int:
    """The largest slot of the reduced planes, in units of min(len a, len b) * (p-1)^2:
    product plane k sums min(k + 1, 2s - 1 - k) digit products per slot."""
    s = len(f) - 1
    return max(_reduce([min(k + 1, 2 * s - 1 - k) for k in range(2 * s - 1)], f, p))


def _planes(ctx: FieldCtx, coeffs, width: int) -> list[int]:
    """The s digit planes of ``coeffs``: plane i packs digit i of every coefficient."""
    p, s = ctx.p, ctx.s
    if s == 1:
        return [_pack(coeffs, width)]
    if p == 2:
        packed, ones = _pack(coeffs, width), _ones(len(coeffs), width)
        return [packed >> i & ones for i in range(s)]
    return [_pack([c // p**i % p for c in coeffs], width) for i in range(s)]


def _plane_product(a: list[int], b: list[int]) -> list[int]:
    """The product of two equal-length lists of ints as polynomials, by
    Karatsuba: 3 multiplies for 2 terms."""
    n = len(a)
    if n == 1:
        return [a[0] * b[0]]
    h = n // 2
    low, high = _plane_product(a[:h], b[:h]), _plane_product(a[h:], b[h:])
    pad = [0] * (n - 2 * h)
    mid = _plane_product(
        [x + y for x, y in zip(a[:h] + pad, a[h:])], [x + y for x, y in zip(b[:h] + pad, b[h:])]
    )
    out = low + [0] + high
    for i, v in enumerate(mid):
        out[h + i] += v - high[i] - (low[i] if i < len(low) else 0)
    return out


def _pack(values, width: int) -> int:
    """The ``values`` as ``width``-byte slots of one int in native byte order.  A
    big-endian host reverses all slots of both factors, and so of the product,
    which ``_unpack`` reads back in full."""
    try:
        raw = bytes(values)  # every value below 256: one byte per slot, spread out
        if width > 1:
            spread = bytearray(width * len(raw))
            spread[0 if byteorder == "little" else width - 1 :: width] = raw
            raw = spread
    except ValueError:
        if width in _ARRAY_CODES:
            raw = array(_ARRAY_CODES[width], values).tobytes()
        else:
            raw = b"".join([v.to_bytes(width, byteorder) for v in values])
    return int.from_bytes(raw, byteorder)


def _ones(count: int, width: int) -> int:
    """``count`` slots that each hold 1, the low-bit mask of ``_pack``'s layout."""
    return int.from_bytes((1).to_bytes(width, byteorder) * count, byteorder)


def _unpack(x: int, width: int, count: int):
    """The ``count`` slot values of ``x``, inverse to ``_pack``."""
    raw = x.to_bytes(width * count, byteorder)
    if width in _ARRAY_CODES:
        return array(_ARRAY_CODES[width], raw)
    return [int.from_bytes(raw[i : i + width], byteorder) for i in range(0, len(raw), width)]


def poly_scale(ctx: FieldCtx, c: int, f) -> tuple[int, ...]:
    return poly_normalize([ctx.mul(c, x) for x in f])


def poly_divmod(ctx: FieldCtx, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(quotient, remainder) with deg(remainder) < deg(b)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), poly_normalize(a)
    inv_lead = 1 if b[-1] == 1 else ctx.inv(b[-1])  # a monic divisor needs no inverse
    quot = [0] * (len(a) - db)
    add, mul, neg = ctx.add, ctx.mul, ctx.neg
    for i in range(len(quot) - 1, -1, -1):
        c = a[i + db]
        if c:
            fac = mul(c, inv_lead)
            quot[i] = fac
            nfac = neg(fac)
            for j in range(db + 1):
                a[i + j] = add(a[i + j], mul(nfac, b[j]))
    return poly_normalize(quot), poly_normalize(a[:db])


def poly_xn_minus_1_quotient(ctx: FieldCtx, n: int, g) -> tuple[int, ...] | None:
    """(x^n - 1) / g, or None when g does not divide x^n - 1.

    For deg g >= 1 the quotient h has degree below N = n - deg g + 1 and
    g*h = -1 mod x^N; Newton's step h <- h + h*(g*h + 1) doubles the precision
    of that series.  The closing check g*h == x^n - 1 is exact.
    """
    check_int("n", n, 1)
    g = poly_normalize(g)
    target = (ctx.neg(1),) + (0,) * (n - 1) + (1,)
    if not g or g[0] == 0 or len(g) > n + 1:
        return None
    inv0 = 1 if g[0] == 1 else ctx.inv(g[0])  # a constant term of 1 needs no inverse
    if len(g) == 1:
        h = poly_scale(ctx, inv0, target)
    else:
        N, h, k = n - len(g) + 2, (ctx.neg(inv0),), 1
        while k < N:
            k2 = min(2 * k, N)
            e = poly_mul(ctx, g[:k2], h)[k:k2]  # g*h + 1 = x^k * e mod x^k2
            h = poly_normalize(h + (0,) * (k - len(h)) + poly_mul(ctx, h, e)[: k2 - k])
            k = k2
    return h if poly_mul(ctx, g, h) == target else None


def poly_monic(ctx: FieldCtx, f) -> tuple[int, ...]:
    if not f:
        return ()
    if f[-1] == 1:
        return poly_normalize(f)
    return poly_scale(ctx, ctx.inv(f[-1]), f)


def poly_gcd(ctx: FieldCtx, a, b) -> tuple[int, ...]:
    """Monic greatest common divisor."""
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_divmod(ctx, a, b)[1]
    return poly_monic(ctx, a)


def poly_reciprocal(ctx: FieldCtx, f) -> tuple[int, ...]:
    """x^deg(f) * f(1/x), normalized monic; requires f(0) != 0."""
    f = poly_normalize(f)
    if not f or f[0] == 0:
        raise ValueError("reciprocal needs a nonzero constant term")
    return poly_monic(ctx, tuple(reversed(f)))


# ---------------------------------------------------------------------------
# modulus search, on the polynomials above over the prime field


def _find_modulus(p: int, s: int) -> tuple[int, ...]:
    """The first monic degree-s irreducible over Z_p in ascending index order.

    Monic f of degree s is irreducible iff gcd(f, x^(p^i) - x) = 1 for every
    i <= s/2.
    """
    if s == 1:
        return (0, 1)
    zp = build_field(p, 1)
    x, minus_x = (0, 1), (0, p - 1)

    def mul_mod_f(g, h):
        return poly_divmod(zp, poly_mul(zp, g, h), f)[1]

    for c in range(p**s):
        f = tuple(c // p**i % p for i in range(s)) + (1,)
        xpi = x
        for _ in range(s // 2):
            xpi = _power(mul_mod_f, (1,), xpi, p)
            if poly_gcd(zp, f, poly_add(zp, xpi, minus_x)) != (1,):
                break
        else:
            return f
    raise InternalError(f"no irreducible degree-{s} polynomial over Z_{p}")  # unreachable
