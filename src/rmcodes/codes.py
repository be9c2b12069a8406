"""Construction of the bounded-weight-zero-set cyclic codes and their mirrored variant.

For a prime power q, m >= 2 and 1 <= h <= m-1, the plain variant is the
length-(q^m - 1) cyclic code over F_q whose generator polynomial has the
zeros {alpha^a : a in I}, I the index set of q-weight <= h; the mirrored
("omega_bar") variant additionally kills the inverse zeros and the point 1:

    gen_bar = (x - 1) * lcm(gen, reciprocal(gen))

Both generators are built the same way, as the product of the minimal
polynomials of the q-cyclotomic cosets of the zero set, read from
``coset_partition``: I for the plain variant, {0} u I u -I for the mirrored one.  A zero set closed under
negation is what makes a cyclic code LCD (Yang-Massey, 1994).

Dimensions follow from the generator degree.  A word is a member exactly
when it vanishes at the least exponent a of each coset of the zero set;
``is_member`` sums its nonzero terms at alpha^a through
``SubfieldEmbedding.evaluate``, so the test costs time in proportion to the
weight of the word times the number of cosets.  The module also constructs
the explicit low-weight quotient codewords (x^N - 1)/(x^F - 1) that
certify distance upper bounds whenever a divisor e of q^m - 1 divides no
bounded-weight exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import gf
from .cyclotomy import (MATERIALIZE_LIMIT, QadicParams, check_h, coset_partition, index_set_size,
                        maximal_representatives)
from .errors import InternalError, TooLarge, check_indices, check_int
from .gf import SubfieldEmbedding, build_field, embed_subfield
from .ntheory import prime_power_split

VARIANTS = ("omega", "omega_bar")

DEFAULT_MAX_N = 1 << 20


@dataclass(frozen=True)
class CodeSpec:
    """Parameters (q, m, h) plus the variant selector."""

    q: int
    m: int
    h: int
    variant: str = "omega"

    def __post_init__(self):
        # (q, m) and h first: they are O(1), and reject q^m - 1 beyond 128 bits
        # before q is factored
        check_h(self.params, self.h)
        prime_power_split(self.q)  # raises if q is not a prime power
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def params(self) -> QadicParams:
        return QadicParams(self.q, self.m)

    @property
    def n(self) -> int:
        return self.q**self.m - 1


@dataclass(frozen=True)
class Codeword:
    """A length-n coefficient vector over F_q; its Hamming weight is derived from it."""

    coeffs: tuple[int, ...]

    @cached_property
    def weight(self) -> int:
        return sum(1 for c in self.coeffs if c)


class CodeInstance:
    """A realized cyclic code: zero set, generator and check polynomials, dimension.

    ``check_poly`` is the quotient (x^n - 1)/gen, which the build proved
    exact; ``small`` and ``big``, F_q and F_{q^m}, are read from ``emb``.
    ``zero_representatives`` holds the least exponent of each q-cyclotomic
    coset of the zero set, ascending; evaluating there decides membership.
    """

    def __init__(
        self,
        spec: CodeSpec,
        zero_exponents: tuple[int, ...],
        gen_poly: tuple[int, ...],
        check_poly: tuple[int, ...],
        emb: SubfieldEmbedding,
        zero_representatives: tuple[int, ...],
    ):
        self.spec = spec
        self.n = spec.n
        self.zero_exponents = zero_exponents
        self.gen_poly = gen_poly
        self.check_poly = check_poly
        self.k = self.n - gf.poly_degree(gen_poly)
        self.emb = emb
        self.small, self.big = emb.small, emb.big
        self.zero_representatives = zero_representatives

    @property
    def q(self) -> int:
        return self.spec.q

    def __repr__(self):
        s = self.spec
        return f"CodeInstance({s.variant}(q={s.q}, m={s.m}, h={s.h}): [n={self.n}, k={self.k}])"


@lru_cache(maxsize=4096)
def minimal_poly(emb: SubfieldEmbedding, coset: tuple[int, ...]) -> tuple[int, ...]:
    """M_K(x) = prod over i in K of (x - alpha^i) for the sorted q-cyclotomic coset K (cached).

    Every coefficient of the product is fixed by x -> x^q, and the image of
    the verified embedding is exactly that fixed field, so each maps down
    through ``emb.to_small``; a coefficient outside the image signals a
    broken embedding or a K that is no coset, and raises InternalError.
    """
    big = emb.big
    poly = [1]
    for i in coset:
        root_neg = big.neg(big.alpha_pow(i))
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] = big.add(nxt[d + 1], c)
            nxt[d] = big.add(nxt[d], big.mul(c, root_neg))
        poly = nxt
    try:
        return tuple(map(emb.to_small.__getitem__, poly))
    except KeyError as exc:
        raise InternalError(f"coefficient {exc.args[0]} has no subfield preimage") from None


@lru_cache(maxsize=128)
def _build(spec: CodeSpec) -> CodeInstance:
    n, params, h = spec.n, spec.params, spec.h
    p, s = prime_power_split(spec.q)
    small = build_field(p, s)
    emb = embed_subfield(build_field(p, s * spec.m), small)
    classes = coset_partition(params, h).classes
    if spec.variant == "omega_bar":
        # {0} u I u -I: the negation of a coset is a coset, which may be one of I's
        classes = sorted({(0,), *classes, *(tuple(sorted(n - a for a in c)) for c in classes)})
    reps = tuple(c[0] for c in classes)
    zeros = tuple(sorted(a for c in classes for a in c))

    # a balanced product tree: Karatsuba gains most on equal-sized operands
    factors = [minimal_poly(emb, c) for c in classes]
    while len(factors) > 1:
        pairs = zip(factors[::2], factors[1::2])
        factors = [gf.poly_mul(small, f, g) for f, g in pairs] + factors[len(factors) & ~1 :]
    gen = factors[0]

    # the self-check: a violation is a construction bug
    deg, deg_g = gf.poly_degree(gen), index_set_size(params, h)
    if deg != len(zeros):
        raise InternalError("internal: generator degree != number of zeros")
    if gen[-1] != 1:
        raise InternalError("internal: generator is not monic")
    check = gf.poly_xn_minus_1_quotient(small, n, gen)
    if check is None:
        raise InternalError("internal: generator does not divide x^n - 1")
    if spec.variant == "omega" and deg != deg_g:
        raise InternalError("internal: generator degree disagrees with the count formula")
    if spec.variant == "omega_bar" and h <= (spec.m - 1) // 2 and deg != 1 + 2 * deg_g:
        raise InternalError("internal: mirrored dimension disagrees with the count formula")
    return CodeInstance(spec, zeros, gen, check, emb, reps)


def build_code(spec: CodeSpec, *, max_n: int | None = None) -> CodeInstance:
    """Build the code for ``spec`` over the least primitive element of F_{q^m}.

    ``max_n``, an int or None, bounds n, by default ``DEFAULT_MAX_N`` = 2^20,
    and no bound exceeds ``MATERIALIZE_LIMIT`` = 2^26, as a build holds tuples
    of n + 1 coefficients.  It is checked first, and the build is cached by
    ``spec`` alone, so a spec is built once whatever bounds admit it.  The build
    proves gen * check_poly = x^n - 1.
    """
    check_int("max_n", max_n, optional=True)
    bound = min(DEFAULT_MAX_N if max_n is None else max_n, MATERIALIZE_LIMIT)
    if spec.n > bound:
        raise TooLarge(f"n = {spec.n} exceeds the construction bound {bound}")
    return _build(spec)


def encode(inst: CodeInstance, msg) -> Codeword:
    """Non-systematic encoding msg(x) * gen(x); injective on length-k messages."""
    msg = tuple(msg)
    if len(msg) != inst.k:
        raise ValueError(f"message length {len(msg)} != k = {inst.k}")
    check_indices("message", msg, inst.q)
    prod = gf.poly_mul(inst.small, gf.poly_normalize(msg), inst.gen_poly)
    return Codeword(prod + (0,) * (inst.n - len(prod)))


def is_member(inst: CodeInstance, word) -> bool:
    """Membership: the word's nonzero terms sum to 0 at one exponent per zero coset."""
    word = tuple(word)
    if len(word) != inst.n:
        raise ValueError(f"word length {len(word)} != n = {inst.n}")
    check_indices("word", word, inst.q)
    terms = [(j, c) for j, c in enumerate(word) if c]
    return not any(inst.emb.evaluate(terms, a) for a in inst.zero_representatives)


def _condition_star(params: QadicParams, h: int, e: int) -> bool:
    """The divisor condition on a checked e, for ``condition_star_holds`` and the divisor walk."""
    return all(a % e for a in maximal_representatives(params, h))


def condition_star_holds(q: int, m: int, h: int, e: int) -> bool:
    """True iff the divisor e of n = q^m - 1, 2 <= e < n, divides no bounded-weight
    exponent (decided on the maximal set); the checked entry point for one e.

    When true, the quotient codeword certifies distance <= e (and <= 2e for
    the mirrored code) at every extension length m*l.  The fold
    a -> (a mod q^m) + floor(a / q^m), repeated, takes a bounded-weight
    exponent of length m*l to one below q^m: q^m = 1 mod n, so each step keeps
    the class mod n, and the two parts split a's base-q digits, so the q-ary
    weight never grows.  An e that divides no bounded-weight exponent mod n
    therefore divides none at length m*l either.
    """
    params = CodeSpec(q, m, h).params  # checks (q, m, h) as every loose-argument entry does
    check_int("e", e)
    n = params.n
    if not 2 <= e < n:
        raise ValueError(f"need 2 <= e < n = {n}, got {e}")
    if n % e:
        raise ValueError(f"{e} does not divide {n}")
    return _condition_star(params, h, e)


def quotient_codeword(
    q: int,
    m: int,
    h: int,
    e: int,
    *,
    l: int = 1,
    barred: bool = False,
) -> Codeword:
    """The weight-e codeword (x^N - 1)/(x^F - 1) of the length-N code, N = q^(m*l) - 1.

    Requires a divisor e >= 2 of n = q^m - 1 that divides no bounded-weight
    exponent for (q, m, h), as ``condition_star_holds`` decides for e < n;
    e = n divides no exponent in [1, n - 1] and always qualifies.  The
    mirrored form multiplies by (x - 1) and has weight at most 2e.  N is
    bounded by ``DEFAULT_MAX_N``, as is the length of a built code.
    """
    spec = CodeSpec(q, m, h)  # validates parameter ranges
    check_int("e", e)
    check_int("l", l, 1)
    if e != spec.n and not condition_star_holds(q, m, h, e):
        raise ValueError(f"{e} divides a maximal bounded-weight exponent for (q={q}, m={m}, h={h})")
    if m * l > DEFAULT_MAX_N.bit_length():  # q >= 2, so N >= 2^(m*l) - 1 > the bound
        raise TooLarge(f"target length q^(m*l) - 1 = {q}^{m * l} - 1 exceeds the construction bound "
                       f"{DEFAULT_MAX_N}")
    N = q ** (m * l) - 1
    if N > DEFAULT_MAX_N:
        raise TooLarge(f"target length {N} exceeds the construction bound {DEFAULT_MAX_N}")
    F = N // e
    coeffs = [0] * N
    if barred:
        # (x - 1) * sum_j x^(jF) has +1 at jF+1 and -1 at jF; for F = 1 every
        # position receives both and the product is x^N - 1 = 0 mod x^N - 1.
        if F > 1:
            p, _ = prime_power_split(q)
            minus_one = p - 1  # index of the additive inverse of 1
            for j in range(e):
                coeffs[j * F] = minus_one
                coeffs[j * F + 1] = 1
    else:
        for j in range(e):
            coeffs[j * F] = 1
    return Codeword(tuple(coeffs))


def code_to_json(inst: CodeInstance) -> dict:
    """The serialized form: element indices encode base-p coefficient vectors."""
    spec = inst.spec
    return {
        "q": spec.q,
        "m": spec.m,
        "h": spec.h,
        "variant": spec.variant,
        "n": inst.n,
        "k": inst.k,
        "gen_poly": list(inst.gen_poly),
        "zero_exponents": list(inst.zero_exponents),
    }
