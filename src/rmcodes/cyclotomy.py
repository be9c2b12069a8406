"""Base-q digit expansions, q-ary weights, and q-cyclotomic cosets mod q^m - 1.

The central objects are the bounded-weight exponent sets
``{a in [1, n-1] : 1 <= q_weight(a) <= h}`` (with n = q^m - 1), their
partition into orbits of a -> a*q mod n, the per-orbit minima
(representatives), and the representatives that divide no other
representative (the maximal set).  Divisibility conditions over the full
exponent set can be decided on the maximal set alone, which is what makes
the maximal set worth computing.

``coset_of`` is the one orbit walk; ``cosets_meeting`` calls it once per coset
that meets a set of exponents: the index set, for ``coset_partition`` behind
the size gate of ``index_set``, and a code's nonzeros, for the exact
distances.  A partition, which the maximal set and the code generators read,
walks only from the exponents whose lowest base-q digit is nonzero, q - 1 of
them for h = 1: a -> a*q mod n rotates the m digits, so every coset lies in
the index set and holds such an exponent.

``EXPONENT_LIMIT`` = 2^128 bounds q^m - 1 here, in ``QadicParams``, and the
field order p^s in ``gf``, which imports it from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .errors import InternalError, TooLarge, check_int

EXPONENT_LIMIT = 1 << 128
MATERIALIZE_LIMIT = 1 << 26
# largest index set with a maximal set; (2, 17, 8), 65,535 exponents, takes
# about 0.4 s: 0.07 s to partition and 0.3 s for the quadratic scan (2-vCPU VM)
_MAXIMAL_LIMIT = 1 << 16


@dataclass(frozen=True)
class QadicParams:
    """The pair (q, m) with the implied modulus n = q^m - 1."""

    q: int
    m: int

    def __post_init__(self):
        check_int("q", self.q, 2)
        check_int("m", self.m, 2)
        # q >= 2, so q^m >= 2^m: a long m is rejected before the power
        if self.m > EXPONENT_LIMIT.bit_length() or self.q**self.m - 1 > EXPONENT_LIMIT:
            raise TooLarge(f"{self.q}^{self.m} - 1 exceeds the supported 128-bit range")

    @property
    def n(self) -> int:
        return self.q**self.m - 1


def q_weight(params: QadicParams, x: int) -> int:
    """Number of nonzero base-q digits of the least nonnegative residue of x mod n."""
    check_int("x", x)
    q = params.q
    x %= params.n
    w = 0
    for _ in range(params.m):
        if x % q:
            w += 1
        x //= q
    return w


def check_h(params: QadicParams, h: int):
    """Raise ValueError unless h is an int with 1 <= h <= m - 1."""
    check_int("h", h)
    if not 1 <= h <= params.m - 1:
        raise ValueError(f"need 1 <= h <= m-1 = {params.m - 1}, got {h}")


def index_set_size(params: QadicParams, h: int) -> int:
    """|{a in [1, n-1] : q_weight(a) <= h}| = sum over i of (q-1)^i C(m,i)."""
    check_h(params, h)
    return sum((params.q - 1) ** i * comb(params.m, i) for i in range(1, h + 1))


def _index_exponents(params: QadicParams, h: int, anchored: bool = False):
    """The index set, unsorted, or with ``anchored`` only its exponents whose lowest
    base-q digit is nonzero; TooLarge first, from the size formula of the whole
    set, above ``MATERIALIZE_LIMIT``."""
    if index_set_size(params, h) > MATERIALIZE_LIMIT:
        raise TooLarge("index set too large to materialize")
    q, m = params.q, params.m
    # the nonzero digit values at each position: an exponent is one pick per support position
    places = [[d * q**i for d in range(1, q)] for i in range(m)]
    return (a
            for r in range(1, h + 1)
            for support in combinations(range(m), r) if support[0] == 0 or not anchored
            for a in map(sum, product(*(places[i] for i in support))))


def index_set(params: QadicParams, h: int) -> tuple[int, ...]:
    """Sorted exponents a in [1, n-1] with q_weight(a) <= h."""
    return tuple(sorted(_index_exponents(params, h)))


def coset_of(params: QadicParams, a: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of a mod n, sorted ascending: the one orbit walk."""
    check_int("a", a)
    n = params.n
    a %= n
    orbit, x = [a], a * params.q % n
    while x != a:
        orbit.append(x)
        x = x * params.q % n
    return tuple(sorted(orbit))


def cosets_meeting(params: QadicParams, exponents) -> list[tuple[int, ...]]:
    """The q-cyclotomic cosets that meet ``exponents``, each walked once, in the order met."""
    seen, cosets = set(), []
    for a in exponents:
        if a not in seen:
            cosets.append(coset_of(params, a))
            seen.update(cosets[-1])
    return cosets


@dataclass(frozen=True)
class CosetPartition:
    """The bounded-weight exponent set split into q-cyclotomic cosets: the
    sorted ``classes``, in the order of their least elements, ``representatives``."""

    params: QadicParams
    h: int
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


def _partition(params: QadicParams, h: int) -> CosetPartition:
    classes = sorted(cosets_meeting(params, _index_exponents(params, h, anchored=True)))
    if sum(map(len, classes)) != index_set_size(params, h):
        raise InternalError(f"internal: the cosets of {params} at h={h} do not cover the index set")
    return CosetPartition(params, h, tuple(classes), tuple(c[0] for c in classes))


@lru_cache(maxsize=256, typed=True)
def coset_partition(params: QadicParams, h: int) -> CosetPartition:
    """Partition the index set into cosets, each walked once; representatives are
    per-orbit minima.  Above ``MATERIALIZE_LIMIT`` exponents, TooLarge before any walk."""
    return _partition(params, h)


@lru_cache(maxsize=256, typed=True)
def maximal_representatives(params: QadicParams, h: int) -> tuple[int, ...]:
    """Representatives that properly divide no other representative.

    The scan is quadratic in the representatives, so a set above
    ``_MAXIMAL_LIMIT`` exponents raises TooLarge before any walk.  The
    partition is not cached: the divisor search reads the maximal sets of
    many moduli that no build needs, and caching their classes costs memory.
    """
    size = index_set_size(params, h)
    if size > _MAXIMAL_LIMIT:
        raise TooLarge(f"the index set of (q={params.q}, m={params.m}, h={h}) has {size} exponents, "
                       f"more than the maximal-set limit {_MAXIMAL_LIMIT}")
    reps = _partition(params, h).representatives
    # ascending, and a proper multiple of r is larger than r: scan only what follows
    return tuple(r for i, r in enumerate(reps) if not any(s % r == 0 for s in reps[i + 1:]))
