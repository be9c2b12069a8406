"""Exact minimum distances for small instances, plus low-weight witness checks.

Both exact routes walk every multiple of a generator polynomial with one
kernel, ``_multiples``, which visits the messages in modular q-ary Gray
order so that each word differs from the last by one scaled, shifted row of
the generator.  Words are bit-packed: one int holds the s base-p coordinate
planes of a word over F_{p^s}, one lane per code position, so a step is a
few whole-word integer operations (an XOR for p = 2, a lane-wise add mod p
for odd p) and the weight is a popcount.  The routes are cross-checked
against each other in the tests:

  * message enumeration: walk the q^k multiples of the code's generator
    (exact when q^k fits the budget); the witness is the codeword of the
    least message, read as the integer sum m_i q^i, among those of
    minimum weight;
  * dual transform: when q^(n-k) is small instead, walk the q^(n-k)
    multiples of the dual generator and recover the code's own weight
    distribution through the exact integer MacWilliams transform, with
    divisibility and total-count checks at every step.

The second route exists because dimension grows fast: already (q, m, h) =
(3, 3, 1) has q^k = 3^20 information words but only 3^6 dual words.

Every route returns a ``Bound``: the value, its ``via`` (``enumeration:<route>``
or ``candidate-witnesses``), the witness codeword when one is known and the
number of words walked.  ``bounds`` reports hold the same type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from . import gf
from .codes import Codeword, CodeInstance, encode, is_member
from .errors import InternalError, TooLarge

@dataclass(frozen=True)
class SearchBudget:
    max_messages: int = 1 << 24

    def __post_init__(self):
        if self.max_messages < 1:
            raise ValueError("max_messages must be >= 1")


@dataclass(frozen=True)
class Bound:
    """A distance bound, the rule or route that gave it, and its evidence.

    ``witness``, when set, is a codeword of weight ``value``.  ``enumerated``
    counts the nonzero words walked on either exact route, q^k - 1 by
    messages and q^(n-k) - 1 by the dual, or the candidates checked.
    """

    value: int
    via: str
    witness: Codeword | None = None
    enumerated: int = 0

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "via": self.via,
            "witness": None if self.witness is None else list(self.witness.coeffs),
            "enumerated": self.enumerated,
        }


def _multiples(ctx, g, n, dim, q) -> tuple[list[int], list[int] | None]:
    """Walk all q^dim multiples m(x) * g(x) with deg m < dim and deg(m g) < n.

    Returns the weight histogram (zero word included) and the least message,
    read as the integer sum m_i q^i, among the nonzero words of least weight
    (None when dim = 0).

    The messages run in modular q-ary Gray order on element indices: a
    base-q counter names the changed digit i (its number of trailing q-1
    digits), and message digit i steps from d to (d+1) mod q.  So each word
    adds exactly one row, (new - old) * x^i * g, to the running word.

    The running word is one int holding the s base-p coordinate planes of
    F_{p^s} (the base-p digits of the element indices) side by side, plane t
    at bit t*n*w; code position j is the w-bit lane j of every plane.  The
    rows are packed the same way once, before the walk, indexed by digit i
    and the old digit d.  Two lane classes:

      * p = 2, w = 1: a step XORs the row into the word;
      * odd p, w = bit_length(p) + 1: a step adds the row lane-wise and
        subtracts p from every lane that reached p, found as the lane top
        bit of word + (2^(w-1) - p).  A reduced lane holds at most
        p - 1 < 2^(w-1), and a sum at most 2p - 2 < 2^w, so no carry
        crosses a lane.

    The weight is the number of lanes of the OR of the planes whose top bit
    is set by adding 2^(w-1) - 1 to every lane (which adds 0 when w = 1).
    """
    hist = [0] * (n + 1)
    hist[0] = 1
    if dim == 0:
        return hist, None
    if len(g) + dim - 1 > n:
        raise ValueError(f"deg g + dim = {len(g) - 1 + dim} exceeds the length {n}")
    p, s, mul = ctx.p, ctx.s, ctx.mul
    odd = p != 2
    w = p.bit_length() + 1 if odd else 1
    stride = n * w
    lanes = sum(1 << (j * w) for j in range(n))
    shift = w - 1
    hi = lanes << shift
    probe = lanes * ((1 << shift) - 1)
    all_lanes = sum(lanes << (t * stride) for t in range(s))
    all_hi = all_lanes << shift
    bias = all_lanes * ((1 << shift) - p)
    folds = [t * stride for t in range(1, s)]
    scaled = [
        sum(
            (mul(c, a) // p**t % p) << (t * stride + j * w)
            for j, a in enumerate(g)
            for t in range(s)
        )
        for c in range(q)
    ]
    top = q - 1
    rows = [
        [scaled[ctx.sub(d + 1 if d < top else 0, d)] << (i * w) for d in range(q)]
        for i in range(dim)
    ]
    word = 0
    counter = [0] * dim
    digits = [0] * dim
    best = n + 1
    best_rev = None
    for _ in range(q**dim - 1):
        i = 0
        while counter[i] == top:
            counter[i] = 0
            i += 1
        counter[i] += 1
        old = digits[i]
        digits[i] = old + 1 if old < top else 0
        if odd:
            word += rows[i][old]
            word -= (((word + bias) & all_hi) >> shift) * p
        else:
            word ^= rows[i][old]
        planes = word
        for f in folds:
            planes |= word >> f
        weight = ((planes + probe) & hi).bit_count()
        hist[weight] += 1
        if weight <= best:
            rev = digits[::-1]
            if weight < best or rev < best_rev:
                best, best_rev = weight, rev
    return hist, best_rev[::-1]


def exhaustive_distance(inst: CodeInstance, budget: SearchBudget | None = None) -> Bound:
    """Minimum weight over all q^k - 1 nonzero information words.

    One pass of the shared Gray-order kernel over the multiples of the
    generator.  The witness is ``encode`` of the least message (as the
    integer sum m_i q^i) among the words of minimum weight.
    """
    budget = budget or SearchBudget()
    q, n, k = inst.q, inst.n, inst.k
    if k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    total = q**k
    if total > budget.max_messages:
        raise TooLarge(f"q^k = {q}^{k} exceeds the message budget {budget.max_messages}")
    hist, msg = _multiples(inst.small, inst.gen_poly, n, k, q)
    value = next(w for w in range(1, n + 1) if hist[w])
    witness = encode(inst, msg)
    if witness.weight != value:
        raise InternalError("internal: the witness weight differs from the enumerated minimum")
    return Bound(value, "enumeration:message-enumeration", witness, total - 1)


def witness_upper_bound(inst: CodeInstance, candidates) -> Bound:
    """Upper bound from explicit candidate codewords, each a nonzero member of the code."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate codewords supplied")
    best = None
    for cand in candidates:
        if cand.weight == 0:
            raise ValueError("candidate is the zero word, which bounds no distance")
        if not is_member(inst, cand.coeffs):
            raise ValueError(f"candidate of weight {cand.weight} is not in the code")
        if best is None or cand.weight < best.weight:
            best = cand
    return Bound(best.weight, "candidate-witnesses", best, len(candidates))


def dual_generator(inst: CodeInstance) -> tuple[int, ...]:
    """Monic generator of the dual code: the reciprocal of (x^n - 1) / gen."""
    small = inst.small
    check = gf.poly_xn_minus_1_quotient(small, inst.n, inst.gen_poly)
    if check is None:
        raise InternalError("internal: generator does not divide x^n - 1")
    return gf.poly_reciprocal(small, check)


def _macwilliams(hist: list[int], q: int) -> list[int]:
    """Coefficients of sum_i B_i (1 + (q-1)y)^(n-i) (1-y)^i in y, for B = hist of length n + 1.

    Horner's rule in 1 + (q-1)y: S_i = S_(i-1) (1 + (q-1)y) + B_i (1-y)^i,
    so S_n is the sum, in O(n^2) exact integer steps.
    """
    s: list[int] = []
    power = [1]  # (1 - y)^i
    for b in hist:
        s = [x + (q - 1) * y for x, y in zip(s + [0], [0] + s)]
        if b:
            s = [x + b * c for x, c in zip(s, power)]
        power = [x - y for x, y in zip(power + [0], [0] + power)]
    return s


def weight_distribution_from_dual(inst: CodeInstance) -> list[int]:
    """Exact weight distribution A_0..A_n via the dual code and MacWilliams.

    Enumerates the q^(n-k) dual codewords with weight distribution B, so
    that q^(n-k) A(y) = sum_i B_i (1 + (q-1)y)^(n-i) (1-y)^i, and verifies
    integrality, nonnegativity, A_0 = 1 and sum(A) = q^k before returning.
    """
    n, k, q = inst.n, inst.k, inst.q
    r = n - k
    dual_gen = dual_generator(inst)
    if gf.poly_degree(dual_gen) != k:
        raise InternalError("internal: dual generator degree != k")
    hist, _ = _multiples(inst.small, dual_gen, n, r, q)
    size = q**r
    dist = []
    for j, s in enumerate(_macwilliams(hist, q)):
        if s % size != 0 or s < 0:
            raise InternalError(f"internal: transform gave non-integral or negative A_{j}")
        dist.append(s // size)
    if dist[0] != 1 or sum(dist) != q**k:
        raise InternalError("internal: transformed distribution fails the count checks")
    return dist


def find_weight_witness(
    inst: CodeInstance, weight: int, *, max_candidates: int = 1 << 22
) -> Codeword | None:
    """Search for a member of the given weight, or None if the search is too large.

    Cyclic shifts and scalar multiples preserve membership and weight, so
    the support may be anchored at position 0 with leading coefficient 1;
    the search is complete at the true minimum weight.
    """
    n, q = inst.n, inst.q
    if weight < 1 or weight > n:
        raise ValueError(f"need 1 <= weight <= n, got {weight}")
    slots = weight - 1
    if comb(n - 1, slots) * (q - 1) ** slots > max_candidates:
        return None
    evaluate, reps = inst.emb.evaluate, inst.zero_representatives
    for support in combinations(range(1, n), slots):
        positions = (0, *support)
        for rest in product(range(1, q), repeat=slots):
            terms = tuple(zip(positions, (1, *rest)))
            if not any(evaluate(terms, a) for a in reps):
                dense = [0] * n
                for j, c in terms:
                    dense[j] = c
                return Codeword(tuple(dense))
    return None


def dual_transform_distance(inst: CodeInstance, budget: SearchBudget | None = None) -> Bound:
    """Exact distance from the dual weight distribution; exact but witness-optional."""
    budget = budget or SearchBudget()
    n, k, q = inst.n, inst.k, inst.q
    if k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    size = q ** (n - k)
    if size > budget.max_messages:
        raise TooLarge(f"q^(n-k) = {q}^{n - k} exceeds the message budget {budget.max_messages}")
    dist = weight_distribution_from_dual(inst)
    value = next(j for j in range(1, n + 1) if dist[j])
    witness = find_weight_witness(inst, value)
    return Bound(value, "enumeration:dual-transform", witness, size - 1)


def exact_distance(inst: CodeInstance, budget: SearchBudget | None = None) -> Bound:
    """Exact distance via whichever side of the code fits the budget."""
    budget = budget or SearchBudget()
    q, n, k = inst.q, inst.n, inst.k
    if q**k <= budget.max_messages:
        return exhaustive_distance(inst, budget)
    if q ** (n - k) <= budget.max_messages:
        return dual_transform_distance(inst, budget)
    raise TooLarge(
        f"neither q^k = {q}^{k} nor q^(n-k) = {q}^{n - k} fits the budget {budget.max_messages}"
    )
