"""Exact minimum distances for small instances, plus low-weight witness checks.

Both exact routes take the weight histogram of one side of the code, the
code itself or its dual, from ``_orbit_histogram``.  A cyclic shift keeps a
word's weight, so it splits the side into the minimal ideals of its
nonzero q-cyclotomic cosets and walks one coset of a subcode per class of
shift orbits: about 1/n of the words when the first coset is primitive,
one word for the dual of a Hamming code.  A coset's walks are one call of
the kernel, ``_multiples``, which is transposed and bit-sliced: a Python
int holds one bit per message for a chunk of up to 2^12 messages that
share their high digits, so each big-int operation acts on the whole
chunk.  For each code position the kernel picks a precomputed mask of the
messages whose word is nonzero there, adds the n masks lane-wise into
binary counter planes, and splits the planes into the chunk's weight
histogram.  The routes are cross-checked against each other, and the
orbit histogram against the full walk, in the tests:

  * message enumeration: the histogram of the q^k multiples of the code's
    generator (exact when q^k fits the budget); the witness is the codeword
    of the least message, read as the integer sum m_i q^i, among those of
    minimum weight, which a walk of the messages in integer order finds
    and stops at;
  * dual transform: when only q^(n-k) fits the budget, the histogram of
    the q^(n-k) multiples of the dual generator gives the code's own weight
    distribution through the exact integer MacWilliams transform, with
    divisibility and total-count checks at every step.

The second route exists because dimension grows fast: already (q, m, h) =
(3, 3, 1) has q^k = 3^20 information words but only 3^6 dual words.

Every route returns a ``Bound``: the value, its ``via`` (``enumeration:<route>``
or ``candidate-witnesses``), the witness codeword when one is known and the
number of nonzero words the route accounts for.  ``bounds`` reports hold
the same type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb, gcd

from . import gf
from .codes import Codeword, CodeInstance, encode, is_member, minimal_poly
from .cyclotomy import cosets_meeting
from .errors import InternalError, TooLarge, check_int

@dataclass(frozen=True)
class SearchBudget:
    max_messages: int = 1 << 24

    def __post_init__(self):
        check_int("max_messages", self.max_messages, 1)


@dataclass(frozen=True)
class Bound:
    """A distance bound, the rule or route that gave it, and its evidence.

    ``witness``, when set, is a codeword of weight ``value``.  ``enumerated``
    counts the nonzero words of the side an exact route accounts for, q^k - 1
    by messages and q^(n-k) - 1 by the dual, one shift-orbit class at a time,
    or the candidates checked.
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


def _search_budget(budget) -> SearchBudget:
    """``budget``, or the default SearchBudget for None; ValueError for any other value."""
    if budget is not None and not isinstance(budget, SearchBudget):
        raise ValueError(f"need a SearchBudget budget or None, got {budget!r}")
    return budget or SearchBudget()


def _fitting_side(inst: CodeInstance, budget, sides=("message", "dual")) -> str:
    """The first of ``sides``, "message" with q^k words or "dual" with q^(n-k),
    that fits the budget; ValueError for the zero code, TooLarge when none fits."""
    limit = _search_budget(budget).max_messages
    q, n, k = inst.q, inst.n, inst.k
    if k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    words = {"message": (f"q^k = {q}^{k}", k), "dual": (f"q^(n-k) = {q}^{n - k}", n - k)}
    for side in sides:
        if q ** words[side][1] <= limit:
            return side
    texts = [words[side][0] for side in sides]
    raise TooLarge(f"neither {texts[0]} nor {texts[1]} fits the budget {limit}" if texts[1:]
                   else f"{texts[0]} exceeds the message budget {limit}")


_CHUNK = 1 << 12  # low messages per pass: the lanes of one mask
_MASK_BITS = 1 << 25  # cap on the n * q * chunk bits of the mask table
_MAX_CANDIDATES = 1 << 22  # find_weight_witness: most words one search tries


def _multiples(ctx, g, n, dim, q, offsets=((),), target=0) -> tuple[list[int], list[int]]:
    """Walk all q^dim words m(x) * g(x) + w with deg m < dim and deg(m g) < n, for
    each fixed word w in ``offsets`` (n or fewer coefficients; the zero word alone
    by default), over one mask table.

    Returns the weight histogram of all the walks (zero word included) and the
    least message, read as the integer sum m_i q^i, among the nonzero words of
    least weight in the first walk that has them.  A ``target`` weight ends the
    walk after the first chunk whose least weight equals it; the message is
    then the same as after the full walk, the histogram partial.

    The lo low digits name C = q^lo messages x, one bit lane each, with
    C <= _CHUNK and n q C <= _MASK_BITS.  ``masks[j][v]`` is the C-bit mask
    of the x whose low part of the word is not v at position j.  It is
    built digit by digit: digit i with value c moves x to x + c q^i and adds
    c a, a = g_(j-i), at position j, so the new mask for v is the sum of the
    old masks for v - c a, each shifted by c q^i into its own block of
    lanes.  So the masks of position j after digit i depend only on its
    window (g_(j-i), ..., g_j), and each level builds each distinct window
    once, from the level before: a position beyond the ends of g shares
    the all-zero window.  The table ``minus[t][v] = v - t`` keeps field
    calls out of the loops; for a code, n = q^m - 1 with m >= 2, so it has
    at most n + 1 entries.

    The high digits H run in integer order.  They reach only positions
    lo and up, whose ``neg`` entry is minus the high part of the word there
    and of w, updated by one scaled row of g per changed digit.  Position j
    of word x + H C is zero exactly when the low part equals that entry
    (-w_j below lo), so one mask per position marks the nonzero positions
    of the whole chunk, and ``tally`` counts them lane-wise with carry-save
    adders: ``planes[t]`` ends as bit t of every weight.  Splitting the
    lanes by plane from the top gives the weight classes of the chunk.  The
    least message of the least weight is the lowest lane of that class in
    the first chunk that has it; weight 0 is left out.
    """
    if len(g) + dim - 1 > n:
        raise ValueError(f"deg g + dim = {len(g) - 1 + dim} exceeds the length {n}")
    lo = 0
    while lo < dim and q ** (lo + 1) <= _CHUNK and n * q ** (lo + 2) <= _MASK_BITS:
        lo += 1
    size = q**lo
    full = (1 << size) - 1
    minus = [[ctx.sub(v, t) for v in range(q)] for t in range(q)]
    shifts = {a: [minus[ctx.mul(c, a)] for c in range(q)] for a in {0, *g}}
    padded = (0,) * lo + tuple(g) + (0,) * (n - len(g))
    built = {(): [0] + [1] * (q - 1)}  # window (g_(j-i), ..., g_j) -> masks after digit i
    for i in range(lo):
        step, prev, built = q**i, built, {}
        for w in {padded[j + lo - i : j + lo + 1] for j in range(n)}:
            old, rows = prev[w[1:]], shifts[w[0]]
            built[w] = [sum(old[r[v]] << c * step for c, r in enumerate(rows)) for v in range(q)]
    masks = [built[padded[j + 1 : j + lo + 1]] for j in range(n)]

    def tally(planes, ones):
        # Each plane holds back one input; the next one meets it and the plane
        # in a full adder, whose carry goes up a plane.  Then ripple the rest in.
        held = [0] * len(planes)
        for x in ones:
            t = 0
            while x:
                a = held[t]
                if not a:
                    held[t] = x
                    break
                held[t], b = 0, planes[t]
                u = a ^ b
                planes[t] = u ^ x
                x = (a & b) | (u & x)
                t += 1
        for t, carry in enumerate(held):
            while carry:
                b = planes[t]
                planes[t] = b ^ carry
                carry &= b
                t += 1
        return planes

    # when high digit i steps from index d to d + 1 (or q - 1 to 0), the word
    # gains (new - old) g_t at position lo + i + t; steps[d][t] subtracts it from neg
    top, width, tail = q - 1, len(g), masks[lo:]
    diffs = [ctx.sub(d + 1 if d < top else 0, d) for d in range(q)]
    steps = [[shifts[a][c] for a in g] for c in diffs]
    hist = [0] * (n + 1)
    best, best_msg = n + 1, 0
    for word, h in product(offsets, range(q ** (dim - lo))):
        if not h:  # a new fixed word w: the low positions' masks and neg start from it
            start = [minus[c][0] for c in word] + [0] * (n - len(word))
            base = tally([0] * n.bit_length(), [masks[j][start[j]] for j in range(lo)])
            neg = start[lo:]
            digits = [0] * (dim - lo)
        i = 0
        while h:  # step the high digits from h - 1 to h
            d = digits[i]
            digits[i] = d + 1 if d < top else 0
            neg[i : i + width] = map(list.__getitem__, steps[d], neg[i : i + width])
            if d < top:
                break
            i += 1
        planes = tally(base[:], map(list.__getitem__, tail, neg))
        classes = [(0, full)]
        for t in range(len(planes) - 1, -1, -1):
            plane, split = planes[t], []
            for w, lanes in classes:
                ones = lanes & plane
                if ones:
                    split.append((w | 1 << t, ones))
                if ones != lanes:
                    split.append((w, lanes ^ ones))
            classes = split
        for w, lanes in classes:
            hist[w] += lanes.bit_count()
            if 0 < w < best:
                best, best_msg = w, h * size + (lanes & -lanes).bit_length() - 1
        if best == target:
            break
    return hist, [best_msg // q**i % q for i in range(dim)]


def _orbit_histogram(inst: CodeInstance, g, dim: int, nonzeros) -> list[int]:
    """Weight histogram of the dim-dimensional side generated by g, whose
    nonzeros, the exponents b with g(alpha^b) != 0, are the set ``nonzeros``.

    A word's part in the minimal ideal of a q-cyclotomic coset K is its value
    at alpha^b, b = min K, in F_(q^|K|), and a shift multiplies that value by
    alpha^b, of order ord = n / gcd(n, b).  With the cosets K_1, K_2, ... of
    the nonzeros in order of decreasing ord, let C_i be the subcode that also
    vanishes on K_1, ..., K_i, generated by g_i = g M_(K_1) ... M_(K_i).
    Take one word w_r = u_r g_(i-1) of C_(i-1), deg u_r < |K_i|, per class
    of its value modulo <alpha^b> in F_(q^|K_i|)^*; as g_(i-1) is a nonzero
    constant at alpha^b, the class key of u_r(alpha^b) is its power to ord.
    Then (s, t) -> x^s (w_r + t), 0 <= s < ord and t in C_i, is onto the
    words of C_(i-1) that are nonzero on K_i, one to one, and keeps the
    weight.  So the histogram is the zero word plus ord times the histogram
    of the walks of all w_r + C_i, one kernel call per coset, about 1/ord of
    the words.  At the end g M_(K_1) ... must be x^n - 1, so the cosets are
    exactly the nonzeros of g, and the total must be q^dim.
    """
    n, q, small, emb = inst.n, inst.q, inst.small, inst.emb
    cosets = cosets_meeting(inst.spec.params, nonzeros)
    if len(nonzeros) != dim or sum(map(len, cosets)) != dim:
        raise InternalError(f"internal: the nonzeros are no union of cosets with {dim} exponents")
    cosets.sort(key=lambda K: (-(n // gcd(n, K[0])), K[0]))
    hist = [1] + [0] * n
    for K in cosets:
        b, d = K[0], len(K)
        order = n // gcd(n, b)
        above, g = g, gf.poly_mul(small, g, minimal_poly(emb, K))
        words = {}  # class key -> w_r
        for u in islice(product(range(q), repeat=d), 1, None):  # the nonzero u
            key = emb.big.pow(emb.evaluate([(i, c) for i, c in enumerate(u) if c], b), order)
            if key not in words:
                words[key] = gf.poly_mul(small, gf.poly_normalize(u), above)
                if len(words) * order == q**d - 1:
                    break
        part, _ = _multiples(small, g, n, n + 1 - len(g), q, offsets=list(words.values()))
        hist = [a + order * count for a, count in zip(hist, part)]
    if g != (small.neg(1),) + (0,) * (n - 1) + (1,) or sum(hist) != q**dim:
        raise InternalError("internal: the orbit walks do not account for every word")
    return hist


def exhaustive_distance(inst: CodeInstance, budget: SearchBudget | None = None) -> Bound:
    """Minimum weight over all q^k - 1 nonzero information words.

    The weight comes from the orbit histogram of the code, whose nonzeros
    are the exponents outside the zero set.  The witness is ``encode`` of
    the least message (as the integer sum m_i q^i) among the words of
    minimum weight: the kernel walks the messages in integer order and stops
    after the first chunk that holds that weight.
    """
    _fitting_side(inst, budget, ("message",))
    q, n, k = inst.q, inst.n, inst.k
    hist = _orbit_histogram(inst, inst.gen_poly, k, set(range(n)).difference(inst.zero_exponents))
    value = next(w for w in range(1, n + 1) if hist[w])
    _, msg = _multiples(inst.small, inst.gen_poly, n, k, q, target=value)
    witness = encode(inst, msg)
    if witness.weight != value:
        raise InternalError("internal: the witness weight differs from the enumerated minimum")
    return Bound(value, "enumeration:message-enumeration", witness, q**k - 1)


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
    """Monic generator of the dual code: the reciprocal of the check polynomial
    (x^n - 1) / gen, which the build already proved exact."""
    return gf.poly_reciprocal(inst.small, inst.check_poly)


def _macwilliams(hist: list[int], q: int) -> list[int]:
    """Coefficients of sum_i B_i (1 + (q-1)y)^(n-i) (1-y)^i in y, for B = hist of length n + 1.

    The coefficient of y^j in term i is the Krawtchouk value K_j(i), so only
    the nonzero B_i add a column, in O(n) exact integer steps by the recurrence
    (j+1) K_(j+1) = ((n-j)(q-1) + j - q i) K_j - (q-1)(n-j+1) K_(j-1).
    """
    n = len(hist) - 1
    s = [0] * (n + 1)
    for i, b in enumerate(hist):
        if b:
            prev, cur = 0, 1
            for j in range(n + 1):
                s[j] += b * cur
                nxt = ((n - j) * (q - 1) + j - q * i) * cur - (q - 1) * (n - j + 1) * prev
                prev, cur = cur, nxt // (j + 1)
    return s


def weight_distribution_from_dual(inst: CodeInstance) -> list[int]:
    """Exact weight distribution A_0..A_n via the dual code and MacWilliams.

    Takes the weight distribution B of the q^(n-k) dual codewords from the
    orbit histogram of the dual, whose nonzeros are the negated zeros -Z, so
    that q^(n-k) A(y) = sum_i B_i (1 + (q-1)y)^(n-i) (1-y)^i, and verifies
    integrality, nonnegativity, A_0 = 1 and sum(A) = q^k before returning.
    """
    n, k, q = inst.n, inst.k, inst.q
    dual_gen = dual_generator(inst)
    if gf.poly_degree(dual_gen) != k:
        raise InternalError("internal: dual generator degree != k")
    hist = _orbit_histogram(inst, dual_gen, n - k, {-a % n for a in inst.zero_exponents})
    size = q ** (n - k)
    dist = _macwilliams(hist, q)
    for j, s in enumerate(dist):  # in place: each A_j has up to n bits
        dist[j], rem = divmod(s, size)
        if rem or s < 0:
            raise InternalError(f"internal: transform gave non-integral or negative A_{j}")
    if dist[0] != 1 or sum(dist) != q**k:
        raise InternalError("internal: transformed distribution fails the count checks")
    return dist


def find_weight_witness(inst: CodeInstance, weight: int) -> Codeword | None:
    """Search for a member of the given weight, or None if the search would
    try more than ``_MAX_CANDIDATES`` words.

    Cyclic shifts and scalar multiples preserve membership and weight, so
    the support may be anchored at position 0 with leading coefficient 1;
    the search is complete at the true minimum weight.
    """
    n, q = inst.n, inst.q
    check_int("weight", weight)
    if weight < 1 or weight > n:
        raise ValueError(f"need 1 <= weight <= n, got {weight}")
    slots = weight - 1
    if comb(n - 1, slots) * (q - 1) ** slots > _MAX_CANDIDATES:
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
    _fitting_side(inst, budget, ("dual",))
    dist = weight_distribution_from_dual(inst)
    value = next(j for j in range(1, inst.n + 1) if dist[j])
    witness = find_weight_witness(inst, value)
    return Bound(value, "enumeration:dual-transform", witness, inst.q ** (inst.n - inst.k) - 1)


def exact_distance(inst: CodeInstance, budget: SearchBudget | None = None) -> Bound:
    """Exact distance by the message side whenever q^k fits the budget, and by
    the dual side otherwise."""
    route = {"message": exhaustive_distance, "dual": dual_transform_distance}
    return route[_fitting_side(inst, budget)](inst, budget)
