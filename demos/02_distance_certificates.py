# ## Distance certificates from divisors
#
# If a divisor e of n = q^m - 1 divides no exponent of q-weight <= h, then
# (x^N - 1)/(x^F - 1) is a codeword of weight exactly e in the code of any
# extension length N = q^(m*l) - 1 (F = N/e), giving d <= e there; the
# mirrored code gets (x - 1) times it, with weight at most 2e.

from rmcodes import (
    CodeSpec,
    QadicParams,
    build_code,
    coset_partition,
    exact_distance,
    generic_bounds,
    is_member,
    maximal_representatives,
    quotient_codeword,
    search_condition_divisors,
)

# Work through (q, m, h) = (3, 4, 2), length n = 80.
params, h = QadicParams(3, 4), 2
part = coset_partition(params, h)
print("coset representatives:", list(part.representatives))
print("maximal under divisibility:", list(maximal_representatives(params, h)))

# The divisor condition only needs the maximal set: e = 16 divides none of
# 7, 8, 11, 20, so a weight-16 codeword exists (d <= 16 < 17, the generic
# upper bound).
print("admissible divisors of 80:", search_condition_divisors(3, 4, 2))

witness = quotient_codeword(3, 4, 2, 16)
inst = build_code(CodeSpec(3, 4, 2))
print("witness weight:", witness.weight, "member:", is_member(inst, witness.coeffs))
print("generic bounds:", generic_bounds(3, 4, 2).to_json())

# For (3, 6, 2) the divisor e = 13 meets the lower bound, pinning d = 13.
print()
print("admissible divisors of 728:", search_condition_divisors(3, 6, 2, max_e=100))
w13 = quotient_codeword(3, 6, 2, 13)
inst6 = build_code(CodeSpec(3, 6, 2))
print("weight:", w13.weight, "member:", is_member(inst6, w13.coeffs))
print("lower bound:", generic_bounds(3, 6, 2).lower.value)

# ## Exact distances at desk scale
#
# Small instances are settled exactly: by enumerating all q^k messages, or,
# when the dual side is smaller, by enumerating the q^(n-k) dual codewords
# and applying the integer MacWilliams transform.

for spec in [CodeSpec(3, 2, 1), CodeSpec(3, 3, 1), CodeSpec(2, 4, 1, "omega_bar")]:
    inst = build_code(spec)
    result = exact_distance(inst)
    print(f"{spec.variant}(q={spec.q}, m={spec.m}, h={spec.h}): "
          f"[n={inst.n}, k={inst.k}, d={result.value}] via {result.via}")
