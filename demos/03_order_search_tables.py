# ## The h = 1 odd-order search
#
# For h = 1 the coset representatives are 1..q-1 regardless of m, so any
# e = q + a with 2 <= a <= q-2 automatically divides none of them.  If the
# order l of -a modulo e is odd, then e divides q^l - 1 and the quotient
# construction gives d <= e for every length exponent that is an odd
# multiple of l -- often beating the generic upper bound 2q - 1.

from rmcodes import table_rows
from rmcodes.bounds import table_csv

for q in (7, 13, 25):
    print(f"q = {q}: generic range [q+1, 2q-1] = [{q + 1}, {2 * q - 1}]")
    for row in table_rows(q, q)[0].rows:
        print(f"  a = {row.a:2d}  ->  order of {-row.a} mod {row.e} is {row.l}"
              f"  =>  d(q, {row.l}*odd, 1) <= {row.e}")
    print()

# The direct form of the same fact: any divisor of q^m - 1 landing in
# [q+1, 2q-1] bounds the distance for that specific odd m.
print("9 divides 7^3 - 1 and 8 <= 9 <= 13:", pow(7, 3, 9) == 1 and 7 + 1 <= 9 <= 2 * 7 - 1)

# ## Full table as CSV
#
# One block per prime power; q with no admissible offset keeps its bounds
# line (for example q = 8).

print()
print(table_csv(table_rows(7, 16)), end="")
