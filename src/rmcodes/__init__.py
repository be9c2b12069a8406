"""Bounded-weight-zero-set cyclic codes over F_q: exact construction,
minimum distances, and distance-bound certificates.

Quick start::

    from rmcodes import CodeSpec, build_code, certify, exact_distance
    inst = build_code(CodeSpec(3, 2, 1))
    print(inst.n, inst.k, exact_distance(inst).value, certify(inst.spec).exact)
"""

from .errors import FactorizationIncomplete, InternalError, TooLarge
from .gf import (
    FieldCtx,
    SubfieldEmbedding,
    build_field,
    embed_subfield,
    poly_degree,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_reciprocal,
)
from .cyclotomy import (
    CosetPartition,
    QadicParams,
    coset_partition,
    index_set,
    index_set_size,
    maximal_representatives,
    q_weight,
)
from .codes import (
    CodeInstance,
    CodeSpec,
    Codeword,
    build_code,
    code_to_json,
    condition_star_holds,
    encode,
    is_member,
    minimal_poly,
    quotient_codeword,
)
from .bounds import (
    BoundReport,
    OrderSearchRow,
    certify,
    distance_optimal,
    generic_bounds,
    positivity_certificates,
    repunit_certificate,
    search_condition_divisors,
    sphere_packing_ok,
    table_rows,
)
from .ntheory import factorize, mult_order
from .distance import (
    Bound,
    SearchBudget,
    dual_transform_distance,
    exact_distance,
    exhaustive_distance,
    find_weight_witness,
    weight_distribution_from_dual,
    witness_upper_bound,
)

__version__ = "0.1.0"
