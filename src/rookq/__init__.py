"""Exact irreducible characters and bitrace for the q-rook monoid algebra R_n(q).

The package computes the character values chi^lambda_mu(q) by several
independent algorithms (power-sum inner products, a row-peeling recursion,
the Murnaghan-Nakayama rule, compact hook/two-row closed forms, and
seminormal matrix traces), cross-validates them, and evaluates the bitrace
both as a character sum and as a weighted contingency-matrix sum.
All arithmetic is exact.
"""

from .errors import (
    DivisionByZero,
    DomainError,
    HalfPowerResidue,
    InvariantViolation,
    MethodMismatch,
    NonExactDivision,
    NotGbsError,
    RookqError,
    ShapeTooLarge,
    VariantMismatch,
    WeightMismatch,
)
from .exact import LaurentPoly, RationalFunction
from .shapes import (
    conjugate,
    f_lambda,
    gbs_decompose,
    gbs_weight_k,
    hook_lengths,
    partitions_of,
    partitions_up_to,
    sort_to_partition,
    standard_count,
    subcompositions,
    z_lambda,
)
from .symfunc import (
    PExpansion,
    adjoint_apply,
    classical_char,
    hn_expansion,
    inner_product,
    q_mu,
    qhat_expansion,
    qhat_mu,
    qn_expansion,
    schur_in_p,
)
from .characters import (
    CharacterTable,
    a_poly,
    b_poly,
    chi_empty,
    chi_hook,
    chi_iterative,
    chi_mn,
    chi_oracle,
    chi_two_row,
    compute_chi,
    identity_suite_ab,
    perm_sums,
    perm_sums_agree,
)
from .bitrace import (
    ContingencyMatrix,
    bracket,
    btr_def,
    btr_matrix,
    dim_rn,
    hl_inner,
    regular_char,
)
from .seminormal import (
    enumerate_tableaux,
    quadratic_check,
    trace_standard_element,
)

__version__ = "0.1.0"
