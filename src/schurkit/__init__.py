"""Exact Schur elements of degenerate cyclotomic Hecke algebras.

Three independent formulas for the Schur element attached to every
m-multipartition of n, exact arithmetic for the factored rational
functions they produce, and the separation-polynomial criterion for
semisimplicity of specialized algebras.
"""

from .exact import (
    FactoredRational,
    LinearForm,
    NonIntegerConstantError,
    NotAPolynomialError,
    PoleError,
    ProductBuilder,
    SparsePoly,
    Specialization,
    apply_permutation,
    canonical_parts,
    fr_const,
    fr_eval,
    fr_expand,
    fr_form,
    qindex,
    qvar,
)
from .partitions import (
    Multipartition,
    Partition,
    beta_set,
    conjugate,
    conjugate_part,
    enumerate_multipartitions,
    generalized_hook_length,
    hook_length,
    hook_product,
    l_symbol,
    mp_length,
    mp_size,
    multipartition,
    multipartition_count,
    num_standard_tableaux,
    partition,
    partition_from_beta,
    partitions_of,
    permute_components,
    removable_nodes,
    shift_beta,
)
from .schur import (
    FORMULAS,
    p_invariant,
    schur_element,
    trace_identity_sides,
    verify_hook_beta_identity,
    verify_mu_identity,
    verify_trace_identity,
    verify_x_symmetry,
    x_kernel,
    y_kernel,
    z_kernel,
)
from .semisimple import (
    SemisimplicityReport,
    ZeroFormIndex,
    cross_check_criterion,
    is_semisimple,
    separation_failure_cases,
    random_specialization,
    schur_elements_table,
    vanishing_schur_elements,
)

__version__ = "0.1.0"
