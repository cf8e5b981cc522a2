"""Exact Schur elements of degenerate cyclotomic Hecke algebras.

Three independent formulas for the Schur element attached to every
m-multipartition of n, exact arithmetic for the factored rational
functions they produce, and the separation-polynomial criterion for
semisimplicity of specialized algebras.

__all__ is the package's contract.  Every other name, here or in a
submodule, is internal and may change.
"""

from .exact import (
    FactoredRational,
    NonIntegerConstantError,
    NotAPolynomialError,
    PoleError,
    SparsePoly,
    Specialization,
    apply_permutation,
    fr_eval,
    fr_expand,
    fr_form,
)
from .partitions import (
    enumerate_multipartitions,
    multipartition,
    multipartition_count,
    permute_components,
)
from .schur import (
    FORMULAS,
    p_invariant,
    schur_element,
    verify_trace_identity,
    x_kernel,
    y_kernel,
    z_kernel,
)
from .semisimple import (
    SemisimplicityReport,
    ZeroFormIndex,
    cross_check_criterion,
    is_semisimple,
    schur_elements_table,
)

__all__ = [
    # values, the specialization they are evaluated at, and the errors a caller handles
    "FactoredRational", "SparsePoly", "Specialization",
    "PoleError", "NotAPolynomialError", "NonIntegerConstantError",
    # building, evaluating, expanding and permuting values
    "fr_form", "fr_eval", "fr_expand", "apply_permutation",
    # multipartitions
    "multipartition", "enumerate_multipartitions", "multipartition_count", "permute_components",
    # the three formulas, the kernels, the separation polynomial and the trace identity
    "FORMULAS", "schur_element", "x_kernel", "y_kernel", "z_kernel", "p_invariant",
    "verify_trace_identity",
    # the semisimplicity criterion
    "SemisimplicityReport", "ZeroFormIndex", "cross_check_criterion", "is_semisimple",
    "schur_elements_table",
]

__version__ = "0.1.0"
