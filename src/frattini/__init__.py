"""Cohomology data of central extensions of elementary abelian p-groups.

Exact F_p linear algebra, exterior algebra with a Koszul differential,
homology with cup products, Poincare series bookkeeping, a hook-length
oracle for the universal extensions, explicit p-group realizations, and a
bigraded Bockstein model, tied together by the ``frattini`` CLI.
"""

from .fplin import BoundaryNotCycle, BudgetExceeded, FpMatrix, InvalidInput, Prime, as_prime
from .extalg import Ambient, ExtElement, Monomial, ParseError, QuadraticForm, basis, parse, wedge
from .koszul import (
    BettiTable,
    BocksteinNotContained,
    CohomologyClass,
    DegenerateSubspace,
    DependentQuadratics,
    KInvariantSubspace,
    KoszulComplex,
    NotACocycle,
    betti,
    canonicalize,
    cup,
    differential,
    differential_matrix,
    unp_complex,
)
from .series import PoincarePolynomial, PoincareSeries, checks, expand, from_betti, recompose, verify_expansion
from .younghook import (
    NonIntegerResult,
    SelfConjugatePartition,
    closed_form,
    enumerate_self_conjugate,
    hook_content_dimension,
    unp_betti,
)
from .pgroups import (
    ConstraintViolation,
    PGroup,
    PGroupElement,
    TwoStepLieAlgebra,
    VerificationReport,
    free_two_step,
    unp_group,
)
from .bocksteindga import (
    BigradedElement,
    BocksteinReport,
    Generators,
    PrimeTooSmall,
    bockstein,
    restrict_to_unp,
    verify_differential,
)

__version__ = "0.1.0"

__all__ = [
    "Ambient",
    "BettiTable",
    "BigradedElement",
    "BocksteinNotContained",
    "BocksteinReport",
    "BoundaryNotCycle",
    "BudgetExceeded",
    "CohomologyClass",
    "ConstraintViolation",
    "DegenerateSubspace",
    "DependentQuadratics",
    "ExtElement",
    "FpMatrix",
    "Generators",
    "InvalidInput",
    "KInvariantSubspace",
    "KoszulComplex",
    "Monomial",
    "NonIntegerResult",
    "NotACocycle",
    "PGroup",
    "PGroupElement",
    "ParseError",
    "PoincarePolynomial",
    "PoincareSeries",
    "Prime",
    "PrimeTooSmall",
    "QuadraticForm",
    "SelfConjugatePartition",
    "TwoStepLieAlgebra",
    "VerificationReport",
    "as_prime",
    "basis",
    "betti",
    "bockstein",
    "canonicalize",
    "checks",
    "closed_form",
    "cup",
    "differential",
    "differential_matrix",
    "enumerate_self_conjugate",
    "expand",
    "free_two_step",
    "from_betti",
    "hook_content_dimension",
    "parse",
    "recompose",
    "restrict_to_unp",
    "unp_betti",
    "unp_complex",
    "unp_group",
    "verify_differential",
    "verify_expansion",
    "wedge",
]
