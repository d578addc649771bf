"""torsioncosets: exact computation of all maximal torsion cosets
(solutions in roots of unity) of polynomial systems on the algebraic
torus, with cyclotomic-field coefficients."""

from .arith import (
    CyclotomicNumber,
    RootOfUnity,
    TorsionPoint,
    conjugate_exponent,
    euler_phi,
)
from .cosets import (
    CongruenceSolutionSet,
    ExponentCongruences,
    TorsionCoset,
    maximal_filter,
    solve_exponent_congruences,
)
from .lattices import (
    IntegerLattice,
    extend_to_basis,
    hermite_normal_form,
    smith_normal_form,
)
from .oracle import BudgetExceededError, OracleReport, brute_force_points, cross_check
from .poly import (
    LaurentPolynomial,
    cyclotomic_roots,
    multivariate_gcd,
    resultant,
)
from .solver import (
    SolveReport,
    auxiliary_polynomials,
    binomial_cosets,
    hypersurface_cosets,
    minimal_level_normalize,
    reduce_rank_deficient,
    rescale_to_full_lattice,
    variety_cosets,
)

__all__ = [
    "BudgetExceededError",
    "CongruenceSolutionSet",
    "CyclotomicNumber",
    "ExponentCongruences",
    "IntegerLattice",
    "LaurentPolynomial",
    "OracleReport",
    "RootOfUnity",
    "SolveReport",
    "TorsionCoset",
    "TorsionPoint",
    "auxiliary_polynomials",
    "binomial_cosets",
    "brute_force_points",
    "conjugate_exponent",
    "cross_check",
    "cyclotomic_roots",
    "euler_phi",
    "extend_to_basis",
    "hermite_normal_form",
    "hypersurface_cosets",
    "maximal_filter",
    "minimal_level_normalize",
    "multivariate_gcd",
    "reduce_rank_deficient",
    "rescale_to_full_lattice",
    "resultant",
    "smith_normal_form",
    "solve_exponent_congruences",
    "variety_cosets",
]

__version__ = "0.1.0"
