"""Higher-order peak algebras inside noncommutative symmetric functions.

Exact-arithmetic models of the algebra of noncommutative symmetric
functions in the complete and ribbon bases, the descent-algebra internal
product through the matrix (Mackey) formula of Garsia-Reutenauer and
Gelfand-Krob-Lascoux-Leclerc-Retakh-Thibon (section 5 of
*Noncommutative symmetric functions*), the one-parameter transform family
theta_q with its root-of-unity normalization, and for each order N >= 2
the peak subalgebra spanned by the split-poset sums Sigma_I with its
rho, primed-rho and T companions, projector, membership solver, closed
decomposition formulas and tangent-series identities.

Scalars are rationals or elements of the degree-N cyclotomic field;
nothing here is floating point.
"""

from .compositions import (
    F_set,
    G_set,
    compositions_of,
    conjugate,
    descent_composition,
    descent_set,
    epsilon,
    epsilon_inv,
    hilbert_dim,
    hook_factorization,
    is_in_F,
    is_in_G,
    lower_set,
    peak_composition,
    peak_compositions_of,
    peak_set_of_composition,
    peak_set_of_permutation,
    ribbon_factorization,
)
from .descent import internal_product
from .elements import (
    CapacityError, NsymElement, R, S, all_words, coproduct_S, multiply, one, zero
)
from .peak import (
    PeakContext,
    T_basis,
    T_membership,
    classical_peak_function,
    decomp_R_on_rho,
    decomp_S_on_rho,
    decomp_theta_R,
    decomp_theta_S,
    expand_rho_coords,
    expand_sigma_coords,
    in_T_ideal,
    in_sigma_span,
    membership,
    pi_N,
    rho_basis,
    rho_membership,
    rho_t_basis,
    rho_t_primed_basis,
    sigma_basis,
    sigma_lambda_N,
    tangent_series,
    tangent_zeta_series,
    theta_minus1_ribbon_expansion,
)
from .scalars import CyclotomicNumber, make_cyclotomic, zeta, zeta_pow
from .series import (
    Theta,
    Theta_images,
    det_formula,
    det_theta,
    hook_sum,
    psi,
    series_inverse,
    series_product,
    sigma_series,
    theta_q,
    theta_q_generator,
    theta_q_images,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CyclotomicNumber",
    "NsymElement",
    "PeakContext",
    "R",
    "S",
    "T_basis",
    "T_membership",
    "Theta",
    "Theta_images",
    "all_words",
    "classical_peak_function",
    "compositions_of",
    "conjugate",
    "coproduct_S",
    "decomp_R_on_rho",
    "decomp_S_on_rho",
    "decomp_theta_R",
    "decomp_theta_S",
    "descent_composition",
    "descent_set",
    "det_formula",
    "det_theta",
    "epsilon",
    "epsilon_inv",
    "expand_rho_coords",
    "expand_sigma_coords",
    "F_set",
    "G_set",
    "hilbert_dim",
    "hook_factorization",
    "hook_sum",
    "in_T_ideal",
    "in_sigma_span",
    "internal_product",
    "is_in_F",
    "is_in_G",
    "lower_set",
    "make_cyclotomic",
    "membership",
    "multiply",
    "one",
    "peak_composition",
    "peak_compositions_of",
    "peak_set_of_composition",
    "peak_set_of_permutation",
    "pi_N",
    "psi",
    "rho_basis",
    "rho_membership",
    "rho_t_basis",
    "rho_t_primed_basis",
    "ribbon_factorization",
    "series_inverse",
    "series_product",
    "sigma_basis",
    "sigma_lambda_N",
    "sigma_series",
    "tangent_series",
    "tangent_zeta_series",
    "theta_minus1_ribbon_expansion",
    "theta_q",
    "theta_q_generator",
    "theta_q_images",
    "zero",
    "zeta",
    "zeta_pow",
]
