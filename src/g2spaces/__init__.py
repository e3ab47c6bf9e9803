"""Exact arithmetic for seven-dimensional self-dual spaces of polynomials.

The package computes divided Wronskians and ramification data of spaces of
univariate polynomials over Q, decides self-duality and self-self-duality,
builds Witt and standard bases, realizes the spinor embedding of isotropic
three-spaces over Q(sqrt 2), evaluates the associated G2-invariant
three-form, and reproduces Bethe-type tuples into populations.

All arithmetic is exact: rationals everywhere, with the quadratic extension
Q(sqrt 2) on the spinor side.  Nothing is floating point.
"""

__version__ = "0.1.0"

from .scalars import QExt, SQRT2, rational_part, qext_sqrt, rational_sqrt
from .polynomials import (
    Poly,
    ProductTable,
    RatFun,
    WronskianTable,
    wronskian,
    poly_gcd,
    coprime,
    exact_div,
    perfect_square_root,
)

from .linalg import rref, kernel, solve
from .elimination import MPoly, SymPoly, solve_rational_system
from .spaces import (
    BasePointError,
    BilinearForm,
    DegreePatternError,
    NotSelfDualError,
    PolySpace,
    SpaceError,
    WittBasis,
    WittGramError,
    canonicalize,
    degree_window_space,
    monomial_space,
    witt_basis,
    witt_form,
)
from .spin import (
    P_SPINOR,
    Preimages,
    SpinError,
    Spinor,
    action_matrix,
    annihilator,
    clifford_act,
    hatB,
    hatQ,
    invariant_surjection,
    preimages,
    spinor_embed,
    unit_images,
    witt_quadratic,
)
from .g2 import (
    THREE_FORM_VALUES,
    WRONSKIAN_TABLE,
    SsdVerdict,
    StandardBasisReport,
    StandardBasisResult,
    ThreeForm,
    associated_two_form,
    check_ssd,
    find_standard_basis,
    flag_is_g2_isotropic,
    flag_to_pair,
    kernel_2form,
    phi_map,
    quadratic_of_phi,
    symmetry_image,
    three_form_from_spin,
    three_form_from_wronskians,
    three_form_of_phi,
    verify_standard_basis,
)
from .bethe import (
    BetheTuple,
    FertilityFamily,
    Population,
    Weight,
    a_tuple,
    apply_D,
    degree_increasing_descendant,
    descendants,
    dominant_representative,
    fertility_solve,
    genericity_defect,
    is_generic,
    kernel_operator,
    population_bfs,
    reproduction_rhs,
    shifted_orbit,
    shifted_reflect,
    space_from_population,
    weight_at_infinity,
    weyl_dim_g2,
)
from .fixtures import (
    factorial_basis,
    get_seed,
    get_space,
    transformed_basis_a,
    transformed_basis_b,
)
