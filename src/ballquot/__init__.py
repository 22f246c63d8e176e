"""Exact-arithmetic certificates for singularity bounds of unitary ball quotients.

The package re-executes, over exact rationals, the finite computations
behind canonical-singularity bounds for quotients of complex hyperbolic
space by arithmetic unitary groups of hermitian lattices over imaginary
quadratic fields: root-of-unity orbit splittings, fractional-part sum
minimizations, boundary-order enumerations, and the stabiliser algebra at a
zero-dimensional cusp.
"""

from .qfield import (FieldTagError, QElem, QMatrix, frac, fmt_rational,
                     in_ring_of_integers, is_squarefree)
from .cyclo import (FULL, MINUS, PLUS, InternalCheckError, OrbitSet,
                    complex_conjugate_orbit, cyclotomic_polynomial, euler_phi,
                    factorize, field_discriminant, is_reducible, kronecker,
                    orbit_sets, suitable_fields, units_mod)
from .reidtai import (CaseReport, EigenSystem, c_min, c_min_red, case_analysis,
                      enumerate_exceptional_orders, enumerate_small_d,
                      hom_contribution, is_quasi_reflection, mc, mc_for_field,
                      qr_allowed_patterns, reid_tai_sum, sigma_prime)
from .eigen import eigen_exponents, matrix_order
from .cusp import (BoundaryElement, BoundaryPoint, CuspFrame,
                   apply_boundary_action, boundary_divisor_fixed,
                   boundary_tangent_exponents, check_qr_congruences,
                   is_in_NF, is_in_UF, is_in_WF, normalize_cusp_basis,
                   sigma_element, uf_lattice_generator)
from .certificates import (CLAIMS, Certificate, RunConfig, run_claims,
                           verify_claim)

__version__ = "0.1.0"
