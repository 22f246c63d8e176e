"""Exact eigenvalue exponents of finite-order matrices over Q(sqrt(D)).

A matrix of finite order m is diagonalizable with root-of-unity eigenvalues.
For each divisor e of m, the kernel dimension of the e-th cyclotomic factor
evaluated at the matrix counts the primitive e-th-root eigenvalues.  When the
factor splits over the field, the two halves are separated by computing the
half-factor exactly: the quadratic Gauss sum realizes sqrt(D) inside the
cyclotomic algebra, and a polynomial gcd then cuts out the orbit whose roots
carry Kronecker symbol +1.  No numerical eigensolver is ever involved.
"""

from __future__ import annotations

from typing import List

from . import cyclo
from .cyclo import InternalCheckError, cyclotomic_polynomial, is_reducible, kronecker
from .qfield import QElem, QMatrix
from .reidtai import EigenSystem

# the largest matrix order searched for before a matrix counts as non-torsion
MAX_ORDER = 1000

# -- polynomials over Q(sqrt(D)): lists of QElem, low degree first, with no
# trailing zero, so that the zero polynomial is [] ----------------------------


def _pmod(a: List[QElem], b: List[QElem]) -> List[QElem]:
    """Remainder of a by b, b nonzero."""
    a = a[:]
    lead_inv = b[-1].inverse()
    while len(a) >= len(b):
        q = a.pop() * lead_inv  # cancels the leading term exactly
        shift = len(a) - len(b) + 1
        for i, bc in enumerate(b[:-1]):
            a[shift + i] = a[shift + i] - q * bc
        while a and a[-1].is_zero:
            a.pop()
    return a


def _pgcd_monic(a: List[QElem], b: List[QElem]) -> List[QElem]:
    """The monic gcd of a and b, b nonzero."""
    while b:
        a, b = b, _pmod(a, b)
    lead_inv = a[-1].inverse()
    return [lead_inv * c for c in a]


def _pat_matrix(p, m: QMatrix) -> QMatrix:
    """The polynomial, with int or QElem coefficients, at a square matrix
    (Horner)."""
    ident = QMatrix.identity(m.d, m.rows)
    acc = ident.scale(p[-1])
    for c in reversed(p[:-1]):
        acc = acc @ m + ident.scale(c)
    return acc


# -- half-factors of split cyclotomic polynomials ----------------------------


def split_half_factor(d: int, d_tag: int) -> List[QElem]:
    """The monic factor of the d-th cyclotomic polynomial over Q(sqrt(D))
    whose roots are the primitive roots zeta_d^a with kronecker(D, a) = +1.

    The Gauss sum g = sum chi(b) zeta^{b d/|disc|} satisfies g = sqrt(disc)
    under the principal embedding, so gcd(Phi_d, g(T) - c*sqrt(D)) with
    c = sqrt(disc/D) isolates the +1 orbit.  The Gauss polynomial is left
    unreduced (its degree is below d); the gcd's first remainder reduces it
    mod Phi_d.
    """
    if not is_reducible(d, d_tag):
        raise ValueError(f"({d}, {d_tag}) does not split")
    disc = cyclo.field_discriminant(d_tag)
    f = abs(disc)
    step = d // f
    c = 1 if disc == d_tag else 2  # sqrt(disc) = c * sqrt(D)
    phi = [QElem.of(d_tag, k) for k in cyclotomic_polynomial(d)]
    target = [QElem.of(d_tag, 0, -c)] + [
        QElem.of(d_tag, 0 if k % step else kronecker(disc, k // step))
        for k in range(1, (f - 1) * step + 1)]
    half = _pgcd_monic(target, phi)
    if len(half) - 1 != (len(phi) - 1) // 2:
        raise InternalCheckError(
            f"half factor of Phi_{d} over Q(sqrt({d_tag})) has wrong degree"
        )
    return half


# -- eigen exponent extraction ----------------------------------------------


def matrix_order(m: QMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("order of a non-square matrix")
    ident = QMatrix.identity(m.d, m.rows)
    acc = m
    for k in range(1, MAX_ORDER + 1):
        if acc == ident:
            return k
        acc = acc @ m
    raise ValueError(f"matrix order exceeds {MAX_ORDER}; not torsion?")


def eigen_exponents(m: QMatrix) -> EigenSystem:
    """EigenSystem of a finite-order matrix, computed exactly.

    For each divisor e of the order, the multiplicity of the primitive
    e-th-root eigenvalues is a kernel dimension; split factors are refined
    into their two Kronecker orbits via the half-factor.
    """
    order = matrix_order(m)
    exponents: List[int] = []
    total = 0
    for e in range(1, order + 1):
        if order % e:
            continue
        dim_e = _pat_matrix(cyclotomic_polynomial(e), m).kernel_dimension()
        if dim_e == 0:
            continue
        total += dim_e
        if e >= 3 and is_reducible(e, m.d):
            dim_plus = _pat_matrix(split_half_factor(e, m.d), m).kernel_dimension()
            plus, minus = cyclo.orbit_sets(e, m.d)
            parts = ((plus.members, dim_plus), (minus.members, dim_e - dim_plus))
        else:
            parts = ((cyclo.units_mod(e), dim_e),)
        for members, dim in parts:
            mult, rem = divmod(dim, len(members))
            if rem:
                raise InternalCheckError(
                    f"eigenvalue multiplicity of Phi_{e} is not integral"
                )
            exponents.extend(a * (order // e) for a in members for _ in range(mult))
    if total != m.rows:
        raise InternalCheckError("eigenvalue multiplicities do not fill the space")
    return EigenSystem(order, tuple(sorted(exponents)))
