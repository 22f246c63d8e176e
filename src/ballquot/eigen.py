"""Exact eigenvalue exponents of involutions over Q(sqrt(D)).

The claims need the exponents of one kind of matrix only: the X block of a
2-torsion boundary element, which satisfies X @ X = I.  Such an X is
diagonalizable with eigenvalues +1 and -1, and each multiplicity is a
kernel dimension: n - rank(X - I) for +1 and n - rank(X + I) for -1.  Two
exact ranks give the exponents; no numerical eigensolver is involved.

``split_half_factor`` is the Gauss-sum half-factor of a split cyclotomic
polynomial.  No exponent computation reads it; it stays as a tested
standalone while the benchmark's tracer still names it.
"""

from __future__ import annotations

from typing import List

from . import cyclo
from .cyclo import InternalCheckError, cyclotomic_polynomial, is_reducible, kronecker
from .qfield import QElem, QMatrix, _identity
from .reidtai import EigenSystem

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


def eigen_exponents(m: QMatrix) -> EigenSystem:
    """EigenSystem of an involution X (X @ X = I), computed exactly.

    X = I has order 1 and every exponent 0.  Otherwise the order is 2, and
    the exponents are n - rank(X - I) zeros and n - rank(X + I) ones.  A
    non-square X, or one whose square is not I, raises ValueError.
    """
    if m.rows != m.cols:
        raise ValueError("eigen exponents of a non-square matrix")
    n = m.rows
    ident = _identity(m.d, n)
    if m == ident:
        return EigenSystem(1, (0,) * n)
    if m @ m != ident:
        raise ValueError("eigen exponents need an involution: X @ X != I")
    plus = n - (m - ident).rank()
    minus = n - (m + ident).rank()
    if plus + minus != n:
        raise InternalCheckError("eigenvalue multiplicities do not fill the space")
    return EigenSystem(2, (0,) * plus + (1,) * minus)
