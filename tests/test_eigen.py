import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ballquot.cyclo import is_reducible
from ballquot.eigen import eigen_exponents, split_half_factor
from ballquot.qfield import QElem, QMatrix
from ballquot.reidtai import EigenSystem
from ballquot import cusp


def test_eigen_exponents_of_identity_and_minus_identity():
    for n in (1, 3):
        ident = QMatrix.identity(-5, n)
        assert eigen_exponents(ident) == EigenSystem(1, (0,) * n)
        assert eigen_exponents(-ident) == EigenSystem(2, (1,) * n)


def test_eigen_exponents_refuses_non_involutions():
    """A non-square X, and X with X @ X != I: the order-4 scalar sqrt(-1),
    a primitive cube root of unity over Q(sqrt(-3)) and the non-torsion
    2*I."""
    with pytest.raises(ValueError):
        eigen_exponents(QMatrix.zero(-5, 2, 3))
    z3 = QElem.of(-3, F(-1, 2), F(1, 2))
    for m in (QMatrix.from_rows(-1, [[QElem.sqrt_d(-1)]]),
              QMatrix.from_rows(-3, [[z3, 0], [0, 1]]),
              QMatrix.identity(-5, 2).scale(2)):
        with pytest.raises(ValueError):
            eigen_exponents(m)


def test_split_half_factor_degrees():
    for d, d_tag in ((4, -1), (7, -7), (8, -1), (8, -2), (12, -1), (12, -3),
                     (15, -15), (20, -5), (24, -6)):
        half = split_half_factor(d, d_tag)
        from ballquot.cyclo import euler_phi
        assert len(half) - 1 == euler_phi(d) // 2
        assert half[-1] == QElem.one(d_tag)


ORACLE_FIELDS = (-1, -2, -3, -5, -6, -7, -11, -15)


def test_split_half_factor_matches_sympy_factor():
    """The whole half-factor against sympy's factorisation of Phi_d over
    QQ<sqrt(D)>, for every split (d, D) with d <= 30.  Of sympy's two
    factors the match is the one with zeta_d = exp(2 pi i/d) as a root
    (kronecker(D, 1) = +1), under sympy's principal sqrt(D), as in
    split_half_factor; the root is located at 30 digits, and the
    comparison itself is exact."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    pairs = [(d, D) for D in ORACLE_FIELDS for d in range(3, 31)
             if is_reducible(d, D)]
    assert len(pairs) == 30
    for d, D in pairs:
        sqrt_d = sympy.sqrt(D)
        _, factors = sympy.factor_list(sympy.cyclotomic_poly(d, x), extension=sqrt_d)
        assert len(factors) == 2 and all(mult == 1 for _, mult in factors)
        assert all(sympy.LC(f, x) == 1 for f, _ in factors)
        zeta = sympy.exp(2 * sympy.pi * sympy.I / d)
        at_zeta = [abs(f.evalf(30, subs={x: zeta})) for f, _ in factors]
        roots = [f for (f, _), v in zip(factors, at_zeta) if v < 1e-20]
        assert len(roots) == 1 and max(at_zeta) > 1e-3, (d, D)
        half = split_half_factor(d, D)
        ours = sum((c.re + c.rt * sqrt_d) * x ** i for i, c in enumerate(half))
        assert sympy.expand(ours - roots[0]) == 0, (d, D)


def _charpoly_factors(sympy, m):
    """sympy's irreducible factors of the characteristic polynomial of m over
    QQ<sqrt(D)>, with their multiplicities."""
    from sympy.polys.matrices import DomainMatrix
    x, sqrt_d = sympy.Symbol("x"), sympy.sqrt(m.d)
    field = sympy.QQ.algebraic_field(sqrt_d)
    gen = field.from_sympy(sqrt_d)

    def entry(c):
        return field.from_sympy(sympy.Rational(c.re)) \
            + field.from_sympy(sympy.Rational(c.rt)) * gen

    rows = [[entry(c) for c in row] for row in m.to_rows()]
    coeffs = DomainMatrix(rows, (m.rows, m.cols), field).charpoly()
    poly = sum(field.to_sympy(c) * x ** k for k, c in enumerate(reversed(coeffs)))
    return x, sympy.factor_list(poly, x, extension=sqrt_d)[1]


def _assert_multiplicities_match_sympy(sympy, m):
    """Each irreducible factor of the characteristic polynomial, multiplicity
    times degree, has as many roots among the eigenvalues zeta_order^a that
    eigen_exponents reports; roots are located at 30 digits, and the counts
    are compared exactly."""
    es = eigen_exponents(m)
    counts = Counter(es.exponents)
    x, factors = _charpoly_factors(sympy, m)
    located = 0
    for f, mult in factors:
        at = {a: abs(f.evalf(30, subs={x: sympy.exp(2 * sympy.pi * sympy.I * a / es.order)}))
              for a in counts}
        assert all(v < 1e-20 or v > 1e-10 for v in at.values()), (f, at)
        roots = sum(counts[a] for a, v in at.items() if v < 1e-20)
        assert roots == mult * sympy.degree(f, x), (m.d, es, f, mult)
        located += roots
    assert located == m.rows == len(es.exponents)


def test_eigen_multiplicities_of_frame_elements_match_sympy():
    """The X blocks of order-2 elements, and products of B-reflections over
    Q(i) and Q(sqrt(-3)); such a product times a unit of order 4 or 6 of
    its field is no involution, and is refused."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for d_tag in (-5, -6, -7, -11):
        for n in (3, 4):
            frame = cusp.random_frame(rng, d_tag, n)
            _assert_multiplicities_match_sympy(
                sympy, cusp.random_order2_element(rng, frame).element.x_mat)
    for d_tag, unit in ((-1, QElem.sqrt_d(-1)), (-3, QElem.of(-3, F(1, 2), F(1, 2)))):
        for n in (3, 4):
            frame = cusp.random_frame(rng, d_tag, n)
            vecs = cusp.random_b_reflection_vectors(rng, frame, rng.randint(1, n - 1))
            x = cusp.involution_from_vectors(frame, vecs)
            _assert_multiplicities_match_sympy(sympy, x)
            with pytest.raises(ValueError):
                eigen_exponents(x.scale(unit))


def test_split_half_factor_requires_split():
    with pytest.raises(ValueError):
        split_half_factor(7, -5)


def test_involution_exponents_match_trace():
    # for X^2 = I the eigenvalue multiplicities follow from the trace
    rng = random.Random(0)
    for _ in range(20):
        d_tag = rng.choice((-5, -6, -7, -11))
        n = rng.choice((3, 4))
        frame = cusp.random_frame(rng, d_tag, n)
        k = rng.randint(1, n - 1)
        vecs = cusp.random_b_reflection_vectors(rng, frame, k)
        x = cusp.involution_from_vectors(frame, vecs)
        es = eigen_exponents(x)
        minus_count = sum(1 for a in es.exponents if a != 0)
        tr = x.at(0, 0)
        for i in range(1, n - 1):
            tr = tr + x.at(i, i)
        assert tr.rt == 0
        assert minus_count == k
        assert ((n - 1) - minus_count) - minus_count == tr.re
