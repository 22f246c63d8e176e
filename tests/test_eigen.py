import random
from fractions import Fraction as F

import pytest

from ballquot.cyclo import is_reducible
from ballquot.eigen import eigen_exponents, matrix_order, split_half_factor
from ballquot.qfield import QElem, QMatrix
from ballquot.reidtai import EigenSystem
from ballquot import cusp


def test_matrix_order():
    i = QMatrix.from_rows(-1, [[QElem.sqrt_d(-1)]])
    assert matrix_order(i) == 4
    assert matrix_order(QMatrix.identity(-5, 3)) == 1
    minus = QMatrix.identity(-5, 2).scale(-1)
    assert matrix_order(minus) == 2


def test_matrix_order_non_torsion():
    m = QMatrix.from_rows(-5, [[QElem.of(-5, 2)]])
    with pytest.raises(ValueError):
        matrix_order(m, max_order=50)


def test_scalar_orbit_resolution():
    # the imaginary unit is zeta_4 with Kronecker value +1, exponent 1 not 3
    i = QMatrix.from_rows(-1, [[QElem.sqrt_d(-1)]])
    assert eigen_exponents(i) == EigenSystem(4, (1,))
    assert eigen_exponents(-i) == EigenSystem(4, (3,))
    # primitive cube roots over the Eisenstein field
    z3 = QElem.of(-3, F(-1, 2), F(1, 2))
    assert eigen_exponents(QMatrix.from_rows(-3, [[z3]])) == EigenSystem(3, (1,))
    assert eigen_exponents(QMatrix.from_rows(-3, [[z3 * z3]])) == EigenSystem(3, (2,))
    z6 = -z3 * z3
    assert eigen_exponents(QMatrix.from_rows(-3, [[z6]])) == EigenSystem(6, (1,))


def test_companion_orbit_resolution():
    # x^4 + 1 = (x^2 - s x - 1)(x^2 + s x - 1) over Q(sqrt(-2)), s = sqrt(-2);
    # the first factor has roots zeta_8, zeta_8^3 (the +1 Kronecker orbit)
    s = QElem.sqrt_d(-2)
    zero, one = QElem.zero(-2), QElem.one(-2)
    c_plus = QMatrix.from_rows(-2, [[zero, one], [one, s]])
    c_minus = QMatrix.from_rows(-2, [[zero, one], [one, -s]])
    assert eigen_exponents(c_plus) == EigenSystem(8, (1, 3))
    assert eigen_exponents(c_minus) == EigenSystem(8, (5, 7))


def test_block_diagonal_mixture():
    z3 = QElem.of(-3, F(-1, 2), F(1, 2))
    m = QMatrix.from_rows(-3, [[z3, 0, 0],
                               [0, 1, 0],
                               [0, 0, -1]])
    assert eigen_exponents(m) == EigenSystem(6, (0, 2, 3))


def test_split_half_factor_degrees():
    for d, d_tag in ((4, -1), (7, -7), (8, -1), (8, -2), (12, -1), (12, -3),
                     (15, -15), (20, -5), (24, -6)):
        half = split_half_factor(d, d_tag)
        from ballquot.cyclo import euler_phi
        assert len(half) - 1 == euler_phi(d) // 2
        assert half[-1] == QElem.one(d_tag)


ORACLE_FIELDS = (-1, -2, -3, -5, -7, -15)


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
    assert len(pairs) == 27
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
