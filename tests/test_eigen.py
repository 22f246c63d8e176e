import random
from collections import Counter
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
        matrix_order(m)


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


def _companion(coeffs):
    """The companion matrix of the monic polynomial, low degree first."""
    k = len(coeffs) - 1
    zero, one = QElem.zero(coeffs[0].d), QElem.one(coeffs[0].d)
    return [[one if i == j + 1 else zero for j in range(k - 1)] + [-coeffs[i]]
            for i in range(k)]


def _block_diagonal(d_tag, blocks):
    size = sum(map(len, blocks))
    rows, at = [], 0
    for block in blocks:
        for row in block:
            rows.append([QElem.zero(d_tag)] * at + row
                        + [QElem.zero(d_tag)] * (size - at - len(row)))
        at += len(block)
    return QMatrix.from_rows(d_tag, rows)


def test_eigen_multiplicities_of_frame_elements_match_sympy():
    """The X blocks of order-2 elements, and products of B-reflections times
    a root of unity of the field, so that split factors Phi_4 over Q(i) and
    Phi_3, Phi_6 over Q(sqrt(-3)) occur."""
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
            _assert_multiplicities_match_sympy(sympy, x.scale(unit))


@pytest.mark.parametrize("d, d_tag", [(8, -2), (12, -3), (7, -7), (24, -6)])
def test_eigen_multiplicities_of_split_companions_match_sympy(d, d_tag):
    """Companions of the +1 half-factor (twice) and of its conjugate, the -1
    half (once), conjugated by a random invertible matrix: the split path
    must give the two orbits their own multiplicities."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(d)
    plus = split_half_factor(d, d_tag)
    minus = [c.conj() for c in plus]
    m = _block_diagonal(d_tag, [_companion(plus), _companion(plus), _companion(minus)])
    while True:
        p = QMatrix.from_rows(d_tag, [[cusp.random_qelem(rng, d_tag, 2, 1)
                                       for _ in range(m.rows)] for _ in range(m.rows)])
        if not p.det().is_zero:
            break
    similar = p @ m @ p.inverse()
    es = eigen_exponents(similar)
    assert es == eigen_exponents(m) and es.order == d
    _assert_multiplicities_match_sympy(sympy, similar)


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
