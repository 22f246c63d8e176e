"""The integer kernel of ``ballquot.qfield`` against independent oracles.

The first oracle is the Fraction kernel in ``reference_kernel.py``: every
product, inverse, determinant and rank must agree with it exactly, and
print the same.  The second is sympy's matrices over QQ<sqrt(D)>, used
where sympy is installed.
"""

import random
from fractions import Fraction as F

import pytest

import reference_kernel as ref
from ballquot.qfield import QElem, QMatrix

# both classes of D mod 4, and the fields with units beyond +-1
FIELDS = (-1, -2, -3, -5, -6, -7, -15)
SIZES = range(1, 7)


def _rational(rng):
    den = rng.choice((1, 1, 2, 3, 6, 10 ** rng.randint(1, 6),
                      rng.randint(1, 10 ** 6)))
    return F(rng.randint(-40, 40), den)


def _elem(rng, d, zero_share=0.2):
    if rng.random() < zero_share:
        return QElem.zero(d)
    return QElem(d, _rational(rng), _rational(rng) if rng.random() < 0.8 else 0)


def _matrix(rng, d, rows, cols):
    return QMatrix.from_rows(d, [[_elem(rng, d) for _ in range(cols)]
                                 for _ in range(rows)])


def _deficient(rng, d, rows, cols):
    """A matrix of rank below min(rows, cols) where that is possible: a
    product through a narrower inner dimension, a zero row, or a row that
    is a multiple of another."""
    kind = rng.choice(("product", "zero_row", "multiple_row"))
    if kind == "product" and min(rows, cols) > 1:
        inner = rng.randint(1, min(rows, cols) - 1)
        return ref.matmul(_matrix(rng, d, rows, inner), _matrix(rng, d, inner, cols))
    grid = _matrix(rng, d, rows, cols).to_rows()
    if kind == "multiple_row" and rows > 1:
        factor = _elem(rng, d, zero_share=0)
        grid[-1] = [factor * x for x in grid[0]]
    else:
        grid[rng.randrange(rows)] = [QElem.zero(d)] * cols
    return QMatrix.from_rows(d, grid)


def _same(got, want):
    assert got == want
    assert str(got) == str(want)


def _inverse_or_singular(kernel_inverse, m):
    try:
        return kernel_inverse(m)
    except ZeroDivisionError:
        return "singular"


@pytest.mark.parametrize("d", FIELDS)
def test_products_agree_with_fraction_kernel(d):
    rng = random.Random(1000 + d)
    for _ in range(40):
        n, k, p = (rng.choice(SIZES) for _ in range(3))
        a, b = _matrix(rng, d, n, k), _matrix(rng, d, k, p)
        _same(a @ b, ref.matmul(a, b))


@pytest.mark.parametrize("d", FIELDS)
def test_elimination_agrees_with_fraction_kernel(d):
    rng = random.Random(2000 + d)
    for n in SIZES:
        for deficient in (False, True):
            for _ in range(3):
                m = (_deficient if deficient else _matrix)(rng, d, n, n)
                _same(m.det(), ref.det(m))
                assert m.rank() == ref.rank(m)
                assert m.kernel_dimension() == n - ref.rank(m)
                got = _inverse_or_singular(QMatrix.inverse, m)
                want = _inverse_or_singular(ref.inverse, m)
                if want == "singular":
                    assert got == "singular"
                else:
                    _same(got, want)


@pytest.mark.parametrize("d", FIELDS)
def test_rank_of_non_square_matrices(d):
    rng = random.Random(3000 + d)
    for _ in range(30):
        rows, cols = rng.choice(SIZES), rng.choice(SIZES)
        m = (_deficient if rng.random() < 0.5 else _matrix)(rng, d, rows, cols)
        assert m.rank() == ref.rank(m)
        assert m.kernel_dimension() == cols - ref.rank(m)


def test_zero_and_identity_matrices():
    for d in FIELDS:
        for n in SIZES:
            zero, ident = QMatrix.zero(d, n, n), QMatrix.identity(d, n)
            assert zero.rank() == 0 and zero.det() == QElem.zero(d)
            with pytest.raises(ZeroDivisionError):
                zero.inverse()
            assert ident.inverse() == ident and ident.det() == QElem.one(d)


def test_scale_agrees_with_elementwise_products():
    rng = random.Random(4000)
    for d in FIELDS:
        m = _matrix(rng, d, rng.choice(SIZES), rng.choice(SIZES))
        c = _elem(rng, d)
        want = QMatrix(d, m.rows, m.cols, tuple(c * x for x in m.entries))
        _same(m.scale(c), want)


# ---------------------------------------------------------------------------
# sympy over QQ<sqrt(D)>


class _SympyField:
    """QQ<sqrt(d)> in sympy, with conversions from QElem and QMatrix."""

    def __init__(self, d):
        self.sympy = pytest.importorskip("sympy")
        self.field = self.sympy.QQ.algebraic_field(self.sympy.sqrt(d))
        self.sqrt_d = self.field.from_sympy(self.sympy.sqrt(d))

    def elem(self, x):
        qq, convert = self.sympy.QQ, self.field.convert
        return (convert(qq(x.re.numerator, x.re.denominator))
                + convert(qq(x.rt.numerator, x.rt.denominator)) * self.sqrt_d)

    def matrix(self, m):
        from sympy.polys.matrices import DomainMatrix
        rows = [[self.elem(x) for x in row] for row in m.to_rows()]
        return DomainMatrix(rows, (m.rows, m.cols), self.field)


def test_sympy_oracle_det_inverse_rank():
    rng = random.Random(5000)
    for d in FIELDS:
        field = _SympyField(d)
        for n in (2, 3, 4):
            for m in (_matrix(rng, d, n, n), _deficient(rng, d, n, n)):
                dm = field.matrix(m)
                assert field.elem(m.det()) == dm.det()
                assert m.rank() == dm.rank()
                if not m.det().is_zero:
                    assert field.matrix(m.inverse()) == dm.inv()
