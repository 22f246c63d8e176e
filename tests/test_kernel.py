"""The integer kernel of ``ballquot.qfield`` against independent oracles.

The first oracle is the Fraction kernel in ``reference_kernel.py``: every
QElem operation must agree exactly with its Fraction-pair formula, and
every product, inverse, determinant and rank with its schoolbook version,
and print the same.  The second is sympy's matrices over QQ<sqrt(D)>, used
where sympy is installed.  The operations that only move or combine stored
integers (sums, negation, adjoint, slices, block assembly, identity, zero)
are compared with entrywise QElem arithmetic, and every result, scalar or
matrix, must be in lowest terms, so that equal values are equal, hash-equal
objects.
"""

import operator
import random
from fractions import Fraction as F
from math import gcd

import pytest

import reference_kernel as ref
from ballquot.qfield import FieldTagError, QElem, QMatrix, block_matrix

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
        want = QMatrix.from_rows(d, [[c * x for x in row] for row in m.to_rows()])
        _same(m.scale(c), want)


def test_ring_laws_property():
    """Associativity of @, distributivity over +, .h as an anti-automorphism
    and A @ A.inverse() == I, on small matrices drawn by hypothesis (seeded
    by tests/conftest.py); every product and inverse is also compared with
    the Fraction kernel."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw, d, rows, cols):
        size = 2 * rows * cols
        nums = draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size))
        dens = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
        coords = iter([F(n, m) for n, m in zip(nums, dens)])
        return QMatrix.from_rows(d, [[QElem(d, next(coords), next(coords))
                                      for _ in range(cols)] for _ in range(rows)])

    @hypothesis.given(st.data())
    def check(data):
        d = data.draw(st.sampled_from((-1, -5, -7)))
        n, k, p, q = (data.draw(st.integers(1, 3)) for _ in range(4))
        a, b, b2 = (data.draw(matrices(d, *shape))
                    for shape in ((n, k), (k, p), (k, p)))
        c, s = data.draw(matrices(d, p, q)), data.draw(matrices(d, n, n))
        ab = a @ b
        _same(ab, ref.matmul(a, b))
        _same(ab @ c, a @ (b @ c))
        _same(ab @ c, ref.matmul(ref.matmul(a, b), c))
        _same(a @ (b + b2), ab + a @ b2)
        _same((b + b2) @ c, b @ c + b2 @ c)
        _same(ab.h, b.h @ a.h)
        _same((b + b2).h, b.h + b2.h)
        _same(a.h.h, a)
        if not s.det().is_zero:
            inv, ident = s.inverse(), QMatrix.identity(d, n)
            _same(inv, ref.inverse(s))
            _same(s @ inv, ident)
            _same(inv @ s, ident)

    check()


# ---------------------------------------------------------------------------
# the stored form against entrywise QElem arithmetic


def _entrywise(op, *ms):
    """op applied entry by entry to the QElem rows of equal-shape matrices."""
    return [[op(*xs) for xs in zip(*rows)] for rows in zip(*(m.to_rows() for m in ms))]


def _lowest_terms(m):
    assert m.den > 0 and gcd(m.den, *m.re, *m.rt) == 1


@pytest.mark.parametrize("d", FIELDS)
def test_sums_negation_and_adjoint_agree_with_entrywise_arithmetic(d):
    rng = random.Random(6000 + d)
    for _ in range(20):
        rows, cols = rng.choice(SIZES), rng.choice(SIZES)
        a, b = _matrix(rng, d, rows, cols), _matrix(rng, d, rows, cols)
        assert (a + b).to_rows() == _entrywise(operator.add, a, b)
        assert (a - b).to_rows() == _entrywise(operator.sub, a, b)
        assert (-a).to_rows() == _entrywise(operator.neg, a)
        grid = a.to_rows()
        assert a.h.to_rows() == [[grid[i][j].conj() for i in range(rows)]
                                 for j in range(cols)]
        assert a.is_zero == all(x.is_zero for row in grid for x in row)
        assert (a - a).is_zero


@pytest.mark.parametrize("d", FIELDS)
def test_submatrix_and_block_matrix_agree_with_entrywise_slicing(d):
    rng = random.Random(7000 + d)
    for _ in range(20):
        rows, cols = rng.choice(SIZES), rng.choice(SIZES)
        m = _matrix(rng, d, rows, cols)
        r0, c0 = rng.randrange(rows), rng.randrange(cols)
        nr, nc = rng.randint(1, rows - r0), rng.randint(1, cols - c0)
        assert m.submatrix(r0, c0, nr, nc).to_rows() == [
            row[c0:c0 + nc] for row in m.to_rows()[r0:r0 + nr]]
        for bad in ((r0, c0, rows - r0 + 1, nc), (0, c0, 1, cols - c0 + 1),
                    (-1, c0, 1, nc), (r0, -1, nr, 1)):
            with pytest.raises(IndexError):
                m.submatrix(*bad)
        # a grid of blocks, some 1x1 blocks given as a bare QElem
        heights = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        blocks = [[_matrix(rng, d, h, w) for w in widths] for h in heights]
        spec = [[b.scalar() if b.rows == b.cols == 1 and rng.random() < 0.5 else b
                 for b in row] for row in blocks]
        want = [sum((b.to_rows()[i] for b in row), [])
                for row in blocks for i in range(row[0].rows)]
        assert block_matrix(d, spec).to_rows() == want


def test_identity_zero_and_is_zero_agree_with_qelem_constants():
    for d in FIELDS:
        one, zero = QElem.one(d), QElem.zero(d)
        assert not QMatrix.from_rows(d, [[0, QElem.sqrt_d(d)]]).is_zero
        assert not QMatrix.from_rows(d, [[F(1, 7), 0]]).is_zero
        for n in SIZES:
            assert QMatrix.identity(d, n).to_rows() == [
                [one if i == j else zero for j in range(n)] for i in range(n)]
            assert QMatrix.zero(d, n, n + 1).to_rows() == [[zero] * (n + 1)] * n
            assert QMatrix.zero(d, n, n + 1).is_zero
            assert not QMatrix.identity(d, n).is_zero


def test_every_result_is_in_lowest_terms_and_equal_values_hash_equal():
    rng = random.Random(8000)
    for d in FIELDS:
        for n in SIZES:
            m, k = _matrix(rng, d, n, n), _matrix(rng, d, n, n)
            results = [m, m + k, m - k, m + m, -m, m.h, m @ k, m.scale(F(2, 3)),
                       m.scale(_elem(rng, d)), m.submatrix(0, 0, n, 1),
                       block_matrix(d, [[m, k]]), QMatrix.identity(d, n),
                       QMatrix.zero(d, n, n), m - m]
            if not m.det().is_zero:
                results.append(m.inverse())
                ident = m @ m.inverse()
                assert ident == QMatrix.identity(d, n)
                assert hash(ident) == hash(QMatrix.identity(d, n))
            for r in results:
                _lowest_terms(r)
            for got, want in ((-(-m), m), ((m + m) - m, m),
                              (m.scale(2).scale(F(1, 2)), m), (m.h.h, m),
                              (m - m, QMatrix.zero(d, n, n))):
                assert got == want and hash(got) == hash(want)
    # the constructor reduces what it is given
    assert QMatrix(-1, 1, 2, 6, (4, 2), (0, -8)) == QMatrix(-1, 1, 2, 3, (2, 1), (0, -4))


def _by_pairs(op, *ms):
    """op of reference_kernel applied entry by entry to the Fraction pairs of
    equal-shape matrices, read back through the public constructor."""
    d = ms[0].d
    return QMatrix.from_rows(d, [
        [QElem(d, *op(d, *((x.re, x.rt) for x in xs))) for xs in zip(*rows)]
        for rows in zip(*(m.to_rows() for m in ms))])


@pytest.mark.parametrize("d", (-6, -7))
def test_trusted_results_equal_their_public_rebuild_and_the_fraction_kernel(d):
    """Every operation that builds its result without the public checks
    (products, sums, negation, scaling, the adjoint, slices and inverses)
    returns a matrix in lowest terms that the checked constructor rebuilds
    unchanged from its fields, equal to the reference kernel's value."""
    rng = random.Random(9500 + d)
    zero = (F(0), F(0))
    for _ in range(40):
        n, k, p = (rng.choice(SIZES) for _ in range(3))
        a, b, c = _matrix(rng, d, n, k), _matrix(rng, d, n, k), _matrix(rng, d, k, p)
        s = _elem(rng, d)
        r0, c0 = rng.randrange(n), rng.randrange(k)
        nr, nc = rng.randint(1, n - r0), rng.randint(1, k - c0)
        square = _matrix(rng, d, n, n)
        cases = [(a @ c, ref.matmul(a, c)),
                 (a + b, _by_pairs(ref.elem_add, a, b)),
                 (a - b, _by_pairs(ref.elem_sub, a, b)),
                 (a - a, QMatrix.zero(d, n, k)),
                 (-a, _by_pairs(lambda d, x: ref.elem_sub(d, zero, x), a)),
                 (a.scale(s), _by_pairs(lambda d, x: ref.elem_mul(d, (s.re, s.rt), x), a)),
                 (a.scale(0), QMatrix.zero(d, n, k)),
                 (a.h, QMatrix.from_rows(d, [[x.conj() for x in col]
                                             for col in zip(*a.to_rows())])),
                 (a.submatrix(r0, c0, nr, nc), QMatrix.from_rows(
                     d, [row[c0:c0 + nc] for row in a.to_rows()[r0:r0 + nr]]))]
        inverse = _inverse_or_singular(QMatrix.inverse, square)
        assert (inverse == "singular") == (_inverse_or_singular(ref.inverse, square)
                                          == "singular")
        if inverse != "singular":
            cases += [(inverse, ref.inverse(square)),
                      (square @ inverse, QMatrix.identity(d, n))]
        for got, want in cases:
            rebuilt = QMatrix(got.d, got.rows, got.cols, got.den, got.re, got.rt)
            assert got == rebuilt and hash(got) == hash(rebuilt)
            assert got.den > 0 and gcd(got.den, *got.re, *got.rt) == 1
            _same(got, want)


def _pairs(m):
    return [[(x.re, x.rt) for x in row] for row in m.to_rows()]


@pytest.mark.parametrize("d", (-5, -6, -7, -15))
def test_block_matrix_equals_the_checked_assembly_and_the_fraction_pairs(d):
    """block_matrix copies the integers of its checked blocks and builds
    through the trusted constructor; it must give what the public checks
    alone give (ref.checked_block_matrix), in lowest terms, with each entry
    the Fraction pair of the block entry it comes from.  The grids are the
    cusp shape (1, n-1, 1) x (1, n-1, 1) and random tilings."""
    rng = random.Random(9700 + d)
    for n in (2, 3, 4):
        for _ in range(12):
            if rng.random() < 0.5:
                heights = widths = [1, n - 1, 1]
            else:
                heights = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
                widths = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            blocks = [[_matrix(rng, d, h, w) for w in widths] for h in heights]
            spec = [[b.scalar() if b.rows == b.cols == 1 and rng.random() < 0.7 else b
                     for b in row] for row in blocks]
            got = block_matrix(d, spec)
            want = ref.checked_block_matrix(d, spec)
            assert got == want and hash(got) == hash(want)
            assert got.den > 0 and gcd(got.den, *got.re, *got.rt) == 1
            assert _pairs(got) == [sum((_pairs(b)[i] for b in row), [])
                                   for row in blocks for i in range(row[0].rows)]


def test_block_matrix_refuses_bad_tags_and_tilings():
    i1, i2 = QMatrix.identity(-6, 1), QMatrix.identity(-6, 2)
    for bad_tag in (-4, -6.0):
        for blocks in ([[i1]], [[QElem.one(-6)]], [[QElem.one(-6), i1]]):
            with pytest.raises(ValueError):
                block_matrix(bad_tag, blocks)
            with pytest.raises(ValueError):
                ref.checked_block_matrix(bad_tag, blocks)
    for blocks in ([[i1, QMatrix.identity(-7, 1)]], [[QElem.one(-6)], [QElem.one(-7)]]):
        with pytest.raises(FieldTagError):
            block_matrix(-6, blocks)
    with pytest.raises(ValueError, match="heights"):
        block_matrix(-6, [[i2, i1]])
    with pytest.raises(ValueError, match="widths"):
        block_matrix(-6, [[i1, QElem.one(-6)], [i1]])
    with pytest.raises(ValueError, match="widths"):
        block_matrix(-6, [[i2], [i1, i1, i1]])


# ---------------------------------------------------------------------------
# QElem against the Fraction-pair reference


def _pair(rng):
    if rng.random() < 0.1:
        return F(0), F(0)
    return _rational(rng), _rational(rng) if rng.random() < 0.8 else F(0)


def _elem_in_lowest_terms(x):
    assert x.den > 0 and gcd(x.den, x.a, x.b) == 1


@pytest.mark.parametrize("d", FIELDS)
def test_scalar_arithmetic_agrees_with_fraction_pairs(d):
    rng = random.Random(9000 + d)
    zero = (F(0), F(0))
    for _ in range(300):
        p, q, c = _pair(rng), _pair(rng), _rational(rng)
        x, y = QElem(d, *p), QElem(d, *q)
        real = (c, F(0))
        cases = [(x, p), (x + y, ref.elem_add(d, p, q)),
                 (x - y, ref.elem_sub(d, p, q)), (x * y, ref.elem_mul(d, p, q)),
                 (x.conj(), ref.elem_conj(d, p)), (-x, ref.elem_sub(d, zero, p)),
                 (x + c, ref.elem_add(d, p, real)), (c - x, ref.elem_sub(d, real, p)),
                 (c * x, ref.elem_mul(d, real, p))]
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            inv = ref.elem_inverse(d, p)
            cases += [(x.inverse(), inv), (y / x, ref.elem_mul(d, q, inv))]
        for got, want in cases:
            assert (got.re, got.rt) == want
            _elem_in_lowest_terms(got)
            rebuilt = QElem(d, *want)
            assert got == rebuilt and hash(got) == hash(rebuilt)
        assert x.norm() == ref.elem_norm(d, p)


def test_equal_scalar_values_hash_equal():
    rng = random.Random(9100)
    for d in FIELDS:
        for _ in range(100):
            x, y = QElem(d, *_pair(rng)), QElem(d, *_pair(rng))
            pairs = [((x + y) - y, x), (-(-x), x), (x.conj().conj(), x),
                     ((x + x) * F(1, 2), x), (x - x, QElem.zero(d)),
                     (QMatrix.from_rows(d, [[x]]).scalar(), x),
                     ((QMatrix.column(d, [x]) @ QMatrix.column(d, [y])).scalar(), x * y),
                     (block_matrix(d, [[x, y]]).at(0, 1), y)]
            if not y.is_zero:
                pairs += [(x * y * y.inverse(), x), (y / y, QElem.one(d)),
                          (y.inverse().inverse(), y)]
            for got, want in pairs:
                _elem_in_lowest_terms(got)
                assert got == want and hash(got) == hash(want)


def test_stored_form_checks_tags_and_shapes():
    with pytest.raises(FieldTagError):
        QMatrix.from_rows(-5, [[QElem.one(-5), QElem.one(-7)]])
    with pytest.raises(FieldTagError):
        block_matrix(-5, [[QMatrix.identity(-5, 1), QMatrix.identity(-7, 1)]])
    with pytest.raises(FieldTagError):
        block_matrix(-5, [[QElem.one(-5), QElem.one(-7)]])
    with pytest.raises(FieldTagError):
        QMatrix.identity(-5, 2) + QMatrix.identity(-7, 2)
    with pytest.raises(ValueError):
        QMatrix.identity(-5, 2) - QMatrix.zero(-5, 2, 1)
    for bad in ((-1, 1, 1, 0, (1,), (0,)), (-1, 1, 1, -2, (1,), (0,)),
                (-1, 1, 2, 1, (1,), (0,)), (-4, 1, 1, 1, (1,), (0,)),
                (-6.0, 1, 1, 1, (1,), (0,))):
        with pytest.raises(ValueError):
            QMatrix(*bad)
    for bad_tag in (-4, -6.0):
        for build in (lambda: QMatrix.identity(bad_tag, 2),
                      lambda: QMatrix.zero(bad_tag, 1, 2),
                      lambda: QMatrix.from_rows(bad_tag, [[1, 0]])):
            with pytest.raises(ValueError):
                build()


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
