import random
from fractions import Fraction as F
from math import isqrt

import pytest

from ballquot.qfield import (FieldTagError, QElem, QMatrix, _elem, _identity,
                             _zero, block_matrix, fmt_rational,
                             in_ring_of_integers, is_squarefree)

FIELDS = (-1, -2, -3, -5, -6, -7, -11, -15)


def rand_elem(rng, d):
    return QElem(d, F(rng.randint(-6, 6), rng.randint(1, 4)),
                 F(rng.randint(-6, 6), rng.randint(1, 4)))


# ---------------------------------------------------------------------------
# formatting

def test_fmt_rational():
    assert fmt_rational(F(11, 15)) == "11/15"
    assert fmt_rational(F(4, 2)) == "2"
    assert fmt_rational(F(-1, 4)) == "-1/4"


def test_is_squarefree():
    assert is_squarefree(-5) and is_squarefree(30) and is_squarefree(-1)
    assert not is_squarefree(12) and not is_squarefree(-4) and not is_squarefree(0)


def squarefree_by_every_square(n):
    """Brute force: no p in [2, sqrt|n|] has p^2 | n (0 is not squarefree)."""
    n = abs(n)
    return n != 0 and all(n % (p * p) for p in range(2, isqrt(n) + 1))


def squarefree_flags(limit):
    """flags[n] for 0 <= n <= limit: no k*k with k >= 2 divides n, found by
    striking every multiple of every square up to limit."""
    flags = [True] * (limit + 1)
    flags[0] = False
    for k in range(2, isqrt(limit) + 1):
        for m in range(k * k, limit + 1, k * k):
            flags[m] = False
    return flags


ODD_PRIMES = (3, 5, 7, 11, 13, 97, 101, 139, 10007, 10009, 65537)


def test_is_squarefree_matches_brute_force():
    # every |n| <= 10^5; then the cases an odd-only trial division could
    # miss: squares of odd primes alone and beside a factor 2, and products
    # of two large primes, whose smaller factor the loop must reach; then
    # the primes on both sides of 64, where the gcd with the product of the
    # small primes hands over to trial division, with their squares beside
    # other factors; last, numbers above 10^12 whose trial division runs
    # long or not at all
    limit = 10 ** 5
    flags = squarefree_flags(limit)
    for n in range(-limit, limit + 1):
        assert is_squarefree(n) == flags[abs(n)], n
    special = [0, 1, -1, 2, -2, 4, 8]
    for p in ODD_PRIMES:
        special += [p * p, -p * p, 2 * p * p, 4 * p * p, 2 * p, p ** 3]
    for i, p in enumerate(ODD_PRIMES):
        for q in ODD_PRIMES[i:]:
            special += [p * q, -2 * p * q]
    for p in (59, 61, 67, 71, 101):
        for k in (1, 2, 3, 5, 30, 61 * 67, 71 * 101, 10007, -1):
            special += [p * p * k, p * k, p ** 3 * k]
    for n in special:
        assert is_squarefree(n) == squarefree_by_every_square(n), n
    # 1000003 and 1000033 are prime
    big = {1000003 * 1000033: True, -1000003 * 1000033: True, 1000003 ** 2: False,
           304250263527210: True,  # the product of the primes up to 41
           2 * 61 * 1000003 * 1000033: True, 61 ** 2 * 1000003 * 1000033: False,
           67 ** 2 * 1000003 * 1000033: False, 3 * 1000033 ** 2: False}
    for n, want in big.items():
        assert abs(n) > 10 ** 12
        assert is_squarefree(n) is want, n


@pytest.mark.parametrize("bad", (-4, -12, -6.0, F(-3), 0, 3, True, "-5"))
def test_constants_refuse_what_the_checked_constructor_refuses(bad):
    for build in (QElem.zero, QElem.one, QElem.sqrt_d,
                  lambda d: QElem(d, 0, 0), lambda d: QElem.of(d, 1)):
        with pytest.raises(ValueError):
            build(bad)


def test_constants_equal_the_checked_construction():
    for d in FIELDS:
        for got, coords in ((QElem.zero(d), (0, 0)), (QElem.one(d), (1, 0)),
                            (QElem.sqrt_d(d), (0, 1))):
            want = QElem(d, *coords)
            assert got == want and hash(got) == hash(want)
            assert (got.d, got.den, got.a, got.b) == (d, 1, *coords)


def test_trusted_constants_equal_and_hash_like_the_public_constructors():
    for d in FIELDS:
        pairs = [(_elem(d, 1, 1, 0), QElem.one(d)), (_elem(d, 1, 0, 1), QElem.sqrt_d(d))]
        for n in (1, 2, 3, 4):
            pairs += [(_identity(d, n), QMatrix.identity(d, n)),
                      (_zero(d, n, 1), QMatrix.zero(d, n, 1)),
                      (_zero(d, 1, n), QMatrix.zero(d, 1, n))]
        for got, want in pairs:
            assert got == want and hash(got) == hash(want)


def test_every_empty_shape_is_refused_alike():
    for build in (lambda: QMatrix.from_rows(-5, []), lambda: QMatrix.column(-5, []),
                  lambda: QMatrix.from_rows(-5, [[]]), lambda: QMatrix.identity(-5, 0),
                  lambda: QMatrix.zero(-5, 2, 0), lambda: QMatrix(-5, 0, 1, 1, (), ()),
                  # a slice of no rows or columns, and a grid with no block
                  lambda: QMatrix.identity(-5, 2).submatrix(0, 0, 0, 0),
                  lambda: QMatrix.identity(-5, 2).submatrix(0, 0, 1, 0),
                  lambda: QMatrix.identity(-5, 2).submatrix(0, 0, -1, 2),
                  lambda: block_matrix(-5, []), lambda: block_matrix(-5, [[]]),
                  lambda: block_matrix(-5, [[QElem.one(-5)], []])):
        with pytest.raises(ValueError, match="matrix dimensions must be positive"):
            build()


# ---------------------------------------------------------------------------
# element arithmetic

def test_construction_rejects_bad_tags():
    for bad in (0, 5, -4, -12):
        with pytest.raises(ValueError):
            QElem.of(bad, 1)


def test_float_coordinates_are_refused():
    # 0.1 as a Fraction would be 3602879701896397/36028797018963968
    for make in (lambda: QElem(-1, 0.1, 0), lambda: QElem(-1, 0, 0.5),
                 lambda: QElem.of(-1, 0.5), lambda: QMatrix.from_rows(-1, [[0.5]]),
                 lambda: QMatrix.identity(-1, 2).scale(0.5),
                 lambda: QElem.one(-1) + 0.5):
        with pytest.raises(TypeError):
            make()


def test_mixed_tags_error():
    x = QElem.of(-5, 1)
    y = QElem.of(-7, 1)
    with pytest.raises(FieldTagError):
        x + y
    with pytest.raises(FieldTagError):
        x * y


def test_validated_tag_does_not_admit_lookalikes():
    # tags that compare or hash equal to -6, and other bad tags, are rejected
    # whether or not a valid -6 was checked just before
    QElem(-6, 1, 0)
    for bad in (-6.0, F(-6), -4, 0, 5):
        with pytest.raises(ValueError):
            QElem(bad, 1, 0)
    QElem(-6, 1, 0)
    a, b = QMatrix.identity(-6, 2), QMatrix.identity(-5, 2)
    x, y = QElem.one(-6), QElem.one(-5)
    for op in (lambda: a @ b, lambda: x + y, lambda: x * y, lambda: a.scale(y)):
        with pytest.raises(FieldTagError):
            op()


def test_elements_are_frozen():
    x = QElem.of(-6, 1, 2)
    for name in ("d", "re", "rt", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 3)
    with pytest.raises(AttributeError):
        del x.re
    assert x == QElem.of(-6, 1, 2)


def test_equal_values_by_different_routes():
    half = QElem.of(-6, F(2, 4))
    for other in (QElem.of(-6, F(3, 2)) * QElem.of(-6, F(1, 3)),
                  QElem(-6, F(1, 2), 0),
                  QElem.of(-6, 1) / 2,
                  QElem.of(-6, 2).inverse(),
                  (QMatrix.from_rows(-6, [[1, F(1, 4)]]) @ QMatrix.column(-6, [F(1, 4), 1])).scalar(),
                  QMatrix.from_rows(-6, [[2]]).inverse().scalar(),
                  QMatrix.from_rows(-6, [[F(1, 2)]]).det()):
        assert other == half and hash(other) == hash(half)
        assert type(other.re) is F and type(other.rt) is F
    assert len({half, QElem.of(-6, F(1, 2)), QElem.of(-5, F(1, 2))}) == 2


def test_elements_never_equal_plain_numbers():
    assert (QElem.of(-6, 0) == 0) is False
    assert (QElem.of(-6, 1) == 1) is False
    assert QElem.of(-6, 1) != F(1)


def test_repr_and_pickle():
    import copy
    import pickle
    x = QElem.of(-7, F(1, 2), -3)
    assert repr(x) == "QElem(d=-7, re=Fraction(1, 2), rt=Fraction(-3, 1))"
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x


def test_conj_examples():
    assert QElem.of(-5, 3, 2).conj() == QElem.of(-5, 3, -2)
    assert QElem.of(-5, 4).conj() == QElem.of(-5, 4)
    assert QElem.of(-3, F(1, 2), F(1, 2)).conj() == QElem.of(-3, F(1, 2), F(-1, 2))


def test_conj_is_ring_automorphism():
    rng = random.Random(1)
    for _ in range(100):
        d = rng.choice(FIELDS)
        x, y = rand_elem(rng, d), rand_elem(rng, d)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


def test_qinv_examples():
    x = QElem.of(-1, 1, 1)
    assert x.inverse() == QElem.of(-1, F(1, 2), F(-1, 2))
    assert x * x.inverse() == QElem.one(-1)
    assert QElem.of(-5, -1).inverse() == QElem.of(-5, -1)
    y = QElem.of(-5, 0, 1)
    assert y.inverse() == QElem.of(-5, 0, F(-1, 5))
    assert y * y.inverse() == QElem.one(-5)
    assert QElem.sqrt_d(-1).inverse() == -QElem.sqrt_d(-1)


def test_qinv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QElem.zero(-5).inverse()


def test_field_axioms_random():
    rng = random.Random(2)
    for _ in range(150):
        d = rng.choice(FIELDS)
        x, y, z = (rand_elem(rng, d) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if not x.is_zero:
            assert x * x.inverse() == QElem.one(d)


def test_norm_positive():
    rng = random.Random(3)
    for _ in range(100):
        x = rand_elem(rng, rng.choice(FIELDS))
        if not x.is_zero:
            assert x.norm() > 0


def test_field_axioms_property():
    """The field axioms, conj as a ring automorphism and the multiplicative
    norm, on elements drawn by hypothesis (seeded by tests/conftest.py)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coords = st.fractions(min_value=-50, max_value=50, max_denominator=30)

    @hypothesis.given(st.sampled_from(FIELDS), st.lists(coords, min_size=6, max_size=6))
    def check(d, c):
        x, y, z = QElem(d, c[0], c[1]), QElem(d, c[2], c[3]), QElem(d, c[4], c[5])
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        assert x + QElem.zero(d) == x and x * QElem.one(d) == x
        assert x + (-x) == QElem.zero(d)
        if not x.is_zero:
            assert x * x.inverse() == QElem.one(d)
            assert (y / x) * x == y
        assert x.conj() + y.conj() == (x + y).conj()
        assert x.conj() * y.conj() == (x * y).conj()
        assert x.conj().conj() == x
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * x.conj() == QElem.of(d, x.norm())

    check()


# ---------------------------------------------------------------------------
# ring of integers

def test_in_ring_examples():
    assert in_ring_of_integers(QElem.of(-3, F(1, 2), F(1, 2)))
    assert not in_ring_of_integers(QElem.of(-5, F(1, 2), F(1, 2)))
    assert in_ring_of_integers(QElem.of(-2, 3, -2))


def test_in_ring_trace_norm_oracle():
    # x is integral iff trace(x) = 2*re and norm(x) are both integers
    rng = random.Random(4)
    for _ in range(400):
        x = rand_elem(rng, rng.choice(FIELDS))
        oracle = (2 * x.re).denominator == 1 and x.norm().denominator == 1
        assert in_ring_of_integers(x) == oracle


def test_in_ring_closure():
    rng = random.Random(5)
    for d in FIELDS:
        ints = []
        while len(ints) < 10:
            x = rand_elem(rng, d)
            if in_ring_of_integers(x):
                ints.append(x)
        for x in ints:
            for y in ints:
                assert in_ring_of_integers(x + y)
                assert in_ring_of_integers(x * y)


# ---------------------------------------------------------------------------
# matrices

def test_hermitian_adjoint_examples():
    ident = QMatrix.identity(-5, 3)
    assert ident.h == ident
    row = QMatrix.from_rows(-1, [[QElem.sqrt_d(-1), QElem.one(-1)]])
    col = row.h
    assert col.rows == 2 and col.cols == 1
    assert col.at(0, 0) == -QElem.sqrt_d(-1)
    assert col.at(1, 0) == QElem.one(-1)


def test_adjoint_involution_and_product_rule():
    rng = random.Random(6)
    for _ in range(50):
        d = rng.choice(FIELDS)
        a = QMatrix.from_rows(d, [[rand_elem(rng, d) for _ in range(3)]
                                  for _ in range(2)])
        b = QMatrix.from_rows(d, [[rand_elem(rng, d) for _ in range(2)]
                                  for _ in range(3)])
        assert a.h.h == a
        assert (a @ b).h == b.h @ a.h


def test_hermitian_quadratic_form_is_real():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.choice(FIELDS)
        a = QMatrix.from_rows(d, [[rand_elem(rng, d) for _ in range(3)]
                                  for _ in range(3)])
        m = a.h @ a  # hermitian
        assert m.is_hermitian()
        x = QMatrix.column(d, [rand_elem(rng, d) for _ in range(3)])
        val = (x.h @ m @ x).scalar()
        assert val.rt == 0


def test_matrix_inverse_and_rank():
    rng = random.Random(8)
    for _ in range(30):
        d = rng.choice(FIELDS)
        m = QMatrix.from_rows(d, [[rand_elem(rng, d) for _ in range(3)]
                                  for _ in range(3)])
        if m.det().is_zero:
            assert m.rank() < 3
            continue
        assert m.rank() == 3
        assert m @ m.inverse() == QMatrix.identity(d, 3)


def test_kernel_dimension():
    d = -5
    z = QElem.zero(d)
    o = QElem.one(d)
    m = QMatrix.from_rows(d, [[o, o], [o, o]])
    # the kernel dimension is cols - rank
    assert m.cols - m.rank() == 1
    assert QMatrix.zero(d, 2, 2).rank() == 0
    assert QMatrix.identity(d, 2).rank() == 2
    assert z.is_zero


def test_block_matrix_assembly():
    d = -5
    b = block_matrix(d, [
        [QElem.one(d), QMatrix.zero(d, 1, 2), QElem.of(d, 7)],
        [QMatrix.zero(d, 2, 1), QMatrix.identity(d, 2), QMatrix.zero(d, 2, 1)],
        [QElem.zero(d), QMatrix.zero(d, 1, 2), QElem.one(d)],
    ])
    assert b.rows == b.cols == 4
    assert b.at(0, 3) == QElem.of(d, 7)
    assert b.at(1, 1) == QElem.one(d)
