import random
from fractions import Fraction as F

import pytest

from ballquot import cusp
from ballquot.cusp import (BoundaryElement, BoundaryPoint, CuspFrame,
                           apply_boundary_action, boundary_divisor_fixed,
                           boundary_tangent_exponents, check_qr_congruences,
                           is_in_NF, is_in_UF, is_in_WF, normalize_cusp_basis,
                           sigma_element, uf_lattice_generator, uf_translation)
from ballquot.qfield import QElem, QMatrix, in_ring_of_integers
from ballquot.reidtai import is_quasi_reflection, reid_tai_sum

FIELDS = (-5, -6, -7, -10, -11, -13, -15)


def identity_element(frame):
    d, m = frame.d, frame.n - 1
    return BoundaryElement(QElem.one(d), QMatrix.zero(d, 1, m), QElem.zero(d),
                           QMatrix.identity(d, m), QMatrix.zero(d, m, 1),
                           QElem.one(d))


# ---------------------------------------------------------------------------
# frames and normalization

def test_frame_validation():
    b = QMatrix.from_rows(-5, [[2, 0], [0, 3]])
    frame = CuspFrame(3, -5, QElem.one(-5), b)
    assert frame.q_matrix().is_hermitian()
    bad = QMatrix.from_rows(-5, [[-1, 0], [0, 1]])
    with pytest.raises(ValueError):
        CuspFrame(3, -5, QElem.one(-5), bad)
    with pytest.raises(ValueError):
        CuspFrame(3, -5, QElem.zero(-5), b)


def test_normalize_identity_input():
    frame = CuspFrame(3, -7, QElem.of(-7, 2, 1), QMatrix.from_rows(-7, [[1, 0], [0, 2]]))
    q = frame.q_matrix()
    n_mat, recovered = normalize_cusp_basis(q, 3)
    assert n_mat == QMatrix.identity(-7, 4)
    assert recovered == frame


def test_normalize_worked_example():
    # n = 2, D = -5: first row (0, 0, 1), B = (1), c = (1), d = 2
    qprime = QMatrix.from_rows(-5, [[0, 0, 1], [0, 1, 1], [1, 1, 2]])
    n_mat, frame = normalize_cusp_basis(qprime, 2)
    expected_n = QMatrix.from_rows(-5, [[1, 0, F(-1, 2)], [0, 1, -1], [0, 0, 1]])
    assert n_mat == expected_n
    assert n_mat.h @ qprime @ n_mat == frame.q_matrix()
    assert frame.a == QElem.one(-5)


def test_normalize_random_frames_property():
    rng = random.Random(0)
    for _ in range(25):
        d_tag = rng.choice(FIELDS)
        n = rng.choice((2, 3, 4))
        frame = cusp.random_frame(rng, d_tag, n)
        m = n - 1
        p = cusp.block_matrix(d_tag, [
            [QElem.one(d_tag), cusp.random_vector(rng, d_tag, m).h,
             cusp.random_qelem(rng, d_tag)],
            [QMatrix.zero(d_tag, m, 1), QMatrix.identity(d_tag, m),
             cusp.random_vector(rng, d_tag, m)],
            [QElem.zero(d_tag), QMatrix.zero(d_tag, 1, m), QElem.one(d_tag)],
        ])
        qprime = p.h @ frame.q_matrix() @ p
        n_mat, recovered = normalize_cusp_basis(qprime, n)
        result = n_mat.h @ qprime @ n_mat
        assert result == recovered.q_matrix()
        assert recovered.a == frame.a and recovered.b_mat == frame.b_mat
        # every off-antidiagonal block is exactly zero, including the corner
        assert result.at(n, n).is_zero
        for j in range(n):
            assert result.at(0, j).is_zero


def test_normalize_rejects_bad_inputs():
    # wrong zero pattern
    qprime = QMatrix.from_rows(-5, [[1, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        normalize_cusp_basis(qprime, 2)
    # singular middle block
    qprime2 = QMatrix.from_rows(-5, [[0, 0, 1], [0, 0, 0], [1, 0, 2]])
    with pytest.raises(ValueError):
        normalize_cusp_basis(qprime2, 2)


# ---------------------------------------------------------------------------
# membership

def test_identity_memberships():
    rng = random.Random(1)
    frame = cusp.random_frame(rng, -5, 3)
    e = identity_element(frame)
    assert is_in_NF(e, frame)
    assert is_in_WF(e, frame)
    assert is_in_UF(e, frame)


def test_not_in_nf_when_scaling_breaks():
    rng = random.Random(2)
    frame = cusp.random_frame(rng, -5, 3)
    e = identity_element(frame)
    bad = BoundaryElement(QElem.of(-5, 2), e.v, e.w, e.x_mat, e.y, QElem.one(-5))
    assert not is_in_NF(bad, frame)


def test_uf_membership_examples():
    rng = random.Random(3)
    frame = cusp.random_frame(rng, -7, 3)
    u = uf_translation(frame, F(3, 2))
    assert is_in_UF(u, frame)
    # conj(a) w + a conj(w) = 0 for w = x a sqrt(D)
    w = u.w
    assert (frame.a.conj() * w + frame.a * w.conj()).is_zero
    # any element with y != 0 is not central
    g = cusp.random_wf_element(rng, frame)
    if not g.y.is_zero:
        assert not is_in_UF(g, frame)


def test_wf_construction_and_shape():
    rng = random.Random(4)
    for _ in range(10):
        d_tag = rng.choice(FIELDS)
        frame = cusp.random_frame(rng, d_tag, rng.choice((2, 3, 4)))
        g = cusp.random_wf_element(rng, frame)
        assert is_in_WF(g, frame)
        assert is_in_NF(g, frame)
        h = cusp.random_nf_element(rng, frame)
        if h.x_mat != QMatrix.identity(d_tag, frame.n - 1):
            assert not is_in_WF(h, frame)


def test_from_matrix_needs_block_upper_triangular_shape():
    rng = random.Random(9)
    frame = cusp.random_frame(rng, -7, 3)
    g = cusp.random_nf_element(rng, frame)
    grid = g.assemble().to_rows()
    assert BoundaryElement.from_matrix(g.assemble()) == g
    npl = len(grid)
    # every entry of the first column below the corner, and of the last row
    # before it, must be zero
    for i, j in [(i, 0) for i in range(1, npl)] + [(npl - 1, j) for j in range(npl - 1)]:
        bad = [row[:] for row in grid]
        bad[i][j] = QElem.of(-7, 0, F(1, 3))
        with pytest.raises(ValueError, match="block upper-triangular"):
            BoundaryElement.from_matrix(QMatrix.from_rows(-7, bad))


def test_nf_group_laws():
    rng = random.Random(5)
    for _ in range(10):
        d_tag = rng.choice(FIELDS)
        frame = cusp.random_frame(rng, d_tag, rng.choice((2, 3)))
        q = frame.q_matrix()
        g1 = cusp.random_nf_element(rng, frame)
        g2 = cusp.random_nf_element(rng, frame)
        assert is_in_NF(g1, frame) and is_in_NF(g2, frame)
        assert is_in_NF(g1.compose(g2), frame)
        assert is_in_NF(g1.inverse(), frame)
        gm = g1.assemble()
        assert gm.h @ q @ gm == q
        u = cusp.random_uf_element(rng, frame)
        w = cusp.random_wf_element(rng, frame)
        assert u.compose(w) == w.compose(u)


# ---------------------------------------------------------------------------
# the integral lattice generator

def brute_sigma(a, d_tag, bound=200000):
    """Scan a sound grid for the least positive x with x*a*sqrt(D) integral."""
    from ballquot.cusp import _lcm_fractions
    step = None
    for c in (2 * a.re, 2 * a.rt * d_tag):
        if c == 0:
            continue
        g = F(c.denominator, abs(c.numerator))
        step = g if step is None else _lcm_fractions(step, g)
    root = QElem.sqrt_d(d_tag)
    for m in range(1, bound + 1):
        x = m * step
        if in_ring_of_integers(a * root * QElem.of(d_tag, x)):
            return x
    raise AssertionError("scan exhausted")


def test_uf_lattice_generator_examples():
    assert uf_lattice_generator(QElem.of(-5, 1), -5) == 1
    assert brute_sigma(QElem.of(-5, 1), -5) == 1
    assert uf_lattice_generator(QElem.of(-5, 0, 1), -5) == F(1, 5)
    assert brute_sigma(QElem.of(-5, 0, 1), -5) == F(1, 5)
    # closed formula for e = p/q, f = r/s, both nonzero, D = 2,3 mod 4
    a = QElem.of(-5, F(1, 2), F(1, 3))
    assert uf_lattice_generator(a, -5) == 6 == brute_sigma(a, -5)


def test_uf_lattice_generator_against_scan():
    rng = random.Random(6)
    for d_tag in FIELDS:
        cases = [QElem.of(d_tag, F(rng.randint(1, 5), rng.randint(1, 4)), 0),
                 QElem.of(d_tag, 0, F(rng.randint(1, 5), rng.randint(1, 4)))]
        for _ in range(10):
            cases.append(cusp.random_qelem(rng, d_tag, 4, 4, nonzero=True))
        for a in cases:
            assert uf_lattice_generator(a, d_tag) == brute_sigma(a, d_tag), (a, d_tag)


def test_uf_lattice_lcm_formula():
    from math import gcd
    rng = random.Random(7)
    for d_tag in (-5, -6, -10, -13):
        dprime = -d_tag
        for _ in range(20):
            e = F(rng.randint(-5, 5), rng.randint(1, 4))
            f = F(rng.randint(-5, 5), rng.randint(1, 4))
            if e == 0 or f == 0:
                continue
            p, q = abs(e.numerator), e.denominator
            r, s = abs(f.numerator), f.denominator
            formula = F((s * p * r * dprime * q) // gcd(s * p, r * dprime * q),
                        r * dprime * p)
            assert uf_lattice_generator(QElem.of(d_tag, e, f), d_tag) == formula


def test_uf_translation_integrality():
    frame = CuspFrame(3, -5, QElem.of(-5, 1, 1), QMatrix.from_rows(-5, [[1, 0], [0, 1]]))
    x0 = uf_lattice_generator(frame.a, -5)
    u = uf_translation(frame, x0)
    assert in_ring_of_integers(u.w)
    assert cusp.in_sigma_lattice(u.w, frame, x0)
    assert not cusp.in_sigma_lattice(uf_translation(frame, x0 / 2).w, frame, x0)


def test_uf_lattice_generator_zero_error():
    with pytest.raises(ValueError):
        uf_lattice_generator(QElem.zero(-5), -5)


# ---------------------------------------------------------------------------
# boundary action

def test_action_identity_and_translation():
    rng = random.Random(8)
    frame = cusp.random_frame(rng, -7, 3)
    pt = BoundaryPoint(cusp.random_qelem(rng, -7),
                       cusp.random_vector(rng, -7, 2))
    e = identity_element(frame)
    assert apply_boundary_action(e, pt, frame) == pt
    u = uf_translation(frame, F(2, 3))
    moved = apply_boundary_action(u, pt, frame)
    assert moved.alpha == pt.alpha + u.w
    assert moved.wvec == pt.wvec


def test_action_on_origin():
    rng = random.Random(9)
    frame = cusp.random_frame(rng, -5, 3)
    g = cusp.random_nf_element(rng, frame)
    origin = BoundaryPoint(QElem.zero(-5), QMatrix.zero(-5, 2, 1))
    out = apply_boundary_action(g, origin, frame)
    zinv = g.z.inverse()
    assert out.alpha == zinv * g.w
    assert out.wvec == g.y.scale(zinv)


def test_action_errors():
    rng = random.Random(10)
    frame = cusp.random_frame(rng, -5, 3)
    e = identity_element(frame)
    bad = BoundaryElement(QElem.of(-5, 2), e.v, e.w, e.x_mat, e.y, QElem.one(-5))
    pt = BoundaryPoint(QElem.zero(-5), QMatrix.zero(-5, 2, 1))
    with pytest.raises(ValueError):
        apply_boundary_action(bad, pt, frame)


def test_action_composition():
    rng = random.Random(11)
    for _ in range(10):
        d_tag = rng.choice(FIELDS)
        frame = cusp.random_frame(rng, d_tag, rng.choice((2, 3)))
        g1 = cusp.random_nf_element(rng, frame)
        g2 = cusp.random_nf_element(rng, frame)
        pt = BoundaryPoint(cusp.random_qelem(rng, d_tag),
                           cusp.random_vector(rng, d_tag, frame.n - 1))
        lhs = apply_boundary_action(g1.compose(g2), pt, frame)
        rhs = apply_boundary_action(g1, apply_boundary_action(g2, pt, frame), frame)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# tangent exponents and congruences

def test_tangent_exponents_central_translation():
    frame = CuspFrame(3, -5, QElem.of(-5, 1, 1),
                      QMatrix.from_rows(-5, [[1, 0], [0, 1]]))
    x0 = uf_lattice_generator(frame.a, -5)
    u = uf_translation(frame, 2 * x0)
    w0 = QMatrix.zero(-5, 2, 1)
    es = boundary_tangent_exponents(u, w0, frame, x0)
    assert set(es.exponents) == {0}
    assert reid_tai_sum(es) == 0


def test_tangent_exponents_order2():
    rng = random.Random(12)
    seen_half = False
    seen_nonrefl = False
    for _ in range(40):
        d_tag = rng.choice(FIELDS)
        frame = cusp.random_frame(rng, d_tag, rng.choice((2, 3, 4)))
        inst = cusp.random_order2_element(rng, frame)
        g, w0, x0 = inst.element, inst.fixed_point, inst.sigma_gen
        gsq = g.compose(g)
        assert is_in_UF(gsq, frame)
        assert cusp.in_sigma_lattice(gsq.w, frame, x0)
        assert check_qr_congruences(g, frame, x0)
        es = boundary_tangent_exponents(g, w0, frame, x0)
        assert all(F(a, es.order) in (F(0), F(1, 2)) for a in es.exponents)
        if any(2 * a == es.order for a in es.exponents):
            seen_half = True
        if not is_quasi_reflection(es):
            seen_nonrefl = True
            assert reid_tai_sum(es) >= 1
        assert boundary_divisor_fixed(g, frame) is False
    assert seen_half and seen_nonrefl


def test_tangent_exponents_errors_and_fractional_shift():
    frame = CuspFrame(3, -5, QElem.of(-5, 1, 1),
                      QMatrix.from_rows(-5, [[1, 0], [0, 1]]))
    x0 = uf_lattice_generator(frame.a, -5)
    w0 = QMatrix.zero(-5, 2, 1)
    # a real-direction shift breaks the stabiliser relations outright
    e = identity_element(frame)
    bad = BoundaryElement(e.u, e.v, QElem.one(-5), e.x_mat, e.y, e.z)
    assert not is_in_NF(bad, frame)
    with pytest.raises(ValueError):
        boundary_tangent_exponents(bad, w0, frame, x0)
    # an element that does not fix the point is rejected
    u = uf_translation(frame, x0)
    rng = random.Random(99)
    g = cusp.random_nf_element(rng, frame)
    if g.x_mat @ w0 + g.y != w0:
        with pytest.raises(ValueError):
            boundary_tangent_exponents(g, w0, frame, x0)
    # a fractional central translation is torsion with denominator order
    u7 = uf_translation(frame, x0 / 7)
    es = boundary_tangent_exponents(u7, w0, frame, x0)
    assert es.order == 7 and sorted(set(es.exponents)) == [0, 1]


def test_check_qr_congruences_cases():
    rng = random.Random(13)
    frame = cusp.random_frame(rng, -5, 3)
    x0 = uf_lattice_generator(frame.a, -5)
    e = identity_element(frame)
    assert check_qr_congruences(e, frame, x0)
    inst = cusp.random_order2_element(rng, frame)
    assert check_qr_congruences(inst.element, frame, x0)
    # an element whose X is an involution but y sits outside ker(I + X)
    vecs = cusp.random_b_reflection_vectors(rng, frame, 1)
    x_mat = cusp.involution_from_vectors(frame, vecs)
    y = cusp.random_vector(rng, -5, 2, max_num=2, max_den=1)
    if (x_mat @ y + y) != QMatrix.zero(-5, 2, 1):
        g = cusp.nf_element(frame, x_mat, y, QElem.one(-5), F(0))
        assert check_qr_congruences(g, frame, x0) is False


def test_check_qr_congruences_precondition():
    rng = random.Random(14)
    frame = cusp.random_frame(rng, -5, 3)
    x0 = uf_lattice_generator(frame.a, -5)
    # order-4 rotation: not 2-torsion mod centre
    while True:
        x_mat = cusp.random_b_unitary(rng, frame)
        if x_mat @ x_mat != QMatrix.identity(-5, 2):
            break
    g = cusp.nf_element(frame, x_mat, QMatrix.zero(-5, 2, 1), QElem.one(-5), F(0))
    with pytest.raises(ValueError):
        check_qr_congruences(g, frame, x0)


def test_boundary_divisor_trivial_excluded():
    rng = random.Random(15)
    frame = cusp.random_frame(rng, -5, 3)
    u = cusp.random_uf_element(rng, frame)
    with pytest.raises(ValueError):
        boundary_divisor_fixed(u, frame)
