import dataclasses
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

import reference_kernel as ref
from ballquot import certificates, cusp, qfield
from ballquot.cusp import (BoundaryElement, BoundaryPoint, CuspFrame,
                           apply_boundary_action, boundary_divisor_fixed,
                           boundary_tangent_exponents, check_qr_congruences,
                           fixes_boundary_point,
                           in_sigma_lattice, is_in_NF, is_in_UF, is_in_WF,
                           nf_element, normalize_cusp_basis, sigma_element,
                           uf_lattice_generator, uf_translation)
from ballquot.qfield import FieldTagError, QElem, QMatrix, in_ring_of_integers
from ballquot.reidtai import is_quasi_reflection, reid_tai_sum

FIELDS = (-5, -6, -7, -10, -11, -13, -15)


def identity_element(frame):
    return BoundaryElement(QMatrix.identity(frame.d, frame.n + 1))


# ---------------------------------------------------------------------------
# frames and normalization

def test_frame_validation():
    b = QMatrix.from_rows(-5, [[2, 0], [0, 3]])
    frame = CuspFrame(QElem.one(-5), b)
    assert frame.q_matrix().is_hermitian()
    bad = QMatrix.from_rows(-5, [[-1, 0], [0, 1]])
    with pytest.raises(ValueError):
        CuspFrame(QElem.one(-5), bad)
    with pytest.raises(ValueError):
        CuspFrame(QElem.zero(-5), b)
    for a, b_mat in ((QElem.one(-6), b),  # field tags of a and B disagree
                     (QElem.one(-5), QMatrix.from_rows(-5, [[2, 0, 0], [0, 3, 0]])),  # 2 x 3
                     (QElem.one(-5), qfield._mat(-5, 0, 0, 1, (), ())),  # empty B
                     (QElem.one(-5), qfield._mat(-5, 0, 2, 1, (), ())),  # B with no rows
                     (QElem.one(-5), QMatrix.from_rows(-5, [[2, 1], [0, 3]]))):  # not hermitian
        with pytest.raises(ValueError):
            CuspFrame(a, b_mat)


def test_normalize_identity_input():
    frame = CuspFrame(QElem.of(-7, 2, 1), QMatrix.from_rows(-7, [[1, 0], [0, 2]]))
    q = frame.q_matrix()
    n_mat, recovered = normalize_cusp_basis(q)
    assert n_mat == QMatrix.identity(-7, 4)
    assert recovered == frame


def test_normalize_worked_example():
    # n = 2, D = -5: first row (0, 0, 1), B = (1), c = (1), d = 2
    qprime = QMatrix.from_rows(-5, [[0, 0, 1], [0, 1, 1], [1, 1, 2]])
    n_mat, frame = normalize_cusp_basis(qprime)
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
        p = BoundaryElement.from_blocks(
            QElem.one(d_tag), cusp.random_vector(rng, d_tag, m).h,
            cusp.random_qelem(rng, d_tag), QMatrix.identity(d_tag, m),
            cusp.random_vector(rng, d_tag, m), QElem.one(d_tag)).mat
        qprime = p.h @ frame.q_matrix() @ p
        n_mat, recovered = normalize_cusp_basis(qprime)
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
        normalize_cusp_basis(qprime)
    # singular middle block
    qprime2 = QMatrix.from_rows(-5, [[0, 0, 1], [0, 0, 0], [1, 0, 2]])
    with pytest.raises(ValueError):
        normalize_cusp_basis(qprime2)
    # not square, or too small to hold a nonempty B
    for rows in ([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
                 [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 0]],
                 [[0, 1], [1, 0]], [[1]]):
        with pytest.raises(ValueError):
            normalize_cusp_basis(QMatrix.from_rows(-5, rows))


@pytest.mark.parametrize("d_tag, size", ((-5, 2), (-7, 3), (-6, 4)))
def test_frame_reads_n_and_d_from_b_and_compares_by_a_and_b(d_tag, size):
    frame = cusp.random_frame(random.Random(size), d_tag, size)
    assert (frame.n, frame.d) == (frame.b_mat.rows + 1, frame.b_mat.d) == (size, d_tag)
    twin = CuspFrame(QElem(d_tag, frame.a.re, frame.a.rt),
                     QMatrix.from_rows(d_tag, frame.b_mat.to_rows()))
    assert twin == frame and hash(twin) == hash(frame)
    assert CuspFrame(frame.a * 2, frame.b_mat) != frame


def test_inner_equals_the_adjoint_product():
    rng = random.Random(40)
    for d_tag in (-5, -6, -7, -15):
        for n in (2, 3, 4):
            frame = cusp.random_frame(rng, d_tag, n)
            x, y = (cusp.random_vector(rng, d_tag, n - 1) for _ in range(2))
            for u, v in ((x, x), (y, y), (x, y), (y, x)):
                want = (u.h @ frame.b_mat @ v).scalar()
                got = frame.inner(u, v)
                assert got == want and hash(got) == hash(want)
            assert frame.inner(x, y) == frame.inner(y, x).conj()


def test_inner_refuses_what_the_adjoint_product_refuses():
    rng = random.Random(41)
    frame = cusp.random_frame(rng, -5, 3)
    col = cusp.random_vector(rng, -5, 2)
    for x, y in ((QMatrix.identity(-5, 2), col), (col, QMatrix.identity(-5, 2)),
                 (cusp.random_vector(rng, -5, 3), col),
                 (col, cusp.random_vector(rng, -5, 3))):
        with pytest.raises(ValueError):
            (x.h @ frame.b_mat @ y).scalar()
        with pytest.raises(ValueError):
            frame.inner(x, y)
    other = cusp.random_vector(rng, -7, 2)
    for x, y in ((other, col), (col, other)):
        with pytest.raises(FieldTagError):
            frame.inner(x, y)


def test_b_inverse_is_computed_once_per_frame_and_is_no_field(monkeypatch):
    rng = random.Random(42)
    frame = cusp.random_frame(rng, -7, 4)
    inverted = []
    original = QMatrix.inverse

    def counted(m):
        inverted.append(m)
        return original(m)

    monkeypatch.setattr(QMatrix, "inverse", counted)
    for _ in range(3):
        cusp.random_b_unitary(rng, frame)
    assert sum(m is frame.b_mat for m in inverted) == 1
    assert frame._b_inv == original(frame.b_mat)
    assert frame._b_inv is frame._b_inv
    assert "_b_inv" not in CuspFrame._fields
    twin = CuspFrame(frame.a, frame.b_mat)
    assert twin == frame and hash(twin) == hash(frame)


# ---------------------------------------------------------------------------
# membership

def test_identity_memberships():
    rng = random.Random(1)
    frame = cusp.random_frame(rng, -5, 3)
    e = identity_element(frame)
    assert is_in_NF(e, frame)
    assert is_in_WF(e, frame)
    assert is_in_UF(e, frame)


@pytest.mark.parametrize("member", (is_in_NF, is_in_WF, is_in_UF))
def test_memberships_refuse_an_element_of_another_size_or_field(member):
    rng = random.Random(30)
    frame = cusp.random_frame(rng, -5, 3)
    # identities one size larger, one size smaller, and over another field
    for other in (QMatrix.identity(-5, 5), QMatrix.identity(-5, 3),
                  QMatrix.identity(-7, 4)):
        with pytest.raises(ValueError, match="does not match the frame"):
            member(BoundaryElement(other), frame)


def test_membership_memo_answers_by_element_and_frame_cold_and_warm():
    """An element of N(F) for one frame and not for another, asked about
    both frames in both orders, each time from an empty memo and then from
    a warm one, through equal copies of the element."""
    rng = random.Random(31)
    frame_in, frame_out = (cusp.random_frame(rng, -7, 3) for _ in range(2))
    g = cusp.random_nf_element(rng, frame_in)
    # the oracle: whether g preserves each frame's form
    want = {frame: g.mat.h @ frame.q_matrix() @ g.mat == frame.q_matrix()
            for frame in (frame_in, frame_out)}
    assert want == {frame_in: True, frame_out: False}
    for order in ((frame_in, frame_out), (frame_out, frame_in)):
        is_in_NF.cache_clear()
        for _cold_then_warm in range(2):
            for frame in order:
                assert is_in_NF(BoundaryElement(g.mat), frame) == want[frame]
        info = is_in_NF.cache_info()
        assert (info.misses, info.hits) == (2, 2)
    assert info.maxsize is not None and info.maxsize <= 256


def test_membership_memo_tells_apart_frames_that_share_a():
    """Frames compare by (a, B): a frame with the same a and another B is
    another memo key, so the answer for one is never given for the other."""
    rng = random.Random(44)
    frame = cusp.random_frame(rng, -7, 3)
    other = CuspFrame(frame.a, frame.b_mat.scale(2))
    g = cusp.random_nf_element(rng, frame)
    answers = []
    for first, second in ((frame, other), (other, frame)):
        is_in_NF.cache_clear()
        answers.append((is_in_NF(g, first), is_in_NF(g, second)))
    assert answers == [(True, False), (False, True)]


def test_membership_guard_raises_when_the_memo_is_warm():
    rng = random.Random(32)
    frame = cusp.random_frame(rng, -5, 3)
    is_in_NF.cache_clear()
    assert is_in_NF(identity_element(frame), frame)
    for other in (QMatrix.identity(-5, 5), QMatrix.identity(-7, 4)):
        for _ in range(2):
            with pytest.raises(ValueError, match="does not match the frame"):
                is_in_NF(BoundaryElement(other), frame)
    assert is_in_NF.cache_info().currsize == 1


def test_not_in_nf_when_scaling_breaks():
    rng = random.Random(2)
    frame = cusp.random_frame(rng, -5, 3)
    e = identity_element(frame)
    bad = BoundaryElement.from_blocks(QElem.of(-5, 2), e.v, e.w, e.x_mat, e.y,
                                      QElem.one(-5))
    assert not is_in_NF(bad, frame)


def test_uf_membership_examples():
    rng = random.Random(3)
    frame = cusp.random_frame(rng, -7, 3)
    u = uf_translation(frame, F(3, 2))
    assert is_in_UF(u, frame)
    one, zero = QElem.one(-7), QMatrix.zero(-7, 2, 1)
    assert u == BoundaryElement.from_blocks(
        one, zero.h, sigma_element(frame, F(3, 2)), QMatrix.identity(-7, 2),
        zero, one)
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


def test_constructor_needs_block_upper_triangular_shape():
    rng = random.Random(9)
    frame = cusp.random_frame(rng, -7, 3)
    g = cusp.random_nf_element(rng, frame)
    grid = g.mat.to_rows()
    assert BoundaryElement(g.mat) == g
    npl = len(grid)
    # every entry of the first column below the corner, and of the last row
    # before it, must be zero
    for i, j in [(i, 0) for i in range(1, npl)] + [(npl - 1, j) for j in range(npl - 1)]:
        bad = [row[:] for row in grid]
        bad[i][j] = QElem.of(-7, 0, F(1, 3))
        with pytest.raises(ValueError, match="block upper-triangular"):
            BoundaryElement(QMatrix.from_rows(-7, bad))
    with pytest.raises(ValueError, match="square of size >= 3"):
        BoundaryElement(g.mat.submatrix(0, 0, npl - 1, npl))
    with pytest.raises(ValueError, match="square of size >= 3"):
        BoundaryElement(QMatrix.identity(-7, 2))
    blocks = (g.u, g.v, g.w, g.x_mat, g.y, g.z)
    for k, block in enumerate(blocks):
        other = list(blocks)
        other[k] = (QElem.one(-5) if isinstance(block, QElem)
                    else QMatrix.zero(-5, block.rows, block.cols))
        with pytest.raises(FieldTagError):
            BoundaryElement.from_blocks(*other)
    # v must be 1 x m and y must be m x 1 for the m x m block X
    for v, y in [(g.v.submatrix(0, 0, 1, 1), g.y), (g.v, g.y.submatrix(0, 0, 1, 1)),
                 (g.y, g.y), (g.v, g.v), (g.x_mat, g.y), (g.v, g.x_mat)]:
        with pytest.raises(ValueError):
            BoundaryElement.from_blocks(g.u, v, g.w, g.x_mat, y, g.z)


def test_from_blocks_stores_one_matrix_with_its_blocks_as_slices():
    assert BoundaryElement._fields == ("mat",)
    rng = random.Random(16)
    for d_tag in (-5, -6, -7, -15):
        for n in (2, 3, 4):
            m = n - 1
            blocks = (cusp.random_qelem(rng, d_tag, nonzero=True),
                      cusp.random_vector(rng, d_tag, m).h, cusp.random_qelem(rng, d_tag),
                      QMatrix.from_rows(d_tag, [[cusp.random_qelem(rng, d_tag)
                                                 for _ in range(m)] for _ in range(m)]),
                      cusp.random_vector(rng, d_tag, m),
                      cusp.random_qelem(rng, d_tag, nonzero=True))
            g = BoundaryElement.from_blocks(*blocks)
            assert (g.u, g.v, g.w, g.x_mat, g.y, g.z) == blocks
            assert g.mat.rows == g.size == n + 1 and g.d == d_tag
            neg = -g
            assert neg.mat == -g.mat
            assert (neg.u, neg.v, neg.w, neg.x_mat, neg.y, neg.z) == (
                -g.u, -g.v, -g.w, -g.x_mat, -g.y, -g.z)
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.u = g.z


def _checked_q_matrix(frame):
    """The form as it was assembled before the trusted path: public zero
    blocks through the checked block assembly."""
    d, n = frame.d, frame.n
    z_col, z_row = QMatrix.zero(d, n - 1, 1), QMatrix.zero(d, 1, n - 1)
    zero = QElem.zero(d)
    return ref.checked_block_matrix(d, [[zero, z_row, frame.a],
                                        [z_col, frame.b_mat, z_col],
                                        [frame.a.conj(), z_row, zero]])


def _checked_from_blocks(u, v, w, x_mat, y, z):
    d, m = u.d, x_mat.rows
    return ref.checked_block_matrix(d, [[u, v, w],
                                        [QMatrix.zero(d, m, 1), x_mat, y],
                                        [QElem.zero(d), QMatrix.zero(d, 1, m), z]])


def _fraction_pairs(m):
    return [[(x.re, x.rt) for x in row] for row in m.to_rows()]


@pytest.mark.parametrize("d_tag", (-5, -6, -7, -15))
def test_q_matrix_and_from_blocks_equal_the_checked_assembly(d_tag):
    """q_matrix() is assembled once per frame from the checked a and B, and
    from_blocks uses zero blocks built without the public checks; both must
    give what the public checks alone give, in lowest terms, with the
    Fraction pairs of the reference kernel in every entry."""
    rng = random.Random(1800 - d_tag)
    zero = (F(0), F(0))
    for n in (2, 3, 4):
        m = n - 1
        for _ in range(4):
            frame = cusp.random_frame(rng, d_tag, n)
            if rng.random() < 0.5:  # denominators of a and B that differ
                frame = CuspFrame(frame.a * F(rng.randint(1, 9), rng.randint(1, 9)),
                                  frame.b_mat.scale(F(rng.randint(1, 9), rng.randint(1, 9))))
            q, want = frame.q_matrix(), _checked_q_matrix(frame)
            assert q == want and hash(q) == hash(want)
            assert q.den > 0 and gcd(q.den, *q.re, *q.rt) == 1
            assert frame.q_matrix() is q
            pairs = [[zero] * (n + 1) for _ in range(n + 1)]
            a = (frame.a.re, frame.a.rt)
            pairs[0][n], pairs[n][0] = a, ref.elem_conj(d_tag, a)
            for i, row in enumerate(_fraction_pairs(frame.b_mat)):
                pairs[i + 1][1:n] = row
            assert _fraction_pairs(q) == pairs

            blocks = (cusp.random_qelem(rng, d_tag, nonzero=True),
                      cusp.random_vector(rng, d_tag, m).h, cusp.random_qelem(rng, d_tag),
                      QMatrix.from_rows(d_tag, [[cusp.random_qelem(rng, d_tag, 5, 7)
                                                 for _ in range(m)] for _ in range(m)]),
                      cusp.random_vector(rng, d_tag, m),
                      cusp.random_qelem(rng, d_tag, nonzero=True))
            g, want = BoundaryElement.from_blocks(*blocks).mat, _checked_from_blocks(*blocks)
            assert g == want and hash(g) == hash(want)
            assert g.den > 0 and gcd(g.den, *g.re, *g.rt) == 1
            u, v, w, x_mat, y, z = (_fraction_pairs(b) if isinstance(b, QMatrix)
                                    else (b.re, b.rt) for b in blocks)
            assert _fraction_pairs(g) == (
                [[u, *v[0], w]] + [[zero, *xr, yr[0]] for xr, yr in zip(x_mat, y)]
                + [[zero] + [zero] * m + [z]])


def test_q_matrix_is_kept_by_the_frame_without_changing_its_value():
    rng = random.Random(1801)
    frame = cusp.random_frame(rng, -7, 3)
    twin = CuspFrame(frame.a, frame.b_mat)
    q = frame.q_matrix()
    assert frame == twin and hash(frame) == hash(twin)
    assert twin.q_matrix() == q and twin.q_matrix() is not q
    assert CuspFrame._fields == ("a", "b_mat")


def test_product_slices_follow_the_block_formulas():
    rng = random.Random(17)
    for d_tag in (-5, -6, -7, -15):
        frame = cusp.random_frame(rng, d_tag, rng.choice((2, 3, 4)))
        g1 = cusp.random_nf_element(rng, frame)
        g2 = cusp.random_order2_element(rng, frame).element
        p = g1.compose(g2)
        assert p.mat == g1.mat @ g2.mat
        assert p.u == g1.u * g2.u
        assert p.x_mat == g1.x_mat @ g2.x_mat
        assert p.z == g1.z * g2.z
        assert p.v == g2.v.scale(g1.u) + g1.v @ g2.x_mat
        assert p.w == g1.u * g2.w + (g1.v @ g2.y).scalar() + g1.w * g2.z
        assert p.y == g1.x_mat @ g2.y + g1.y.scale(g2.z)
        assert g1.compose(g1.inverse()) == identity_element(frame)
        assert g1.inverse().mat == g1.mat.inverse()


def _shift_each_block(rng, g):
    """One copy of g per block u, v, w, X, y, z, with one entry of that block
    shifted by a nonzero field element."""
    npl = g.size
    m = npl - 2
    spots = {"u": [(0, 0)], "v": [(0, j) for j in range(1, npl - 1)],
             "w": [(0, npl - 1)],
             "X": [(i, j) for i in range(1, npl - 1) for j in range(1, npl - 1)],
             "y": [(i, npl - 1) for i in range(1, npl - 1)],
             "z": [(npl - 1, npl - 1)]}
    assert sum(map(len, spots.values())) == 3 + 2 * m + m * m
    out = []
    for where in spots.values():
        i, j = rng.choice(where)
        grid = g.mat.to_rows()
        grid[i][j] = grid[i][j] + cusp.random_qelem(rng, g.d, nonzero=True)
        out.append(BoundaryElement(QMatrix.from_rows(g.d, grid)))
    return out


def test_is_in_nf_agrees_with_form_preservation():
    """Oracle: is_in_NF, which tests that the stored block upper-triangular
    matrix preserves the form Q, holds exactly when the four block relations
    of that identity do (reference_kernel), on members of N(F) and on
    members with one entry of one block shifted."""
    rng = random.Random(18)
    members_seen = outsiders_seen = 0
    for d_tag in (-5, -6, -7, -15):
        for n in (2, 3, 4):
            frame = cusp.random_frame(rng, d_tag, n)
            g1 = cusp.random_nf_element(rng, frame)
            wf = cusp.random_wf_element(rng, frame)
            uf = uf_translation(frame, cusp.random_rational(rng, 3, 2))
            o2 = cusp.random_order2_element(rng, frame).element
            members = [g1, wf, uf, o2, g1.compose(wf), o2.compose(g1),
                       uf.compose(o2), g1.inverse(), o2.inverse(), -g1, -o2]
            for g in members:
                assert ref.stabiliser_relations_hold(g, frame)
                assert is_in_NF(g, frame)
                members_seen += 1
                for bad in _shift_each_block(rng, g):
                    holds = ref.stabiliser_relations_hold(bad, frame)
                    assert is_in_NF(bad, frame) == holds
                    outsiders_seen += not holds
    assert members_seen == 4 * 3 * 11
    # nearly every shifted element leaves N(F)
    assert outsiders_seen > 0.9 * 6 * members_seen


def test_is_in_wf_agrees_with_nf_at_unit_torus():
    """Oracle: W(F) is the part of N(F) with u = z = 1 and X = I, on members
    of W(F) and N(F) and on members with one entry of one block shifted."""
    rng = random.Random(29)
    in_wf = out_of_wf = 0
    for d_tag in (-5, -6, -7, -15):
        for n in (2, 3, 4):
            frame = cusp.random_frame(rng, d_tag, n)
            one, ident = QElem.one(d_tag), QMatrix.identity(d_tag, n - 1)
            wf = cusp.random_wf_element(rng, frame)
            members = [wf, wf.inverse(), -wf,
                       wf.compose(cusp.random_wf_element(rng, frame)),
                       uf_translation(frame, cusp.random_rational(rng, 3, 2)),
                       cusp.random_nf_element(rng, frame),
                       cusp.random_order2_element(rng, frame).element]
            for g in members:
                for h in [g, *_shift_each_block(rng, g)]:
                    want = (h.u == one and h.z == one and h.x_mat == ident
                            and is_in_NF(h, frame))
                    assert is_in_WF(h, frame) == want
                    in_wf += want
                    out_of_wf += not want
    # the four W(F) members of each frame, and a few shifts that stay in it
    assert in_wf >= 4 * 4 * 3 and out_of_wf > in_wf


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
        assert g1.mat.h @ q @ g1.mat == q
        u = cusp.random_uf_element(rng, frame)
        w = cusp.random_wf_element(rng, frame)
        assert u.compose(w) == w.compose(u)


def test_the_cusp_hot_path_runs_no_public_check(monkeypatch):
    """A guard: on prepared inputs, none of these calls builds through the
    public QMatrix or QElem constructors or runs qfield's tag check, which
    the public constants run too; nf_element checks the tag once, in
    block_matrix.  The stabiliser memo is emptied before each call."""
    rng = random.Random(43)
    frame = cusp.random_frame(rng, -7, 4)
    g = cusp.random_nf_element(rng, frame)
    w = cusp.random_wf_element(rng, frame)
    u = uf_translation(frame, 2 * frame.sigma_gen)
    o2 = cusp.random_order2_element(rng, frame).element
    x_mat = cusp.random_b_unitary(rng, frame)
    y, y2 = (cusp.random_vector(rng, -7, 3) for _ in range(2))
    one = QElem.one(-7)
    calls = {
        "is_in_NF": lambda: is_in_NF(g, frame),
        "is_in_WF": lambda: is_in_WF(w, frame),
        "is_in_UF": lambda: is_in_UF(u, frame),
        "nf_element": lambda: nf_element(frame, x_mat, y, one, F(3, 2)),
        "inner": lambda: frame.inner(y, y2),
        "sigma_element": lambda: sigma_element(frame, frame.sigma_gen),
        "in_sigma_lattice": lambda: in_sigma_lattice(u.w, frame),
        "check_qr_congruences": lambda: check_qr_congruences(o2, frame),
        "boundary_divisor_fixed": lambda: boundary_divisor_fixed(o2, frame),
        "random_vector": lambda: cusp.random_vector(random.Random(0), -7, 3),
        "random_b_unitary": lambda: cusp.random_b_unitary(random.Random(0), frame),
    }
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(QMatrix, "__init__", counting("QMatrix", QMatrix.__init__))
    monkeypatch.setattr(QElem, "__init__", counting("QElem", QElem.__init__))
    monkeypatch.setattr(qfield, "check_field_tag",
                        counting("check_field_tag", qfield.check_field_tag))
    seen, results = {}, {}
    for name, call in calls.items():
        is_in_NF.cache_clear()
        counts.clear()
        results[name] = call()
        seen[name] = dict(counts)
    monkeypatch.undo()
    want = {name: {} for name in calls}
    want["nf_element"] = {"check_field_tag": 1}
    assert seen == want
    # every predicate ran to its end
    assert [results[name] for name in ("is_in_NF", "is_in_WF", "is_in_UF",
                                       "in_sigma_lattice", "check_qr_congruences",
                                       "boundary_divisor_fixed")] == [True] * 5 + [False]


# ---------------------------------------------------------------------------
# the integral lattice generator

def test_uf_lattice_generator_examples():
    assert uf_lattice_generator(QElem.of(-5, 1)) == 1
    assert certificates._brute_sigma(QElem.of(-5, 1)) == 1
    assert uf_lattice_generator(QElem.of(-5, 0, 1)) == F(1, 5)
    assert certificates._brute_sigma(QElem.of(-5, 0, 1)) == F(1, 5)
    # closed formula for e = p/q, f = r/s, both nonzero, D = 2,3 mod 4
    a = QElem.of(-5, F(1, 2), F(1, 3))
    assert uf_lattice_generator(a) == 6 == certificates._brute_sigma(a)


def test_uf_lattice_generator_against_scan():
    rng = random.Random(6)
    for d_tag in FIELDS:
        cases = [QElem.of(d_tag, F(rng.randint(1, 5), rng.randint(1, 4)), 0),
                 QElem.of(d_tag, 0, F(rng.randint(1, 5), rng.randint(1, 4)))]
        for _ in range(10):
            cases.append(cusp.random_qelem(rng, d_tag, 4, 4, nonzero=True))
        for a in cases:
            assert uf_lattice_generator(a) == certificates._brute_sigma(a), (a, d_tag)


def test_integer_sigma_scan_equals_the_fraction_scan():
    """The oracle's integer grid against the Fraction scan it replaced, on
    both axes, with negative coordinates and denominators up to 10**6."""
    rng = random.Random(44)
    values = sorted({F(sign * p, q) for sign in (1, -1) for p in (1, 2, 3, 7, 12, 999)
                     for q in (1, 2, 3, 4, 6, 9, 10, 1000, 999983, 10 ** 6)})
    for d_tag in (-1, -2, -3, -5, -6, -7, -11, -15):
        cases = [QElem(d_tag, v, 0) for v in values] + [QElem(d_tag, 0, v) for v in values]
        cases += [QElem(d_tag, rng.choice(values), rng.choice(values)) for _ in range(100)]
        for a in cases:
            got = certificates._brute_sigma(a)
            assert got == ref.brute_sigma(a) and isinstance(got, F), (d_tag, a)
            assert got == uf_lattice_generator(a), (d_tag, a)


def test_uf_lattice_lcm_formula():
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
            assert uf_lattice_generator(QElem.of(d_tag, e, f)) == formula


def _lattice_generator_by_fractions(a, d_tag):
    """uf_lattice_generator as it was computed before the integer formula:
    one generator Fraction per nonzero coefficient, joined by the lcm of
    fractions."""
    e, f = a.re, a.rt
    coeffs = [2 * e, f * d_tag - e] if d_tag % 4 == 1 else [f * d_tag, e]
    gen = None
    for c in coeffs:
        if c == 0:
            continue
        g = F(c.denominator, abs(c.numerator))
        gen = g if gen is None else ref.lcm_fractions(gen, g)
    return gen


def test_uf_lattice_generator_equals_the_fraction_formula_on_a_grid():
    values = sorted({F(p, q) for p in range(-5, 6) for q in (1, 2, 3, 4, 6, 10)})
    for d_tag in (-1, -2, -3, -5, -6, -7, -15, -30):  # both classes of D mod 4
        for e in values:
            for f in values:
                if e == f == 0:
                    continue
                got = uf_lattice_generator(QElem(d_tag, e, f))
                assert got == _lattice_generator_by_fractions(QElem(d_tag, e, f), d_tag)
                assert isinstance(got, F) and got > 0, (d_tag, e, f)


def test_uf_translation_integrality():
    frame = CuspFrame(QElem.of(-5, 1, 1), QMatrix.from_rows(-5, [[1, 0], [0, 1]]))
    x0 = frame.sigma_gen
    u = uf_translation(frame, x0)
    assert in_ring_of_integers(u.w)
    assert cusp.in_sigma_lattice(u.w, frame)
    assert not cusp.in_sigma_lattice(uf_translation(frame, x0 / 2).w, frame)


def test_uf_lattice_generator_zero_error():
    with pytest.raises(ValueError):
        uf_lattice_generator(QElem.zero(-5))


@pytest.mark.parametrize("d_tag", (-5, -6, -7, -15))
def test_sigma_gen_of_a_frame_matches_the_scan(d_tag):
    rng = random.Random(1900 - d_tag)
    for n in (2, 3, 3, 4):
        frame = cusp.random_frame(rng, d_tag, n)
        assert frame.sigma_gen == certificates._brute_sigma(frame.a)
        assert frame.sigma_gen is frame.sigma_gen


def test_the_claims_compute_a_lattice_generator_once_per_order2_frame(monkeypatch):
    """sigma_gen is computed on first use only: never by the frames of
    cusp_suite, and once for each 2-torsion instance and its six checks."""
    calls = []
    original = cusp.uf_lattice_generator

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(cusp, "uf_lattice_generator", counted)
    assert certificates.verify_claim("cusp_suite", d_range=(5, 6)).passed()
    assert calls == []
    cert = certificates.verify_claim("boundary_order2", d_range=(5, 6))
    assert cert.passed()
    elements = next(row["value"] for row in cert.computed if row["label"] == "elements")
    assert len(calls) == elements


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
    bad = BoundaryElement.from_blocks(QElem.of(-5, 2), e.v, e.w, e.x_mat, e.y,
                                      QElem.one(-5))
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
    frame = CuspFrame(QElem.of(-5, 1, 1),
                      QMatrix.from_rows(-5, [[1, 0], [0, 1]]))
    x0 = frame.sigma_gen
    u = uf_translation(frame, 2 * x0)
    w0 = QMatrix.zero(-5, 2, 1)
    es = boundary_tangent_exponents(u, w0, frame)
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
        g, w0 = inst.element, inst.fixed_point
        gsq = g.compose(g)
        assert is_in_UF(gsq, frame)
        assert cusp.in_sigma_lattice(gsq.w, frame)
        assert check_qr_congruences(g, frame)
        es = boundary_tangent_exponents(g, w0, frame)
        assert all(F(a, es.order) in (F(0), F(1, 2)) for a in es.exponents)
        if any(2 * a == es.order for a in es.exponents):
            seen_half = True
        if not is_quasi_reflection(es):
            seen_nonrefl = True
            assert reid_tai_sum(es) >= 1
        assert boundary_divisor_fixed(g, frame) is False
    assert seen_half and seen_nonrefl


def test_tangent_exponents_errors_and_fractional_shift():
    frame = CuspFrame(QElem.of(-5, 1, 1),
                      QMatrix.from_rows(-5, [[1, 0], [0, 1]]))
    x0 = frame.sigma_gen
    w0 = QMatrix.zero(-5, 2, 1)
    # a real-direction shift breaks the stabiliser relations outright
    e = identity_element(frame)
    bad = BoundaryElement.from_blocks(e.u, e.v, QElem.one(-5), e.x_mat, e.y, e.z)
    assert not is_in_NF(bad, frame)
    with pytest.raises(ValueError):
        boundary_tangent_exponents(bad, w0, frame)
    # an element that does not fix the point is rejected
    u = uf_translation(frame, x0)
    rng = random.Random(99)
    g = cusp.random_nf_element(rng, frame)
    assert not fixes_boundary_point(g, w0)
    with pytest.raises(ValueError, match="does not fix"):
        boundary_tangent_exponents(g, w0, frame)
    # a fractional central translation is torsion with denominator order
    u7 = uf_translation(frame, x0 / 7)
    es = boundary_tangent_exponents(u7, w0, frame)
    assert es.order == 7 and sorted(set(es.exponents)) == [0, 1]


def test_check_qr_congruences_cases():
    rng = random.Random(13)
    frame = cusp.random_frame(rng, -5, 3)
    e = identity_element(frame)
    assert check_qr_congruences(e, frame)
    inst = cusp.random_order2_element(rng, frame)
    assert check_qr_congruences(inst.element, frame)
    # an element whose X is an involution but y sits outside ker(I + X)
    vecs = cusp.random_b_reflection_vectors(rng, frame, 1)
    x_mat = cusp.involution_from_vectors(frame, vecs)
    y = cusp.random_vector(rng, -5, 2, max_num=2, max_den=1)
    if (x_mat @ y + y) != QMatrix.zero(-5, 2, 1):
        g = cusp.nf_element(frame, x_mat, y, QElem.one(-5), F(0))
        assert check_qr_congruences(g, frame) is False


def test_check_qr_congruences_precondition():
    rng = random.Random(14)
    frame = cusp.random_frame(rng, -5, 3)
    # order-4 rotation: not 2-torsion mod centre
    while True:
        x_mat = cusp.random_b_unitary(rng, frame)
        if x_mat @ x_mat != QMatrix.identity(-5, 2):
            break
    g = cusp.nf_element(frame, x_mat, QMatrix.zero(-5, 2, 1), QElem.one(-5), F(0))
    with pytest.raises(ValueError):
        check_qr_congruences(g, frame)


def test_boundary_divisor_trivial_excluded():
    rng = random.Random(15)
    frame = cusp.random_frame(rng, -5, 3)
    u = cusp.random_uf_element(rng, frame)
    with pytest.raises(ValueError):
        boundary_divisor_fixed(u, frame)


# ---------------------------------------------------------------------------
# random instances

def _random_qelem_by_fractions(rng, d_tag, max_num=4, max_den=3, nonzero=False):
    """random_qelem as it was built before: two random_rational draws and
    one checked QElem per draw."""
    while True:
        x = QElem(d_tag, cusp.random_rational(rng, max_num, max_den),
                  cusp.random_rational(rng, max_num, max_den))
        if not nonzero or not x.is_zero:
            return x


def test_random_qelem_draws_what_the_fraction_construction_draws():
    for d_tag in FIELDS:
        for args in ((), (2, 2), (5, 5, True), (1, 1, True), (6, 5)):
            got_rng, want_rng = random.Random(d_tag), random.Random(d_tag)
            for _ in range(100):
                got = cusp.random_qelem(got_rng, d_tag, *args)
                want = _random_qelem_by_fractions(want_rng, d_tag, *args)
                assert got == want and hash(got) == hash(want)
                assert got.den > 0 and gcd(got.den, got.a, got.b) == 1
            assert got_rng.random() == want_rng.random()  # as many draws


def test_random_vector_is_the_column_of_its_draws():
    for d_tag in FIELDS:
        for m, kw in ((1, {}), (3, {}), (4, {"max_num": 2, "max_den": 1}),
                      (2, {"max_num": 6, "max_den": 5, "nonzero": True})):
            got_rng, want_rng = random.Random(m - d_tag), random.Random(m - d_tag)
            for _ in range(20):
                got = cusp.random_vector(got_rng, d_tag, m, **kw)
                want = QMatrix.column(
                    d_tag, [cusp.random_qelem(want_rng, d_tag, **kw) for _ in range(m)])
                assert got == want and hash(got) == hash(want)
            assert got_rng.random() == want_rng.random()  # as many draws
    with pytest.raises(ValueError, match="dimensions must be positive"):
        cusp.random_vector(random.Random(0), -5, 0)


@pytest.mark.parametrize("bad", (-4, -6.0, 5, F(-3)))
def test_random_qelem_refuses_a_bad_tag(bad):
    with pytest.raises(ValueError):
        cusp.random_qelem(random.Random(0), bad)
