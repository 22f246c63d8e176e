"""Exact algebra at a zero-dimensional boundary component.

A degenerate hermitian form on an isotropic flag is normalized to the
anti-diagonal block shape (0 0 a / 0 B 0 / conj(a) 0 0) with B positive
definite.  The stabiliser of the flag consists of the block
upper-triangular matrices g that preserve the form, g^H Q g = Q; inside it
sit the unipotent radical and its centre, whose integral points form a
rank-one lattice with an explicitly computable generator.  Everything is carried out over
Q(sqrt(D)) with exact rationals, including the eigenvalue exponents of the
induced action on the tangent space at a fixed boundary point.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .eigen import eigen_exponents
from .qfield import (FieldTagError, QElem, QMatrix, _block_matrix, _elem, _Frozen,
                     _identity, _zero, block_matrix, check_field_tag)
from .reidtai import EigenSystem


class CuspFrame(_Frozen):
    """Normalized Gram data (a, B) of a signature-(n,1) form at the cusp.

    B fixes the ambient dimension n = rows of B + 1 and the field tag d;
    both are attributes set once here, outside the fields (a, B) that
    equality and hashing read.  The cached properties live in the
    instance's ``__dict__``."""

    _fields = ("a", "b_mat")

    def __init__(self, a: QElem, b_mat: QMatrix):
        self.__dict__.update(a=a, b_mat=b_mat)
        object.__setattr__(self, "n", self.b_mat.rows + 1)
        object.__setattr__(self, "d", self.b_mat.d)
        if self.n < 2:
            raise ValueError("frames need a nonempty B (ambient dimension n >= 2)")
        if self.a.d != self.d:
            raise ValueError("field tags of frame data disagree")
        if self.a.is_zero:
            raise ValueError("the isotropic pairing entry a must be nonzero")
        if self.b_mat.cols != self.n - 1:
            raise ValueError("B must be square")
        if not self.b_mat.is_hermitian():
            raise ValueError("B must be hermitian")
        for k in range(1, self.n):
            minor = self.b_mat.submatrix(0, 0, k, k).det()
            if minor.rt != 0 or minor.re <= 0:
                raise ValueError("B must be positive definite")

    def q_matrix(self) -> QMatrix:
        """The assembled anti-diagonal hermitian form of signature (n, 1)."""
        return self._q

    @cached_property
    def _q(self) -> QMatrix:
        # assembled once per frame from the checked a and B, by the trusted
        # core of block_matrix
        a, d, m = self.a, self.d, self.n - 1
        zero, row, col = _elem(d, 1, 0, 0), _zero(d, 1, m), _zero(d, m, 1)
        return _block_matrix(d, [[zero, row, a], [col, self.b_mat, col],
                                 [a.conj(), row, zero]])

    def inner(self, x: QMatrix, y: QMatrix) -> QElem:
        """The B-inner product x^H B y of two column vectors: after the one
        product B y, the sum of conj(x_i) (B y)_i is taken on the integer
        numerators, with no adjoint of x built."""
        if x.d != self.d:
            raise FieldTagError("mixed field tags in the inner product")
        by = self.b_mat @ y
        if x.cols != 1 or by.cols != 1 or x.rows != by.rows:
            raise ValueError("the inner product takes two columns of B's size")
        xr, xt, br, bt = x.re, x.rt, by.re, by.rt
        # conj(x_i) (B y)_i = (xr - xt sqrt(D)) (br + bt sqrt(D))
        return _elem(self.d, x.den * by.den,
                     sum(map(mul, xr, br)) - self.d * sum(map(mul, xt, bt)),
                     sum(map(mul, xr, bt)) - sum(map(mul, xt, br)))

    @cached_property
    def sigma_gen(self) -> Fraction:
        """The generator x0 of the integral lattice in the centre, computed
        from a on first use and kept."""
        return uf_lattice_generator(self.a)

    @cached_property
    def _b_inv(self) -> QMatrix:
        """B^-1, computed on first use and kept with the frame."""
        return self.b_mat.inverse()


class BoundaryElement(_Frozen):
    """Block upper-triangular element (u v w / 0 X y / 0 0 z), stored as its
    assembled matrix ``mat``, the one field that equality and hashing read;
    the blocks are read-only slices of it, cached in the instance's
    ``__dict__``."""

    _fields = ("mat",)

    def __init__(self, mat: QMatrix):
        self.__dict__["mat"] = mat
        mat, npl = self.mat, self.mat.rows
        if mat.cols != npl or npl < 3:
            raise ValueError("boundary elements are square of size >= 3")
        # column 0 below the corner, then the bottom row between its corners
        col, row = slice(npl, None, npl), slice((npl - 1) * npl + 1, npl * npl - 1)
        if any(mat.re[col]) or any(mat.rt[col]) or any(mat.re[row]) or any(mat.rt[row]):
            raise ValueError("matrix is not block upper-triangular")

    @classmethod
    def from_blocks(cls, u: QElem, v: QMatrix, w: QElem, x_mat: QMatrix,
                    y: QMatrix, z: QElem) -> "BoundaryElement":
        d, m = u.d, x_mat.rows
        return cls(block_matrix(d, [
            [u, v, w],
            [_zero(d, m, 1), x_mat, y],
            [_elem(d, 1, 0, 0), _zero(d, 1, m), z],
        ]))

    @property
    def d(self) -> int:
        return self.mat.d

    @property
    def size(self) -> int:
        return self.mat.rows

    @cached_property
    def u(self) -> QElem:
        return self.mat.at(0, 0)

    @cached_property
    def v(self) -> QMatrix:  # 1 x (n-1)
        return self.mat.submatrix(0, 1, 1, self.size - 2)

    @cached_property
    def w(self) -> QElem:
        return self.mat.at(0, self.size - 1)

    @cached_property
    def x_mat(self) -> QMatrix:  # (n-1) x (n-1)
        m = self.size - 2
        return self.mat.submatrix(1, 1, m, m)

    @cached_property
    def y(self) -> QMatrix:  # (n-1) x 1
        return self.mat.submatrix(1, self.size - 1, self.size - 2, 1)

    @cached_property
    def z(self) -> QElem:
        return self.mat.at(self.size - 1, self.size - 1)

    def compose(self, other: "BoundaryElement") -> "BoundaryElement":
        return BoundaryElement(self.mat @ other.mat)

    def inverse(self) -> "BoundaryElement":
        return BoundaryElement(self.mat.inverse())

    def __neg__(self) -> "BoundaryElement":
        return BoundaryElement(-self.mat)


class BoundaryPoint(NamedTuple):
    """Chart coordinates (alpha, w) near the cusp."""

    alpha: QElem
    wvec: QMatrix  # (n-1) x 1


# ---------------------------------------------------------------------------
# normalization


def normalize_cusp_basis(qprime: QMatrix):
    """Basis change moving a flag-compatible hermitian matrix to the
    anti-diagonal block shape.

    The input must be hermitian of size n+1 >= 3 with first row
    (0, ..., 0, a), a != 0.  Returns (N, frame) where N is unimodular over
    the field, N^H Q' N has exact anti-diagonal blocks and the corner entry
    is 0.
    """
    d, n = qprime.d, qprime.rows - 1
    if qprime.cols != qprime.rows:
        raise ValueError("Q' must be square")
    if n < 2:
        raise ValueError("Q' must be at least 3 x 3")
    if not qprime.is_hermitian():
        raise ValueError("Q' must be hermitian")
    for j in range(n):
        if not qprime.at(0, j).is_zero:
            raise ValueError("Q' lacks the isotropic zero pattern in its first row")
    a = qprime.at(0, n)
    if a.is_zero:
        raise ValueError("degenerate form: pairing entry a vanishes")
    b = qprime.submatrix(1, 1, n - 1, n - 1)
    c = qprime.submatrix(1, n, n - 1, 1)
    dd = qprime.at(n, n)
    try:
        b_inv = b.inverse()
    except ZeroDivisionError:
        raise ValueError("middle block B is singular") from None
    r = -(b_inv @ c)
    # the unique r' making the corner vanish with conj(a) * r' real
    chc = (c.h @ b_inv @ c).scalar()
    r_prime = (dd - chc) * Fraction(-1, 2) * a.conj().inverse()
    m = n - 1
    n_mat = BoundaryElement.from_blocks(
        QElem.one(d), QMatrix.zero(d, 1, m), r_prime,
        QMatrix.identity(d, m), r, QElem.one(d)).mat
    frame = CuspFrame(a, b)
    result = n_mat.h @ qprime @ n_mat
    if result != frame.q_matrix():
        raise ArithmeticError("normalization failed to reach the block shape")
    return n_mat, frame


# ---------------------------------------------------------------------------
# membership

@lru_cache(maxsize=16)
def is_in_NF(g: BoundaryElement, frame: CuspFrame) -> bool:
    """Membership in the stabiliser by its defining identity g^H Q g = Q,
    checked exactly; every BoundaryElement is block upper-triangular.

    Both arguments are frozen and compare and hash by value, so the answer
    is kept for the last 16 pairs: the action and each check of a 2-torsion
    element begin with this test, and a frame of the cusp property suite
    comes back to three of its elements.  The memo answers 2788 of the 8640
    calls of `run --claims all`, and 24 of the 60 of one benchmark `cusp`
    unit.  The size/field guard raises on every call, as an exception is
    never kept."""
    if g.size != frame.n + 1 or g.d != frame.d:
        raise ValueError("element size or field does not match the frame")
    q = frame.q_matrix()
    return g.mat.h @ q @ g.mat == q


def is_in_WF(g: BoundaryElement, frame: CuspFrame) -> bool:
    """Unipotent radical: the part of N(F) with u = z = 1 and X = I."""
    one = _elem(frame.d, 1, 1, 0)
    return (is_in_NF(g, frame) and g.u == one and g.z == one
            and g.x_mat == _identity(frame.d, frame.n - 1))


def is_in_UF(g: BoundaryElement, frame: CuspFrame) -> bool:
    """Centre of the radical: the part of W(F) with v = y = 0.  There the
    corner relation of N(F) reads conj(a) w + a conj(w) = 0, so w is purely
    imaginary along a."""
    return is_in_WF(g, frame) and g.v.is_zero and g.y.is_zero


# ---------------------------------------------------------------------------
# the integral lattice in the centre


def uf_lattice_generator(a: QElem) -> Fraction:
    """Positive generator x0 of {x in Q : x * a * sqrt(D) is integral}.

    The centre's integral points are the translations by x * a * sqrt(D)
    with x in x0 * Z; the lattice period is sigma = x0 * a * sqrt(D).
    Both congruence classes of D mod 4 are handled from the ring-membership
    conditions.  Each condition asks that x * c / den be an integer for an
    integer c, where a = (a.a + a.b*sqrt(D)) / den; all of them hold iff
    x * g / den is an integer for g the gcd of the c, so x0 = den / g.  A
    vanishing c adds nothing to the gcd, so its condition simply drops.
    """
    d_tag = a.d
    if a.is_zero:
        raise ValueError("a must be nonzero")
    # x * a * sqrt(D) = (x * a.b * D + x * a.a * sqrt(D)) / den
    if d_tag % 4 == 1:
        # membership needs 2*rt and re - rt integral
        g = gcd(2 * a.a, a.b * d_tag - a.a)
    else:
        g = gcd(a.b * d_tag, a.a)
    return Fraction(a.den, g)


def sigma_element(frame: CuspFrame, x0: Fraction) -> QElem:
    """x0 * a * sqrt(D) as a field element: the lattice period sigma when x0
    is the lattice generator."""
    return frame.a * _elem(frame.d, 1, 0, 1) * x0


def in_sigma_lattice(value: QElem, frame: CuspFrame) -> bool:
    """Is value an integer multiple of the lattice period?"""
    q = value / sigma_element(frame, frame.sigma_gen)
    return q.rt == 0 and q.re.denominator == 1


def uf_translation(frame: CuspFrame, x: Fraction) -> BoundaryElement:
    """The central element translating the torus coordinate by x*a*sqrt(D)."""
    d, m = frame.d, frame.n - 1
    return nf_element(frame, _identity(d, m), _zero(d, m, 1), _elem(d, 1, 1, 0), x)


# ---------------------------------------------------------------------------
# the action


def _require_stabiliser(g: BoundaryElement, frame: CuspFrame) -> None:
    """The guard of the action and of the case analysis: g lies in N(F)."""
    if not is_in_NF(g, frame):
        raise ValueError("element is not in the cusp stabiliser")


def apply_boundary_action(g: BoundaryElement, pt: BoundaryPoint,
                          frame: CuspFrame) -> BoundaryPoint:
    """Chart action alpha -> (alpha / conj(z) + v.w + w)/z, w -> (Xw + y)/z."""
    _require_stabiliser(g, frame)
    zinv = g.z.inverse()
    alpha = zinv * (pt.alpha * g.z.conj().inverse()
                    + (g.v @ pt.wvec).scalar() + g.w)
    wnew = (g.x_mat @ pt.wvec + g.y).scale(zinv)
    return BoundaryPoint(alpha, wnew)


def normalize_sign(g: BoundaryElement) -> BoundaryElement:
    """Replace g by -g when z = -1 (the overall sign acts trivially)."""
    one = _elem(g.d, 1, 1, 0)
    if g.z == one:
        return g
    if g.z == -one:
        return -g
    raise ValueError("scaling entry z must be a real unit +-1")


def fixes_boundary_point(g: BoundaryElement, w0: QMatrix) -> bool:
    """Does g, up to its sign, fix the boundary point w0: X w0 + y = w0?"""
    g = normalize_sign(g)
    return g.x_mat @ w0 + g.y == w0


def boundary_tangent_exponents(g: BoundaryElement, w0: QMatrix,
                               frame: CuspFrame) -> EigenSystem:
    """Eigenvalue exponents of the tangent action at a fixed boundary point.

    The torus direction contributes the rational exponent t / sigma where
    t = v.w0 + w; the remaining directions carry the exponents of X.  The
    element must have z = +-1, fix (0, w0) and have X @ X = I; other X and
    non-torsion translation parts raise ValueError.
    """
    _require_stabiliser(g, frame)
    g = normalize_sign(g)
    if not fixes_boundary_point(g, w0):
        raise ValueError("element does not fix the boundary point")
    t = (g.v @ w0).scalar() + g.w
    q = t / sigma_element(frame, frame.sigma_gen)
    if q.rt != 0:
        raise ValueError("non-torsion boundary element: torus shift is not "
                         "a rational multiple of the period")
    tau = q.re % 1
    es_x = eigen_exponents(g.x_mat)
    m = lcm(tau.denominator, es_x.order)
    exps = [int(tau * m)]
    exps.extend(a * (m // es_x.order) for a in es_x.exponents)
    return EigenSystem(m, tuple(exps))


def check_qr_congruences(g: BoundaryElement, frame: CuspFrame) -> bool:
    """For a 2-torsion element modulo the centre: v + vX = 0, Xy + y = 0,
    and 2w + v.y = 0 modulo the sigma lattice, all exact."""
    _require_stabiliser(g, frame)
    g = normalize_sign(g)
    if g.x_mat @ g.x_mat != _identity(g.d, frame.n - 1):
        raise ValueError("square of the element is not unipotent-central")
    rel1 = (g.v + g.v @ g.x_mat).is_zero
    rel2 = (g.x_mat @ g.y + g.y).is_zero
    corner = 2 * g.w + (g.v @ g.y).scalar()
    rel3 = in_sigma_lattice(corner, frame)
    return rel1 and rel2 and rel3


def boundary_divisor_fixed(g: BoundaryElement, frame: CuspFrame) -> bool:
    """Does g fix the boundary stratum pointwise?

    Elements that are trivial modulo the centre are rejected; for the
    remaining ones pointwise fixing would need X = I and y = 0.
    """
    _require_stabiliser(g, frame)
    g = normalize_sign(g)
    fixed = g.x_mat == _identity(g.d, frame.n - 1) and g.y.is_zero
    if fixed and g.v.is_zero:
        raise ValueError("element is trivial modulo the centre")
    return fixed


# ---------------------------------------------------------------------------
# random instances for the property sweeps


def random_rational(rng, max_num: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_qelem(rng, d_tag: int, max_num: int = 4, max_den: int = 3,
                 nonzero: bool = False) -> QElem:
    """(p/q + r/s * sqrt(D)), drawing p, q, r, s in that order as two
    random_rational calls do."""
    check_field_tag(d_tag)
    while True:
        p, q = rng.randint(-max_num, max_num), rng.randint(1, max_den)
        r, s = rng.randint(-max_num, max_num), rng.randint(1, max_den)
        if not nonzero or p or r:
            return _elem(d_tag, q * s, p * s, r * q)


def random_vector(rng, d_tag: int, m: int, **kw) -> QMatrix:
    """A column of m random_qelem draws, taken in order and assembled on
    their integers; random_qelem checks the tag."""
    if m < 1:
        raise ValueError("matrix dimensions must be positive")
    return _block_matrix(d_tag, [[random_qelem(rng, d_tag, **kw)] for _ in range(m)])


def random_frame(rng, d_tag: int, n: int) -> CuspFrame:
    """A random frame: B = R^H R for random nonsingular R, random a != 0."""
    m = n - 1
    while True:
        r = QMatrix.from_rows(
            d_tag,
            [[random_qelem(rng, d_tag, 2, 2) for _ in range(m)] for _ in range(m)],
        )
        if not r.det().is_zero:
            break
    b = r.h @ r
    a = random_qelem(rng, d_tag, 3, 2, nonzero=True)
    return CuspFrame(a, b)


def random_b_unitary(rng, frame: CuspFrame) -> QMatrix:
    """Exact isometry of B via the Cayley transform of a B-skew matrix.

    Row by row, K draws its imaginary diagonal entry and then the entries
    right of it, and is assembled on its integers."""
    d, m = frame.d, frame.n - 1
    ident = _identity(d, m)
    while True:
        grid = [[None] * m for _ in range(m)]
        for i in range(m):
            rt = random_rational(rng, 2, 2)
            grid[i][i] = _elem(d, rt.denominator, 0, rt.numerator)
            for j in range(i + 1, m):
                x = random_qelem(rng, d, 2, 2)
                grid[i][j] = x
                grid[j][i] = -x.conj()
        k = _block_matrix(d, grid)  # skew-hermitian
        s = frame._b_inv @ k
        try:
            x_mat = (ident - s) @ (ident + s).inverse()
        except ZeroDivisionError:
            continue
        return x_mat


def _b_orthogonalize(frame: CuspFrame, vecs, c: QMatrix) -> QMatrix:
    """c minus its B-projections onto the mutually B-orthogonal vecs."""
    for prev in vecs:
        c = c - prev.scale(frame.inner(prev, c) / frame.inner(prev, prev))
    return c


def random_b_reflection_vectors(rng, frame: CuspFrame, count: int):
    """B-orthogonal anisotropic vectors spanning the -1 eigenspace."""
    d, m = frame.d, frame.n - 1
    vecs = []
    while len(vecs) < count:
        c = _b_orthogonalize(frame, vecs,
                             random_vector(rng, d, m, max_num=2, max_den=1))
        if not frame.inner(c, c).is_zero:
            vecs.append(c)
    return vecs


def involution_from_vectors(frame: CuspFrame, vecs) -> QMatrix:
    """Product of B-reflections in mutually B-orthogonal vectors."""
    ident = _identity(frame.d, frame.n - 1)
    x_mat = ident
    for c in vecs:
        refl = ident - (c @ (c.h @ frame.b_mat)).scale(
            2 * frame.inner(c, c).inverse())
        x_mat = x_mat @ refl
    return x_mat


def nf_element(frame: CuspFrame, x_mat: QMatrix, y: QMatrix, z: QElem,
               w_shift: Fraction) -> BoundaryElement:
    """Assemble the stabiliser element with the given unitary part, column y
    and torus parameter, solving the two remaining relations exactly."""
    yhb = y.h @ frame.b_mat
    k = (z.conj() * frame.a.conj()).inverse()
    v = -(yhb @ x_mat).scale(k)
    w = (yhb @ y).scalar() * Fraction(-1, 2) * k + z * sigma_element(frame, w_shift)
    u = z.conj().inverse()
    return BoundaryElement.from_blocks(u, v, w, x_mat, y, z)


def random_nf_element(rng, frame: CuspFrame) -> BoundaryElement:
    z = QElem.of(frame.d, rng.choice((1, -1)))
    x_mat = random_b_unitary(rng, frame)
    y = random_vector(rng, frame.d, frame.n - 1, max_num=2, max_den=2)
    return nf_element(frame, x_mat, y, z, random_rational(rng, 3, 2))


def random_wf_element(rng, frame: CuspFrame) -> BoundaryElement:
    ident = _identity(frame.d, frame.n - 1)
    y = random_vector(rng, frame.d, frame.n - 1, max_num=2, max_den=2)
    return nf_element(frame, ident, y, _elem(frame.d, 1, 1, 0),
                      random_rational(rng, 3, 2))


def random_uf_element(rng, frame: CuspFrame) -> BoundaryElement:
    return uf_translation(frame, random_rational(rng, 3, 2))


class Order2Instance(NamedTuple):
    """A 2-torsion-mod-centre stabiliser element, a boundary point it fixes,
    and the number of B-reflections in its unitary part."""

    element: BoundaryElement
    fixed_point: QMatrix
    reflections: int


def random_order2_element(rng, frame: CuspFrame) -> Order2Instance:
    """Construct g with g^2 in the integral centre, plus a fixed point.

    X is a product of B-reflections, y lies in the (-1)-eigenspace, and the
    torus parameter is a half-integral multiple of the lattice generator, so
    that the square lands in the integral centre exactly.
    """
    d, m = frame.d, frame.n - 1
    x0 = frame.sigma_gen
    k = rng.randint(1, m)
    vecs = random_b_reflection_vectors(rng, frame, k)
    x_mat = involution_from_vectors(frame, vecs)
    lam = [random_rational(rng, 2, 2) for _ in range(k)]
    y = _zero(d, m, 1)
    for coeff, c in zip(lam, vecs):
        y = y + c.scale(QElem.of(d, coeff))
    j = rng.randint(-3, 3)
    g = nf_element(frame, x_mat, y, _elem(d, 1, 1, 0), Fraction(j, 2) * x0)
    # fixed point: w0 = y/2 plus anything B-orthogonal to the reflection span
    w0 = y.scale(QElem.of(d, Fraction(1, 2))) + _b_orthogonalize(
        frame, vecs, random_vector(rng, d, m, max_num=2, max_den=1))
    if rng.choice((False, True)):
        g = -g  # the overall sign acts trivially; exercises z = -1 handling
    return Order2Instance(g, w0, k)
