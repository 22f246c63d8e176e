"""The reference kernel for arithmetic over Q(sqrt(D)).

Scalars: the ``elem_*`` functions take an element re + rt*sqrt(D) as a
pair (re, rt) of ``fractions.Fraction`` and apply the textbook formulas of
the field operations.  They are independent of ``QElem``, whose scalars
are integer numerators over one denominator, and the differential tests
compare the two exactly.

Matrices: the schoolbook product and Gauss-Jordan elimination, written with
QElem arithmetic entry by entry.  They are slow and independent of the
integer matrix kernel of ``QMatrix``, which the differential tests compare
against them entry by entry.

Block assembly: ``checked_block_matrix`` builds what ``block_matrix`` builds
through the public checks alone, each scalar block wrapped in a checked 1x1
``QMatrix`` and the result rebuilt by ``QMatrix(...)``.

Stabiliser membership: ``stabiliser_relations_hold`` tests the four block
relations that g^H Q g = Q amounts to for a block upper-triangular g, each
with its own products, against the one identity that ``cusp.is_in_NF``
tests.

The lattice scan: ``brute_sigma`` is the scan of the ``sigma_oracle`` claim
in ``Fraction`` arithmetic, its grid step built from the coordinates of a
and each grid point tested as a ``QElem`` times a ``Fraction``.
"""

from fractions import Fraction
from math import gcd, lcm

from ballquot.qfield import FieldTagError, QElem, QMatrix, in_ring_of_integers


def elem_add(d, x, y):
    return x[0] + y[0], x[1] + y[1]


def elem_sub(d, x, y):
    return x[0] - y[0], x[1] - y[1]


def elem_mul(d, x, y):
    (a, b), (c, e) = x, y
    return a * c + d * b * e, a * e + b * c


def elem_conj(d, x):
    return x[0], -x[1]


def elem_norm(d, x):
    return x[0] * x[0] - d * x[1] * x[1]


def elem_inverse(d, x):
    n = elem_norm(d, x)
    if n == 0:
        raise ZeroDivisionError("inverse of zero element")
    return x[0] / n, -x[1] / n


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimension mismatch")
    zero = QElem.zero(a.d)
    ea, eb = a.entries, b.entries
    out = []
    for i in range(a.rows):
        base = i * a.cols
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + ea[base + k] * eb[k * b.cols + j]
            row.append(acc)
        out.append(row)
    return QMatrix.from_rows(a.d, out)


def rank(m: QMatrix) -> int:
    work = [row[:] for row in m.to_rows()]
    nr, nc = m.rows, m.cols
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not work[i][c].is_zero), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * e for e in work[r]]
        for i in range(nr):
            if i != r and not work[i][c].is_zero:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == nr:
            break
    return r


def inverse(m: QMatrix) -> QMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    work = [row + ident for row, ident in
            zip(m.to_rows(), QMatrix.identity(m.d, n).to_rows())]
    for c in range(n):
        piv = next((i for i in range(c, n) if not work[i][c].is_zero), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        work[c], work[piv] = work[piv], work[c]
        inv = work[c][c].inverse()
        work[c] = [inv * e for e in work[c]]
        for i in range(n):
            if i != c and not work[i][c].is_zero:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return QMatrix.from_rows(m.d, [row[n:] for row in work])


def det(m: QMatrix) -> QElem:
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    work = [row[:] for row in m.to_rows()]
    out = QElem.one(m.d)
    for c in range(n):
        piv = next((i for i in range(c, n) if not work[i][c].is_zero), None)
        if piv is None:
            return QElem.zero(m.d)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            out = -out
        out = out * work[c][c]
        inv = work[c][c].inverse()
        work[c] = [inv * e for e in work[c]]
        for i in range(c + 1, n):
            if not work[i][c].is_zero:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return out


def checked_block_matrix(d, blocks) -> QMatrix:
    grid = [[b if isinstance(b, QMatrix) else QMatrix(b.d, 1, 1, b.den, (b.a,), (b.b,))
             for b in block_row] for block_row in blocks]
    if any(b.d != d for block_row in grid for b in block_row):
        raise FieldTagError("block field tag differs from matrix tag")
    den = lcm(*(b.den for block_row in grid for b in block_row))
    re, rt, widths = [], [], set()
    for block_row in grid:
        height = block_row[0].rows
        if any(b.rows != height for b in block_row):
            raise ValueError("inconsistent block heights")
        widths.add(sum(b.cols for b in block_row))
        for i in range(height):
            for b in block_row:
                f, lo, hi = den // b.den, i * b.cols, (i + 1) * b.cols
                re += [f * a for a in b.re[lo:hi]]
                rt += [f * a for a in b.rt[lo:hi]]
    if len(widths) != 1:
        raise ValueError("inconsistent block widths")
    width = widths.pop()
    return QMatrix(d, len(re) // width, width, den, re, rt)


def stabiliser_relations_hold(g, frame) -> bool:
    """For g = (u v w / 0 X y / 0 0 z) and Q = (0 0 a / 0 B 0 / conj(a) 0 0),
    the blocks of g^H Q g = Q: z conj(u) = 1, X^H B X = B,
    X^H B y + a z v^H = 0 and y^H B y + conj(a z) w + a z conj(w) = 0."""
    b, az = frame.b_mat, frame.a * g.z
    xhb = g.x_mat.h @ b
    corner = (g.y.h @ b @ g.y).scalar() + az.conj() * g.w + az * g.w.conj()
    return (g.z * g.u.conj() == QElem.one(g.d) and xhb @ g.x_mat == b
            and (xhb @ g.y + g.v.h.scale(az)).is_zero and corner.is_zero)


def lcm_fractions(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(lcm(a.numerator, b.numerator), gcd(a.denominator, b.denominator))


def brute_sigma(a: QElem) -> Fraction:
    """The least x > 0 on a sound grid with x*a*sqrt(D) integral."""
    d_tag, step = a.d, None
    for c in (2 * a.re, 2 * a.rt * d_tag):
        if c == 0:
            continue
        g = Fraction(c.denominator, abs(c.numerator))
        step = g if step is None else lcm_fractions(step, g)
    a_sqrt_d = a * QElem.sqrt_d(d_tag)
    for m in range(1, 10 ** 6 + 1):
        x = m * step
        if in_ring_of_integers(a_sqrt_d * x):
            return x
    raise AssertionError("oracle scan exhausted")
