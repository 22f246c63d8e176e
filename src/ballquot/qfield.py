"""Exact arithmetic over imaginary quadratic fields.

Every number of Q(sqrt(D)), D < 0 squarefree, is stored as integers only:
numerators (a, b), standing for (a + b*sqrt(D)) / den, over one denominator
den > 0, with gcd(den, all a, all b) = 1.  A :class:`QElem` holds one such
pair, a :class:`QMatrix` one pair per entry; both forms are unique, so
``==`` and hash compare values.  ``fractions.Fraction`` appears only at the
edges: ``QElem(d, re, rt)`` and ``from_rows`` read int or Fraction
coordinates, and ``re``, ``rt`` and ``norm()`` return them.

Every operation computes on those integers and reduces its result once.  A
sum is taken over a common denominator and a product is integer
multiply-add.  Inversion, determinants and ranks use Bareiss's
fraction-free elimination (Math. Comp. 22, 1968) over Z[sqrt(D)]: every
intermediate entry is a minor of the integer matrix, so each division by
the previous pivot p is exact and is carried out as multiplication by
conj(p) followed by integer division by the norm p*conj(p).  No floating
point is used anywhere; a float coordinate is refused.

Only the public constructors check their input: ``QElem(d, re, rt)``,
``QMatrix(...)``, ``from_rows``, ``column``, ``identity``, ``zero``,
``block_matrix`` and the constants ``QElem.zero``, ``one`` and ``sqrt_d``
refuse a bad tag, shape, entry or denominator.  The result of an operation
on checked values is built by one of two trusted constructors, ``_elem``
for a scalar and ``_mat`` for a matrix, which reduce by the gcd and check
nothing else.  The constants check their tag once and build through
``_elem``.  ``block_matrix`` checks the tag and the blocks' tags once;
its core ``_block_matrix``, which callers with checked blocks use
directly, checks only the tiling and copies the blocks' integers into one
``_mat``.  ``_identity`` and ``_zero`` build through ``_mat``, for callers
whose tag was checked before.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter, mul
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]

class FieldTagError(ValueError):
    """Raised when elements of distinct quadratic fields are combined."""


# the primes below 64, and their product
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_PRIMORIAL = prod(_SMALL_PRIMES)


def is_squarefree(n: int) -> bool:
    """True iff |n| has no repeated prime factor (0 is not squarefree).

    g = gcd(n, product of the primes below 64) holds each small prime of n
    once, so a small prime repeats iff it also divides n // g; what is left
    then has no prime factor below 67 and is trial-divided from there.
    """
    n = abs(n)
    if n == 0:
        return False
    g = gcd(n, _PRIMORIAL)
    n //= g
    if gcd(n, g) > 1:
        return False
    p = 67
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 2
    return True


def check_field_tag(d: int) -> int:
    if not isinstance(d, int) or d >= 0 or not is_squarefree(d):
        raise ValueError(f"field tag must be a squarefree negative integer, got {d!r}")
    return d


def frac(q: RationalLike) -> Fraction:
    """Fractional part q - floor(q), always in [0, 1)."""
    return Fraction(q) % 1


def fmt_rational(q: RationalLike) -> str:
    """Lowest-terms 'p/q' string, or plain 'n' for integers."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class _Frozen:
    """Base of the immutable value types: assignment and deletion raise
    FrozenInstanceError, so ``__init__`` sets the fields past the guard.  A
    subclass that names its fields in ``_fields`` compares (``NotImplemented``
    for any other class), hashes and prints by them."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # the field values in one C call (a lone field as itself)
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class QElem(_Frozen):
    """An element re + rt*sqrt(D) of the imaginary quadratic field Q(sqrt(D)).

    Immutable; stored as the tag ``d`` and integers ``den``, ``a``, ``b``
    standing for (a + b*sqrt(D)) / den in lowest terms, as one entry of a
    QMatrix.  ``re`` and ``rt`` read the coordinates as ``Fraction``.
    """

    __slots__ = ("d", "den", "a", "b")

    def __init__(self, d: int, re: RationalLike, rt: RationalLike):
        check_field_tag(d)
        if not (isinstance(re, (int, Fraction)) and isinstance(rt, (int, Fraction))):
            raise TypeError(f"coordinates must be int or Fraction, got {re!r}, {rt!r}")
        # both coordinates are in lowest terms, so over the lcm of their
        # denominators the three integers are coprime
        p, q, r, s = re.numerator, re.denominator, rt.numerator, rt.denominator
        den = lcm(q, s)
        _set_d(self, d)
        _set_den(self, den)
        _set_a(self, p * (den // q))
        _set_b(self, r * (den // s))

    def __reduce__(self):
        return QElem, (self.d, self.re, self.rt)

    def __eq__(self, other):
        if other.__class__ is QElem:
            return (self.a == other.a and self.b == other.b and self.den == other.den
                    and self.d == other.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.den, self.a, self.b))

    def __repr__(self):
        return f"QElem(d={self.d!r}, re={self.re!r}, rt={self.rt!r})"

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def rt(self) -> Fraction:
        return Fraction(self.b, self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, d: int, re: RationalLike = 0, rt: RationalLike = 0) -> "QElem":
        return cls(d, re, rt)

    @classmethod
    def zero(cls, d: int) -> "QElem":
        return _elem(check_field_tag(d), 1, 0, 0)

    @classmethod
    def one(cls, d: int) -> "QElem":
        return _elem(check_field_tag(d), 1, 1, 0)

    @classmethod
    def sqrt_d(cls, d: int) -> "QElem":
        return _elem(check_field_tag(d), 1, 0, 1)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QElem":
        if isinstance(other, QElem):
            if other.d != self.d:
                raise FieldTagError(f"mixed field tags {self.d} and {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return _elem(self.d, other.denominator, other.numerator, 0)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _sum(self, o.den, o.a, o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _sum(self, o.den, -o.a, -o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _elem(self.d, self.den, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        return _elem(self.d, self.den * o.den, a * c + self.d * b * e, a * e + b * c)

    __rmul__ = __mul__

    def conj(self) -> "QElem":
        return _elem(self.d, self.den, self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm x * conj(x) = re^2 - D*rt^2; positive for x != 0."""
        return Fraction(self.a * self.a - self.d * self.b * self.b, self.den * self.den)

    def inverse(self) -> "QElem":
        # den * (a - b*sqrt(D)) / (a^2 - D*b^2), with a^2 - D*b^2 > 0 for x != 0
        n = self.a * self.a - self.d * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero element")
        return _elem(self.d, n, self.den * self.a, -self.den * self.b)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __str__(self):
        if self.b == 0:
            return fmt_rational(self.re)
        rt = fmt_rational(abs(self.rt))
        sign = "-" if self.b < 0 else "+"
        head = "" if self.a == 0 and self.b > 0 else fmt_rational(self.re) + sign
        if self.a == 0 and self.b < 0:
            head = "-"
        return f"{head}{rt}*sqrt({self.d})"


_new = object.__new__
_setattr = object.__setattr__
_set_d = QElem.d.__set__
_set_den = QElem.den.__set__
_set_a = QElem.a.__set__
_set_b = QElem.b.__set__


def _elem(d: int, den: int, a: int, b: int) -> QElem:
    """(a + b*sqrt(D)) / den in lowest terms, for a tag already checked and
    den > 0, as arithmetic on checked elements produces them; nothing is
    validated again."""
    g = gcd(den, a, b)
    x = _new(QElem)
    _set_d(x, d)
    _set_den(x, den // g)
    _set_a(x, a // g)
    _set_b(x, b // g)
    return x


def _sum(x: QElem, den: int, a: int, b: int) -> QElem:
    """x + (a + b*sqrt(D)) / den."""
    return _elem(x.d, x.den * den, x.a * den + a * x.den, x.b * den + b * x.den)


def _bareiss_step(d: int, re, rt, r: int, c: int, rows, prev) -> None:
    """One step of fraction-free elimination over Z[sqrt(d)], in place.

    The pivot is p = re[r][c] + rt[r][c]*sqrt(d) and ``prev`` = (a, b) is
    the previous pivot a + b*sqrt(d), (1, 0) at the first step.  Columns
    c+1.. of every row i in ``rows`` become (p*row_i - row_i[c]*row_r) /
    prev.  By Sylvester's identity the quotient lies in Z[sqrt(d)]; it is
    computed as a product with conj(prev) and an exact integer division by
    the norm of prev.  Columns up to c are left stale: no later step reads
    them.
    """
    pr, pt = re[r][c], rt[r][c]
    qr, qt = prev
    if qt:
        norm = qr * qr - d * qt * qt
        pr, pt = pr * qr - d * pt * qt, pt * qr - pr * qt
    else:
        norm = qr
    kr, kt = re[r][c + 1:], rt[r][c + 1:]
    dpt = d * pt
    for i in rows:
        xr, xt = re[i], rt[i]
        fr, ft = xr[c], xt[c]
        if qt:
            fr, ft = fr * qr - d * ft * qt, ft * qr - fr * qt
        dft = d * ft
        tail = list(zip(xr[c + 1:], xt[c + 1:], kr, kt))
        xr[c + 1:] = [(pr * a + dpt * b - fr * e - dft * g) // norm
                      for a, b, e, g in tail]
        xt[c + 1:] = [(pr * b + pt * a - fr * g - ft * e) // norm
                      for a, b, e, g in tail]


def in_ring_of_integers(x: QElem) -> bool:
    """Membership in the maximal order of Q(sqrt(D)).

    For D = 2, 3 mod 4 the order is Z[sqrt(D)]; for D = 1 mod 4 it is
    Z[(1 + sqrt(D)) / 2], i.e. 2*rt and re - rt must be rational integers:
    den divides 2b and a - b.
    """
    if x.d % 4 == 1:
        return (2 * x.b) % x.den == 0 and (x.a - x.b) % x.den == 0
    return x.den == 1


class QMatrix(_Frozen):
    """Dense matrix over Q(sqrt(D)), row-major, immutable: entry k is
    (re[k] + rt[k]*sqrt(D)) / den in lowest terms, a unique form, so ``==``
    and hash, which read the fields (d, rows, cols, den, re, rt), compare
    values."""

    _fields = ("d", "rows", "cols", "den", "re", "rt")

    def __init__(self, d: int, rows: int, cols: int, den: int, re: tuple, rt: tuple):
        self.__dict__.update(d=d, rows=rows, cols=cols, den=den, re=re, rt=rt)
        check_field_tag(self.d)
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if not len(self.re) == len(self.rt) == self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if self.den <= 0:
            raise ValueError("the common denominator must be positive")
        g = gcd(self.den, *self.re, *self.rt)
        _setattr(self, "den", self.den // g)
        _setattr(self, "re", tuple([a // g for a in self.re]))
        _setattr(self, "rt", tuple([b // g for b in self.rt]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, d: int, rows: Sequence[Sequence]) -> "QMatrix":
        nr = len(rows)
        if nr == 0:
            raise ValueError("matrix dimensions must be positive")
        nc = len(rows[0])
        ents = []
        for row in rows:
            if len(row) != nc:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, QElem):
                    e = QElem.of(d, e)
                elif e.d != d:
                    raise FieldTagError("entry field tag differs from matrix tag")
                ents.append(e)
        den = lcm(*[e.den for e in ents])
        return cls(d, nr, nc, den, [e.a * (den // e.den) for e in ents],
                   [e.b * (den // e.den) for e in ents])

    @classmethod
    def identity(cls, d: int, n: int) -> "QMatrix":
        return cls(d, n, n, 1, [int(i == j) for i in range(n) for j in range(n)],
                   [0] * (n * n))

    @classmethod
    def zero(cls, d: int, rows: int, cols: int) -> "QMatrix":
        return cls(d, rows, cols, 1, [0] * (rows * cols), [0] * (rows * cols))

    @classmethod
    def column(cls, d: int, entries: Sequence) -> "QMatrix":
        return cls.from_rows(d, [[e] for e in entries])

    # -- access ------------------------------------------------------------

    def _entry(self, k: int) -> QElem:
        return _elem(self.d, self.den, self.re[k], self.rt[k])

    @property
    def entries(self) -> tuple:
        """The entries as QElems, row-major."""
        return tuple([self._entry(k) for k in range(len(self.re))])

    def at(self, i: int, j: int) -> QElem:
        return self._entry(i * self.cols + j)

    def to_rows(self) -> list:
        nc = self.cols
        return [[self._entry(k) for k in range(i, i + nc)]
                for i in range(0, len(self.re), nc)]

    def submatrix(self, row0: int, col0: int, nrows: int, ncols: int) -> "QMatrix":
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix dimensions must be positive")
        if min(row0, col0) < 0 or row0 + nrows > self.rows or col0 + ncols > self.cols:
            raise IndexError("submatrix out of range")
        index = [i * self.cols + j for i in range(row0, row0 + nrows)
                 for j in range(col0, col0 + ncols)]
        return _mat(self.d, nrows, ncols, self.den,
                    [self.re[k] for k in index], [self.rt[k] for k in index])

    def scalar(self) -> QElem:
        if self.rows != 1 or self.cols != 1:
            raise ValueError("not a 1x1 matrix")
        return self._entry(0)

    @property
    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.rt))

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "QMatrix", sign: int) -> "QMatrix":
        """self + sign*other, over the least common denominator."""
        if self.d != other.d:
            raise FieldTagError("mixed field tags in matrix arithmetic")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        return _mat(self.d, self.rows, self.cols, den,
                    [f * a + g * b for a, b in zip(self.re, other.re)],
                    [f * a + g * b for a, b in zip(self.rt, other.rt)])

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "QMatrix":
        return _mat(self.d, self.rows, self.cols, self.den,
                    [-a for a in self.re], [-b for b in self.rt])

    def scale(self, c) -> "QMatrix":
        c = c if isinstance(c, QElem) else QElem.of(self.d, c)
        if c.d != self.d:
            raise FieldTagError(f"mixed field tags {c.d} and {self.d}")
        d, re, rt, cr, ct = self.d, self.re, self.rt, c.a, c.b
        dct = d * ct
        return _mat(d, self.rows, self.cols, c.den * self.den,
                    [cr * a + dct * b for a, b in zip(re, rt)],
                    [cr * b + ct * a for a, b in zip(re, rt)])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.d != other.d:
            raise FieldTagError("mixed field tags in matrix product")
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        d, k, p = self.d, self.cols, other.cols
        ar, at, br, bt = self.re, self.rt, other.re, other.rt
        cols = [(br[j::p], bt[j::p]) for j in range(p)]
        re, rt = [], []
        for i in range(0, self.rows * k, k):
            xr, xt = ar[i:i + k], at[i:i + k]
            for yr, yt in cols:
                re.append(sum(map(mul, xr, yr)) + d * sum(map(mul, xt, yt)))
                rt.append(sum(map(mul, xr, yt)) + sum(map(mul, xt, yr)))
        return _mat(d, self.rows, p, self.den * other.den, re, rt)

    @property
    def h(self) -> "QMatrix":
        """The hermitian adjoint, the conjugate transpose."""
        nr, nc = self.rows, self.cols
        index = [j * nc + i for i in range(nc) for j in range(nr)]
        return _mat(self.d, nc, nr, self.den,
                    [self.re[k] for k in index], [-self.rt[k] for k in index])

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.h

    # -- elimination -------------------------------------------------------

    def _eliminate(self, augment: bool = False):
        """Bareiss elimination of the integer rows of den*self.

        With ``augment`` the rows are those of [den*self | I] and every row
        other than the pivot row is reduced, so that a nonsingular matrix
        ends as [p*I | p*(den*self)^-1]; without it only the rows below the
        pivot are.  Returns (rank, sign of the row swaps, last pivot (a, b)
        standing for a + b*sqrt(D), re rows, rt rows).
        """
        nr, nc = self.rows, self.cols
        re = [list(self.re[i:i + nc]) for i in range(0, nr * nc, nc)]
        rt = [list(self.rt[i:i + nc]) for i in range(0, nr * nc, nc)]
        if augment:
            for i in range(nr):
                re[i] += [int(i == j) for j in range(nr)]
                rt[i] += [0] * nr
        r, sign, prev = 0, 1, (1, 0)
        for c in range(nc):
            piv = next((i for i in range(r, nr) if re[i][c] or rt[i][c]), None)
            if piv is None:
                continue
            if piv != r:
                re[r], re[piv] = re[piv], re[r]
                rt[r], rt[piv] = rt[piv], rt[r]
                sign = -sign
            targets = [i for i in range(nr) if i != r] if augment else range(r + 1, nr)
            _bareiss_step(self.d, re, rt, r, c, targets, prev)
            prev = (re[r][c], rt[r][c])
            r += 1
        return r, sign, prev, re, rt

    def rank(self) -> int:
        return self._eliminate()[0]

    def kernel_dimension(self) -> int:
        return self.cols - self.rank()

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        d, n = self.d, self.rows
        rank, _, (pr, pt), re, rt = self._eliminate(augment=True)
        if rank < n:
            raise ZeroDivisionError("matrix is singular")
        # [den*self | I] is now [p*I | p*(den*self)^-1] for the last pivot p,
        # so self^-1 = den * conj(p) * (right block) / norm(p)
        out_re, out_rt = [], []
        for row_re, row_rt in zip(re, rt):
            for xr, xt in zip(row_re[n:], row_rt[n:]):
                out_re.append((xr * pr - d * xt * pt) * self.den)
                out_rt.append((xt * pr - xr * pt) * self.den)
        return _mat(d, n, n, pr * pr - d * pt * pt, out_re, out_rt)

    def det(self) -> QElem:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        rank, sign, (pr, pt), _, _ = self._eliminate()
        if rank < n:
            return QElem.zero(self.d)
        # the last pivot is the determinant of den*self, up to the row swaps
        return _elem(self.d, self.den ** n, sign * pr, sign * pt)

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        ) + "]"


def _mat(d: int, rows: int, cols: int, den: int, re, rt) -> QMatrix:
    """The rows x cols matrix of numerators re, rt over den, in lowest
    terms, for a tag already checked, a shape that fits and den > 0, as
    operations on checked matrices produce them; nothing is validated
    again."""
    g = gcd(den, *re, *rt)
    if g > 1:
        den, re, rt = den // g, [a // g for a in re], [b // g for b in rt]
    m = _new(QMatrix)
    m.__dict__.update(d=d, rows=rows, cols=cols, den=den, re=tuple(re), rt=tuple(rt))
    return m


def _identity(d: int, n: int) -> QMatrix:
    """The n x n identity for a tag already checked and n > 0, as
    ``QMatrix.identity`` builds it but through ``_mat``."""
    return _mat(d, n, n, 1, [int(i == j) for i in range(n) for j in range(n)],
                [0] * (n * n))


def _zero(d: int, rows: int, cols: int) -> QMatrix:
    """``QMatrix.zero`` built through ``_mat``, for a tag already checked."""
    zeros = (0,) * (rows * cols)
    return _mat(d, rows, cols, 1, zeros, zeros)


def block_matrix(d: int, blocks: Iterable[Iterable]) -> QMatrix:
    """Assemble a matrix from a grid of QMatrix blocks and scalar QElems.

    QElem entries are treated as 1x1 blocks; block shapes must tile, and a
    grid without blocks, or with an empty block row, is an empty shape.  The
    tag and the blocks' tags are checked here once, and ``_block_matrix``
    assembles the grid.
    """
    check_field_tag(d)
    grid = [list(block_row) for block_row in blocks]
    if not grid or not all(grid):
        raise ValueError("matrix dimensions must be positive")
    if any(b.d != d for block_row in grid for b in block_row):
        raise FieldTagError("block field tag differs from matrix tag")
    return _block_matrix(d, grid)


def _block_matrix(d: int, grid) -> QMatrix:
    """block_matrix of a grid (a list of rows) of checked blocks, all of
    the checked tag d: only the tiling is checked, and the blocks' integers
    are copied over the lcm of their denominators into one ``_mat``."""
    den = lcm(*(b.den for block_row in grid for b in block_row))
    re, rt, widths = [], [], set()
    for block_row in grid:
        # (rows, cols, den, re, rt) of each block, a QElem read as 1x1
        parts = [(b.rows, b.cols, b.den, b.re, b.rt) if isinstance(b, QMatrix)
                 else (1, 1, b.den, (b.a,), (b.b,)) for b in block_row]
        height = parts[0][0]
        if any(p[0] != height for p in parts):
            raise ValueError("inconsistent block heights")
        widths.add(sum(p[1] for p in parts))
        for i in range(height):
            for _, cols, bden, bre, brt in parts:
                f, lo, hi = den // bden, i * cols, (i + 1) * cols
                re += [f * a for a in bre[lo:hi]]
                rt += [f * a for a in brt[lo:hi]]
    if len(widths) != 1:
        raise ValueError("inconsistent block widths")
    width = widths.pop()
    return _mat(d, len(re) // width, width, den, re, rt)
