"""The reference kernel for QMatrix linear algebra over Q(sqrt(D)).

The schoolbook product and Gauss-Jordan elimination, written with QElem
arithmetic, i.e. with ``fractions.Fraction`` coordinates throughout.  It is
slow and independent of the integer kernel in ``ballquot.qfield``, which
the differential tests compare against it entry by entry.
"""

from ballquot.qfield import QElem, QMatrix


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
