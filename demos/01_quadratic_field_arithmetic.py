# Exact arithmetic in imaginary quadratic fields: elements, conjugation,
# inversion, hermitian matrices, and ring-of-integers membership.
from fractions import Fraction as F

from ballquot import QElem, QMatrix, in_ring_of_integers

print("== elements of Q(sqrt(-5)) ==")
x = QElem.of(-5, 3, 2)          # 3 + 2*sqrt(-5)
y = QElem.of(-5, F(1, 2), F(-1, 3))
print("x       =", x)
print("y       =", y)
print("x * y   =", x * y)
print("conj(x) =", x.conj())
print("1/x     =", x.inverse(), "   check x * (1/x) =", x * x.inverse())

print()
print("== half-integers and the ring of integers ==")
w3 = QElem.of(-3, F(1, 2), F(1, 2))   # (1 + sqrt(-3)) / 2
w5 = QElem.of(-5, F(1, 2), F(1, 2))   # (1 + sqrt(-5)) / 2
print(f"{w3} integral in Q(sqrt(-3))?", in_ring_of_integers(w3))
print(f"{w5} integral in Q(sqrt(-5))?", in_ring_of_integers(w5))

print()
print("== hermitian forms ==")
m = QMatrix.from_rows(-5, [[2, QElem.of(-5, 0, 1)],
                           [QElem.of(-5, 0, -1), 3]])
print("M =", m)
print("M hermitian?", m.is_hermitian())
v = QMatrix.column(-5, [QElem.of(-5, 1, 1), QElem.of(-5, 2, -1)])
val = (v.h @ m @ v).scalar()
print("v^H M v =", val, " (always a plain rational for hermitian M)")
