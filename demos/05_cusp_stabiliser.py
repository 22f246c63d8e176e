# The algebra at a zero-dimensional cusp: normalizing the Gram matrix,
# stabiliser membership, the central lattice generator, and the chart action.
import random
from fractions import Fraction as F

from ballquot import cusp
from ballquot.qfield import QElem, QMatrix

rng = random.Random(42)

print("== normalizing a flag-compatible Gram matrix (n = 2, D = -5) ==")
qprime = QMatrix.from_rows(-5, [[0, 0, 1], [0, 1, 1], [1, 1, 2]])
n_mat, frame = cusp.normalize_cusp_basis(qprime)
print("input   :", qprime)
print("change  :", n_mat)
print("result  :", n_mat.h @ qprime @ n_mat)

print()
print("== a random frame over Q(sqrt(-7)) and its stabiliser ==")
frame = cusp.random_frame(rng, -7, 3)
print("a =", frame.a, "  B =", frame.b_mat)
g = cusp.random_nf_element(rng, frame)
# an element is stored as its block upper-triangular matrix (u v w / 0 X y /
# 0 0 z); u, v, w, x_mat, y and z are read-only slices of it
print("element :", g.mat)
print("block X :", g.x_mat, "  block z:", g.z)
print("element in the stabiliser?", cusp.is_in_NF(g, frame))
print("preserves the form?      ",
      g.mat.h @ frame.q_matrix() @ g.mat == frame.q_matrix())
print("g * g^-1 is the identity?",
      g.compose(g.inverse()).mat == QMatrix.identity(-7, frame.n + 1))
w = cusp.random_wf_element(rng, frame)
u = cusp.random_uf_element(rng, frame)
print("radical element?", cusp.is_in_WF(w, frame),
      "  central element?", cusp.is_in_UF(u, frame))
print("centre commutes with radical?", u.compose(w) == w.compose(u))

print()
print("== the integral lattice in the centre ==")
for a in (QElem.of(-5, 1), QElem.of(-5, 0, 1), QElem.of(-5, F(1, 2), F(1, 3))):
    x0 = cusp.uf_lattice_generator(a)
    print(f"a = {a}: generator x0 = {x0}")

print()
print("== chart action ==")
pt = cusp.BoundaryPoint(QElem.of(-7, 1, 1), cusp.random_vector(rng, -7, 2))
moved = cusp.apply_boundary_action(g, pt, frame)
print("alpha:", pt.alpha, "->", moved.alpha)
