# Boundary elements that square into the integral centre: the congruence
# relations, the tangent-space exponents, and the resulting Reid-Tai sums.
import random
from fractions import Fraction as F

from ballquot import cusp
from ballquot.reidtai import is_quasi_reflection, reid_tai_sum

rng = random.Random(7)

for trial in range(5):
    d_tag = rng.choice((-5, -6, -7, -11))
    frame = cusp.random_frame(rng, d_tag, rng.choice((3, 4)))
    inst = cusp.random_order2_element(rng, frame)
    g, w0 = inst.element, inst.fixed_point

    gsq = g.compose(g)
    es = cusp.boundary_tangent_exponents(g, w0, frame)
    exps = [F(a, es.order) for a in es.exponents]
    print(f"D = {d_tag}, n = {frame.n}, reflections = {inst.reflections}")
    print("  square lies in the integral centre:",
          cusp.is_in_UF(gsq, frame) and cusp.in_sigma_lattice(gsq.w, frame))
    print("  congruence relations hold:", cusp.check_qr_congruences(g, frame))
    print("  tangent exponents:", exps)
    if is_quasi_reflection(es):
        print("  acts as a quasi-reflection (single nontrivial eigenvalue)")
    else:
        print("  Reid-Tai sum:", reid_tai_sum(es), "(at least 1)")
    print("  fixes the boundary divisor pointwise:",
          cusp.boundary_divisor_fixed(g, frame))
    print()
