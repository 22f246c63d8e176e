# The exact fractional-part minimizations: Reid-Tai sums, orbit minima mc(r),
# and the shifted unit-sum minima c_min_red.
from ballquot import EigenSystem, c_min_red, is_quasi_reflection, mc, reid_tai_sum

print("== Reid-Tai sums ==")
es = EigenSystem(4, (1, 2, 3))
print("order 4, exponents (1,2,3): sum =", reid_tai_sum(es))
refl = EigenSystem(2, (1, 0, 0))
print("order 2, exponents (1,0,0): quasi-reflection?", is_quasi_reflection(refl))

print()
print("== orbit minima mc(r) ==")
for r in (9, 16, 18, 11, 22):
    print(f"mc({r}) = {mc(r)}")
print("mc(5) restricted to D < -3:", mc(5, d_filter=lambda D: D < -3))

print()
print("== shifted unit-sum minima ==")
for d in (30, 24, 20, 15, 14, 12, 8, 7, 6, 4, 3):
    print(f"c_min_red({d}) = {c_min_red(d)}")
