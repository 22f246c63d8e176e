# The finite search spaces: exceptional orders, the small-order list, and
# the per-case contribution tables with their dimension thresholds.
from ballquot import case_analysis, enumerate_exceptional_orders, enumerate_small_d
from ballquot.qfield import fmt_rational
from ballquot.tables import expand_exceptional_families

print("== exceptional orders up to 10^5 ==")
computed = enumerate_exceptional_orders(10 ** 5)
print(f"{len(computed)} orders:", ", ".join(map(str, computed)))
print("matches the family tables:",
      tuple(computed) == tuple(expand_exceptional_families(10 ** 5)))

print()
print("== orders with half-orbit sums below 1 (up to 10^4) ==")
print(", ".join(map(str, enumerate_small_d(10 ** 4))))

print()
print("== case analysis ==")
for case_id in ("PHI2", "R7_14", "D_MINUS5", "D_MINUS6", "D_MINUS15"):
    rep = case_analysis(case_id)
    table = {d: fmt_rational(v) for d, v in sorted(rep.per_d_contribution.items())}
    print(f"{case_id}: per-order contributions {table}")
    print(f"         omega term {fmt_rational(rep.omega_contribution)}, "
          f"total forced >= 1 once {rep.threshold_desc} (n >= {rep.threshold_n})")
