# Splitting the primitive d-th roots of unity over an imaginary quadratic
# field: the Kronecker-symbol orbits.
from ballquot import is_reducible, kronecker, orbit_sets, suitable_fields

for d in (7, 8, 12, 20):
    print(f"== d = {d} ==")
    fields = suitable_fields(d)
    print("fields that split the cyclotomic polynomial:", list(fields))
    for D in fields:
        plus, minus = orbit_sets(d, D)
        print(f"  D = {D}: +1 orbit {plus.members}, -1 orbit {minus.members}")
    print()

print("no imaginary quadratic field splits d = 5:", suitable_fields(5) == ())
print("is_reducible(8, -2):", is_reducible(8, -2))
print("is_reducible(8, -5):", is_reducible(8, -5))
print("kronecker(-7, a) for a = 1..6:", [kronecker(-7, a) for a in range(1, 7)])
