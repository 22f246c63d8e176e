import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from ballquot import cyclo
from ballquot.cyclo import (FULL, MINUS, PLUS, InternalCheckError, OrbitSet,
                            complex_conjugate_orbit, cyclotomic_polynomial,
                            euler_phi, factorize, field_discriminant,
                            full_orbit, is_reducible, kronecker, orbit_sets,
                            phi_sieve, suitable_fields, units_mod)
from ballquot.reidtai import hom_contribution, mc_for_field


# ---------------------------------------------------------------------------
# oracles

@lru_cache(maxsize=None)
def squares_mod(p):
    return frozenset((x * x) % p for x in range(1, p))


def legendre_by_squaring(a, p):
    """Exhaustive quadratic-residue test modulo an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in squares_mod(p) else -1


def kronecker_oracle(a, n):
    """Factor the bottom argument, multiply Legendre / 2-adic values."""
    assert n > 0
    result, m, p = 1, n, 2
    while m > 1:
        if p * p > m:
            p = m  # what is left is prime
        while m % p == 0:
            if p == 2:
                if a % 2 == 0:
                    return 0
                result *= 1 if a % 8 in (1, 7) else -1
            else:
                result *= legendre_by_squaring(a, p)
            m //= p
        p += 1 if p == 2 else 2
    return result


# ---------------------------------------------------------------------------
# totients and factorization

def test_factorize():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(90) == ((2, 1), (3, 2), (5, 1))
    for n in range(1, 200):
        prod = 1
        for p, e in factorize(n):
            prod *= p ** e
        assert prod == n


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(30) == 8
    # direct unit count oracle
    assert euler_phi(90) == sum(1 for a in range(1, 91) if gcd(a, 90) == 1) == 24


def test_euler_phi_multiplicative():
    rng = random.Random(0)
    for _ in range(100):
        m, n = rng.randint(1, 60), rng.randint(1, 60)
        if gcd(m, n) == 1:
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)


def test_phi_sieve_matches_phi():
    ph = phi_sieve(300)
    for n in range(1, 301):
        assert ph[n] == euler_phi(n)


# ---------------------------------------------------------------------------
# Kronecker symbol

def test_kronecker_examples():
    assert kronecker(-7, 1) == 1
    # factor-by-factor oracle: (-7/2) = +1 (since -7 = 1 mod 8),
    # (-7/3) = legendre(2, 3) = -1, so the product is -1
    assert kronecker_oracle(-7, 6) == -1
    assert kronecker(-7, 6) == -1
    assert legendre_by_squaring(-1, 7) == -1
    assert kronecker(-1, 7) == -1


def test_kronecker_against_oracle():
    for a in (-15, -11, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 5, 12):
        for n in range(1, 120):
            assert kronecker(a, n) == kronecker_oracle(a, n), (a, n)


def test_kronecker_conventions():
    # bottom 0 and negative bottoms
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(-3, -1) == -1
    assert kronecker(3, -1) == 1
    for a in range(-20, 21):
        for n in range(-20, 21):
            if n != 0:
                assert kronecker(a, -n) == kronecker(a, -1) * kronecker(a, n)


def test_kronecker_multiplicative_in_bottom():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randint(-30, 30)
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_completely_multiplicative_property():
    """(D/mn) = (D/m)(D/n) for all nonzero m, n, coprime or not: the rule
    the character scan's table is filled by."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonzero = st.integers(-10 ** 4, 10 ** 4).filter(bool)

    @hypothesis.given(st.integers(-3000, 3000), nonzero, nonzero)
    def check(D, m, n):
        assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)

    check()


def test_kronecker_periodic_property():
    """For D = 0, 1 mod 4, n -> (D/n) has period |D| on n >= 1; for the
    other D, period 4|D| on odd n (it is not periodic on even n: (3/2) = -1
    but (3/14) = 1)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.integers(-3000, 3000).filter(bool),
                      st.integers(1, 10 ** 4), st.integers(1, 20))
    def check(D, n, k):
        if D % 4 in (0, 1):
            assert kronecker(D, n + k * abs(D)) == kronecker(D, n)
        n |= 1
        assert kronecker(D, n + 4 * k * abs(D)) == kronecker(D, n)

    check()
    assert kronecker(3, 2) == -1 and kronecker(3, 14) == 1


# ---------------------------------------------------------------------------
# reducibility and orbits

def test_field_discriminant():
    assert field_discriminant(-7) == -7
    assert field_discriminant(-1) == -4
    assert field_discriminant(-2) == -8
    assert field_discriminant(-5) == -20
    assert field_discriminant(-15) == -15


def test_is_reducible_examples():
    assert is_reducible(7, -7)
    assert is_reducible(8, -2)
    assert not is_reducible(8, -5)
    assert is_reducible(8, -1)
    assert not is_reducible(7, -5)
    assert not is_reducible(1, -3) and not is_reducible(2, -3)


@lru_cache(maxsize=None)
def character_scan(d, D):
    """Independent re-implementation of the scan criterion on the oracle."""
    values = {}
    for a in range(1, 10 * d + 1):
        if gcd(a, d) != 1:
            continue
        v = kronecker_oracle(D, a)
        if v == 0:
            return False
        res = a % d
        if res in values and values[res] != v:
            return False
        values[res] = v
    return -1 in values.values()


# fields of small discriminant, and fields whose scans mostly exit early, at
# the first prime p | D (where (D/p) = 0) or at the first residue class that
# holds both signs; -101 and -2999 split for no d < 200
SCAN_FIELDS = (-1, -2, -3, -5, -7, -15,
               -10, -11, -30, -39, -55, -101, -2999)


def scan_disagreements(d_limit=200):
    """Pairs (d, D) where is_reducible and the oracle scan differ, or where
    is_reducible raises because its own criteria disagree."""
    bad = []
    for d in range(1, d_limit):
        for D in SCAN_FIELDS:
            try:
                agrees = is_reducible(d, D) == character_scan(d, D)
            except InternalCheckError:
                agrees = False
            if not agrees:
                bad.append((d, D))
    return bad


def test_tag_lookalikes_are_refused_cold_and_warm(cold_scan_caches):
    # -3.0 and Fraction(-3) equal the valid tag -3 and hash like it, so an
    # untyped cache warmed by -3 would answer for them; the refusal must not
    # depend on what ran before
    calls = (lambda tag: is_reducible(3, tag), lambda tag: orbit_sets(3, tag),
             lambda tag: mc_for_field(3, tag), lambda tag: hom_contribution(3, 4, 1, tag),
             field_discriminant)
    for warm in (False, True):
        for call in calls:
            if warm:
                call(-3)
            for bad in (-3.0, Fraction(-3), -4, 0, 5):
                with pytest.raises(ValueError):
                    call(bad)


def test_orders_that_are_not_ints_are_refused_cold_and_warm(cold_scan_caches):
    # 12.0 equals the valid order 12, and True equals 1; neither may reach
    # the scan, cold or after a warm 12
    for warm in (False, True):
        if warm:
            assert is_reducible(12, -3) and orbit_sets(12, -3)
        for bad in (12.0, 3.0, Fraction(12), True, 0, -12):
            with pytest.raises(ValueError):
                is_reducible(bad, -3)
            with pytest.raises(ValueError):
                orbit_sets(bad, -3)


def test_is_reducible_matches_character_scan(cold_scan_caches):
    assert scan_disagreements() == []


@pytest.mark.parametrize("D, p", [(-7, 3), (-3, 2), (-1, 101), (-11, 5)])
def test_character_scan_catches_one_wrong_table_value(D, p, monkeypatch,
                                                      cold_scan_caches):
    # the scan's table reads kronecker at 2 and Euler's criterion at odd
    # primes; a wrong sign from the reader used at p must show as a
    # disagreement with the oracle scan
    reader = "kronecker" if p == 2 else "_euler_symbol"
    true_reader = getattr(cyclo, reader)

    def wrong_at_p(a, n):
        v = true_reader(a, n)
        return -v if (a, n) == (D, p) else v

    monkeypatch.setattr(cyclo, reader, wrong_at_p)
    bad = scan_disagreements()
    assert bad and all(pair[1] == D for pair in bad)


def test_scan_reads_each_prime_once_per_field_in_increasing_order(monkeypatch,
                                                                   cold_scan_caches):
    # under a character that is 1 everywhere no check exits early, so a scan
    # of order d reads its field's table through the last unit below 10d;
    # the table reads kronecker at 1 and 2 and Euler's criterion at every
    # odd prime, once per field and in increasing a, whatever orders ran
    # before: each field's reads are the primes up to 10 times the largest
    # order scanned so far
    reads = {}

    def trivial(reader):
        def read(D, n):
            reads.setdefault(D, []).append((reader, n))
            return 1
        return read

    monkeypatch.setattr(cyclo, "kronecker", trivial("kronecker"))
    monkeypatch.setattr(cyclo, "_euler_symbol", trivial("euler"))
    shuffled = random.Random(0).sample(range(1, 60), 59)
    visits = {-1: range(1, 60), -2: range(59, 0, -1), -5: shuffled}
    for D, orders in visits.items():
        reach = 0
        for d in orders:
            assert cyclo._character_defined_mod(d, D) is None
            reach = max(reach, 10 * d)
            primes = [p for p in range(2, reach + 1) if factorize(p) == ((p, 1),)]
            assert reads[D] == [("kronecker", 1)] + [
                ("kronecker" if p == 2 else "euler", p) for p in primes], (D, d)
    assert cyclo._character_defined_mod.cache_info().currsize == 3 * 59


def test_scan_results_do_not_depend_on_the_order_of_visits(cold_scan_caches):
    # every field's table is shared by the scans of all orders, so what a
    # scan returns must not depend on which orders filled the table first
    pairs = [(d, D) for D in SCAN_FIELDS for d in range(1, 200)]

    def scan(pair):
        return is_reducible(*pair), cyclo._character_defined_mod(*pair)

    ascending = {pair: scan(pair) for pair in pairs}
    cold_scan_caches()
    descending = {pair: scan(pair) for pair in reversed(pairs)}
    cold = {}
    for pair in pairs:
        cold_scan_caches()
        cold[pair] = scan(pair)
    assert descending == ascending and cold == ascending
    assert sum(verdict for verdict, _ in cold.values()) > 50


def test_euler_symbol_matches_oracle():
    # every odd prime below 2000, p | D included, where (D/p) = 0
    primes = [p for p in range(3, 2000, 2) if factorize(p) == ((p, 1),)]
    for D in SCAN_FIELDS:
        for p in primes:
            assert cyclo._euler_symbol(D, p) == kronecker_oracle(D, p), (D, p)


@pytest.mark.parametrize("D", SCAN_FIELDS)
def test_table_fill_matches_oracle_in_one_call_and_in_steps(D):
    # an extension of 64 entries or more is filled by slices, a shorter one
    # entry by entry; a fresh table grown to 5000 in one call, or in steps
    # of 1, 7, 64 or 200 entries, holds (D/a) mod 3 at every a
    limit = 5000
    expected = [0] + [kronecker_oracle(D, a) % 3 for a in range(1, limit + 1)]
    for step in (limit, 1, 7, 64, 200):
        table = bytearray(1)
        for n in range(step, limit + step, step):
            cyclo._grow(table, D, min(n, limit))
        assert list(table) == expected, step


def test_struck_units_and_mask_match_gcd():
    # the units of [1, d], with 0xff at byte a - 1 of the mask for each unit
    # a; units_mod lists the same residues, as (0,) at d = 1
    for d in range(1, 2000):
        flags = [gcd(a, d) == 1 for a in range(1, d + 1)]
        units = tuple(a for a, unit in zip(range(1, d + 1), flags) if unit)
        mask = int.from_bytes(bytes(0xff if unit else 0 for unit in flags), "little")
        assert cyclo._struck_units(d) == (units, mask), d
        assert units_mod(d) == tuple(a for a in range(d) if gcd(a, d) == 1), d


def kronecker_orbit_sets(d, D):
    """The orbits as kronecker reads them, one call per unit mod d."""
    plus, minus = [], []
    for a in units_mod(d):
        (plus if kronecker(D, a) == 1 else minus).append(a)
    return tuple(plus), tuple(minus)


def test_orbit_sets_match_kronecker_per_unit():
    pairs = 0
    for d in range(3, 200):
        for D in suitable_fields(d):
            plus, minus = orbit_sets(d, D)
            assert (plus.members, minus.members) == kronecker_orbit_sets(d, D), (d, D)
            pairs += 1
    assert pairs > 200


def test_orbits_equal_their_public_rebuild():
    # orbit_sets and full_orbit skip OrbitSet's checks; the public
    # constructor must accept each orbit they return and rebuild it equal
    for d in range(3, 200):
        full = full_orbit(d)
        assert full.members == tuple(a for a in range(1, d) if gcd(a, d) == 1)
        orbits = [full]
        for D in suitable_fields(d):
            orbits.extend(orbit_sets(d, D))
        for orbit in orbits:
            rebuilt = OrbitSet(orbit.d, orbit.members, orbit.label, orbit.d_field)
            assert rebuilt == orbit and hash(rebuilt) == hash(orbit), (d, orbit)


def test_orbit_sets_examples():
    plus, minus = orbit_sets(7, -7)
    # quadratic residues mod 7 by exhaustive squaring: {1, 2, 4}
    assert {(x * x) % 7 for x in range(1, 7)} == {1, 2, 4}
    assert plus.members == (1, 2, 4)
    assert minus.members == (3, 5, 6)
    plus, minus = orbit_sets(8, -2)
    assert plus.members == (1, 3) and minus.members == (5, 7)
    plus, minus = orbit_sets(12, -1)
    # kronecker(-1, a) = +1 iff a = 1 mod 4
    assert plus.members == (1, 5) and minus.members == (7, 11)


def test_orbit_sets_sizes_and_one():
    for d in range(3, 101):
        for D in suitable_fields(d):
            plus, minus = orbit_sets(d, D)
            assert len(plus) == len(minus) == euler_phi(d) // 2
            assert 1 in plus.members
            assert set(plus.members) | set(minus.members) == set(units_mod(d))


def test_orbit_sets_error_when_irreducible():
    with pytest.raises(ValueError):
        orbit_sets(7, -5)


def test_plus_orbit_closed_under_multiplication():
    for d in range(3, 101):
        for D in suitable_fields(d):
            plus, _ = orbit_sets(d, D)
            members = set(plus.members)
            for a in members:
                for b in members:
                    assert (a * b) % d in members


def test_complex_conjugate_orbit():
    plus, minus = orbit_sets(7, -7)
    assert complex_conjugate_orbit(plus) == minus
    assert complex_conjugate_orbit(minus) == plus
    f = full_orbit(9)
    assert complex_conjugate_orbit(f) == f
    plus12, minus12 = orbit_sets(12, -1)
    assert complex_conjugate_orbit(plus12) == minus12
    # the swap happens for every split pair with d > 2
    for d in range(3, 80):
        for D in suitable_fields(d):
            p, m = orbit_sets(d, D)
            assert complex_conjugate_orbit(p) == m


def test_orbitset_validation():
    with pytest.raises(ValueError):
        OrbitSet(8, (1, 2), PLUS, -2)  # 2 is not a unit mod 8
    with pytest.raises(ValueError):
        OrbitSet(8, (1, 3), FULL, -2)  # FULL must not carry a field
    with pytest.raises(ValueError):
        OrbitSet(8, (1, 3), "HALF", -2)


def test_suitable_fields_examples():
    assert suitable_fields(4) == (-1,)
    assert suitable_fields(20) == (-1, -5)
    assert suitable_fields(7) == (-7,)
    assert suitable_fields(5) == ()
    assert suitable_fields(26) == ()
    assert suitable_fields(24) == (-1, -2, -3, -6)
    assert suitable_fields(12) == (-1, -3)


def test_suitable_fields_complete_by_scan():
    # every squarefree D with |D| <= 60 that splits must be listed
    for d in range(3, 61):
        listed = set(suitable_fields(d))
        for k in range(1, 61):
            D = -k
            from ballquot.qfield import is_squarefree
            if not is_squarefree(D):
                continue
            assert (D in listed) == is_reducible(d, D), (d, D)


def suitable_fields_by_every_f(d):
    """The fields whose discriminant, -f or 4D, has f | d, found by testing
    every f in [3, d]: the reference for suitable_fields, which reads the
    divisors of d instead."""
    from ballquot.qfield import is_squarefree
    out = set()
    for f in range(3, d + 1):
        if d % f == 0:
            if -f % 4 == 1 and is_squarefree(-f):
                out.add(-f)
            elif f % 4 == 0 and is_squarefree(-f // 4) and (-f // 4) % 4 in (2, 3):
                out.add(-f // 4)
    return tuple(sorted(out, key=abs))


def test_suitable_fields_from_divisors_match_the_scan_over_every_f():
    for d in range(3, 1000):
        assert suitable_fields(d) == suitable_fields_by_every_f(d), d


def test_cyclotomic_polynomial():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # product over divisors reconstructs x^n - 1
    for n in (1, 2, 6, 12, 30):
        prod = [1]
        for e in range(1, n + 1):
            if n % e == 0:
                phi_e = cyclotomic_polynomial(e)
                out = [0] * (len(prod) + len(phi_e) - 1)
                for i, x in enumerate(prod):
                    for j, y in enumerate(phi_e):
                        out[i + j] += x * y
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]
