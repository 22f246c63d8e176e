import random
from fractions import Fraction as F
from math import gcd

import pytest

from ballquot import reidtai
from ballquot.certificates import verify_claim
from ballquot.cyclo import (FULL, OrbitSet, euler_phi, full_orbit, kronecker,
                            orbit_sets, suitable_fields, units_mod)
from ballquot.qfield import is_squarefree
from ballquot.reidtai import (CASE_FAMILIES, DIMENSION_COEFF, EigenSystem,
                              MinWitness, _orbit_sum_at, admissible_orbits,
                              c_min_red, c_min_red_with_witness,
                              case_analysis, enumerate_exceptional_orders,
                              enumerate_small_d, hom_contribution,
                              is_quasi_reflection, mc, mc_for_field,
                              mc_literal_reading, mc_with_witness,
                              orbit_minimum,
                              pooled_contribution, qr_allowed_patterns,
                              reid_tai_sum)


# ---------------------------------------------------------------------------
# the plain sum

def test_reid_tai_sum_examples():
    assert reid_tai_sum(EigenSystem(4, (1, 2, 3))) == F(3, 2)
    assert reid_tai_sum(EigenSystem(1, (0, 0, 0))) == 0
    assert reid_tai_sum(EigenSystem(2, (1, 1) + (0,) * 9)) == 1


def test_reid_tai_sum_invariances():
    rng = random.Random(0)
    for _ in range(100):
        m = rng.randint(1, 24)
        exps = tuple(rng.randrange(m) for _ in range(rng.randint(1, 6)))
        es = EigenSystem(m, exps)
        shuffled = list(exps)
        rng.shuffle(shuffled)
        assert reid_tai_sum(EigenSystem(m, tuple(shuffled))) == reid_tai_sum(es)
        c = rng.randint(1, 5)
        assert reid_tai_sum(EigenSystem(c * m, tuple(c * a for a in exps))) \
            == reid_tai_sum(es)
        inverse = EigenSystem(m, tuple((-a) % m for a in exps))
        nonzero = sum(1 for a in exps if a % m != 0)
        assert reid_tai_sum(es) + reid_tai_sum(inverse) == nonzero


def test_is_quasi_reflection():
    assert is_quasi_reflection(EigenSystem(2, (1, 0, 0)))
    assert not is_quasi_reflection(EigenSystem(2, (1, 1, 0)))
    assert is_quasi_reflection(EigenSystem(2, (1,) + (0,) * 10))
    assert not is_quasi_reflection(EigenSystem(4, (0, 0)))


# ---------------------------------------------------------------------------
# mc

def brute_mc(r, d_filter=None):
    """Direct Fraction-arithmetic evaluation of the orbit minimum."""
    cands = []
    orbit_families = []
    for D in suitable_fields(r):
        if d_filter is None or d_filter(D):
            orbit_families.extend(o.members for o in orbit_sets(r, D))
    orbit_families.append(units_mod(r))
    for members in orbit_families:
        for k1 in members:
            k2 = r - k1
            total = sum(F(k2 + k, r) % 1 for k in members if k != k1)
            cands.append(total)
    return min(cands)


def test_mc_remark_orders():
    assert mc(9) >= 1
    assert mc(16) >= 1
    assert mc(18) >= 1
    assert mc(9) == brute_mc(9) == 1
    assert mc(16) == brute_mc(16) == F(5, 4)
    assert mc(18) == brute_mc(18) == 1


def test_mc_phi4_with_filter():
    flt = lambda D: D < -3
    assert mc(5, flt) == brute_mc(5, flt) == F(6, 5)
    for r in (5, 8, 10, 12):
        assert euler_phi(r) == 4
        assert mc(r, flt) >= 1


def test_mc_against_brute_force():
    for r in range(3, 40):
        assert mc(r) == brute_mc(r), r


def test_mc_full_orbit_dominates_split():
    # the full-orbit sum at k1 is at least the split-orbit sum at the same k1
    for r in (7, 8, 9, 12, 15, 16, 18, 20, 24, 30):
        full = units_mod(r)
        for D in suitable_fields(r):
            for orbit in orbit_sets(r, D):
                for k1 in orbit.members:
                    split_sum = sum(F(k - k1, r) % 1
                                    for k in orbit.members if k != k1)
                    full_sum = sum(F(k - k1, r) % 1
                                   for k in full if k != k1)
                    assert split_sum <= full_sum


def test_mc_literal_reading_agrees():
    for r in range(3, 60):
        assert mc(r) == mc_literal_reading(r), r


def test_mc_rejects_small_r():
    with pytest.raises(ValueError):
        mc(2)


def test_mc_for_field():
    # splitting field forces the half orbits, others the full orbit
    assert mc_for_field(8, -2) == F(1, 4)
    assert mc_for_field(8, -5) == F(3, 2)
    assert mc_for_field(9, -3) == 1
    assert mc_for_field(7, -7) == F(4, 7)


# quadratic minima by direct sums: the oracles for the closed forms of
# orbit_minimum and of the shift minimum in c_min_red

def quadratic_orbit_minimum(members, r):
    """The least _orbit_sum_at over the orbit, and the first k1 reaching it."""
    best = None
    for k1 in members:
        v = _orbit_sum_at(members, k1, r)
        if best is None or v < best[0]:
            best = (v, k1)
    return best


def quadratic_mc_with_witness(r, d_filter=None):
    best = None
    for orbit in admissible_orbits(r, d_filter):
        v, k1 = quadratic_orbit_minimum(orbit.members, r)
        if best is None or v < best.value:
            best = MinWitness(v, orbit.label, orbit.d_field, k1)
    return best


def quadratic_c_min_red_with_witness(d):
    best = None
    for d_tag in suitable_fields(d):
        for orbit in orbit_sets(d, d_tag):
            for a in range(d):
                v = F(sum((b + a) % d for b in orbit.members), d)
                if best is None or v < best[0]:
                    best = (v, d_tag, orbit.label, a)
    return best


def linear_orbit_minimum(members, r):
    total, k1 = orbit_minimum(OrbitSet(r, tuple(members), FULL, None))
    return F(total, r), k1


def test_orbit_minimum_matches_quadratic_on_unit_subsets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def unit_subsets(draw):
        r = draw(st.integers(3, 300))
        units = [a for a in range(1, r) if gcd(a, r) == 1]
        return r, sorted(draw(st.sets(st.sampled_from(units), min_size=1)))

    @hypothesis.given(unit_subsets())
    # ties: every k1 of {1, 3} mod 4 and of the units mod 8 is a minimum
    @hypothesis.example((4, [1, 3]))
    @hypothesis.example((8, [1, 3, 5, 7]))
    @hypothesis.example((12, [1, 5]))
    def check(case):
        r, members = case
        assert linear_orbit_minimum(members, r) == quadratic_orbit_minimum(members, r)

    check()


def test_orbit_minimum_matches_quadratic_on_real_orbits():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.integers(3, 400))
    def check(r):
        for orbit in admissible_orbits(r):
            assert (linear_orbit_minimum(orbit.members, r)
                    == quadratic_orbit_minimum(orbit.members, r)), (r, orbit)

    check()
    # and exhaustively for small r, where ties are common: the witness is
    # the first of several minima
    ties = 0
    for r in range(3, 100):
        for orbit in admissible_orbits(r):
            value, k1 = quadratic_orbit_minimum(orbit.members, r)
            ties += sum(_orbit_sum_at(orbit.members, k, r) == value
                        for k in orbit.members) > 1
            assert linear_orbit_minimum(orbit.members, r) == (value, k1)
    assert ties > 50


def test_mc_witness_matches_quadratic():
    # first minimum: first orbit in admissible_orbits order, then first k1
    for r in range(3, 200):
        assert mc_with_witness(r) == quadratic_mc_with_witness(r), r
    flt = lambda D: D < -3
    for r in range(3, 100):
        assert mc_with_witness(r, flt) == quadratic_mc_with_witness(r, flt), r


def test_mc_for_field_matches_quadratic():
    for r in (7, 8, 9, 12, 15, 16, 18, 20, 24, 30):
        for D in (-1, -2, -3, -5, -6, -7, -15, -21):
            orbits = (orbit_sets(r, D) if D in suitable_fields(r)
                      else (full_orbit(r),))
            want = min(quadratic_orbit_minimum(o.members, r)[0] for o in orbits)
            assert mc_for_field(r, D) == want, (r, D)


# orders of the mc_r_9_16_18 and omega_unsplit claims and of the case tables
UNSPLIT_ORDERS = (9, 16, 18, 7, 14, 15, 20, 24, 30)


def fresh_full_orbit_minimum(r):
    """The full-orbit minimum built from scratch, through no cache."""
    return F(orbit_minimum(full_orbit(r))[0], r)


@pytest.fixture
def cold_mc_unsplit():
    reidtai.mc_unsplit.cache_clear()
    yield
    reidtai.mc_unsplit.cache_clear()


def test_mc_for_field_unsplit_is_one_minimum_per_order(cold_mc_unsplit):
    # fields outer and orders inner, so that a value kept per field, or
    # kept from the previous order, shows as a wrong minimum
    fields = [-k for k in range(1, 400) if is_squarefree(-k)] + [-2999, -2995]
    seen = 0
    for D in fields:
        for r in UNSPLIT_ORDERS:
            if D in suitable_fields(r):
                continue
            assert mc_for_field(r, D) == fresh_full_orbit_minimum(r), (r, D)
            seen += 1
    assert seen > 100 * len(UNSPLIT_ORDERS)
    info = reidtai.mc_unsplit.cache_info()
    assert (info.currsize, info.misses) == (len(UNSPLIT_ORDERS),) * 2


def test_split_keys_go_through_orbit_sets(monkeypatch, cold_mc_unsplit):
    calls = []
    true_orbit_sets = reidtai.orbit_sets

    def counted(d, d_tag):
        calls.append((d, d_tag))
        return true_orbit_sets(d, d_tag)

    monkeypatch.setattr(reidtai, "orbit_sets", counted)
    split = [(r, D) for r in UNSPLIT_ORDERS for D in suitable_fields(r)]
    for r, D in split:
        halves = true_orbit_sets(r, D)
        want = min(quadratic_orbit_minimum(o.members, r)[0] for o in halves)
        assert mc_for_field(r, D) == want, (r, D)
    assert calls == split
    assert reidtai.mc_unsplit.cache_info().currsize == 0
    calls.clear()
    assert mc_for_field(9, -5) == fresh_full_orbit_minimum(9)
    assert calls == []


def test_omega_unsplit_reads_mc_unsplit(monkeypatch):
    cert = verify_claim("omega_unsplit")
    assert cert.passed()
    assert [row["value"] for row in cert.computed] == [
        fresh_full_orbit_minimum(r) for r in (7, 14, 15, 20, 24, 30)]
    monkeypatch.setattr(reidtai, "mc_unsplit", lambda r: F(r, 1000))
    cert = verify_claim("omega_unsplit")
    assert not cert.passed()
    assert [row["value"] for row in cert.computed] == [
        F(r, 1000) for r in (7, 14, 15, 20, 24, 30)]


def test_c_min_red_witness_matches_quadratic():
    for d in range(3, 150):
        if not suitable_fields(d):
            continue
        assert c_min_red_with_witness(d) == quadratic_c_min_red_with_witness(d), d


# ---------------------------------------------------------------------------
# enumerations

def test_enumerate_exceptional_orders():
    got = enumerate_exceptional_orders(200)
    # independent evaluation through the Fraction sum
    brute = tuple(r for r in range(3, 201)
                  if sum(F(j, r) for j in range(1, euler_phi(r) // 2)) < 1)
    assert got == brute
    assert 78 in got            # 2 * 3 * 13
    assert 32 in got            # 2^5
    assert 11 in got            # the p <= 11 prime-row boundary case
    assert 120 not in got       # bound is exactly 1
    assert 13 not in got


def test_enumerate_small_d():
    got = enumerate_small_d(200)
    brute = tuple(d for d in range(1, 201)
                  if sum(F(j, d) for j in range(1, euler_phi(d) // 2 + 1)) < 1)
    assert got == brute
    assert 66 in got
    assert 70 not in got
    assert 90 in got
    assert all(d <= 90 for d in got)


# ---------------------------------------------------------------------------
# shifted minima

def quadratic_c_min(d):
    """The shifted full unit sum minimized over every shift directly."""
    units = [b for b in range(1, d) if gcd(b, d) == 1]
    if not units:
        return F(0)
    return F(min(sum((b + a) % d for b in units) for a in range(d)), d)


def test_c_min_red_table():
    expected = {30: F(11, 15), 24: F(5, 6), 20: F(4, 5), 15: F(11, 15),
                14: F(4, 7), 12: F(1, 3), 8: F(1, 4), 7: F(4, 7),
                6: F(0), 4: F(0), 3: F(0)}
    for d, want in expected.items():
        assert c_min_red(d) == want, d


def test_c_min_red_witness_cross_check():
    value, d_tag, label, shift = c_min_red_with_witness(12)
    assert value == F(1, 3)
    assert (d_tag, label, shift) == (-1, "PLUS", 11)
    # recompute the witness sum directly
    plus, _ = orbit_sets(12, -1)
    assert sum(F(b + 11, 12) % 1 for b in plus.members) == F(1, 3)


def test_c_min_red_requires_suitable_field():
    with pytest.raises(ValueError):
        c_min_red(5)


def test_c_min_red_below_c_min():
    for d in (3, 4, 6, 7, 8, 12, 14, 15, 20, 24, 30):
        assert c_min_red(d) <= quadratic_c_min(d)


# ---------------------------------------------------------------------------
# hom contributions and case analysis

def test_hom_contribution_examples():
    # minimum over r in {3, 4, 6} and units k1 of the d = 4 block
    case1_d4 = min(hom_contribution(4, r, k1, None)
                   for r in (3, 4, 6) for k1 in units_mod(r))
    assert case1_d4 == F(1, 2)
    assert hom_contribution(4, 4, 1, None) == F(1, 2)
    # d = 3 block over the split field of order 7
    case2_d3 = min(hom_contribution(3, r, k1, -7)
                   for r in (7, 14) for k1 in units_mod(r))
    assert case2_d3 == F(3, 7)
    assert hom_contribution(3, 7, 5, -7) == F(3, 7)
    # d = 20 block over its own splitting field
    assert hom_contribution(20, 20, 19, -5) == F(4, 5)
    case3_d20 = min(hom_contribution(20, r, k1, -5)
                    for r in (15, 20, 24, 30) for k1 in units_mod(r))
    assert case3_d20 == F(4, 5)


def test_hom_contribution_direct_formula():
    # spot check against the literal Fraction expression
    rng = random.Random(1)
    for _ in range(50):
        d = rng.choice((1, 2, 3, 4, 6, 7, 8, 12))
        r = rng.choice((3, 4, 6, 7, 14, 20))
        k1 = rng.choice([k for k in units_mod(r)])
        direct = sum((F(a, d) + F(k1, r)) % 1 for a in units_mod(d))
        assert hom_contribution(d, r, k1, None) == direct


def test_hom_contribution_split_matches_kronecker_halves():
    # the halves cut out directly by the Kronecker symbol, as the oracle for
    # the PLUS/MINUS members that hom_contribution reads from orbit_sets
    for d in (3, 4, 7, 8, 12, 14, 15, 20, 24, 30):
        for D in suitable_fields(d):
            for r in (3, 4, 6, 7, 14, 15, 20, 24, 30):
                for k1 in units_mod(r):
                    want = min(
                        sum((F(a, d) + F(k1, r)) % 1 for a in units_mod(d)
                            if kronecker(D, a) == alpha)
                        for alpha in (1, -1))
                    assert hom_contribution(d, r, k1, D) == want, (d, D, r, k1)


def test_hom_contribution_unit_check():
    with pytest.raises(ValueError):
        hom_contribution(4, 6, 2, None)


def test_hom_contribution_checks_the_tag_at_orders_that_never_split(cold_scan_caches):
    # no field splits d = 1 or 2, yet a tag given with them is refused as
    # at d >= 3, whether or not the valid tag -3 ran first
    for warm in (False, True):
        for d in (1, 2):
            if warm:
                assert hom_contribution(d, 4, 1, -3) == hom_contribution(d, 4, 1, None)
            for bad in (-3.0, F(-3), 5):
                with pytest.raises(ValueError):
                    hom_contribution(d, 4, 1, bad)


def test_dimension_coefficients_first_principles():
    for d, coeff in DIMENSION_COEFF.items():
        phi = euler_phi(d)
        assert coeff == (phi if phi <= 2 else phi // 2)


def test_case_analysis_tables():
    # a threshold n means the total is forced to reach 1 from n on, not below
    rep1 = case_analysis("PHI2")
    assert rep1.per_d_contribution == {1: F(1, 6), 2: F(1, 6), 3: F(1, 3),
                                       4: F(1, 2), 6: F(1, 3)}
    assert rep1.threshold_n == 7
    assert rep1.threshold_desc == "n-1>=6"

    rep2 = case_analysis("R7_14")
    assert rep2.per_d_contribution == {1: F(1, 14), 2: F(1, 14), 3: F(3, 7),
                                       4: F(4, 7), 6: F(3, 7), 7: F(4, 7),
                                       14: F(4, 7)}
    assert rep2.omega_contribution == F(4, 7)
    assert rep2.threshold_n == 8

    rep3a = case_analysis("D_MINUS5")
    assert rep3a.per_d_contribution[20] == F(4, 5)
    assert rep3a.omega_contribution == F(4, 5)
    assert rep3a.threshold_n == 9

    rep3b = case_analysis("D_MINUS6")
    assert rep3b.per_d_contribution[24] == F(5, 6)
    assert rep3b.omega_contribution == F(5, 6)
    assert rep3b.threshold_n == 8

    rep3c = case_analysis("D_MINUS15")
    assert rep3c.per_d_contribution[15] == F(11, 15)
    assert rep3c.per_d_contribution[30] == F(11, 15)
    assert rep3c.omega_contribution == F(11, 15)
    assert rep3c.threshold_n == 11


def test_case_analysis_excluded_d():
    for case_id in CASE_FAMILIES:
        rep = case_analysis(case_id)
        assert rep.excluded_d_minima, case_id
        for d, value in rep.excluded_d_minima.items():
            assert value >= 1, (case_id, d)


def test_case_analysis_unknown_case():
    with pytest.raises(ValueError):
        case_analysis("PHI3")


def test_pooled_contribution_matches_manual_min():
    manual = min(hom_contribution(1, r, k1, -7)
                 for r in (7, 14) for k1 in units_mod(r))
    assert pooled_contribution(1, (7, 14), -7) == manual == F(1, 14)


# ---------------------------------------------------------------------------
# quasi-reflection patterns

def test_qr_allowed_patterns():
    assert qr_allowed_patterns(-5) == frozenset({1, 2})
    assert qr_allowed_patterns(-2) == frozenset({1, 2})
    assert qr_allowed_patterns(-1) == frozenset({1, 2, 4})
    assert qr_allowed_patterns(-3) == frozenset({1, 2, 3, 6})
