"""Fractional-part sums over root-of-unity eigenvalues and their exact minima.

The singularity test for a finite-order linear map sums the fractional parts
a_i/m of its eigenvalue exponents; a sum >= 1 for every non-quasi-reflection
certifies canonical quotient singularities.  All quantities here are exact
rationals.  The search spaces (unit orbits, shift parameters, admissible
splitting fields) are finite, and every minimization returns its witness.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .cyclo import (OrbitSet, full_orbit, is_reducible, kronecker, orbit_sets,
                    phi_sieve, suitable_fields, units_mod)
from .qfield import _Frozen

DFilter = Optional[Callable[[int], bool]]

# dimension over Q(sqrt(D)) contributed per copy of the order-d irreducible:
# phi(d) when the cyclotomic polynomial stays irreducible for the relevant
# fields, phi(d)/2 when it splits.
DIMENSION_COEFF: Dict[int, int] = {
    1: 1, 2: 1, 3: 2, 4: 2, 6: 2,
    7: 3, 8: 2, 12: 2, 14: 3, 15: 4, 20: 4, 24: 4, 30: 4,
}


class EigenSystem(_Frozen):
    """Order m and exponent multiset of the eigenvalues zeta_m^{a_i}."""

    _fields = ("order", "exponents")

    def __init__(self, order: int, exponents: tuple):
        self.__dict__.update(order=order, exponents=exponents)
        if self.order < 1:
            raise ValueError("order must be positive")
        if not self.exponents:
            raise ValueError("eigen system needs at least one exponent")
        object.__setattr__(
            self, "exponents", tuple(a % self.order for a in self.exponents)
        )


def reid_tai_sum(es: EigenSystem) -> Fraction:
    """Sum of the fractional parts a_i/m."""
    return Fraction(sum(es.exponents), es.order)


def is_quasi_reflection(es: EigenSystem) -> bool:
    """Exactly one eigenvalue differs from 1."""
    return sum(1 for a in es.exponents if a != 0) == 1


# ---------------------------------------------------------------------------
# orbit minimizations


def _orbit_sum_at(members, k1: int, r: int) -> Fraction:
    """Sum over the orbit, excluding k1, of {(k - k1)/r} (integer spine)."""
    return Fraction(sum((k - k1) % r for k in members if k != k1), r)


def orbit_minimum(orbit: OrbitSet) -> Tuple[int, int]:
    """Least sum over k in the orbit of (k - k1) mod r, over k1 in the orbit
    of order r, with the first k1 that reaches it; the orbit minimum is that
    sum over r.

    For the sorted members with sum S, exactly the terms of k < k1 wrap past
    r, so the sum at the i-th member k1 is S - |A| * k1 + r * i.
    """
    r, members = orbit.d, orbit.members
    s, n = sum(members), len(members)
    best = None
    for i, k1 in enumerate(members):
        total = s - n * k1 + r * i
        if best is None or total < best[0]:
            best = (total, k1)
    return best


def admissible_orbits(r: int, d_filter: DFilter = None):
    """Split orbits of every suitable field that passes the filter, plus the
    full orbit (which covers fields where no splitting happens)."""
    if r < 3:
        raise ValueError("orbit minimization needs r >= 3")
    orbits = []
    for d_tag in suitable_fields(r):
        if d_filter is not None and not d_filter(d_tag):
            continue
        orbits.extend(orbit_sets(r, d_tag))
    orbits.append(full_orbit(r))
    return orbits


class MinWitness(NamedTuple):
    value: Fraction
    orbit_label: str
    d_field: Optional[int]
    k1: int


def mc_with_witness(r: int, d_filter: DFilter = None) -> MinWitness:
    best = None
    for orbit in admissible_orbits(r, d_filter):
        total, k1 = orbit_minimum(orbit)
        if best is None or total < best[0]:
            best = (total, orbit, k1)
    total, orbit, k1 = best
    return MinWitness(Fraction(total, r), orbit.label, orbit.d_field, k1)


def mc(r: int, d_filter: DFilter = None) -> Fraction:
    """Minimal orbit contribution: over admissible orbits A and k1 in A, the
    sum over k in A - {k1} of {(r - k1 + k)/r}."""
    return mc_with_witness(r, d_filter).value


@lru_cache(maxsize=None)
def mc_unsplit(r: int) -> Fraction:
    """The full-orbit minimum of order r: the orbit contribution over every
    field where the r-th cyclotomic polynomial stays irreducible.  It does
    not depend on the field, so it is computed once per order."""
    return Fraction(orbit_minimum(full_orbit(r))[0], r)


def mc_for_field(r: int, d_tag: int) -> Fraction:
    """Same minimum with the orbit structure forced by one specific field:
    the two split orbits if (r, D) splits, the full orbit otherwise."""
    if r < 3:
        raise ValueError("orbit minimization needs r >= 3")
    if is_reducible(r, d_tag):
        return Fraction(min(orbit_minimum(orbit)[0]
                            for orbit in orbit_sets(r, d_tag)), r)
    return mc_unsplit(r)


def mc_literal_reading(r: int) -> Fraction:
    """Alternative quantifier reading: the conjugate exponent k2 ranges over
    the orbit and the summation set is cut out by the Kronecker side
    condition.  Kept for comparison; coincides with mc() because the orbit
    family is closed under the conjugation swap."""
    if r < 3:
        raise ValueError("orbit minimization needs r >= 3")
    cands = []
    units = units_mod(r)
    for d_tag in suitable_fields(r):
        side_of = {k: kronecker(d_tag, k) for k in units}
        for orbit in orbit_sets(r, d_tag):
            for k2 in orbit.members:
                k1 = (r - k2) % r
                side = side_of[k1]
                total = sum(
                    (k2 + ki) % r
                    for ki in units
                    if ki != k1 and side_of[ki] == side
                )
                cands.append(Fraction(total, r))
    full = full_orbit(r)
    for k1 in full.members:
        cands.append(_orbit_sum_at(full.members, k1, r))
    return min(cands)


def enumerate_exceptional_orders(limit: int):
    """All r in [3, limit] whose coarse estimate
    sum_{j=1}^{phi(r)/2 - 1} j/r stays below 1."""
    if limit < 3:
        raise ValueError("limit must be at least 3")
    ph = phi_sieve(limit)
    return tuple(
        r for r in range(3, limit + 1)
        if (ph[r] // 2 - 1) * (ph[r] // 2) < 2 * r
    )


def enumerate_small_d(limit: int):
    """All d in [1, limit] with sum_{j=1}^{floor(phi(d)/2)} j/d < 1."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    ph = phi_sieve(limit)
    return tuple(
        d for d in range(1, limit + 1)
        if (ph[d] // 2) * (ph[d] // 2 + 1) < 2 * d
    )


# ---------------------------------------------------------------------------
# shifted unit sums


def _shift_minimum(orbit: OrbitSet) -> Tuple[int, int]:
    """Least sum over the orbit of (b + a) mod d over shifts a in [0, d), with
    the first a that reaches it.

    For members with sum S, exactly those b >= d - a wrap past d, so the sum
    at shift a is S + |B| * a - d * #{b >= d - a}.
    """
    d, members = orbit.d, orbit.members
    s, n = sum(members), len(members)
    best = None
    for a in range(d):
        total = s + n * a - d * (n - bisect_left(members, d - a))
        if best is None or total < best[0]:
            best = (total, a)
    return best


def c_min_red_with_witness(d: int):
    if d < 3:
        raise ValueError("c_min_red expects d >= 3")
    fields = suitable_fields(d)
    if not fields:
        raise ValueError(f"no suitable splitting field for d={d}")
    best = None
    for d_tag in fields:
        for orbit in orbit_sets(d, d_tag):
            total, a = _shift_minimum(orbit)
            if best is None or total < best[0]:
                best = (total, d_tag, orbit.label, a)
    total, d_tag, label, a = best
    return Fraction(total, d), d_tag, label, a


def c_min_red(d: int) -> Fraction:
    """Triple minimum over suitable fields, orbit halves, and shifts."""
    return c_min_red_with_witness(d)[0]


def hom_contribution(d: int, r: int, k1: int, d_tag: Optional[int]) -> Fraction:
    """Minimal eigenvalue-sum contribution of one order-d isotypic block when
    the ambient element acts with exponent k1 of order r.

    If the block splits over Q(sqrt(D)), the minimum over the two Kronecker
    orbits of sum {a/d + k1/r}; otherwise the sum over all units a mod d.
    A given tag is checked at every d, also where no field splits.
    """
    if gcd(k1, r) != 1:
        raise ValueError(f"k1={k1} is not a unit mod r={r}")
    modulus = d * r
    if d_tag is not None and is_reducible(d, d_tag):
        halves = [orbit.members for orbit in orbit_sets(d, d_tag)]
    else:
        halves = [units_mod(d)]
    return Fraction(min(sum((a * r + k1 * d) % modulus for a in half)
                        for half in halves), modulus)


# ---------------------------------------------------------------------------
# the case analysis


PHI2 = "PHI2"
R7_14 = "R7_14"
D_MINUS5 = "D_MINUS5"
D_MINUS6 = "D_MINUS6"
D_MINUS15 = "D_MINUS15"


class _CaseFamily(NamedTuple):
    r_set: Tuple[int, ...]
    d_field: Optional[int]      # splitting field fixed by the case, if any
    allowed_d: Tuple[int, ...]  # isotypic orders kept in the dimension count
    dim_vr: int                 # dimension absorbed by the distinguished piece
    omega_in_threshold: bool    # whether the omega term enters the bound


CASE_FAMILIES: Dict[str, _CaseFamily] = {
    PHI2: _CaseFamily((3, 4, 6), None, (1, 2, 3, 4, 6), 2, False),
    R7_14: _CaseFamily((7, 14), -7, (1, 2, 3, 4, 6, 7, 14), 3, True),
    D_MINUS5: _CaseFamily((15, 20, 24, 30), -5, (1, 2, 3, 4, 6, 20), 4, True),
    D_MINUS6: _CaseFamily((15, 20, 24, 30), -6, (1, 2, 3, 4, 6, 24), 4, True),
    D_MINUS15: _CaseFamily((15, 20, 24, 30), -15, (1, 2, 3, 4, 6, 15, 30), 4, True),
}


class CaseReport(NamedTuple):
    case_id: str
    per_d_contribution: Dict[int, Fraction]
    omega_contribution: Fraction
    threshold_n: int
    threshold_desc: str
    excluded_d_minima: Dict[int, Fraction]


def pooled_contribution(d: int, r_set, d_tag: Optional[int]) -> Fraction:
    """hom_contribution minimized over r in r_set and units k1 mod r."""
    return min(
        hom_contribution(d, r, k1, d_tag)
        for r in r_set
        for k1 in units_mod(r) if k1 != 0
    )


def case_analysis(case_id: str) -> CaseReport:
    """Reproduce one branch of the finite case analysis.

    Returns the per-order contribution minima, the omega term, the smallest
    ambient dimension from which on the total is forced to reach 1, and the
    minima for the orders excluded from the branch (these must all be >= 1
    for the reduction to be valid).
    """
    if case_id not in CASE_FAMILIES:
        raise ValueError(f"unknown case id {case_id!r}")
    fam = CASE_FAMILIES[case_id]
    per_d = {d: pooled_contribution(d, fam.r_set, fam.d_field)
             for d in fam.allowed_d}

    # the distinguished piece itself, minimized over r; a branch that fixes
    # no field has no splitting at its orders, so the full orbit gives it
    omega = min(mc_unsplit(r) if fam.d_field is None
                else mc_for_field(r, fam.d_field) for r in fam.r_set)

    excluded = {}
    for d in DIMENSION_COEFF:
        if d in fam.allowed_d:
            continue
        cands = [pooled_contribution(d, fam.r_set, fam.d_field)]
        if fam.d_field is None:
            # the branch fixes no field; check every splitting field of d
            # compatible with the branch hypothesis D < -3
            if d >= 3:
                for d_tag in suitable_fields(d):
                    if d_tag < -3:
                        cands.append(pooled_contribution(d, fam.r_set, d_tag))
        excluded[d] = min(cands)

    rate = min(per_d[d] / DIMENSION_COEFF[d] for d in per_d)
    base = omega if fam.omega_in_threshold else Fraction(0)
    thr = 1
    while base + (thr + 1 - fam.dim_vr) * rate < 1:
        thr += 1
    desc = f"n-{fam.dim_vr - 1}>={thr + 1 - fam.dim_vr}"
    return CaseReport(
        case_id=case_id,
        per_d_contribution=per_d,
        omega_contribution=omega,
        threshold_n=thr,
        threshold_desc=desc,
        excluded_d_minima=excluded,
    )


# ---------------------------------------------------------------------------
# quasi-reflection bookkeeping


def qr_allowed_patterns(d_tag: int) -> frozenset:
    """The allowed orders of the scaling eigenvalue, which are also those of
    the exceptional eigenvalue, for powers acting as quasi-reflections: the
    orders of the units of the field."""
    if d_tag == -1:
        return frozenset({1, 2, 4})
    if d_tag == -3:
        return frozenset({1, 2, 3, 6})
    # D < -3 and D = -2: the only units are +-1
    return frozenset({1, 2})
