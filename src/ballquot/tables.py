"""Reference values the certificate suite checks against.

These are the published claim values, expanded to explicit data by hand; the
certificate runners recompute everything from scratch and compare.  One entry
of the prime-power family is corrected: a bare prime p is exceptional exactly
for p <= 11 (the displayed estimate gives 10/11 < 1 at p = 11), see the
matching certificate.
"""

from __future__ import annotations

from fractions import Fraction

F = Fraction

# worst cases of the >=1 orbit-minimum sweeps at their canonical bounds
MC_PHI10_MIN = F(14, 11)        # attained at r = 11, over every bound in [11, 1000]
MC_9_16_18_MIN = F(1)           # attained at r = 9 and r = 18
MC_PHI4_RESTRICTED_MIN = F(6, 5)  # attained at r = 5 and r = 10
OMEGA_UNSPLIT_MIN = F(15, 7)    # full orbits of r = 7, 14, 15, 20, 24, 30: at r = 7 and 14

# exact shifted-orbit minima for the reducible orders
CMINRED_EXPECTED = {
    30: F(11, 15), 24: F(5, 6), 20: F(4, 5), 15: F(11, 15), 14: F(4, 7),
    12: F(1, 3), 8: F(1, 4), 7: F(4, 7), 6: F(0), 4: F(0), 3: F(0),
}

# orders below which the coarse orbit estimate can fail to reach 1
SMALL_D_EXPECTED = tuple(list(range(1, 11)) + [
    12, 14, 15, 16, 18, 20, 22, 24, 26, 28, 30,
    36, 40, 42, 48, 54, 60, 66, 84, 90,
])


def expand_exceptional_families(limit: int):
    """Explicit union of the three exceptional-order families up to limit.

    Family 1: 2^a * p^b * q; family 2: p^a * q^b; family 3: p^a.  The p^a
    family uses p <= 11 for a = 1.
    """
    fam = set()
    # 2^a * 3 * q, a < 3, q < 11
    fam |= {2 ** a * 3 * q for a in (1, 2) for q in (5, 7)}
    fam |= {2 * 3 * 11, 2 * 3 * 13, 2 * 9 * 5, 2 * 5 * 7}
    # p^a * q^b rows
    fam |= {2 * q for q in (3, 5, 7, 11, 13, 17, 19)}
    fam |= {3 * 5, 3 * 7}
    fam |= {4 * q for q in (3, 5, 7)}
    fam |= {4 * 9, 8 * 9}
    fam |= {2 * 25}
    fam |= {8 * 3, 8 * 5}
    fam |= {16 * 3}
    fam |= {9 * 2, 27 * 2}
    # p^a rows
    fam |= {2, 3, 5, 7, 11}
    fam |= {9}
    fam |= {2 ** a for a in range(1, 6)}
    return tuple(sorted(r for r in fam if 3 <= r <= limit))


# per-case contribution tables, distinguished-piece terms, and the smallest
# ambient dimension at which the total is forced to reach 1
CASE_EXPECTED = {
    "PHI2": {
        "per_d": {1: F(1, 6), 2: F(1, 6), 3: F(1, 3), 4: F(1, 2), 6: F(1, 3)},
        "omega": F(1, 3),
        "threshold_n": 7,
        "threshold_desc": "n-1>=6",
    },
    "R7_14": {
        "per_d": {1: F(1, 14), 2: F(1, 14), 3: F(3, 7), 4: F(4, 7),
                  6: F(3, 7), 7: F(4, 7), 14: F(4, 7)},
        "omega": F(4, 7),
        "threshold_n": 8,
        "threshold_desc": "n-2>=6",
    },
    "D_MINUS5": {
        "per_d": {1: F(1, 30), 2: F(1, 30), 3: F(5, 12), 4: F(8, 15),
                  6: F(5, 12), 20: F(4, 5)},
        "omega": F(4, 5),
        "threshold_n": 9,
        "threshold_desc": "n-3>=6",
    },
    "D_MINUS6": {
        "per_d": {1: F(1, 30), 2: F(1, 30), 3: F(5, 12), 4: F(8, 15),
                  6: F(5, 12), 24: F(5, 6)},
        "omega": F(5, 6),
        "threshold_n": 8,
        "threshold_desc": "n-3>=5",
    },
    "D_MINUS15": {
        "per_d": {1: F(1, 30), 2: F(1, 30), 3: F(5, 12), 4: F(8, 15),
                  6: F(5, 12), 15: F(11, 15), 30: F(11, 15)},
        "omega": F(11, 15),
        "threshold_n": 11,
        "threshold_desc": "n-3>=8",
    },
}

DIMENSION_COEFF_EXPECTED = {
    1: 1, 2: 1, 3: 2, 4: 2, 6: 2,
    7: 3, 8: 2, 12: 2, 14: 3, 15: 4, 20: 4, 24: 4, 30: 4,
}

# allowed orders of the scaling eigenvalue / exceptional eigenvalue for
# powers acting as quasi-reflections, keyed by field class
QR_PATTERNS_EXPECTED = {
    -1: frozenset({1, 2, 4}),
    -3: frozenset({1, 2, 3, 6}),
    -2: frozenset({1, 2}),
    "generic": frozenset({1, 2}),  # any D < -3
}
