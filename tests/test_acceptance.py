"""Acceptance criteria, one test per criterion.

Every test recomputes its quantity with exact rational arithmetic, compares
at zero tolerance, and prints one PASS/FAIL line (visible with pytest -s or
in captured output).  Stated runtime budgets are asserted with monotonic
clocks.
"""

import time
from fractions import Fraction as F

from ballquot import tables
from ballquot.certificates import CLAIMS, verify_claim
from ballquot.cyclo import euler_phi
from ballquot.reidtai import (DIMENSION_COEFF, c_min_red, case_analysis,
                              enumerate_exceptional_orders, enumerate_small_d,
                              mc, mc_for_field)
from ballquot.qfield import is_squarefree

FIELDS_7 = (-5, -6, -7, -10, -11, -13, -15)


def _report(index, name, ok):
    print(f"ACCEPTANCE {index:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({name}) failed"


def test_criterion_01_cminred_values():
    t0 = time.monotonic()
    expected = {30: F(11, 15), 24: F(5, 6), 20: F(4, 5), 15: F(11, 15),
                14: F(4, 7), 12: F(1, 3), 8: F(1, 4), 7: F(4, 7),
                6: F(0), 4: F(0), 3: F(0)}
    ok = all(c_min_red(d) == want for d, want in expected.items())
    elapsed = time.monotonic() - t0
    _report(1, "c_min_red exact values", ok and elapsed < 5.0)


def test_criterion_02_mc_bounds():
    t0 = time.monotonic()
    ok = all(mc(r) >= 1 for r in range(3, 301) if euler_phi(r) >= 10)
    ok = ok and all(mc(r) >= 1 for r in (9, 16, 18))
    ok = ok and all(
        mc_for_field(r, -k) >= 1
        for r in (9, 16, 18)
        for k in range(1, 1001) if is_squarefree(-k)
    )
    ok = ok and all(mc(r, d_filter=lambda D: D < -3) >= 1
                    for r in (5, 8, 10, 12))
    elapsed = time.monotonic() - t0
    _report(2, "mc(r) >= 1 sweeps", ok and elapsed < 60.0)


def test_criterion_03_exceptional_orders():
    t0 = time.monotonic()
    got = enumerate_exceptional_orders(10 ** 5)
    want = tables.expand_exceptional_families(10 ** 5)
    elapsed = time.monotonic() - t0
    _report(3, "exceptional order enumeration", tuple(got) == tuple(want)
            and elapsed < 30.0)


def test_criterion_04_small_d_list():
    t0 = time.monotonic()
    got = enumerate_small_d(10 ** 4)
    want = tuple(list(range(1, 11)) + [12, 14, 15, 16, 18, 20, 22, 24, 26, 28,
                                       30, 36, 40, 42, 48, 54, 60, 66, 84, 90])
    elapsed = time.monotonic() - t0
    _report(4, "small-order enumeration", tuple(got) == want and elapsed < 5.0)


def test_criterion_05_case_analysis():
    ok = True
    rep = case_analysis("PHI2", 7)
    ok &= rep.per_d_contribution == {1: F(1, 6), 2: F(1, 6), 3: F(1, 3),
                                     4: F(1, 2), 6: F(1, 3)}
    ok &= rep.threshold_desc == "n-1>=6" and rep.threshold_n == 7

    rep = case_analysis("R7_14", 8)
    ok &= rep.per_d_contribution == {1: F(1, 14), 2: F(1, 14), 3: F(3, 7),
                                     4: F(4, 7), 6: F(3, 7), 7: F(4, 7),
                                     14: F(4, 7)}
    ok &= rep.omega_contribution == F(4, 7)
    ok &= rep.threshold_n == 8 and rep.forced

    rep = case_analysis("D_MINUS5", 9)
    ok &= rep.per_d_contribution[20] == F(4, 5)
    ok &= rep.omega_contribution == F(4, 5)

    rep = case_analysis("D_MINUS6", 8)
    ok &= rep.per_d_contribution[24] == F(5, 6)
    ok &= rep.omega_contribution == F(5, 6)

    rep = case_analysis("D_MINUS15", 11)
    ok &= rep.per_d_contribution[15] == F(11, 15)
    ok &= rep.per_d_contribution[30] == F(11, 15)
    ok &= rep.threshold_n == 11 and rep.forced
    _report(5, "case tables and thresholds", bool(ok))


def test_criterion_06_dimension_coefficients():
    want = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 7: 3, 8: 2, 12: 2, 14: 3,
            15: 4, 20: 4, 24: 4, 30: 4}
    _report(6, "dimension-count coefficients", DIMENSION_COEFF == want)


def _rows(cert):
    return {row["label"]: row["value"] for row in cert.computed}


def test_criterion_07_cusp_property_suite():
    # the default |D| window 5..15 sweeps FIELDS_7 and D = -14
    t0 = time.monotonic()
    cert = verify_claim("cusp_suite")
    elapsed = time.monotonic() - t0
    fields = cert.search_bounds["fields"]
    frames = cert.search_bounds["frames_per_field"]
    rows = _rows(cert)
    ok = (cert.passed() and set(FIELDS_7) <= set(fields) and frames == 100
          and rows["failures"] == []
          # ten exact identities per frame, from normalization to the action
          and rows["checks"] == 10 * frames * len(fields))
    _report(7, "cusp property suite", ok and elapsed < 60.0)


def test_criterion_08_sigma_oracle():
    cert = verify_claim("sigma_oracle")
    fields = cert.search_bounds["fields"]
    rows = _rows(cert)
    ok = (cert.passed() and set(FIELDS_7) <= set(fields)
          and rows["failures"] == []
          and rows["checks"] == cert.search_bounds["per_field"] * len(fields))
    # both congruence classes of D mod 4 covered with >= 50 samples
    ok &= cert.search_bounds["per_field"] >= 50
    ok &= any(d % 4 == 1 for d in fields) and any(d % 4 in (2, 3) for d in fields)
    _report(8, "sigma generator vs brute force", bool(ok))


def test_criterion_09_boundary_order2_suite():
    cert = verify_claim("boundary_order2")
    rows = _rows(cert)
    ok = (cert.passed() and set(FIELDS_7) <= set(cert.search_bounds["fields"])
          and rows["failures"] == [] and rows["elements"] >= 100)
    _report(9, "boundary 2-torsion suite", bool(ok))


def test_criterion_10_negative_controls(capsys):
    # --perturb judges each claim's one computation against a perturbed
    # expected value; every certificate must FAIL and the command line
    # surfaces that as exit code 1.  Every perturbed slot of every claim is
    # judged in test_golden_report.py.
    import ballquot.cli as cli
    code = cli.main(["run", "--perturb", "--d-range", "5", "6"])
    out = capsys.readouterr().out
    verdicts = {line.split()[1].rstrip(":"): line.split()[2]
                for line in out.splitlines() if line.startswith("claim ")}
    ok = code == 1 and verdicts == {claim_id: "FAIL" for claim_id in CLAIMS}
    ok &= len(verdicts) == 15
    code = cli.main(["run", "--claims", "cminred_table", "--perturb",
                     "--out", "/dev/null"])
    ok &= code == 1
    _report(10, "negative controls flip to FAIL", bool(ok))
