"""Acceptance criteria, one test per criterion.

Every test recomputes its quantity with exact rational arithmetic, compares
at zero tolerance, and prints one PASS/FAIL line (visible with pytest -s or
in captured output).  Stated runtime budgets are asserted with monotonic
clocks.
"""

import time
from fractions import Fraction as F

from ballquot.certificates import CLAIMS, verify_claim

FIELDS_7 = (-5, -6, -7, -10, -11, -13, -15)


def _report(index, name, ok):
    print(f"ACCEPTANCE {index:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({name}) failed"


# Criteria 01-06 run the registered claims and judge them against the
# published values written out here, not against ballquot.tables.


def test_criterion_01_cminred_values():
    t0 = time.monotonic()
    expected = {30: F(11, 15), 24: F(5, 6), 20: F(4, 5), 15: F(11, 15),
                14: F(4, 7), 12: F(1, 3), 8: F(1, 4), 7: F(4, 7),
                6: F(0), 4: F(0), 3: F(0)}
    cert = verify_claim("cminred_table", expected=expected)
    elapsed = time.monotonic() - t0
    ok = cert.passed() and cert.search_bounds["d_values"] == sorted(expected)
    _report(1, "c_min_red exact values", ok and elapsed < 5.0)


def test_criterion_02_mc_bounds():
    # each sweep checks mc(r) >= 1 at every r and field it visits, and its
    # minimum against the recorded worst case
    t0 = time.monotonic()
    cert = verify_claim("mc_ge_1_phi10", expected={"min_value": F(14, 11)})
    ok = cert.passed() and cert.search_bounds == {"r_limit": 300, "phi_min": 10}
    cert = verify_claim("mc_r_9_16_18", expected={"min_value": F(1)})
    ok = ok and cert.passed() and cert.search_bounds == {
        "r_set": [9, 16, 18], "d_abs_limit": 1000}
    cert = verify_claim("mc_phi4_restricted", expected={"min_value": F(6, 5)})
    ok = ok and cert.passed() and cert.search_bounds == {"r_set": [5, 8, 10, 12]}
    elapsed = time.monotonic() - t0
    _report(2, "mc(r) >= 1 sweeps", ok and elapsed < 60.0)


def test_criterion_03_exceptional_orders():
    t0 = time.monotonic()
    # the three exceptional families of the paper, expanded up to 10^5
    want = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 18, 20, 21, 22, 24,
            26, 28, 30, 32, 34, 36, 38, 40, 42, 48, 50, 54, 60, 66, 70, 72, 78,
            84, 90)
    cert = verify_claim("exceptional_orders", expected=want)
    elapsed = time.monotonic() - t0
    _report(3, "exceptional order enumeration",
            cert.passed() and cert.search_bounds == {"limit": 10 ** 5}
            and elapsed < 30.0)


def test_criterion_04_small_d_list():
    t0 = time.monotonic()
    want = tuple(list(range(1, 11)) + [12, 14, 15, 16, 18, 20, 22, 24, 26, 28,
                                       30, 36, 40, 42, 48, 54, 60, 66, 84, 90])
    cert = verify_claim("small_d_list", expected=want)
    elapsed = time.monotonic() - t0
    _report(4, "small-order enumeration",
            cert.passed() and cert.search_bounds == {"limit": 10 ** 4}
            and elapsed < 5.0)


def test_criterion_05_case_analysis():
    # every case's tables and threshold are computed, and the claim also
    # asks that the excluded d contribute >= 1
    common = {1: F(1, 30), 2: F(1, 30), 3: F(5, 12), 4: F(8, 15), 6: F(5, 12)}
    expected = {
        "PHI2": {"per_d": {1: F(1, 6), 2: F(1, 6), 3: F(1, 3), 4: F(1, 2),
                           6: F(1, 3)},
                 "omega": F(1, 3), "threshold_n": 7, "threshold_desc": "n-1>=6"},
        "R7_14": {"per_d": {1: F(1, 14), 2: F(1, 14), 3: F(3, 7), 4: F(4, 7),
                            6: F(3, 7), 7: F(4, 7), 14: F(4, 7)},
                  "omega": F(4, 7), "threshold_n": 8, "threshold_desc": "n-2>=6"},
        "D_MINUS5": {"per_d": {**common, 20: F(4, 5)},
                     "omega": F(4, 5), "threshold_n": 9, "threshold_desc": "n-3>=6"},
        "D_MINUS6": {"per_d": {**common, 24: F(5, 6)},
                     "omega": F(5, 6), "threshold_n": 8, "threshold_desc": "n-3>=5"},
        "D_MINUS15": {"per_d": {**common, 15: F(11, 15), 30: F(11, 15)},
                      "omega": F(11, 15), "threshold_n": 11,
                      "threshold_desc": "n-3>=8"},
    }
    cert = verify_claim("case_tables", expected=expected)
    _report(5, "case tables and thresholds", cert.passed())


def test_criterion_06_dimension_coefficients():
    want = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 7: 3, 8: 2, 12: 2, 14: 3,
            15: 4, 20: 4, 24: 4, 30: 4}
    cert = verify_claim("dimension_coefficients", expected=want)
    _report(6, "dimension-count coefficients", cert.passed())


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
