import dataclasses
import json
from fractions import Fraction as F

import pytest

import ballquot.cli as cli
from ballquot.certificates import (CLAIMS, RunConfig, UnknownClaimError,
                                   claim_config, list_expected_slots, perturb_at,
                                   perturb_value, run_claims, select_claims,
                                   verify_claim)
from ballquot.cyclo import InternalCheckError


def test_select_claims():
    assert select_claims(("all",)) == sorted(CLAIMS)
    assert select_claims(("cminred_table",)) == ["cminred_table"]
    assert select_claims(("mc_*",)) == [
        "mc_ge_1_phi10", "mc_literal_reading", "mc_phi4_restricted",
        "mc_r_9_16_18"]
    assert select_claims(("cminred_table,small_d_list",)) == [
        "cminred_table", "small_d_list"]
    with pytest.raises(UnknownClaimError):
        select_claims(("nonexistent",))
    for empty in ((",",), ("",), ()):
        with pytest.raises(UnknownClaimError):
            select_claims(empty)


def test_verify_claim_api():
    cert = verify_claim("cminred_table")
    assert cert.verdict == "PASS"
    assert cert.claim_id == "cminred_table"
    assert len(cert.computed) == 11
    with pytest.raises(UnknownClaimError):
        verify_claim("unknown_claim")


def test_verify_claim_negative_control():
    import ballquot.tables as tables
    broken = dict(tables.CMINRED_EXPECTED)
    broken[30] = F(11, 15) + F(1, 1000)
    cert = verify_claim("cminred_table", expected=broken)
    assert cert.verdict == "FAIL"
    # --perturb changes the first slot only, in the order of list_expected_slots
    cert = verify_claim("cminred_table", perturb=True)
    assert cert.verdict == "FAIL"
    assert cert.expected == {**tables.CMINRED_EXPECTED, 12: F(1, 3) + F(1, 997)}


def test_compute_steps_read_no_expected_value(monkeypatch):
    """Every claim computes the same with each name of ballquot.tables
    replaced by a dummy, so no compute step reads an expected value."""
    import ballquot.tables as tables
    cfg = RunConfig(d_range=(5, 6))
    computed = {claim_id: claim.run(claim_config(claim, cfg))
                for claim_id, claim in CLAIMS.items()}
    dummies = {
        "MC_PHI10_MIN": F(-1), "MC_9_16_18_MIN": F(-1),
        "MC_PHI4_RESTRICTED_MIN": F(-1), "OMEGA_UNSPLIT_MIN": F(-1),
        "CMINRED_EXPECTED": {5: F(0)},
        "SMALL_D_EXPECTED": (),
        "expand_exceptional_families": lambda limit: (),
        "CASE_EXPECTED": {case_id: {**want, "threshold_n": 1}
                          for case_id, want in tables.CASE_EXPECTED.items()},
        "DIMENSION_COEFF_EXPECTED": {},
        "QR_PATTERNS_EXPECTED": {"generic": frozenset()},
    }
    own = {name for name, value in vars(tables).items()
           if (name.isupper() and value is not F)
           or getattr(value, "__module__", None) == tables.__name__}
    assert own == set(dummies)
    for name, value in dummies.items():
        monkeypatch.setattr(tables, name, value)
    changed = []  # each claim that computes otherwise, or raises, with dummies
    for claim_id, claim in CLAIMS.items():
        try:
            if claim.run(claim_config(claim, cfg)) != computed[claim_id]:
                changed.append(claim_id)
        except Exception as exc:
            changed.append(f"{claim_id}: {exc!r}")
    assert changed == []


def test_perturb_helpers():
    exp = {"a": F(1, 2), "b": (1, 2, 3)}
    slots = list(list_expected_slots(exp))
    assert ("a",) in slots and ("b", 0) in slots
    changed = perturb_at(exp, ("b", 1))
    assert changed["b"] == (1, 3, 3)
    assert changed["a"] == F(1, 2)
    assert perturb_value(F(1, 2)) != F(1, 2)
    assert perturb_value(True) is False


def test_reports_are_deterministic():
    cfg = RunConfig(claims=("cminred_table,small_d_list,qr_patterns",),
                    d_limit=200)
    certs1 = run_claims(cfg)
    certs2 = run_claims(cfg)
    r1 = cli._json_report(certs1, cfg)
    r2 = cli._json_report(certs2, cfg)
    assert r1 == r2
    t1 = cli._text_report(certs1, cfg)
    t2 = cli._text_report(certs2, cfg)
    assert t1 == t2


def test_seeded_sweeps_are_deterministic():
    cfg = RunConfig(claims=("sigma_oracle",), d_range=(5, 6), seed=3)
    r1 = cli._json_report(run_claims(cfg), cfg)
    r2 = cli._json_report(run_claims(cfg), cfg)
    assert r1 == r2


def test_no_floats_in_reports():
    cfg = RunConfig(claims=("cminred_table,case_tables",))
    doc = json.loads(cli._json_report(run_claims(cfg), cfg))

    def walk(x):
        assert not isinstance(x, float), x
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(doc)


# ---------------------------------------------------------------------------
# command line

def test_cli_run_pass(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--claims", "cminred_table", "--format", "json",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert doc["certificates"][0]["claim_id"] == "cminred_table"
    values = {c["label"]: c["value"]
              for c in doc["certificates"][0]["computed"]}
    assert values["c_min_red(30)"] == "11/15"


def test_cli_run_failure_exit_code(capsys):
    code = cli.main(["run", "--claims", "cminred_table", "--perturb"])
    capsys.readouterr()
    assert code == 1


def test_perturb_computes_each_claim_once(monkeypatch, capsys):
    calls = []

    def counted(claim):
        def run(cfg):
            calls.append(claim.claim_id)
            return claim.run(cfg)
        return dataclasses.replace(claim, run=run)

    selected = ("cminred_table", "dimension_coefficients", "qr_patterns")
    for claim_id in selected:
        monkeypatch.setitem(CLAIMS, claim_id, counted(CLAIMS[claim_id]))
    code = cli.main(["run", "--claims", ",".join(selected), "--perturb"])
    assert "3 claims, 0 PASS, 3 FAIL" in capsys.readouterr().out
    assert code == 1
    assert calls == list(selected)


def test_cli_unknown_claim_exit_code(capsys):
    code = cli.main(["run", "--claims", "definitely_not_a_claim"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no claim matches" in err


def test_cli_internal_inconsistency_exit_code(monkeypatch, capsys):
    from ballquot import certificates as certs_mod

    def boom(cfg):
        raise InternalCheckError("forced disagreement")

    monkeypatch.setitem(
        certs_mod.CLAIMS, "cminred_table",
        dataclasses.replace(certs_mod.CLAIMS["cminred_table"], run=boom))
    code = cli.main(["run", "--claims", "cminred_table"])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal inconsistency" in err


def test_cli_list_claims(capsys):
    code = cli.main(["list-claims"])
    out = capsys.readouterr().out
    assert code == 0
    for claim_id in CLAIMS:
        assert claim_id in out


def test_cli_show_tables(capsys):
    code = cli.main(["show-tables"])
    out = capsys.readouterr().out
    assert code == 0
    verdicts = [line for line in out.splitlines() if line.startswith("claim ")]
    assert verdicts == [f"claim {claim_id}: PASS" for claim_id in sorted(cli.TABLE_CLAIMS)]
    assert out.count("  expected = ") == 4
    assert "summary: 4 claims, 4 PASS, 0 FAIL" in out
    # case table renderings: R7_14 sends 7 to 4/7, PHI2 sends 1 to 1/6
    case = {line.split(" = ")[0].strip(): json.loads(line.split(" = ", 1)[1])
            for line in out.splitlines()
            if line.startswith(("  R7_14 = ", "  PHI2 = "))}
    assert case["R7_14"]["per_d"]["7"] == "4/7"
    assert case["PHI2"]["per_d"]["1"] == "1/6"
    # the small-order list ends with 84, 90
    line = next(l for l in out.splitlines()
                if l.startswith("  orders = [1, 2, 3"))
    assert line.rstrip().endswith("84, 90]")
    assert 'c_min_red(30) = "11/15"' in out


def test_cli_show_tables_fails_on_a_perturbed_table(monkeypatch, capsys):
    claim = CLAIMS["cminred_table"]
    monkeypatch.setitem(CLAIMS, "cminred_table", dataclasses.replace(
        claim, expected=lambda cfg: perturb_at(claim.expected(cfg), (30,))))
    code = cli.main(["show-tables"])
    out = capsys.readouterr().out
    assert code == 1
    assert "claim cminred_table: FAIL" in out
    assert '"30": "10982/14955"' in out  # 11/15 + 1/997


def test_qr_patterns_is_judged_by_equality():
    """The claim observes one pattern per field class, as the table keys
    them; a value keyed by field, each with its right orders, differs."""
    import ballquot.tables as tables
    by_class = tables.QR_PATTERNS_EXPECTED
    by_field = {d: by_class.get(d, by_class["generic"])
                for d in (-1, -2, -3, -5, -7, -13)}
    assert verify_claim("qr_patterns", expected=dict(by_class)).passed()
    assert verify_claim("qr_patterns", expected=by_field).verdict == "FAIL"


def test_qr_patterns_fails_when_the_generic_fields_disagree(monkeypatch):
    from ballquot import certificates as certs_mod
    real = certs_mod.qr_allowed_patterns
    monkeypatch.setattr(certs_mod, "qr_allowed_patterns",
                        lambda d: frozenset({1}) if d == -7 else real(d))
    assert verify_claim("qr_patterns").verdict == "FAIL"


def test_cli_text_report_to_stdout(capsys):
    code = cli.main(["run", "--claims", "qr_patterns"])
    out = capsys.readouterr().out
    assert code == 0
    assert "claim qr_patterns: PASS" in out
    assert "summary: 1 claims, 1 PASS, 0 FAIL" in out


def test_cli_passes_only_the_given_options_to_the_run_config(monkeypatch):
    # a bare run builds RunConfig()'s own defaults, which no option repeats
    seen = []
    monkeypatch.setattr(cli, "run_command",
                        lambda cfg, fmt, out: seen.append((cfg, fmt, out)) or 0)
    assert cli.main(["run"]) == 0
    assert cli.main(["run", "--claims", "qr_*", "--claims", "cusp_suite",
                     "--d-range", "5", "9", "--seed", "3", "--r-limit", "7",
                     "--perturb", "--format", "json"]) == 0
    assert seen == [
        (RunConfig(), "text", None),
        (RunConfig(claims=("qr_*", "cusp_suite"), d_range=(5, 9), r_limit=7,
                   seed=3, perturb=True), "json", None)]


@pytest.mark.parametrize("argv", [
    ["--claims", "qr_patterns", "--d-range", "9", "5"],
    ["--claims", "cusp_suite", "--d-range", "1", "3"],
    ["--claims", "sigma_*", "--d-range", "16", "16"],
    ["--claims", "boundary_order2", "--d-range", "7", "6"],
    ["--claims", "qr_patterns", "--out", "no/such/directory/report.json"],
    ["--claims", ","],
    ["--claims", ""],
    # limits outside the range the selected claims accept
    ["--claims", "exceptional_orders", "--r-limit", "2"],
    ["--claims", "exceptional_orders", "--r-limit", "2", "--perturb"],
    ["--claims", "mc_ge_1_phi10", "--r-limit", "5"],
    ["--claims", "mc_ge_1_phi10", "--r-limit", "1001"],
    ["--claims", "mc_literal_reading", "--r-limit", "1000"],
    ["--claims", "all", "--r-limit", "1000"],
    ["--claims", "qr_patterns", "--out", "."],
])
def test_cli_bad_config_exits_2_before_any_claim_runs(argv, monkeypatch, capsys):
    from ballquot import certificates as certs_mod

    def must_not_run(cfg):
        raise AssertionError("a claim ran on a rejected configuration")

    for claim_id, claim in list(certs_mod.CLAIMS.items()):
        monkeypatch.setitem(certs_mod.CLAIMS, claim_id,
                            dataclasses.replace(claim, run=must_not_run))
    code = cli.main(["run", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


def test_limit_below_the_full_bound_is_perturbed(capsys):
    # every bound in [11, 1000] has the recorded worst case 14/11 at r = 11
    code = cli.main(["run", "--claims", "mc_ge_1_phi10", "--r-limit", "100",
                     "--perturb"])
    out = capsys.readouterr().out
    assert code == 1
    assert "claim mc_ge_1_phi10: FAIL" in out
    assert '  expected = {"min_value": "13969/10967"}' in out  # 14/11 + 1/997


def test_mc_phi10_sweep_to_500_keeps_the_worst_case():
    cert = verify_claim("mc_ge_1_phi10", r_limit=500)
    assert cert.passed()
    assert cert.search_bounds == {"r_limit": 500, "phi_min": 10}
    worst = min(cert.computed, key=lambda row: row["value"])
    assert worst["label"] == "mc(11)" and worst["value"] == F(14, 11)


def test_bounds_show_the_limit_given(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--claims",
                     "mc_ge_1_phi10,mc_literal_reading,exceptional_orders,small_d_list",
                     "--r-limit", "11", "--d-limit", "1", "--format", "json",
                     "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 0
    assert doc["config"]["r_limit"] == 11 and doc["config"]["d_limit"] == 1
    bounds = {c["claim_id"]: c["bounds"] for c in doc["certificates"]}
    assert bounds == {
        "mc_ge_1_phi10": {"r_limit": 11, "phi_min": 10},
        "mc_literal_reading": {"r_limit": 11},
        "exceptional_orders": {"limit": 11},
        "small_d_list": {"limit": 1},
    }
    expected = {c["claim_id"]: c["expected"] for c in doc["certificates"]}
    assert expected["mc_ge_1_phi10"] == {"min_value": "14/11"}
    assert expected["exceptional_orders"] == [3, 4, 5, 6, 7, 8, 9, 10, 11]
    assert expected["small_d_list"] == [1]


def test_cli_kernel_faults_exit_3(monkeypatch, capsys):
    # a wrong product and a failing inverse used to surface as usage errors
    from ballquot import certificates as certs_mod
    from ballquot.qfield import QElem, QMatrix
    monkeypatch.setattr(certs_mod, "FRAMES_PER_FIELD", 1)
    product = QMatrix.__matmul__

    def wrong_product(a, b):
        out = product(a, b)
        if out.rows != 4 or out.cols != 4:
            return out
        return out + QMatrix.from_rows(out.d, [[QElem.sqrt_d(out.d)] + [0] * 3]
                                       + [[0] * 4] * 3)

    def singular(m):
        raise ZeroDivisionError("matrix is singular")

    for attr, fault in (("__matmul__", wrong_product), ("inverse", singular)):
        with monkeypatch.context() as patch:
            patch.setattr(QMatrix, attr, fault)
            code = cli.main(["run", "--claims", "cusp_suite", "--d-range", "6", "7"])
        err = capsys.readouterr().err
        assert code == 3, attr
        assert err.startswith("internal error: "), err


def test_cli_arithmetic_error_exits_3(monkeypatch, capsys):
    from ballquot import cusp

    def fails(qprime):
        raise ArithmeticError("normalization failed to reach the block shape")

    monkeypatch.setattr(cusp, "normalize_cusp_basis", fails)
    code = cli.main(["run", "--claims", "cusp_suite", "--d-range", "6", "6"])
    err = capsys.readouterr().err
    assert code == 3
    assert "ArithmeticError" in err


# ---------------------------------------------------------------------------
# property sweeps whose checks fail

def _rows(cert):
    return {row["label"]: row["value"] for row in cert.computed}


def _sweep_with_a_fault(monkeypatch, claim_id, name, fault):
    """The claim's certificate on |D| in 5..6, then again with cusp.<name>
    replaced by fault(original): (passing rows, failing certificate)."""
    from ballquot import certificates, cusp
    monkeypatch.setattr(certificates, "FRAMES_PER_FIELD", 3)
    monkeypatch.setattr(certificates, "ORDER2_PER_FIELD", 3)
    passing = verify_claim(claim_id, d_range=(5, 6))
    assert passing.passed() and _rows(passing)["failures"] == []
    monkeypatch.setattr(cusp, name, fault(getattr(cusp, name)))
    failing = verify_claim(claim_id, d_range=(5, 6))
    assert failing.verdict == "FAIL"
    rows = _rows(failing)
    # a failed check is still counted
    assert rows["checks"] == _rows(passing)["checks"]
    assert failing.computed[-1]["label"] == "failures"
    return _rows(passing), failing


def test_cusp_suite_lists_each_failed_check(monkeypatch):
    passing, cert = _sweep_with_a_fault(monkeypatch, "cusp_suite", "is_in_UF",
                                        lambda orig: lambda g, frame: False)
    assert [row["label"] for row in cert.computed] == ["checks", "failures"]
    assert _rows(cert)["failures"] == [
        {"D": d, "frame": i, "check": "centre membership"}
        for d in (-5, -6) for i in range(3)]
    assert cert.to_obj()["computed"][1]["value"][0] == {
        "D": -5, "check": "centre membership", "frame": 0}


def test_boundary_order2_lists_each_failed_check(monkeypatch):
    passing, cert = _sweep_with_a_fault(
        monkeypatch, "boundary_order2", "check_qr_congruences",
        lambda orig: lambda g, frame: False)
    assert [row["label"] for row in cert.computed] == ["elements", "checks", "failures"]
    assert _rows(cert)["elements"] == passing["elements"] == 6
    assert _rows(cert)["failures"] == [
        {"D": d, "instance": i, "check": "congruence relations"}
        for d in (-5, -6) for i in range(3)]


def _doubled_at_minus_6(orig):
    return lambda a: orig(a) * (2 if a.d == -6 else 1)


@pytest.mark.parametrize("claim_id, reference", [("sigma_oracle", "oracle"),
                                                 ("sigma_lcm_formula", "formula")])
def test_sigma_sweeps_list_each_failed_case(monkeypatch, claim_id, reference):
    passing, cert = _sweep_with_a_fault(monkeypatch, claim_id, "uf_lattice_generator",
                                        _doubled_at_minus_6)
    failures = _rows(cert)["failures"]
    assert cert.search_bounds["fields"] == [-5, -6]
    # the doubled generator fails at D = -6 only
    assert 0 < len(failures) < passing["checks"]
    if claim_id == "sigma_oracle":
        assert len(failures) == cert.search_bounds["per_field"]
    for f in failures:
        assert list(f) == ["D", "a", "got", reference]
        assert f["D"] == f["a"].d == -6 and f["got"] == 2 * f[reference]
