"""One run of every claim: its report against the golden file, and every
perturbed expected value judged against the same computation."""

import dataclasses
from pathlib import Path

import pytest

import ballquot.cli as cli
from ballquot.certificates import (CLAIMS, RunConfig, certify, claim_config,
                                   list_expected_slots, perturb_at)

GOLDEN = Path(__file__).parent / "golden" / "run_all_d5_7.json"
ARGV = ["run", "--claims", "all", "--d-range", "5", "7", "--format", "json"]
CFG = RunConfig(d_range=(5, 7))  # the configuration ARGV builds


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Run ARGV once through the command line; keep what each claim computed."""
    computed = {}

    def keeping(claim):
        def run(cfg):
            computed.setdefault(claim.claim_id, []).append(claim.run(cfg))
            return computed[claim.claim_id][-1]
        return dataclasses.replace(claim, run=run)

    out = tmp_path_factory.mktemp("golden") / "report.json"
    with pytest.MonkeyPatch.context() as patch:
        for claim_id, claim in list(CLAIMS.items()):
            patch.setitem(CLAIMS, claim_id, keeping(claim))
        code = cli.main([*ARGV, "--out", str(out)])
    return code, out.read_bytes(), computed


def test_report_reproduces_golden_file(golden_run):
    """The report must match the golden file byte for byte.  A change meant
    to alter a certificate re-records the file with

        PYTHONPATH=src python -m ballquot run --claims all --d-range 5 7 \\
            --format json --out tests/golden/run_all_d5_7.json

    and says which certificate changed and why.
    """
    code, report, computed = golden_run
    assert code == 0
    assert report == GOLDEN.read_bytes()
    assert {claim_id: len(runs) for claim_id, runs in computed.items()} == {
        claim_id: 1 for claim_id in CLAIMS}


def test_every_perturbed_slot_fails(golden_run):
    # every scalar slot of every claim's expected value, when perturbed,
    # must flip the verdict of the same computation to FAIL
    _, _, computed = golden_run
    for claim_id, claim in CLAIMS.items():
        (result,) = computed[claim_id]
        expected = claim.expected(claim_config(claim, CFG))
        assert certify(claim, result, expected).verdict == "PASS", claim_id
        slots = list(list_expected_slots(expected))
        assert slots, claim_id
        for path in slots:
            cert = certify(claim, result, perturb_at(expected, path))
            assert cert.verdict == "FAIL", (claim_id, path)


def _records(x):
    """The NamedTuple records inside a report structure."""
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        yield x
    if isinstance(x, dict):
        x = [*x.keys(), *x.values()]
    if isinstance(x, (list, tuple, frozenset)):
        for v in x:
            yield from _records(v)


def test_no_record_reaches_the_tuple_branches(golden_run):
    # _render, list_expected_slots and perturb_at walk every tuple as a
    # sequence, so no record may sit in the rows, inputs, bounds or
    # expected value of a claim
    _, _, computed = golden_run
    for claim_id, claim in CLAIMS.items():
        (result,) = computed[claim_id]
        expected = claim.expected(claim_config(claim, CFG))
        walked = [result.rows, result.inputs, result.search_bounds, expected]
        assert list(_records(walked)) == [], claim_id
