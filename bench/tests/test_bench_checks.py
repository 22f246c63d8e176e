"""Tests for the benchmark's correctness checks.

Each recorded reference output must pass, and a perturbed copy of it must
fail: the checks' own negative control.
"""

import copy
import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def _reference(workload, seed=0):
    ref = workloads.load_reference(workload)
    return workloads.reference_for(ref, workload, seed)


def _failed(workload, output, seed=0):
    expected = _reference(workload, seed)
    attempted, failed, _messages = workloads.check(workload, seed, output, expected)
    assert attempted > 0
    return failed


def test_references_pass():
    assert _failed("orbits", _reference("orbits")) == 0
    assert _failed("fields", _reference("fields")) == 0
    assert _failed("negative", _reference("negative")) == 0
    for seed in range(10):
        assert _failed("cusp", _reference("cusp", seed), seed) == 0


def test_orbits_perturbed_value_and_witness_fail():
    out = copy.deepcopy(_reference("orbits"))
    out["values"]["13"][0] = "3/2" if out["values"]["13"][0] != "3/2" else "5/2"
    assert _failed("orbits", out) == 1
    out = copy.deepcopy(_reference("orbits"))
    out["values"]["13"][3] += 1
    assert _failed("orbits", out) == 1
    out = copy.deepcopy(_reference("orbits"))
    out["values"]["11"][0] = "1"  # still >= 1, but no longer the worst case 14/11
    assert _failed("orbits", out) == 2


def test_orbits_bound_holds_for_any_sweep():
    out = {"values": {"11": ["14/11", "FULL", None, 1], "12": ["9/10", "FULL", None, 1]}}
    _attempted, failed, messages = workloads.check("orbits", 5, out, None)
    assert failed == 2 and any("< 1" in m for m in messages)


def test_fields_perturbed_values_fail():
    ref = _reference("fields")
    out = copy.deepcopy(ref)
    out["orders"]["16"]["except"]["-2"] = "7/2"  # now equal to the common value
    assert _failed("fields", out) == 1
    out = copy.deepcopy(ref)
    out["orders"]["9"]["common"] = "5/2"
    assert _failed("fields", out) == ref["d_count"] - 1
    out = copy.deepcopy(ref)
    out["orders"]["18"]["except"]["-3"] = "1/2"
    assert _failed("fields", out) == 2  # the bound and the reference


def test_reports_perturbed_fail():
    out = copy.deepcopy(_reference("negative"))
    out["exit_code"] = 0
    assert _failed("negative", out) == 1
    out = copy.deepcopy(_reference("negative"))
    out["report"]["certificates"][0]["verdict"] = "PASS"
    assert _failed("negative", out) == 2
    out = copy.deepcopy(_reference("cusp", 1))
    out["report"]["certificates"][0]["bounds"]["fields"] = [-11]
    assert _failed("cusp", out, 1) == 1
    # with no reference recorded for seed 41, only the seed echo fails
    assert _failed("cusp", out, 41) == 1
    # a cusp run with the library's frame counts is not the benchmark's work
    out = copy.deepcopy(_reference("cusp", 2))
    suite = next(c for c in out["report"]["certificates"] if c["claim_id"] == "cusp_suite")
    suite["bounds"]["frames_per_field"] = 100
    assert _failed("cusp", out, 2) == 2  # the frame count and the reference


def test_timing_fields_are_ignored():
    ref = _reference("negative")
    report = copy.deepcopy(ref["report"])
    report["provenance"] = {"python": "3.x"}
    for cert in report["certificates"]:
        cert["elapsed_s"] = 0.25
    output, _work = workloads.canonical("negative", (1, json.dumps(report)))
    assert output == ref


def test_judge_counts_disagreeing_units():
    ref = _reference("orbits")
    stats = {"cyclo.kronecker": [10, 0.1, 0.1]}
    chunks = [0.5, 0.25]
    units = [
        {"seed": 0, "traced": False, "timed": True, "output": ref, "chunks_s": chunks},
        {"seed": 0, "traced": True, "timed": True, "output": ref, "chunks_s": chunks,
         "stats": stats},
        {"seed": 0, "traced": True, "timed": True, "output": ref, "chunks_s": chunks,
         "stats": {"cyclo.kronecker": [11, 0.1, 0.1]}},
    ]
    _attempted, failed, messages = run.judge("orbits", units)
    assert failed == 1 and "call counts" in messages[0]
    bad = copy.deepcopy(ref)
    bad["values"]["13"][3] += 1
    units[2] = {"seed": 0, "traced": False, "timed": True, "output": bad,
                "chunks_s": chunks + [0.1]}
    _attempted, failed, messages = run.judge("orbits", units)
    assert failed == 3
    assert any("output differs between units" in m for m in messages)
    assert any("chunk count differs" in m for m in messages)


def test_untimed_unit_is_checked_but_not_compared():
    # the checked unit of a seeded run has its own seed, so its output
    # differs from the timed units' and that is no failure
    timed = {"seed": 0, "traced": False, "timed": True,
             "output": _reference("negative", 0), "chunks_s": [0.5]}
    units = [{"seed": 3, "traced": False, "timed": False,
              "output": _reference("negative", 3), "chunks_s": [0.5, 0.5]},
             timed, dict(timed)]
    _attempted, failed, messages = run.judge("negative", units)
    assert failed == 0, messages
    units[0]["output"] = copy.deepcopy(units[0]["output"])
    units[0]["output"]["exit_code"] = 0
    _attempted, failed, _messages = run.judge("negative", units)
    assert failed == 1


def test_wall_s_takes_each_chunk_at_its_fastest():
    units = [{"chunks_s": [1.0, 2.0, 3.0]}, {"chunks_s": [2.0, 1.5, 3.5]}]
    assert run._wall_s(units) == 1.0 + 1.5 + 3.0
    # chunks that do not line up: the fastest whole unit
    units.append({"chunks_s": [1.0, 2.5]})
    assert run._wall_s(units) == 3.5


def test_mark_calls_wraps_and_restores():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    marks = []
    undo = workloads._mark_calls(module, ("f", "gone"), lambda: marks.append(1))
    assert module.f(1) == 2 and module.f(2) == 3 and marks == [1, 1]
    undo()
    assert module.f is original and not hasattr(module, "gone")


def test_failed_unit_is_reported_and_its_process_stopped():
    with run.Units("no_such_workload") as units:
        with pytest.raises(run.UnitError, match="unknown workload"):
            units.run(0, traced=False)
    assert units.proc.returncode is not None
