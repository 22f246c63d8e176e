"""The benchmark's workloads: their inputs, their work and their checks.

A workload is a fixed piece of certification work.  ``unit.py`` runs it
once in a cold process with :func:`execute` and turns the result into a
canonical JSON value with :func:`canonical`; ``run.py`` repeats such units
and judges every output with :func:`check`.  Why each workload exists is
written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CUSP_CLAIMS = "cusp_suite,sigma_oracle,sigma_lcm_formula,boundary_order2"
# |D| in 6..7: D = -6 is 2 mod 4 and D = -7 is 1 mod 4, so both shapes of
# the ring of integers are certified.
CUSP_WINDOW = ("6", "7")
NEGATIVE_CLAIMS = "boundary_order2,sigma_oracle,sigma_lcm_formula"
NEGATIVE_WINDOW = ("6", "6")
# Frames per field of cusp_suite and boundary_order2, set on
# ballquot.certificates before the run (the library uses 100 and 16).  With
# the library's counts one cusp unit takes about 14 s, and a run could time
# each frame only twice; see README.md.
FRAMES = {"cusp": {"FRAMES_PER_FIELD": 2, "ORDER2_PER_FIELD": 2},
          "negative": {"ORDER2_PER_FIELD": 8}}
# where a report echoes each of those counts: (claim, key under "bounds")
FRAMES_ECHO = {"FRAMES_PER_FIELD": ("cusp_suite", "frames_per_field"),
               "ORDER2_PER_FIELD": ("boundary_order2", "per_field")}
ORBITS_R = 160
ORBITS_WORST = ("11", "14/11")  # the recorded worst case of the sweep
FIELDS_ORDERS = (9, 16, 18)
FIELDS_D_ABS = 3000
FIELDS_BLOCK = 50  # fields per timed chunk of the fields sweep
# Chunk boundaries of the CLI workloads: every frame of cusp_suite and
# boundary_order2 starts with random_frame, every case of the sigma claims
# with uf_lattice_generator, and the other names start the steps of a frame.
# A frame of 4x4 matrices takes up to 0.2 s; cut into steps, no chunk takes
# much more than 0.03 s.
CLI_MARKS = ("random_frame", "normalize_cusp_basis", "random_nf_element",
             "is_in_NF", "random_wf_element", "random_uf_element", "is_in_UF",
             "apply_boundary_action", "random_order2_element",
             "check_qr_congruences", "boundary_tangent_exponents",
             "uf_lattice_generator")

WORKLOADS = ("cusp", "orbits", "fields", "negative")
# cusp and negative draw their random frames from the CLI's --seed.  Every
# timed unit uses TIMED_SEED, so that all runs time the same work; one more
# unit per run uses the run's own seed and is checked, not timed.  The
# sweeps are deterministic and the seed selects nothing in them.
SEEDED = frozenset({"cusp", "negative"})
TIMED_SEED = 0


# report keys that carry timing or provenance rather than results
IGNORED_KEYS = frozenset({"elapsed_s", "timings", "provenance"})


def _fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _cli_argv(workload: str, seed: int):
    if workload == "cusp":
        return ["run", "--claims", CUSP_CLAIMS, "--d-range", *CUSP_WINDOW,
                "--seed", str(seed), "--format", "json"]
    return ["run", "--claims", NEGATIVE_CLAIMS, "--d-range", *NEGATIVE_WINDOW,
            "--seed", str(seed), "--perturb", "--format", "json"]


def execute(workload: str, seed: int, mark=lambda: None):
    """Run the workload once against the library and return its raw result.

    ``mark`` is called at the start of each chunk of the work after the
    first: after every order of ``orbits``, after every block of
    ``FIELDS_BLOCK`` fields of ``fields``, and on entry to each of
    ``CLI_MARKS`` in the CLI workloads, i.e. at every frame, step of a frame
    or case a claim draws.  The chunks of a run with one seed are the same
    in every process, so ``run.py`` can compare them one by one.

    Every library name is looked up on its module at call time, so that a
    traced run goes through the tracing wrappers.
    """
    from ballquot import certificates, cli, cusp, cyclo, qfield, reidtai
    if workload in ("cusp", "negative"):
        out = io.StringIO()
        for name, value in FRAMES[workload].items():
            setattr(certificates, name, value)
        undo = _mark_calls(cusp, CLI_MARKS, mark)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(_cli_argv(workload, seed))
        finally:
            undo()
        return code, out.getvalue()
    if workload == "orbits":
        raw = []
        for r in range(3, ORBITS_R + 1):
            if cyclo.euler_phi(r) >= 10:
                raw.append((r, reidtai.mc_with_witness(r)))
                mark()
        return raw
    if workload == "fields":
        fields = [-k for k in range(1, FIELDS_D_ABS + 1) if qfield.is_squarefree(-k)]
        raw = []
        for r in FIELDS_ORDERS:
            for i, d in enumerate(fields, 1):
                raw.append((r, d, reidtai.mc_for_field(r, d)))
                if i % FIELDS_BLOCK == 0:
                    mark()
        return raw
    raise ValueError(f"unknown workload {workload!r}")


def _mark_calls(module, names, mark):
    """Make every call of ``module.<name>`` call ``mark`` first; returns a
    function that restores the module.  A name the module no longer has is
    skipped; ``missing_marks`` lists it."""
    originals = {name: getattr(module, name) for name in names if hasattr(module, name)}

    def marked(fn):
        def call(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)
        return call

    for name, fn in originals.items():
        setattr(module, name, marked(fn))

    def undo():
        for name, fn in originals.items():
            setattr(module, name, fn)
    return undo


def missing_marks(workload: str):
    """The names of ``CLI_MARKS`` that the library no longer has.  Without
    them the chunks of a unit are longer and ``wall_s`` reads higher."""
    if workload not in ("cusp", "negative"):
        return []
    from ballquot import cusp
    return [name for name in CLI_MARKS if not hasattr(cusp, name)]


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in IGNORED_KEYS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def canonical(workload: str, raw):
    """(JSON-able output, work count) for a raw result of :func:`execute`.

    Work is the number of checks the certificates report, the number of
    orders swept, or the number of (order, field) pairs.
    """
    if workload in ("cusp", "negative"):
        code, text = raw
        try:
            report = _strip(json.loads(text))
        except ValueError:
            return {"exit_code": code, "report": None, "text": text[:2000]}, 0
        work = sum(item["value"] for cert in report.get("certificates", [])
                   for item in cert.get("computed", []) if item.get("label") == "checks")
        return {"exit_code": code, "report": report}, work
    if workload == "orbits":
        values = {str(r): [_fmt(w.value), w.orbit_label, w.d_field, w.k1] for r, w in raw}
        return {"values": values}, len(values)
    # fields: all but a few fields do not split, so each order is stored as
    # its most common value plus the fields whose value differs
    by_order = {}
    for r, d, value in raw:
        by_order.setdefault(str(r), {})[str(d)] = _fmt(value)
    orders = {}
    for r, values in by_order.items():
        common = Counter(values.values()).most_common(1)[0][0]
        orders[r] = {"common": common,
                     "except": {d: v for d, v in values.items() if v != common}}
    d_count = len(raw) // len(FIELDS_ORDERS)
    return {"d_count": d_count, "orders": orders}, len(raw)


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def reference_for(reference, workload: str, seed: int):
    """The recorded output for a run with ``seed``, or None if none is
    recorded."""
    return reference.get(str(seed) if workload in SEEDED else "any")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def note(self, ok: bool, what: str, count: int = 1):
        """Record ``count`` checks that share one outcome."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.messages.append(what)


def check(workload: str, seed: int, output, expected):
    """Judge one output of a unit run with ``seed``.  Returns (checks
    attempted, checks failed, messages).

    The checks that hold for any seed always run; ``expected`` (the
    recorded reference output, or None) adds the comparison with it.
    """
    tally = Tally()
    if workload in ("cusp", "negative"):
        _check_report(tally, workload, seed, output, expected)
    elif workload == "orbits":
        _check_orbits(tally, output, expected)
    else:
        _check_fields(tally, output, expected)
    return tally.attempted, tally.failed, tally.messages


def _check_report(tally, workload, seed, output, expected):
    perturb = workload == "negative"
    claims = sorted((NEGATIVE_CLAIMS if perturb else CUSP_CLAIMS).split(","))
    window = [int(w) for w in (NEGATIVE_WINDOW if perturb else CUSP_WINDOW)]
    want_code = 1 if perturb else 0
    tally.note(output.get("exit_code") == want_code,
               f"exit code {output.get('exit_code')} != {want_code}")
    report = output.get("report")
    if report is None:
        tally.note(False, "report is not JSON")
        return
    certs = {c.get("claim_id"): c for c in report.get("certificates", [])}
    tally.note(sorted(certs) == claims, f"claims {sorted(certs)} != {claims}")
    tally.note(report.get("all_pass") is (not perturb), "all_pass")
    config = report.get("config", {})
    tally.note(config.get("d_range") == window and config.get("seed") == seed
               and config.get("perturb") is perturb, "config echo")
    for name, value in FRAMES[workload].items():
        claim_id, key = FRAMES_ECHO[name]
        tally.note(certs.get(claim_id, {}).get("bounds", {}).get(key) == value,
                   f"{claim_id} did not run {value} frames per field")
    ref_certs = None
    if expected is not None:
        ref_certs = {c["claim_id"]: c for c in expected["report"]["certificates"]}
        tally.note(report.get("all_pass") == expected["report"]["all_pass"],
                   "all_pass differs from reference")
    for claim_id in claims:
        cert = certs.get(claim_id, {})
        verdict = "FAIL" if perturb else "PASS"
        tally.note(cert.get("verdict") == verdict, f"{claim_id} verdict != {verdict}")
        computed = {i.get("label"): i.get("value") for i in cert.get("computed", [])}
        tally.note(computed.get("failures") == [], f"{claim_id} reports failures")
        if perturb:
            tally.note(cert.get("expected") == {"failures": 1},
                       f"{claim_id} expected value is not the perturbed one")
        if ref_certs is not None:
            tally.note(cert == ref_certs.get(claim_id),
                       f"{claim_id} differs from reference")


def _check_orbits(tally, output, expected):
    values = output.get("values", {})
    tally.note(len(values) > 0, "no orders swept")
    for r, (value, *_witness) in sorted(values.items(), key=lambda kv: int(kv[0])):
        tally.note(Fraction(value) >= 1, f"mc({r}) = {value} < 1")
    if values:
        r, (value, *_w) = min(values.items(),
                              key=lambda kv: (Fraction(kv[1][0]), int(kv[0])))
        tally.note((r, value) == ORBITS_WORST,
                   f"sweep minimum {value} at r={r}, expected {ORBITS_WORST}")
    if expected is not None:
        ref = expected["values"]
        tally.note(sorted(values) == sorted(ref), "swept orders differ from reference")
        for r in sorted(ref, key=int):
            tally.note(values.get(r) == ref[r], f"mc({r}) or its witness differs")


def _check_fields(tally, output, expected):
    orders = output.get("orders", {})
    d_count = output.get("d_count", 0)
    tally.note(sorted(orders) == sorted(map(str, FIELDS_ORDERS)), "orders swept")
    for r, entry in sorted(orders.items()):
        for d, value in [(None, entry["common"]), *entry["except"].items()]:
            tally.note(Fraction(value) >= 1, f"mc_for_field({r}, {d}) = {value} < 1")
    if expected is None:
        return
    tally.note(d_count == expected["d_count"], "number of fields differs")
    for r, ref in sorted(expected["orders"].items()):
        got = orders.get(r, {"common": None, "except": {}})
        # compare every (r, D) value: the listed exceptions one by one, and
        # the common value for all remaining fields at once
        listed = set(ref["except"]) | set(got["except"])
        for d in sorted(listed, key=int):
            tally.note(got["except"].get(d, got["common"])
                       == ref["except"].get(d, ref["common"]),
                       f"mc_for_field({r}, {d}) differs from reference")
        rest = expected["d_count"] - len(listed)
        tally.note(got["common"] == ref["common"],
                   f"mc_for_field({r}, D) differs from reference for {rest} fields",
                   count=rest)
