"""Run one workload of the verifier benchmark and print its metrics.

    python3 bench/run.py --workload cusp --seed 0 --seconds 28 --trace 0

Run from the repository root.  The library is imported from ``src``; no
build and no install is needed.  The workload runs again and again, each
time in a process of its own with cold caches (``unit.py``), one at a time,
until ``--seconds`` is spent.
Every output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it holds the per-unit samples,
provenance and the host probe.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 10  # before the units, and again after them
MIN_STEPS = 2  # timed units per run at least, so that every chunk is timed twice
UNIT_TIMEOUT_S = 170
STATS = {"calls": 0, "total_s": 1, "self_s": 2}


class UnitError(RuntimeError):
    """A child process failed to produce a result."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # imports read the bytecode cache, as they do for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one hash seed for every child, so that set and dict layouts do not
    # add run-to-run noise; outputs do not depend on it
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter until ``ballquot.cli`` is
    imported and ready to run."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import ballquot.cli; print('ready', flush=True)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _out, err = proc.communicate(timeout=UNIT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise UnitError(f"setup probe failed: {err.strip()[-2000:]}")
    return elapsed


class Units:
    """The unit process of one workload (``unit.py``); it forks one child
    per unit.  Use it as a context manager: leaving the block stops it and
    every child it forked."""

    def __init__(self, workload: str):
        self.workload = workload
        # a session of its own, so that _stop reaches the forked children
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "unit.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_child_env(), cwd=ROOT, start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=UNIT_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self._stop()
            self.proc.stdout.close()
            self.proc.stderr.close()

    def _stop(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def run(self, seed: int, traced: bool, timed: bool = True) -> dict:
        """Run the workload once with ``seed`` in a cold child."""
        self.proc.stdin.write(f"{seed}{' trace' if traced else ''}\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], UNIT_TIMEOUT_S)
        if not ready:
            self._stop()
            raise UnitError(f"{self.workload} seed {seed}: no result within "
                            f"{UNIT_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            self._stop()
            raise UnitError(f"{self.workload} seed {seed}: the unit process ended: "
                            f"{self.proc.stderr.read()[-2000:]}")
        result = json.loads(line)
        if "error" in result:
            raise UnitError(f"{self.workload} seed {seed}: {result['error']}")
        if Path(result["ballquot_file"]).resolve().parent.parent != SRC.resolve():
            raise UnitError(f"imported ballquot from {result['ballquot_file']}, not {SRC}")
        result.update(seed=seed, traced=traced, timed=timed)
        return result


def host_probe() -> float:
    """A fixed pure-Python loop, best of three.  Diagnostic only: it shows
    how fast the host was, and is never used to rescale a metric."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run steps until the next one would end after ``seconds``, and at
    least ``MIN_STEPS``.  A step is one timed unit, or with tracing one
    untraced unit and then a traced one.  For the seeded workloads a first
    unit runs with ``seed`` and is checked but not timed; the timed units
    run with ``workloads.TIMED_SEED``."""
    units = []
    t_begin = time.perf_counter()
    with Units(workload) as server:
        timed_seed = seed
        if workload in workloads.SEEDED:
            units.append(server.run(seed, traced=False, timed=False))
            timed_seed = workloads.TIMED_SEED
        modes = (False, True) if traced else (False,)
        steps, last = 0, 0.0
        while steps < MIN_STEPS or time.perf_counter() - t_begin + last <= seconds:
            t0 = time.perf_counter()
            for mode in modes:
                units.append(server.run(timed_seed, mode))
            last = time.perf_counter() - t0
            steps += 1
    return units


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT, timeout=30)
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ballquot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "commit": _commit(), "src_sha256": digest.hexdigest(),
            "seed": seed}


def judge(workload: str, units) -> tuple:
    """(attempted, failed, messages) over every unit of the run."""
    reference = workloads.load_reference(workload)
    tally = workloads.Tally()
    first = calls = None
    for u in units:
        expected = workloads.reference_for(reference, workload, u["seed"])
        a, f, msgs = workloads.check(workload, u["seed"], u["output"], expected)
        tally.attempted += a
        tally.failed += f
        tally.messages.extend(f"seed {u['seed']}: {m}" for m in msgs)
        if not u["timed"]:
            continue
        # every timed unit, traced or not, must give the same output in the
        # same number of chunks
        if first is None:
            first = u["output"], len(u["chunks_s"])
        else:
            tally.note(u["output"] == first[0], "output differs between units of one run")
            tally.note(len(u["chunks_s"]) == first[1],
                       "chunk count differs between units of one run")
        if u["traced"]:
            counts = {name: s[0] for name, s in u["stats"].items()}
            if calls is None:
                calls = counts
            else:
                tally.note(counts == calls, "traced call counts differ between units")
    return tally.attempted, tally.failed, tally.messages


def _wall_s(units):
    """Seconds for the workload's fixed work: the sum over its chunks of the
    fastest time each chunk took in ``units``.

    The host's speed changes from one tenth of a second to the next, so the
    time of a whole unit is mostly a measure of how often the host was slow
    while it ran.  Every timed unit does the same work in the same chunks,
    and taking each chunk at its fastest keeps the work and drops the slow
    moments.  Units whose chunks do not line up are a failed check in
    :func:`judge`; then the fastest whole unit is taken instead.
    """
    runs = [u["chunks_s"] for u in units]
    if len({len(chunks) for chunks in runs}) != 1:
        return min(sum(chunks) for chunks in runs)
    return sum(min(times) for times in zip(*runs))


def end_to_end(units, setup_runs):
    timed = [u for u in units if u["timed"]]
    return {
        "setup_s": statistics.median(setup_runs),
        "wall_s": _wall_s(timed),
        "peak_rss_mib": statistics.median(u["maxrss_kib"] for u in timed) / 1024,
    }


def per_layer(units, names):
    plain = [u for u in units if u["timed"] and not u["traced"]]
    traced = [u for u in units if u["traced"]]
    stats = {}
    for name in traced[0]["stats"]:
        stats[name] = [traced[0]["stats"][name][0]] + [
            statistics.median(u["stats"][name][i] for u in traced) for i in (1, 2)]
    hits = sum(u["is_reducible_cache"][0] for u in traced)
    lookups = hits + sum(u["is_reducible_cache"][1] for u in traced)
    claims = {n: s for n, s in stats.items() if n.startswith("certificates.claim.")}
    out = {}
    for name in names:
        if name == "trace_overhead":
            out[name] = _wall_s(traced) / _wall_s(plain)
        elif name == "cyclo.is_reducible.hit_ratio":
            out[name] = hits / lookups if lookups else 0.0
        elif name == "certificates.claim_run.calls":
            out[name] = sum(s[0] for s in claims.values())
        elif name.startswith("certificates.claim.") and name.endswith(".s"):
            out[name] = stats.get(name[:-2], [0, 0.0, 0.0])[1]
        else:
            prefix, stat = name.rsplit(".", 1)
            out[name] = stats.get(prefix, [0, 0.0, 0.0])[STATS[stat]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ballquot" / "__init__.py").is_file():
        print(f"error: no ballquot sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS or args.workload not in {
            w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        probe_before = host_probe()
        setup_runs = []
        if not args.trace:
            setup_probe()  # first import compiles the bytecode; not timed
            setup_runs = [setup_probe() for _ in range(SETUP_RUNS)]
        units = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        if not args.trace:
            # the host's speed drifts over tens of seconds: sample set-up at
            # both ends of the run
            setup_runs += [setup_probe() for _ in range(SETUP_RUNS)]
        probe_after = host_probe()
    except (UnitError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = judge(args.workload, units)
    if args.trace:
        values = per_layer(units, [m["name"] for m in metric_specs])
    else:
        values = end_to_end(units, setup_runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}

    detail = {
        "workload": args.workload,
        # the seed selects the inputs of the checked unit only; the timed
        # units are the same in every run
        "seed_selects_inputs": args.workload in workloads.SEEDED,
        "provenance": provenance(args.seed),
        "host_probe_s": [probe_before, probe_after],
        "setup_runs_s": setup_runs,
        "units": [{k: u[k] for k in ("seed", "traced", "timed", "wall_s",
                                     "maxrss_kib", "work")}
                  for u in units],
        "missing_marks": units[0]["missing_marks"],
        "fail_ratio": failed / attempted,
        "failed_checks": messages[:50],
    }
    if args.trace:
        first = next(u for u in units if u["traced"])
        detail["bindings"] = first["bindings"]
        detail["missing"] = first["missing"]
    print(json.dumps({"detail": detail}, sort_keys=True))
    work = next(u["work"] for u in units if u["timed"])
    print(f"# {args.workload} seed={args.seed} units={len(units)} work={work} "
          f"fail_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
