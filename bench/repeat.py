"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 0-9 [--workloads cusp,orbits] [--trace 1]

Runs ``bench/run.py`` once per (seed, workload), interleaving the workloads
within each seed, so that slow drift of the host spreads over all of them.
For every metric it prints the median, the quartiles and the spread, i.e.
the distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With ``--trace 1`` it also reports any
``.calls`` count that differs between two runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def _seeds(text: str):
    out = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,3")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    results = {w: [] for w in names}
    for seed in _seeds(args.seeds):
        for workload in names:
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(lines[0])["detail"]
            results[workload].append((seed, result))
            print(json.dumps({"workload": workload, "seed": seed, "result": result,
                              "unit_wall_s": [u["wall_s"] for u in detail["units"]],
                              "host_probe_s": detail["host_probe_s"]}), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        ok = ok and all(r["correct"] for _seed, r in runs)
        for name in runs[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _seed, r in runs]
            med = statistics.median(values)
            q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"# {workload:9s} {name:40s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{mark}")
        if args.trace:
            by_seed = {}
            for seed, r in runs:
                calls = {n: m["value"] for n, m in r["metrics"].items() if n.endswith(".calls")}
                if seed in by_seed and by_seed[seed] != calls:
                    ok = False
                    print(f"# {workload} seed {seed}: .calls counts differ between runs")
                by_seed[seed] = calls
    print("# all runs correct" if ok else "# SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
