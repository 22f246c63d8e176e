"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record.py [WORKLOAD ...]

Writes ``bench/reference/<workload>.json``: for the seeded workloads the
output of a unit run with each of the seeds 0 to 9 (the timed units run
with seed 0), for the sweeps their one output.
Run it only when the outputs are meant to change; a run whose output
differs from the recorded one counts the difference as failed checks.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads

# the run seeds whose outputs are recorded; README.md and the checks say 0-9
RUN_SEEDS = range(10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="*", default=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload:
        seeded = workload in workloads.SEEDED
        reference = {}
        with run.Units(workload) as units:
            for seed in RUN_SEEDS if seeded else [0]:
                unit = units.run(seed, traced=False)
                key = str(seed) if seeded else "any"
                reference[key] = unit["output"]
                print(f"{workload} seed {key}: {unit['wall_s']:.2f} s", flush=True)
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
