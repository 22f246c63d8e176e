"""Units of one workload, each in a process of its own with cold caches.

    PYTHONPATH=src python3 bench/unit.py WORKLOAD

Imports ballquot, then reads requests from standard input, one a line: a
seed, followed by ``trace`` to trace the unit.  For each request it forks a
child that runs the workload once, and writes the child's result to
standard output as one line of JSON: the wall seconds of the work and of
each of its chunks (see ``workloads.execute``), the peak RSS of the child,
the canonical output and its work count, the chunk boundaries the library
no longer has, and with ``trace`` the per-layer statistics and where each
traced name was bound.  A child that fails writes ``{"error": ...}``.

This process runs no library code, so every child starts with the empty
``lru_cache``s of a fresh ``ballquot run``; forking it saves the start of an
interpreter per unit, which ``run.py`` times apart as ``setup_s``.
"""

import json
import os
import resource
import sys
import time
import traceback

import ballquot.cli

import tracing
import workloads


def run_once(workload: str, seed: int, traced: bool) -> dict:
    result = {"ballquot_file": ballquot.__file__}
    if traced:
        tracer = tracing.Tracer()
        result["bindings"], result["missing"], _undo = tracing.instrument(tracer)
    clock = time.perf_counter
    marks = []
    t0 = clock()
    raw = workloads.execute(workload, seed, mark=lambda: marks.append(clock()))
    t1 = clock()
    result["wall_s"] = t1 - t0
    edges = [t0, *marks, t1]
    result["chunks_s"] = [b - a for a, b in zip(edges, edges[1:])]
    result["missing_marks"] = workloads.missing_marks(workload)
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["output"], result["work"] = workloads.canonical(workload, raw)
    if traced:
        result["stats"] = tracer.stats
        info = ballquot.cyclo.is_reducible.cache_info()
        result["is_reducible_cache"] = [info.hits, info.misses]
    return result


def _child(workload: str, seed: int, traced: bool, fd: int):
    """Run one unit in the forked child, write its result to ``fd`` and exit
    without returning to the request loop."""
    code = 1
    try:
        try:
            text = json.dumps(run_once(workload, seed, traced), sort_keys=True)
            code = 0
        except BaseException:
            text = json.dumps({"error": traceback.format_exc()[-4000:]})
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            out.write(text)
    finally:
        os._exit(code)


def main(argv):
    workload = argv[0]
    for line in sys.stdin:
        seed, *flags = line.split()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(workload, int(seed), "trace" in flags, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd, encoding="utf-8") as inp:
            text = inp.read()
        _pid, status = os.waitpid(pid, 0)
        if not text:
            text = json.dumps({"error": f"unit exited with status {status} and no result"})
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
