"""The benchmark's marks and trace targets name library functions.

``bench/workloads.py`` cuts the ``cusp`` and ``negative`` workloads into
chunks on entry to the ``cusp`` functions of ``CLI_MARKS``.  A function that
is renamed or deleted silently drops its mark: the chunks grow longer and
``wall_s`` reads higher (bench/README.md).  Likewise ``bench/tracing.py``
reports a ``TARGETS`` entry it cannot find as missing, and its per-layer
metrics are gone from the traced run.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("workload", ["cusp", "negative"])
def test_every_chunk_mark_exists(workloads, workload):
    assert workloads.missing_marks(workload) == []


def test_every_trace_target_resolves():
    import ballquot.cli  # noqa: F401  (loads every module the targets name)

    tracing = _load("tracing")
    bindings, missing, undo = tracing.instrument(tracing.Tracer())
    undo()
    assert missing == []
    assert all(bindings[name] for name, _, _ in tracing.TARGETS)
