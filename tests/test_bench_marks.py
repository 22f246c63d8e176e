"""The chunk marks of the benchmark's CLI workloads name library functions.

``bench/workloads.py`` cuts the ``cusp`` and ``negative`` workloads into
chunks on entry to the ``cusp`` functions of ``CLI_MARKS``.  A function that
is renamed or deleted silently drops its mark: the chunks grow longer and
``wall_s`` reads higher (bench/README.md).
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["cusp", "negative"])
def test_every_chunk_mark_exists(workloads, workload):
    assert workloads.missing_marks(workload) == []
