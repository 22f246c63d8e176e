"""Settings shared by the test modules.

Property tests run under a hypothesis profile that derives its examples
from each test function (``derandomize``), so every run draws the same
examples, and has no per-example deadline, so a slow machine cannot fail
them; no example database is written.  Without hypothesis installed those
tests skip themselves.

Each test module leaves the character scan's caches empty when it ends, so
what a later module counts (the traced kronecker calls of bench/tests, say)
starts cold, as in a fresh process, whatever ran before it.
"""

import pytest

from ballquot import cyclo

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("ballquot", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("ballquot")


@pytest.fixture(autouse=True, scope="module")
def cold_scan_caches_after_module():
    yield
    cyclo._character_defined_mod.cache_clear()
    cyclo.is_reducible.cache_clear()
