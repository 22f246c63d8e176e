"""Settings shared by the test modules.

Property tests run under a hypothesis profile that derives its examples
from each test function (``derandomize``), so every run draws the same
examples, and has no per-example deadline, so a slow machine cannot fail
them; no example database is written.  Without hypothesis installed those
tests skip themselves.

Each test module leaves the character scan's caches and the stabiliser
membership memo (``cusp.is_in_NF``) empty when it ends, so what a later
module counts (the traced kronecker calls of bench/tests, say) starts
cold, as in a fresh process, whatever ran before it.  A test that
patches what the scan reads, or that must run cold, takes the
``cold_scan_caches`` fixture, which empties them before and after it.
"""

import pytest

from ballquot import cusp, cyclo

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("ballquot", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("ballquot")


def clear_scan_caches():
    """Empty every cache behind is_reducible: the checked field tags, the
    per-field tables of (D/a), the per-order units and the verdicts."""
    for cache in (cyclo.field_discriminant, cyclo._field_table,
                  cyclo._struck_units, cyclo._character_defined_mod,
                  cyclo.is_reducible):
        cache.cache_clear()


@pytest.fixture(autouse=True, scope="module")
def cold_scan_caches_after_module():
    yield
    clear_scan_caches()
    cusp.is_in_NF.cache_clear()


@pytest.fixture
def cold_scan_caches():
    """Empty the scan caches before and after, so that a test's patched
    kronecker neither reads nor leaves cached verdicts or table entries;
    yields the function that empties them, for a test that needs them
    cold again."""
    clear_scan_caches()
    yield clear_scan_caches
    clear_scan_caches()
