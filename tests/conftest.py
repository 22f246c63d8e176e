"""Settings shared by the test modules.

Property tests run under a hypothesis profile that derives its examples
from each test function (``derandomize``), so every run draws the same
examples, and has no per-example deadline, so a slow machine cannot fail
them; no example database is written.  Without hypothesis installed those
tests skip themselves.
"""

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("ballquot", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("ballquot")
