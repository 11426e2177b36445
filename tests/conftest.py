"""Test-wide settings: hypothesis draws the same examples on every run and
writes nothing to .hypothesis/."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("cdconf", derandomize=True, deadline=None, database=None)
settings.load_profile("cdconf")

# Even without an example database hypothesis caches the literal constants
# of the code under test; that cache goes to a directory removed at exit.
_STORAGE = tempfile.TemporaryDirectory(prefix="cdconf-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
