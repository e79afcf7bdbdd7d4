"""Property tests draw the same examples on every run and machine: the
hypothesis profile derives them from each test's name and keeps no
example database."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
