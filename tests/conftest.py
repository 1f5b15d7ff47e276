"""Make every Hypothesis test draw the same examples on every run and keep
no example database, so the suite's outcome does not depend on earlier runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
