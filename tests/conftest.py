"""Suite-wide settings: every ``@given`` test draws the same examples on
every run, each with its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
