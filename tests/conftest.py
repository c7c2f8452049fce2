"""Hypothesis runs derandomized, with no deadline and no example database,
so every run of the suite draws the same examples."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("reproducible")
