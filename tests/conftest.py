"""Shared test settings.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples and no run depends on an earlier one.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
