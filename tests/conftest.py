"""Shared test configuration: property tests run derandomized, so every
run draws the same examples and tier-1 stays deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
