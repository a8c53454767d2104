"""Shared test settings."""

from hypothesis import settings

# the same examples on every run, and no per-example time limit: the
# decoders' cost varies with the pattern far more than hypothesis expects
settings.register_profile("epcodes", derandomize=True, deadline=None)
settings.load_profile("epcodes")
