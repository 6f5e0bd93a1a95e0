"""Shared test settings.

Property tests draw their examples from a fixed seed and keep no example
database, so a tier-1 run is deterministic and writes nothing.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
