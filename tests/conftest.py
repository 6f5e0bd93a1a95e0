"""Shared test settings.

Property tests draw their examples from a fixed seed and keep no example
database, so a tier-1 run is deterministic.  Hypothesis still writes a
cache of source constants, and a failing test's patch, under its storage
directory, the working directory's .hypothesis/ unless
HYPOTHESIS_STORAGE_DIRECTORY names another.  So a run points that at a
temporary directory before any test runs and removes it when the run ends,
and writes nothing in the tree.
"""

import os
import shutil
import tempfile

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = tempfile.mkdtemp(prefix="torns-hypothesis-")


def pytest_unconfigure(config):
    shutil.rmtree(os.environ.pop("HYPOTHESIS_STORAGE_DIRECTORY"), ignore_errors=True)
