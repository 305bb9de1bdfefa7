"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` derandomises every property test and keeps no
example database, so each run of the suite draws the same examples:

    HYPOTHESIS_PROFILE=ci python -m pytest -q
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
