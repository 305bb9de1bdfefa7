"""Hypothesis settings for the whole test suite.

Every run loads the ``fixed`` profile: each property test draws the same
examples, derandomised from the test itself, and no example database is
kept, so what a run checks depends on the code alone. (Hypothesis still
caches the constants it reads from the source in ``.hypothesis/``, which
``.gitignore`` lists.)
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
