"""Hypothesis profile for continuous integration.

With the ``CI`` environment variable set (GitHub Actions sets it), property
tests run derandomized, without deadlines, and print a reproduction blob on
failure, so a near-tolerance counterexample can be replayed exactly.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
