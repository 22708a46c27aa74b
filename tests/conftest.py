"""Hypothesis profiles.  `ci` draws the same examples on every run and
prints a reproduction blob for a failure; select it with
HYPOTHESIS_PROFILE=ci."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
