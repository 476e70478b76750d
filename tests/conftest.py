"""Hypothesis profiles: tier-1 draws the same examples on every run.

``tier1``, loaded by default, derives each test's examples from the
test itself and keeps no example database, so a failure repeats on
every run and every machine, and prints the blob that replays it.
``HYPOTHESIS_PROFILE=deep`` draws fresh random examples instead, and
``examples`` gives each test ten times the examples it asks for.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, print_blob=True)
settings.register_profile("deep", derandomize=False, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """``max_examples`` for a test that draws ``n`` under ``tier1``; an
    explicit ``max_examples`` overrides the profile, so it scales here."""
    return {"tier1": n, "deep": 10 * n}[PROFILE]
