"""Hypothesis profiles: a bounded default for tier-1, a long one for nightly.

Tests that pin ``max_examples`` in their own ``@settings`` keep it; the
profile decides for the rest.  ``--hypothesis-profile=nightly`` picks the
long one (``.github/workflows/nightly.yml`` runs the codec properties so).
"""

from hypothesis import settings

settings.register_profile("bounded", max_examples=100, deadline=None)
settings.register_profile("nightly", max_examples=2000, deadline=None)


def pytest_configure(config):
    if config.getoption("--hypothesis-profile") is None:
        settings.load_profile("bounded")
