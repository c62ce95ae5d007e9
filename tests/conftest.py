"""Test-suite settings shared by every module under ``tests/``.

Hypothesis draws its examples from a fixed seed derived from each test
(``derandomize``) and keeps no example database, so every run of the suite,
locally or in CI, tries the same cases. Each test's own ``@settings`` still
sets its example count and deadline; a case found elsewhere is pinned with
``@example``.
"""
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
