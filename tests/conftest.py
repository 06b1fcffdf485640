"""Shared test settings and fixtures."""

import warnings

import pytest
from hypothesis import settings

from clclsa import numerics as nm

# a fixed example set on every run, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("deterministic")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    # hypothesis formats a failing example with libcst, whose import raises a
    # DeprecationWarning (from mypy_extensions) that this suite turns into an
    # error; import it here with that warning ignored, so the failure is
    # reported as a test failure rather than stopping the session
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


@pytest.fixture()
def accumulated(monkeypatch):
    """Every tensor handed to `numerics.accumulate_grad` during the test, in order."""
    seen = []
    accumulate = nm.accumulate_grad

    def recording(t, g):
        seen.append(t)
        accumulate(t, g)

    monkeypatch.setattr(nm, "accumulate_grad", recording)
    return seen
