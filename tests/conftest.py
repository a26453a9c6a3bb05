"""Shared fixtures for the whole suite."""

import pytest


@pytest.fixture(autouse=True)
def _default_enum_limit(monkeypatch):
    # the expansion guard reads VCLDE_ENUM_LIMIT at every call, so a value
    # inherited from the shell would change what the tests see; a test that
    # needs a limit sets it
    monkeypatch.delenv("VCLDE_ENUM_LIMIT", raising=False)
