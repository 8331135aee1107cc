"""Shared fixtures."""

import pytest

import braidkl.klcore as klcore


@pytest.fixture
def new_process(monkeypatch):
    """No cone base, and so no KL row, as in a new process; call the
    returned function to start another."""

    def reset():
        monkeypatch.setattr(klcore, "_BASES", {})

    reset()
    return reset
