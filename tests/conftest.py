"""Shared fixtures."""

import pytest

import braidkl.klcore as klcore


@pytest.fixture
def new_process(monkeypatch):
    """Empty KL row table and cone bases, as in a new process; call the
    returned function to start another.  The two are reset together: a
    base's partial sums belong to the rows of one table."""

    def reset():
        monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
        monkeypatch.setattr(klcore, "_BASES", {})

    reset()
    return reset
