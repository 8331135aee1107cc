"""Suite runner surface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkl.klcore as klcore
from braidkl.graphmat import Graph
from braidkl.verify import (
    SUITES,
    _braid_residual,
    _braid_vs_flat_groups,
    _graph_residual,
    run_suite,
)


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_named_suites_exist():
    assert {"paper-i1", "paper-i2", "euler", "fs", "conjecture", "relative"} <= set(
        SUITES
    )


def test_fs_suite_green():
    checks = run_suite("fs")
    assert checks and all(c["ok"] for c in checks)


def test_conjecture_suite_records_verdict():
    checks = run_suite("conjecture")
    names = [c["name"] for c in checks]
    assert "conjecture-i4-report" in names
    # the i=4 entry is a report, not a gate
    i4 = next(c for c in checks if c["name"] == "conjecture-i4-report")
    assert i4["ok"] and "computed" in i4["detail"]


@st.composite
def connected_graphs(draw):
    """A random connected graph on 1..8 vertices: a random spanning tree plus
    any further vertex pairs."""
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, sorted(edges | {e for e, on in zip(pairs, flags) if on}))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
def test_graph_residual_on_random_connected_graphs(g):
    assert _graph_residual(g)


def _bump_last(row):
    return row[:-1] + (row[-1] + 1,)


def test_braid_residual_fails_on_a_perturbed_row(monkeypatch):
    real = klcore._braid_coeffs
    monkeypatch.setattr(
        klcore, "_braid_coeffs", lambda m: _bump_last(real(m)) if m == 6 else real(m)
    )
    assert _braid_residual(5)
    assert not _braid_residual(6)


def test_braid_vs_graphic_fails_on_a_perturbed_sums_row(monkeypatch):
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    monkeypatch.setattr(klcore, "_BASES", {})
    assert _braid_vs_flat_groups(8)
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    monkeypatch.setattr(klcore, "_BASES", {})
    klcore._braid_coeffs(7)
    # G_7 of the empty base moved in t^1 and t^6: row 8 stays consistent, and
    # its t^1 coefficient moves by c(8, 7) = 28
    sums = klcore._BASES[klcore._EMPTY_KEY]._g[7][0]
    sums[1] += 1
    sums[6] -= 1
    assert not _braid_vs_flat_groups(8)
    assert klcore._braid_coeffs(8)[1] == 2**7 - 1 - 28 + 28


def test_graph_residual_fails_on_a_perturbed_row(monkeypatch):
    cycle = Graph(6, [(k, (k + 1) % 6) for k in range(6)])
    real = klcore._kl_graphic_coeffs
    monkeypatch.setattr(
        klcore,
        "_kl_graphic_coeffs",
        lambda g: _bump_last(real(g)) if g == cycle else real(g),
    )
    assert _graph_residual(Graph(5, [(k, (k + 1) % 5) for k in range(5)]))
    assert not _graph_residual(cycle)
