"""Caches fill under get-or-compute; concurrent use must match sequential."""

import concurrent.futures
import sys
from math import comb

import braidkl.eqcore as eqcore
import braidkl.eqkl as eqkl
import braidkl.klcore as klcore
from braidkl.graphmat import Graph, cone_extend
from braidkl.klcore import d_coeff, kl_braid, kl_graphic


def test_braid_table_concurrent_fill(monkeypatch):
    # rows 2..90 built from an empty table, with threads switching every
    # microsecond, so that table extensions overlap unless they are serialized
    targets = [83, 90, 86, 81, 88, 85] * 4
    monkeypatch.setattr(klcore, "_BRAID", [None, (1,)])
    expected = {n: kl_braid(n) for n in targets}
    monkeypatch.setattr(klcore, "_BRAID", [None, (1,)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(kl_braid, targets, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for n, poly in zip(targets, results):
        assert poly == expected[n]
        assert poly.coeff(1) == 2 ** (n - 1) - 1 - comb(n, 2)
    table = klcore._BRAID
    assert len(table) == 91  # a lost or doubled append shifts every later row
    assert d_coeff(2, 90) == table[90][2]


def test_eqkl_memo_concurrent_fill():
    targets = [8, 5, 7, 2, 6, 8, 4, 7, 3, 6] * 3
    expected = {n: eqkl.eqkl_braid(n) for n in targets}
    for memo in (eqcore._eqkl_values, eqcore._char_values, eqcore._char_powers, eqcore._merge):
        memo.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(eqkl.eqkl_braid, targets, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for n, graded in zip(targets, results):
        assert graded == expected[n]


def test_graph_table_concurrent_fill(monkeypatch):
    graphs = [
        Graph(6, [(k, (k + 1) % 6) for k in range(6)]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        cone_extend(Graph(4, [(0, 1), (1, 2), (2, 3)]), 6),
        Graph(5, [(0, k) for k in range(1, 5)]),
        cone_extend(Graph(4, [(0, 1), (2, 3)]), 5),
        cone_extend(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 4),
    ] * 4
    expected = [kl_graphic(g) for g in graphs]
    # empty tables, with threads switching every microsecond, so that rows
    # and per-base data are filled by overlapping threads
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    monkeypatch.setattr(klcore, "_BASES", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(kl_graphic, graphs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_cone_rows_concurrent_refill(monkeypatch):
    # the bases keep their flat tables from the sequential pass and only the
    # rows are emptied, so overlapping threads weight the shared tables for
    # different numbers of cone vertices at once, in no particular order
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    graphs = [cone_extend(p4, k) for k in (9, 3, 7, 5, 8, 4)]
    graphs += [cone_extend(c5, k) for k in (6, 2, 5)]
    graphs *= 4
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    monkeypatch.setattr(klcore, "_BASES", {})
    expected = [kl_graphic(g) for g in graphs]
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(kl_graphic, graphs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
