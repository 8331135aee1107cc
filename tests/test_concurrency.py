"""Caches fill under get-or-compute; concurrent use must match sequential."""

import concurrent.futures
import sys
from math import comb

import braidkl.eqcore as eqcore
import braidkl.eqkl as eqkl
import braidkl.klcore as klcore
from braidkl.graphmat import Graph, cone_extend
from braidkl.klcore import d_coeff, kl_braid, kl_graphic


def test_cone_sums_concurrent_fill(monkeypatch):
    # braid rows 2..90 and rows of cone(P4, k) built from empty tables, with
    # threads switching every microsecond, so that extensions of a base's
    # rows and partial sums overlap unless they are serialized
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    targets = [("braid", n) for n in (83, 90, 86, 81, 88, 85)]
    targets += [("p4", k) for k in (30, 24, 28, 21, 26)]
    targets *= 4

    def row(target):
        kind, n = target
        return kl_braid(n) if kind == "braid" else kl_graphic(cone_extend(p4, n))

    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    monkeypatch.setattr(klcore, "_BASES", {})
    expected = {t: row(t) for t in targets}
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    monkeypatch.setattr(klcore, "_BASES", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(row, targets, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (kind, n), poly in zip(targets, results):
        assert poly == expected[kind, n]
        if kind == "braid":
            assert poly.coeff(1) == 2 ** (n - 1) - 1 - comb(n, 2)
    # a lost or doubled append shifts every later row and sum
    base = klcore._BASES[klcore._EMPTY_KEY]
    assert len(base._rows) == len(base._r) == len(base._g) == 91
    assert d_coeff(2, 90) == base._rows[90][2]


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
