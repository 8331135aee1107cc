"""Kazhdan-Lusztig recursions: braid fast path, generic graphic path,
coefficient tables, shortcuts, conjecture checker."""

from fractions import Fraction
from math import comb

import pytest

from braidkl.combinat import (
    Partition,
    partitions,
    set_partition_count_by_type,
    stirling1_unsigned,
    stirling2,
)
from braidkl.graphmat import Graph, cone_extend, connected_partitions, contract, localize, char_poly
import braidkl.klcore as klcore
from braidkl.klcore import (
    _braid_coeffs,
    _flat_sum,
    _pmul,
    _solve_functional_equation,
    c1_count,
    conjecture_top_check,
    d_coeff,
    d_coeff_graph,
    kl_braid,
    kl_cache_export,
    kl_cache_import,
    kl_graphic,
)
from braidkl.polyseries import Poly


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def chi_complete(b):
    # reduced characteristic polynomial of the braid matroid K_b
    chi = Poly([1], "t")
    for k in range(1, b):
        chi = chi * Poly([-k, 1], "t")
    return chi


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        yield [[first]] + p
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1 :]


def type_indexed_table(n):
    """Braid rows 1..n by the older sum over the p(m) block-size types of the
    flats, each type weighted by its number of set partitions."""
    chi = {b: [int(c) for c in chi_complete(b).coeffs] for b in range(1, n + 1)}
    products = {(): [1]}

    def chi_product(parts):
        if parts not in products:
            products[parts] = _pmul(chi_product(parts[1:]), chi[parts[0]])
        return products[parts]

    table = [None, (1,)]
    for m in range(2, n + 1):
        rhs = [0] * m
        for lam in partitions(m):
            if len(lam) == m:
                continue
            term = _pmul(chi_product(lam.parts), table[len(lam)])
            mult = set_partition_count_by_type(lam)
            for i, c in enumerate(term):
                rhs[i] += mult * c
        table.append(_solve_functional_equation(rhs, m - 1))
    return table


def d1_formula(n):
    return 2 ** (n - 1) - 1 - comb(n, 2) if n >= 1 else 0


def d2_formula(n):
    def s1(a, b):
        return stirling1_unsigned(a, b) if b >= 0 else 0

    return (
        s1(n, n - 2)
        - stirling2(n, n - 1) * stirling2(n - 1, 2)
        + stirling2(n, 3)
        + stirling2(n, 4)
    )


# --- braid path -----------------------------------------------------------


def test_kl_braid_small():
    assert kl_braid(1) == Poly([1], "t")
    assert kl_braid(2) == Poly([1], "t")
    assert kl_braid(3) == Poly([1], "t")
    assert kl_braid(4) == Poly([1, 1], "t")


def test_kl_braid_six_and_seven():
    assert kl_braid(6) == Poly([1, 16, 15], "t")
    p7 = kl_braid(7)
    assert p7.coeff(1) == 42
    assert p7.coeff(2) == 175


def test_kl_braid_twenty_linear():
    assert d_coeff(1, 20) == 524097
    assert d_coeff(1, 20) == d1_formula(20)


def test_d_coeff_formulas_through_25():
    for n in range(1, 26):
        assert d_coeff(1, n) == d1_formula(n)
        assert d_coeff(2, n) == d2_formula(n)


def test_d_coeff_vanishing():
    for i in range(1, 6):
        assert d_coeff(i, 2 * i) == 0
    assert d_coeff(0, 1) == 1
    for n in range(2, 10):
        assert d_coeff(0, n) == 1
    assert d_coeff(-1, 5) == 0


def test_kl_polynomial_shape_invariants():
    # constant term 1, nonnegative coefficients, degree strictly below rank/2
    for n in range(1, 26):
        p = kl_braid(n)
        assert p.coeff(0) == 1
        assert all(c >= 0 for c in p.coeffs)
        rank = n - 1
        assert 2 * p.degree() < rank or (rank == 0 and p.degree() == 0)


def test_braid_functional_equation_residual():
    for n in range(1, 11):
        p = kl_braid(n)
        rhs = Poly([], "t")
        for lam in partitions(n):
            chi = Poly([1], "t")
            for part in lam:
                chi = chi * chi_complete(part)
            rhs = rhs + set_partition_count_by_type(lam) * chi * kl_braid(len(lam))
        assert p.reflect(n - 1) == rhs


def test_flat_sum_matches_set_partition_enumeration():
    for m in range(1, 8):
        by_blocks = {}
        for blocks in set_partitions(list(range(m))):
            term = Poly([1], "t")
            for block in blocks:
                term = term * chi_complete(len(block))
            by_blocks[len(blocks)] = by_blocks.get(len(blocks), Poly([], "t")) + term
        assert sorted(by_blocks) == list(range(1, m + 1))
        for ell, want in by_blocks.items():
            assert Poly(_flat_sum(m, ell), "t") == want


def test_braid_rows_match_type_indexed_sum():
    old = type_indexed_table(30)
    for n in range(1, 31):
        assert _braid_coeffs(n) == old[n]


# --- graphic path -----------------------------------------------------------


def test_kl_graphic_examples():
    assert kl_graphic(complete(3)) == Poly([1], "t")
    assert kl_graphic(complete(4)) == Poly([1, 1], "t")
    assert kl_graphic(complete(6)) == Poly([1, 16, 15], "t")


def test_kl_graphic_matches_braid():
    for n in range(1, 8):
        assert kl_graphic(complete(n)) == kl_braid(n)


def test_kl_graphic_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        kl_graphic(Graph(4, [(0, 1), (2, 3)]))


def test_graphic_functional_equation_residual():
    graphs = [
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
        cone_extend(Graph(2, [(0, 1)]), 3),
        Graph(6, [(k, (k + 1) % 6) for k in range(6)]),
        Graph(7, [(0, k) for k in range(1, 7)] + [(1, 2), (3, 4)]),
        Graph(8, [(k, (k + 1) % 8) for k in range(8)] + [(0, 4)]),
    ]
    for g in graphs:
        p = kl_graphic(g)
        rhs = Poly([], "t")
        for pi in connected_partitions(g):
            chi = Poly([1], "t")
            for block in localize(g, pi):
                chi = chi * char_poly(block)
            rhs = rhs + chi * kl_graphic(contract(g, pi))
        assert p.reflect(g.n - 1) == rhs


# --- cone coefficients --------------------------------------------------------


def test_d_coeff_graph_point_cone():
    for n in range(1, 12):
        assert d_coeff_graph(Graph(1), 1, n) == d_coeff(1, n + 1)
    # large n goes through the complete-graph fast path
    assert d_coeff_graph(Graph(1), 1, 22) == d_coeff(1, 23)


def test_d_coeff_graph_small_cone_recursion():
    g = Graph(2, [(0, 1)])
    for n in range(1, 6):
        cone = cone_extend(g, n)
        assert d_coeff_graph(g, 1, n) == kl_graphic(cone).coeff(1)


def test_d_coeff_graph_large_sparse_cone_uses_shortcut():
    # path base, 12 cone vertices: 15 > CANON_BOUND, i = 1 goes via subsets
    base = Graph(3, [(0, 1), (1, 2)])
    got = d_coeff_graph(base, 1, 12)
    assert got == c1_count(cone_extend(base, 12))
    with pytest.raises(ValueError):
        d_coeff_graph(base, 2, 12)


# --- c1 shortcut ---------------------------------------------------------------


def test_c1_examples():
    assert c1_count(complete(3)) == 0
    assert c1_count(complete(5)) == 5
    for n in range(2, 9):
        assert c1_count(complete(n)) == stirling2(n, 2) - comb(n, 2)


def test_c1_matches_recursion():
    graphs = [
        complete(4),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        Graph(5, [(0, k) for k in range(1, 5)]),
        Graph(6, [(k, (k + 1) % 6) for k in range(6)]),
        cone_extend(Graph(3, [(0, 1), (1, 2)]), 2),
        Graph(8, [(k, (k + 1) % 8) for k in range(8)] + [(0, 4)]),
    ]
    for g in graphs:
        assert c1_count(g) == kl_graphic(g).coeff(1)


# --- conjecture -----------------------------------------------------------------


def test_conjecture_checker():
    assert conjecture_top_check(1) == {
        "i": 1, "computed": 1, "predicted": 1, "equal": True,
    }
    assert conjecture_top_check(2)["computed"] == 1
    assert conjecture_top_check(2)["equal"]
    rep3 = conjecture_top_check(3)
    assert rep3["computed"] == 15 and rep3["predicted"] == 15
    rep4 = conjecture_top_check(4)
    assert rep4["predicted"] == 735
    assert rep4["computed"] == d_coeff(3, 8)


def test_conjecture_checker_stable():
    assert conjecture_top_check(4) == conjecture_top_check(4)


def test_conjecture_holds_through_i20():
    for i in range(2, 21):
        assert conjecture_top_check(i)["equal"], i


# --- cache ----------------------------------------------------------------------


def test_cache_roundtrip(monkeypatch):
    kl_braid(6)
    kl_graphic(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    records = kl_cache_export()
    assert records
    assert all(key.startswith("graph:") for key in records)  # no braid rows
    kl_cache_import(records)  # idempotent
    assert kl_cache_export() == records
    # the graph rows load into an empty table
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    kl_cache_import(records)
    assert kl_cache_export() == records
    # braid rows of an older file are ignored, even wrong ones
    monkeypatch.setattr(klcore, "_BRAID", [None, (1,)])
    kl_cache_import(dict(records, **{"braid:6": ["1", "9", "9"], "braid:9": ["1"]}))
    assert kl_cache_export() == records
    assert klcore._BRAID == [None, (1,)]
    assert kl_braid(6) == Poly([1, 16, 15], "t")
