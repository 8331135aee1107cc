"""E1-page dimension ledger and Euler identities, absolute and relative."""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkl.combinat import stirling1_unsigned, stirling2
from braidkl.fsmod import enumerate_surjections
from braidkl.graphmat import (
    Graph,
    _colour_classes,
    conf_betti,
    cone_extend,
    flat_masks,
    quotient_masks,
)
from braidkl.intpoly import falling_sum, pmul
from braidkl.klcore import _kl_graphic_coeffs, d_coeff, d_coeff_graph
from braidkl.polyseries import SeqTable, fit_rational
from braidkl.specseq import (
    b_dim,
    comp_dim,
    euler_form,
    euler_identity,
    euler_identity_graph,
    form_fit,
    form_series,
    ratio_diagnostic,
)
from fit_oracle import egf_form, partial_fractions, r_extract


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def oracle_comp_dim(p, j, n):
    """Sum over honest surjections and Kunneth gradings."""
    total = 0
    for f in enumerate_surjections(n, p + 1):
        sizes = [len(f.fiber(y)) for y in range(1, p + 2)]

        def count(idx, remaining):
            if idx == len(sizes):
                return 1 if remaining == 0 else 0
            acc = 0
            for d in range(0, min(remaining, sizes[idx] - 1) + 1):
                acc += conf_betti(complete(sizes[idx]), d) * count(
                    idx + 1, remaining - d
                )
            return acc

        total += count(0, j)
    return total


def convolution_powers(n, jcap):
    """Yield k and the table of the k-th power, k = 1, 2, ..., n, of the
    block series sum_b sum_j c(b, b-j)/b! x^b y^j (the Betti numbers of b
    points over b!), by exact Fraction convolution: entry [m][j] is the
    coefficient of x^m y^j.  Truncating to m <= n and j <= jcap leaves the
    kept entries exact."""
    block = [
        [Fraction(stirling1_unsigned(b, b - j), factorial(b)) if j < b else 0
         for j in range(jcap + 1)]
        for b in range(n + 1)
    ]
    power = [[Fraction(int(m == j == 0)) for j in range(jcap + 1)] for m in range(n + 1)]
    for k in range(1, n + 1):
        out = [[Fraction(0)] * (jcap + 1) for _ in range(n + 1)]
        for ma, row_a in enumerate(power):
            for ja, ca in enumerate(row_a):
                if ca:
                    for mb in range(1, n + 1 - ma):
                        for jb in range(jcap + 1 - ja):
                            out[ma + mb][ja + jb] += ca * block[mb][jb]
        power = out
        yield k, power


# --- comp_dim ---------------------------------------------------------------


def test_comp_dim_single_block():
    for n in range(1, 8):
        for j in range(n):
            assert comp_dim(0, j, n) == stirling1_unsigned(n, n - j)


def test_comp_dim_degree_zero():
    for n in range(1, 9):
        for p in range(0, n):
            assert comp_dim(p, 0, n) == factorial(p + 1) * stirling2(n, p + 1)


def test_comp_dim_example_113():
    assert oracle_comp_dim(1, 1, 3) == 6
    assert comp_dim(1, 1, 3) == 6


def test_comp_dim_against_surjection_oracle():
    for n in range(1, 6):
        for p in range(0, n):
            for j in range(0, 2 * n):
                assert comp_dim(p, j, n) == oracle_comp_dim(p, j, n)


def test_comp_dim_matches_convolution_oracle():
    nmax, jcap = 30, 8
    for k, table in convolution_powers(nmax, jcap):
        for n in range(k, nmax + 1):
            for j in range(jcap + 1):
                assert comp_dim(k - 1, j, n) == factorial(n) * table[n][j]


def test_comp_dim_divisible_by_label_group():
    for n in range(1, 9):
        for p in range(0, n):
            for j in range(0, n):
                assert comp_dim(p, j, n) % factorial(p + 1) == 0


def test_comp_dim_no_surjections():
    assert comp_dim(4, 0, 3) == 0


# --- b_dim ------------------------------------------------------------------


def test_b_dim_examples():
    assert b_dim(1, 1, 1, 4) == stirling2(4, 2) * 1 == 7
    for i in range(1, 4):
        for n in range(2, 10):
            assert b_dim(i, 2 * i, 0, n) == 0
    for i in (1, 2):
        for n in range(2, 10):
            assert b_dim(i, 2 * i - 1, 1, n) == stirling2(n, 2 * i) * d_coeff(
                i - 1, 2 * i
            )


def test_b_dim_support():
    for i in range(1, 4):
        for p in range(0, 2 * i + 3):
            for q in range(0, i + 1):
                if p + q > 2 * i:
                    assert b_dim(i, p, q, 8) == 0


def test_b_dim_h_cell():
    # the (0, i) cell is configuration homology itself
    for i in range(1, 4):
        for n in range(2, 8):
            assert b_dim(i, 0, i, n) == conf_betti(complete(n), i)


# --- Euler identities ----------------------------------------------------------


def test_euler_identity_examples():
    rep = euler_identity(1, 3)
    assert (rep["lhs"], rep["rhs"], rep["equal"]) == (0, 0, True)
    rep = euler_identity(1, 4)
    assert (rep["lhs"], rep["rhs"]) == (1, 1)
    rep = euler_identity(2, 6)
    assert rep["lhs"] == 15 and rep["equal"]


def test_euler_identity_grid():
    for i in range(1, 4):
        for n in range(i + 1, 13):
            assert euler_identity(i, n)["equal"], (i, n)


def test_euler_identity_cells_are_the_nonzero_b_dims():
    for i in range(1, 4):
        for n in range(1, 13):
            rep = euler_identity(i, n)
            want = [
                (p, q, b_dim(i, p, q, n))
                for p in range(2 * i + 1)
                for q in range(i + 1)
                if b_dim(i, p, q, n)
            ]
            assert rep["cells"] == want, (i, n)
            assert sum((-1) ** (p + q) * dim for p, q, dim in want) == rep["lhs"], (i, n)


def test_euler_identity_graph_examples():
    assert euler_identity_graph(Graph(0), 1, 4)["lhs"] == euler_identity(1, 4)["lhs"]
    rep = euler_identity_graph(Graph(1), 1, 3)
    assert rep["lhs"] == rep["rhs"] == d_coeff(1, 4) == 1
    rep = euler_identity_graph(Graph(2, [(0, 1)]), 1, 2)
    assert rep["lhs"] == rep["rhs"] == 1


def test_euler_identity_graph_matches_absolute():
    for i in (1, 2):
        for n in range(2, 9):
            rel = euler_identity_graph(Graph(0), i, n)
            absolute = euler_identity(i, n)
            assert rel["lhs"] == absolute["lhs"]
            assert rel["rhs"] == absolute["rhs"]


def test_euler_identity_graph_noncomplete_base():
    base = Graph(3, [(0, 1), (1, 2)])
    for n in range(1, 5):
        assert euler_identity_graph(base, 1, n)["equal"], n
    assert euler_identity_graph(base, 2, 4)["equal"]


def test_euler_identity_graph_bounds():
    # |H| past BASE_BOUND after the cone vertices are split off
    path13 = Graph(13, [(v, v + 1) for v in range(12)])
    start = time.monotonic()
    with pytest.raises(ValueError, match="out of reach"):
        euler_identity_graph(path13, 1, 0)
    assert time.monotonic() - start < 1


@lru_cache(maxsize=4)
def _flat_terms(gamma, n):
    """(p, Betti numbers of the flat's blocks convolved, KL coefficients of
    the quotient graph) for every connected partition, with p + 1 blocks,
    of cone(gamma, n), enumerated on bit masks."""
    cone = cone_extend(gamma, n)
    adj = cone.adjacency_masks()
    classes: dict = {}
    betti: dict = {}
    quotient_kl: dict = {}
    terms = []
    for blocks in flat_masks(adj, (1 << cone.n) - 1):
        conv = [1]
        for b in blocks:
            vec = betti.get(b)
            if vec is None:
                # a connected block: Betti numbers from chi / t, top down
                chi = falling_sum([[c] for c in _colour_classes(adj, b, classes)])
                vec = betti[b] = [abs(c) for c in reversed(chi[1:])]
            conv = pmul(conv, vec)
        q = tuple(quotient_masks(adj, blocks))
        kl = quotient_kl.get(q)
        if kl is None:
            kl = quotient_kl[q] = _kl_graphic_coeffs(Graph.from_masks(list(q)))
        terms.append((len(blocks) - 1, conv, kl))
    return terms


def flat_enumeration_ledger(gamma, i, n):
    """The relative ledger by enumerating every connected partition of
    cone(gamma, n): per flat, the product of the blocks' Betti numbers (read
    off each block's chromatic polynomial) in degree j = 2i-p-q times the
    KL coefficient of degree i-q of the quotient graph, with sign
    (-1)^(p+q).  Independent of the grouped flat sums of the cone
    recursion; rhs is d_coeff_graph."""
    lhs = 0
    for p, conv, kl in _flat_terms(gamma, n):
        for q_deg in range(0, i + 1):
            j = 2 * i - p - q_deg
            if 0 <= j < len(conv) and i - q_deg < len(kl):
                lhs += (-1) ** (p + q_deg) * conv[j] * kl[i - q_deg]
    return {"lhs": lhs, "rhs": d_coeff_graph(gamma, i, n)}


@st.composite
def relabelled_ledger_cases(draw):
    """A random connected graph H on at most 5 vertices under a random
    relabelling, k with |H| + k <= 8, and i <= 3."""
    h = draw(st.integers(1, 5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, h)}  # spanning tree
    pairs = [(u, v) for u in range(h) for v in range(u + 1, h)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(h)))
    edges |= {e for e, on in zip(pairs, flags) if on}
    gamma = Graph(h, [(perm[u], perm[v]) for u, v in edges])
    return gamma, draw(st.integers(1, 3)), draw(st.integers(0, 8 - h))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(relabelled_ledger_cases())
def test_euler_identity_graph_matches_flat_enumeration(case):
    gamma, i, n = case
    rep = euler_identity_graph(gamma, i, n)
    want = flat_enumeration_ledger(gamma, i, n)
    assert (rep["lhs"], rep["rhs"]) == (want["lhs"], want["rhs"])
    assert want["lhs"] == want["rhs"] and rep["equal"]


def test_euler_identity_graph_matches_flat_enumeration_examples():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c5 = Graph(5, [(v, (v + 1) % 5) for v in range(5)])
    for gamma, n in [(p4, 3), (p4, 5), (p4, 6), (c5, 4)]:
        for i in (1, 2, 3):
            rep = euler_identity_graph(gamma, i, n)
            want = flat_enumeration_ledger(gamma, i, n)
            assert (rep["lhs"], rep["rhs"]) == (want["lhs"], want["rhs"]), (n, i)
            assert rep["equal"]


# --- ratio diagnostics -----------------------------------------------------------


def test_ratio_diagnostic_i1():
    rows = ratio_diagnostic(1, range(4, 21))
    for n, cell, dim in rows:
        assert cell == Fraction(stirling2(n, 2), 2**n)
        assert dim == Fraction(d_coeff(1, n), 2**n)
    # S(n,2)/2^n approaches 1/2 from below
    cells = [row[1] for row in rows]
    assert all(a < b for a, b in zip(cells, cells[1:]))
    assert all(c < Fraction(1, 2) for c in cells)


def test_ratio_diagnostic_d1_near_half_at_20():
    (_, _, dim_ratio), = ratio_diagnostic(1, [20])
    assert abs(dim_ratio - Fraction(1, 2)) < Fraction(1, 50)


def test_ratio_diagnostic_vanishing_range():
    for i in (1, 2):
        for n in range(1, 2 * i + 1):
            (_, _, dim_ratio), = ratio_diagnostic(i, [n])
            assert dim_ratio == 0


# --- closed form of the generating functions ---------------------------------------


def test_euler_form_matches_braid_table():
    for i in range(1, 7):
        form = euler_form(i)
        want = [d_coeff(i, n) for n in range(1, 101)]
        assert form_series(form, 100) == [0] + want, i
        # the same values term by term, in Fractions rather than the scaled sum
        for n in (1, 2 * i, 2 * i + 1, 50):
            value = sum(s**n * sum(c * comb(n, k) for k, c in enumerate(g)) for s, g in form.items())
            assert value == want[n - 1], (i, n)


def test_euler_form_top_pole_is_the_limit_constant():
    for i in range(1, 7):
        form = euler_form(i)
        assert max(form) == 2 * i
        assert form[2 * i] == [Fraction(d_coeff(i - 1, 2 * i), factorial(2 * i))]
        assert all(g and g[-1] for g in form.values())


@pytest.mark.parametrize("i, n_max", [(1, 20), (2, 30), (3, 34)])
def test_form_fit_matches_fit_rational(i, n_max):
    """The oracle: search the denominator with fit_rational, then divide
    polynomials in partial_fractions, egf_form and r_extract."""
    form = euler_form(i)
    fit = form_fit(form)
    seq = SeqTable(1, [d_coeff(i, n) for n in range(1, n_max + 1)])
    oracle = fit_rational(seq, set(range(1, 2 * i + 1)))
    polypart, terms = partial_fractions(oracle)
    assert fit["denominator"] == list(oracle.den.coeffs)
    assert fit["numerator"] == list(oracle.num.coeffs)
    assert fit["partial_fractions"] == terms
    assert fit["poly_part"] == list(polypart.coeffs)
    assert fit["egf_polynomials"] == [list(p.coeffs) for p in egf_form(oracle)]
    r = [c for s, m, c in fit["partial_fractions"] if (s, m) == (2 * i, 1)]
    assert r == [r_extract(oracle, 2 * i)]


def test_form_fit_i4_poles():
    form = euler_form(4)
    mults = {s: len(g) for s, g in form.items()}
    assert mults == {1: 9, 2: 7, 3: 3, 4: 5, 5: 3, 6: 3, 7: 1, 8: 1}
    fit = form_fit(form)
    assert len(fit["denominator"]) - 1 == sum(mults.values()) == 32
    orders = {}
    for s, m, _ in fit["partial_fractions"]:
        orders[s] = max(orders.get(s, 0), m)
    assert orders == mults
    assert (8, 1, Fraction(7, 384)) in fit["partial_fractions"]
    # the numerator over the denominator expands back to the dims
    num, den = fit["numerator"], fit["denominator"]
    series = []
    for n in range(41):
        a = num[n] if n < len(num) else 0
        a -= sum(den[k] * series[n - k] for k in range(1, min(n, len(den) - 1) + 1))
        series.append(a)
    assert series == [0] + [d_coeff(4, n) for n in range(1, 41)]


def test_euler_form_rejects_i0():
    with pytest.raises(ValueError):
        euler_form(0)
