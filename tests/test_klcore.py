"""Kazhdan-Lusztig recursions: braid fast path, generic graphic path,
coefficient tables, shortcuts, conjecture checker."""

from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkl.combinat import (
    Partition,
    partitions,
    set_partition_count_by_type,
    stirling1_unsigned,
    stirling2,
)
from braidkl.graphmat import (
    Graph,
    canonical_key,
    char_poly,
    components,
    cone_extend,
    flat_masks,
    induced_subgraph,
    is_connected,
    quotient_masks,
    reduced_chromatic,
)
from braidkl.intpoly import falling_sum, padd_into, pmul
import braidkl.graphmat as graphmat
import braidkl.klcore as klcore
from braidkl.klcore import (
    _braid_coeffs,
    _flat_sum,
    _kl_graphic_coeffs,
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
from braidkl.specseq import euler_identity_graph


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
            products[parts] = pmul(chi_product(parts[1:]), chi[parts[0]])
        return products[parts]

    table = [None, (1,)]
    for m in range(2, n + 1):
        rhs = [0] * m
        for lam in partitions(m):
            if len(lam) == m:
                continue
            term = pmul(chi_product(lam.parts), table[len(lam)])
            mult = set_partition_count_by_type(lam)
            for i, c in enumerate(term):
                rhs[i] += mult * c
        table.append(_solve_functional_equation(rhs, m - 1))
    return table


def flat_sum_table(n):
    """Braid rows 1..n by the older O(n^4) loop: row m sums P_l B_{m,l} over
    l < m, one _flat_sum product per earlier row."""
    table = [None, (1,)]
    for m in range(2, n + 1):
        rhs = [0] * m
        for ell in range(1, m):
            padd_into(rhs, pmul(table[ell], _flat_sum(m, ell)))
        table.append(_solve_functional_equation(rhs, m - 1))
    return table


_ORACLE_ROWS: dict = {}


def graph_flats(gamma):
    """Each flat of gamma as (vertex tuples of its blocks, localizations,
    contraction), by plain enumeration of the block masks."""
    adj = gamma.adjacency_masks()
    for blocks in flat_masks(adj, (1 << gamma.n) - 1):
        parts = [tuple(v for v in range(gamma.n) if b >> v & 1) for b in blocks]
        yield (
            parts,
            [induced_subgraph(gamma, part) for part in parts],
            Graph.from_masks(quotient_masks(adj, blocks)),
        )


def flat_enumeration_coeffs(gamma):
    """KL coefficients by the plain recursion over every flat of gamma,
    memoized by canonical key: an oracle independent of the cone
    recursion."""
    if gamma.n == 1:
        return (1,)
    key = canonical_key(gamma)
    if key in _ORACLE_ROWS:
        return _ORACLE_ROWS[key]
    chis, contractions = {}, {}
    rhs = [0] * gamma.n
    for parts, blocks, q in graph_flats(gamma):
        if len(parts) == gamma.n:
            continue  # the finest flat carries the unknown P itself
        chi = [1]
        for b, block in zip(parts, blocks):
            if b not in chis:
                chis[b] = [int(c) for c in char_poly(block).coeffs]
            chi = pmul(chi, chis[b])
        if q not in contractions:
            contractions[q] = flat_enumeration_coeffs(q)
        padd_into(rhs, pmul(chi, list(contractions[q])))
    row = _ORACLE_ROWS[key] = _solve_functional_equation(rhs, gamma.n - 1)
    return row


@contextmanager
def fresh_tables():
    """Run with empty KL memo tables, as in a new process."""
    saved = klcore._GRAPH_TABLE, klcore._BASES
    klcore._GRAPH_TABLE, klcore._BASES = {}, {}
    try:
        yield
    finally:
        klcore._GRAPH_TABLE, klcore._BASES = saved


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def cone_flat_sum(h, k):
    """The right side of the functional equation of cone(h, k), the finest
    flat included: the sum over every flat of chi(localization) times
    P(contraction).  A flat puts a set s of h-vertices with the k cone
    vertices into blocks that each hold a cone vertex and splits the rest
    by a flat of h; the cone-block weights come from the exponential
    formula in Fractions, every characteristic polynomial from graphmat, and
    P of each contraction from kl_graphic."""

    def egf(graph):  # sum_{c=1..k} chi(cone(graph, c)) x^c / c!
        return {c: char_poly(cone_extend(graph, c)) * Fraction(1, factorial(c))
                for c in range(1, k + 1)}

    def times(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                if i + j <= k:
                    out[i + j] = out.get(i + j, Poly([], "t")) + x * y
        return out

    pure = [{0: Poly([1], "t")}]  # powers of the series of cone blocks alone
    for _ in range(k):
        pure.append(times(pure[-1], egf(Graph(0))))
    total = Poly([], "t")
    for sbits in range(1 << h.n):
        s = [v for v in range(h.n) if sbits >> v & 1]
        weights = {}  # number of cone blocks -> weight
        for parts in set_partitions(s):
            series = {0: Poly([1], "t")}
            for part in parts:
                series = times(series, egf(induced_subgraph(h, part)))
            for p, power in enumerate(pure):
                term = times(series, power).get(k)
                if term is not None:
                    kk = len(parts) + p
                    weights[kk] = weights.get(kk, Poly([], "t")) + term * Fraction(
                        factorial(k), factorial(p)
                    )
        rest = induced_subgraph(h, [v for v in range(h.n) if not sbits >> v & 1])
        for _, blocks, quotient in graph_flats(rest):
            chi = Poly([1], "t")
            for block in blocks:
                chi = chi * char_poly(block)
            for kk, weight in weights.items():
                total = total + chi * weight * kl_graphic(cone_extend(quotient, kk))
    return total


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


def test_braid_rows_match_flat_sum_loop():
    old = flat_sum_table(100)
    with fresh_tables():
        for n in range(1, 101):
            assert _braid_coeffs(n) == old[n]


def braid_rows(rows):
    """Braid rows as row-table entries: row key of K_n -> row."""
    return {klcore._row_key(klcore._EMPTY_KEY, n): rows[n] for n in range(2, len(rows))}


def test_braid_sums_follow_a_replaced_row_table(monkeypatch):
    # a shorter table, as a reset leaves, and the full table back again
    old = flat_sum_table(40)
    _braid_coeffs(30)
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    assert _braid_coeffs(12) == old[12]
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", braid_rows(old[:21]))
    assert _braid_coeffs(40) == old[40]
    assert klcore._GRAPH_TABLE == braid_rows(old)
    assert len(klcore._cone_base(klcore._EMPTY_KEY, klcore._EMPTY)._g) == 41


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
        for _, blocks, quotient in graph_flats(g):
            chi = Poly([1], "t")
            for block in blocks:
                chi = chi * char_poly(block)
            rhs = rhs + chi * kl_graphic(quotient)
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


def test_d_coeff_graph_large_sparse_cone():
    # path base, 12 cone vertices: 15 vertices, beyond the flat enumeration
    base = Graph(3, [(0, 1), (1, 2)])
    cone = cone_extend(base, 12)
    p = kl_graphic(cone)
    assert p.reflect(cone.n - 1) == cone_flat_sum(base, 12)
    assert d_coeff_graph(base, 1, 12) == c1_count(cone) == 16278
    assert d_coeff_graph(base, 2, 12) == p.coeff(2) == 43618459
    assert d_coeff_graph(base, 7, 12) == 0


def test_cone_flat_sum_matches_functional_equation():
    for h, k in [
        (Graph(4, [(0, 1), (1, 2), (2, 3)]), 3),
        (Graph(4, [(0, 1), (2, 3)]), 2),
        (Graph(3), 4),
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 0),
    ]:
        cone = cone_extend(h, k)
        assert kl_graphic(cone).reflect(cone.n - 1) == cone_flat_sum(h, k)


def peeled_cone_blocks(h, s, j, memo=None):
    """W_s(j, k') for every k': the partitions of the vertex set s of h plus
    j labelled cone vertices into k' blocks that each hold a cone vertex,
    summed with the product of the blocks' reduced characteristic
    polynomials.  The block of the first cone vertex takes a sub-mask a of s
    and c - 1 of the other j - 1 cone vertices, C(j - 1, c - 1) ways."""
    memo = {} if memo is None else memo
    if (s, j) in memo:
        return memo[s, j]
    out = {0: Poly([1], "t")} if (s, j) == (0, 0) else {}
    if j:
        sub = s
        while True:
            part = induced_subgraph(h, [v for v in range(h.n) if sub >> v & 1])
            for c in range(1, j + 1):
                if ("w", sub, c) not in memo:
                    memo["w", sub, c] = char_poly(cone_extend(part, c))
                w = memo["w", sub, c] * comb(j - 1, c - 1)
                for kk, f in peeled_cone_blocks(h, s ^ sub, j - c, memo).items():
                    out[kk + 1] = out.get(kk + 1, Poly([], "t")) + w * f
            if not sub:
                break
            sub = (sub - 1) & s
    memo[s, j] = out
    return out


def test_cone_blocks_match_first_cone_vertex_peeling():
    # j cone vertices in k' blocks, with the vertices s of h spread over
    # them, weigh B_{j,k'} chi_{h[s]}(k' t - j)
    for h in [
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ]:
        memo = {}
        base = klcore._ConeBase(h, canonical_key(h))
        for j in range(6):
            for s in range(1 << h.n):
                xs = [[a] for a in base.classes(s)]
                got = {}
                for kk in range(j + 1):
                    f = Poly(pmul(falling_sum(xs, j, kk), _flat_sum(j, kk)), "t")
                    if f:
                        got[kk] = f
                want = {kk: f for kk, f in peeled_cone_blocks(h, s, j, memo).items() if f}
                assert got == want, (h, s, j)


def test_falling_at_matches_power_basis():
    # sum_N xs[N] (kk t - k)_N against the product of the linear factors, and
    # with xs the colour classes of h[s], against h[s]'s chromatic polynomial
    # from graphmat composed with kk t - k in the power basis
    h = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    base = klcore._ConeBase(h, canonical_key(h))
    xs = [[3, -1], [], [0, 0, 2], [-5], [1, 4, 0, 7]]
    for k in range(9):
        for kk in range(k + 1):
            want, falling = [], [1]
            for n, x in enumerate(xs):
                padd_into(want, pmul(x, falling))
                falling = pmul(falling, [-k - n, kk])
            assert Poly(falling_sum(xs, k, kk), "t") == Poly(want, "t")
            for s in range(1 << h.n):
                got = falling_sum([[a] for a in base.classes(s)], k, kk)
                sub = induced_subgraph(h, [v for v in range(h.n) if s >> v & 1])
                # reduced_chromatic divides by t once per component
                t_power = [0] * len(components(sub)) + [1]
                chi = pmul(t_power, list(reduced_chromatic(sub)))
                want, power = [], [1]
                for c in chi:
                    padd_into(want, power, c)
                    power = pmul(power, [-k, kk])
                assert Poly(got, "t") == Poly(want, "t"), (s, k, kk)


def test_flat_groups_one_per_contraction():
    # the groups sum every flat of cone(h, k) by contraction, once each, and
    # their sum against the contractions' rows is the flat sum computed from
    # the exponential formula
    for h, k in [
        (Graph(4, [(0, 1), (1, 2), (2, 3)]), 3),
        (Graph(4, [(0, 1), (2, 3)]), 2),
        (Graph(3), 4),
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 2),
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 0),
    ]:
        groups = klcore._flat_groups(klcore._cone_base(canonical_key(h), h), k)
        keys = [(qkey, c) for qkey, _, c, _ in groups]
        assert len(set(keys)) == len(keys)
        total = Poly([], "t")
        for qkey, q, c, chi in groups:
            total = total + Poly(pmul(chi, list(klcore._cone_row(qkey, q, c))), "t")
        assert total == cone_flat_sum(h, k), (h, k)


_LOOP_ROWS: dict = {}


def cone_row_loop(hkey, h, k):
    """KL coefficients of cone(h, k) by the loop over the flat groups of
    _flat_groups, one B_{k,k'} product per group and k', each contraction's
    row from this loop again: the cone recursion before its partial sums,
    kept as their oracle."""
    n = h.n + k
    if n == 1:
        return (1,)
    if (hkey, k) not in _LOOP_ROWS:
        for j in range(1, k):  # fewer cone vertices first: a shallow recursion
            cone_row_loop(hkey, h, j)
        rhs = [0] * n
        for qkey, q, c, chi in klcore._flat_groups(klcore._cone_base(hkey, h), k):
            if q.n + c < n:  # the finest flat carries the unknown P itself
                padd_into(rhs, pmul(chi, list(cone_row_loop(qkey, q, c))))
        _LOOP_ROWS[hkey, k] = _solve_functional_equation(rhs, n - 1)
    return _LOOP_ROWS[hkey, k]


@pytest.mark.parametrize(
    "h, top",
    [(Graph(4, [(0, 1), (1, 2), (2, 3)]), 60), (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 40)],
)
def test_cone_rows_match_flat_group_loop(h, top):
    hkey = canonical_key(h)
    with fresh_tables():
        got = [klcore._cone_row(hkey, h, k) for k in range(1, top + 1)]
    assert got == [cone_row_loop(hkey, h, k) for k in range(1, top + 1)]


@st.composite
def cone_bases(draw):
    """A random graph on at most 5 vertices, connected or not, less its
    universal vertices: a base without a universal vertex."""
    n = draw(st.integers(0, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return klcore._split_cone(Graph(n, [e for e, on in zip(pairs, flags) if on]))[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cone_bases())
def test_cone_rows_match_flat_group_loop_on_random_bases(h):
    hkey = canonical_key(h)
    with fresh_tables():
        got = [klcore._cone_row(hkey, h, k) for k in range(1, 13)]
    assert got == [cone_row_loop(hkey, h, k) for k in range(1, 13)], h


def test_vertex_count_beyond_key_byte_fails_fast():
    # the vertex bound of the recursion sits below the key byte's limit
    base = Graph(3, [(0, 1), (1, 2)])
    assert klcore.VERTEX_BOUND < graphmat.KEY_VERTEX_LIMIT
    with pytest.raises(ValueError, match="at most 100"):
        d_coeff_graph(base, 1, 253)
    with pytest.raises(ValueError, match="at most 100"):
        kl_graphic(complete(300))
    with pytest.raises(ValueError, match="one byte"):
        graphmat._count_byte(graphmat.KEY_VERTEX_LIMIT + 1)


@pytest.mark.parametrize(
    "h, k, admitted",
    [(4, 96, True), (10, 24, True), (10, 25, False), (7, 48, True), (7, 49, False), (5, 95, False)],
)
def test_joint_cone_bound(monkeypatch, h, k, admitted):
    """2^|H| k^3 is bounded by its value at cone(P4, 96); the rows are not
    built, only the check is made."""
    assert klcore.CONE_WORK_BOUND == 2**4 * 96**3
    monkeypatch.setattr(klcore, "_cone_row", lambda hkey, base, kk: ("built", base.n, kk))
    path = Graph(h, [(v, v + 1) for v in range(h - 1)])
    if admitted:
        assert klcore._cone_coeffs(path, k) == ("built", h, k)
    else:
        with pytest.raises(ValueError, match=r"handles 2\^\|H\| k\^3 <= 14155776"):
            klcore._cone_coeffs(path, k)


@st.composite
def relabelled_cones(draw):
    """A random connected graph H on at most 5 vertices, k <= 4 and a random
    relabelling of cone(H, k)."""
    n = draw(st.integers(1, 5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # spanning tree
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else set()
    h = Graph(n, edges)
    k = draw(st.integers(0, 4))
    perm = draw(st.permutations(range(n + k)))
    return h, k, relabel(cone_extend(h, k), perm)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(relabelled_cones())
def test_cone_recursion_matches_flat_enumeration(case):
    h, k, cone = case
    assert is_connected(h)
    with fresh_tables():
        got = _kl_graphic_coeffs(cone)
    with fresh_tables():
        assert _kl_graphic_coeffs(cone_extend(h, k)) == got
    with fresh_tables():
        assert klcore._cone_coeffs(h, k) == got
    assert got == flat_enumeration_coeffs(cone)


@st.composite
def bases_that_are_not_cone_free(draw):
    """A base gamma on at most 7 vertices that is disconnected or has
    universal vertices of its own, randomly relabelled, and k in 1..4: the
    inputs where resolving (gamma, k) without the cone must merge gamma's
    universal vertices into k and must not ask whether gamma is connected."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    core = Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else ())
    if draw(st.booleans()):
        other = draw(st.integers(1, 2))  # a disjoint path: gamma is disconnected
        path = {(v, v + 1) for v in range(n, n + other - 1)}
        gamma = Graph(n + other, set(core.edges) | path)
    else:
        gamma = cone_extend(core, draw(st.integers(1, 2)))
    gamma = relabel(gamma, draw(st.permutations(range(gamma.n))))
    return gamma, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(bases_that_are_not_cone_free())
def test_cone_input_resolves_bases_with_universal_vertices_or_components(case):
    gamma, k = case
    cone = cone_extend(gamma, k)
    assert not is_connected(gamma) or any(
        m | 1 << v == (1 << gamma.n) - 1 for v, m in enumerate(gamma.adjacency_masks())
    )
    with fresh_tables():
        got = klcore._cone_coeffs(gamma, k)
    with fresh_tables():
        assert _kl_graphic_coeffs(cone) == got
    for i in range(1, len(got) + 1):
        rep = euler_identity_graph(gamma, i, k)
        assert rep["equal"] and rep["rhs"] == (got[i] if i < len(got) else 0), (i, rep)


def test_cone_input_errors():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        klcore._cone_coeffs(p4, -1)
    with pytest.raises(ValueError, match="^graph must have at least one vertex$"):
        klcore._cone_coeffs(Graph(0), 0)
    with pytest.raises(ValueError, match="^disconnected graph: KL polynomials multiply"):
        klcore._cone_coeffs(Graph(4, [(0, 1), (2, 3)]), 0)
    with pytest.raises(ValueError, match="^disconnected graph"):
        _kl_graphic_coeffs(Graph(3, [(0, 1)]))
    # with a cone vertex the empty and the disconnected graph are admitted
    assert klcore._cone_coeffs(Graph(0), 3) == _braid_coeffs(3)
    assert klcore._cone_coeffs(Graph(4, [(0, 1), (2, 3)]), 1) == _kl_graphic_coeffs(
        cone_extend(Graph(4, [(0, 1), (2, 3)]), 1)
    )


@pytest.mark.parametrize("row", ["braid", "cone"])
@pytest.mark.parametrize(
    "n, shift, message",
    [
        (4, {0: 1}, "low read"),
        (5, {2: 1}, "middle"),
        (6, {4: 1}, "low read"),
        (6, {0: -1, 5: 1}, "constant term"),
        (6, {1: 10**6, 4: -(10**6)}, "negative KL coefficient"),
    ],
)
def test_kl_consistency_checks_catch_a_perturbed_flat_sum(monkeypatch, row, n, shift, message):
    """The flat sum of K_n, or of cone(P3, n - 3), shifted in some t-degrees
    before the read-off; the shifts of the last two keep the low read
    consistent and break the constant term or the sign."""
    real = klcore._solve_functional_equation

    def perturbed(rhs, rank):
        rhs = list(rhs)
        if rank == n - 1:
            for degree, delta in shift.items():
                rhs[degree] += delta
        return real(rhs, rank)

    monkeypatch.setattr(klcore, "_solve_functional_equation", perturbed)
    with fresh_tables(), pytest.raises(ArithmeticError, match=message):
        if row == "braid":
            _braid_coeffs(n)
        else:
            klcore._cone_coeffs(Graph(3, [(0, 1), (1, 2)]), n - 3)


def test_cone_recursion_matches_flat_enumeration_examples():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for g in [
        cone_extend(Graph(4, [(0, 1), (1, 2), (2, 3)]), 5),
        cone_extend(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 3),
        cone_extend(star, 4),
        Graph(8, [(k, (k + 1) % 8) for k in range(8)] + [(0, 4)]),
    ]:
        assert _kl_graphic_coeffs(g) == flat_enumeration_coeffs(g)


@st.composite
def connected_graphs(draw):
    """A random connected graph on at most 7 vertices: a random spanning
    tree plus any set of further edges."""
    n = draw(st.integers(1, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, edges | {e for e, on in zip(pairs, flags) if on})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
def test_c1_count_is_linear_coefficient(g):
    coeffs = _kl_graphic_coeffs(g)
    assert c1_count(g) == (coeffs[1] if len(coeffs) > 1 else 0)


def test_braid_rows_through_empty_base():
    with fresh_tables():
        for n in range(1, 41):
            assert _kl_graphic_coeffs(complete(n)) == _braid_coeffs(n)
        assert len(klcore._GRAPH_TABLE) == 39  # rows 2..40, one per n


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
    assert all(key.startswith("graph:") for key in records)
    # no braid rows: no row of the empty base
    empty = klcore._EMPTY_KEY[1:]
    assert not [key for key in records if bytes.fromhex(key[6:])[2:] == empty]
    kl_cache_import(records)  # idempotent
    assert kl_cache_export() == records
    # the graph rows load into an empty table
    monkeypatch.setattr(klcore, "_GRAPH_TABLE", {})
    kl_cache_import(records)
    assert kl_cache_export() == records
    # braid rows of an older file are ignored, even wrong ones, under their
    # old name and as rows of the empty base
    k6 = "graph:" + klcore._row_key(klcore._EMPTY_KEY, 6).hex()
    kl_cache_import(dict(records, **{"braid:6": ["1", "9", "9"], "braid:9": ["1"], k6: ["1", "9", "9"]}))
    assert kl_cache_export() == records
    assert not [key for key in klcore._GRAPH_TABLE if key[2:] == empty]
    assert kl_braid(6) == Poly([1, 16, 15], "t")
