"""Graphs, flats, characteristic polynomials, canonical forms, Betti numbers."""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkl.combinat import bell, stirling1_unsigned
from braidkl.intpoly import falling_factorial, falling_sum, pmul
from braidkl.graphmat import (
    CANON_BOUND,
    CHROMATIC_BOUND,
    Graph,
    _chromatic,
    _colour_classes,
    canonical_key,
    char_poly,
    components,
    cone_extend,
    conf_betti,
    flat_masks,
    induced_subgraph,
    is_connected,
    load_graph,
    matroid_rank,
    quotient_masks,
)
from braidkl.polyseries import Poly


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return Graph(n, [(k, k + 1) for k in range(n - 1)])


def star(n):
    return Graph(n, [(0, k) for k in range(1, n)])


def cycle(n):
    return Graph(n, [(k, (k + 1) % n) for k in range(n)])


def oracle_colorings(g, q):
    """Count proper colorings by exhaustive enumeration."""
    total = 0
    for coloring in itertools.product(range(q), repeat=g.n):
        if all(coloring[u] != coloring[v] for u, v in g.edges):
            total += 1
    return total


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def flats(g):
    """The flats of g, each a list of block bit masks."""
    return list(flat_masks(g.adjacency_masks(), (1 << g.n) - 1))


def members(mask):
    """The vertices of a bit mask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def contraction(g, blocks):
    return Graph.from_masks(quotient_masks(g.adjacency_masks(), blocks))


# --- construction ----------------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    g = Graph(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_cone_extend_examples():
    assert cone_extend(Graph(0), 5) == complete(5)
    assert cone_extend(Graph(1), 3) == complete(4)
    assert cone_extend(Graph(2, [(0, 1)]), 2) == complete(4)
    # exhaustive adjacency check on a non-complete base
    g = cone_extend(path(3), 2)
    for w in (3, 4):
        for u in range(5):
            if u != w:
                assert g.has_edge(u, w)
    assert not g.has_edge(0, 2)


# --- flats -------------------------------------------------------------------


def test_connected_partitions_examples():
    assert len(flats(complete(3))) == 5
    assert len(flats(path(3))) == 4
    excluded = [0b101, 0b010]  # {0, 2} is not connected in the path 0-1-2
    assert excluded not in flats(path(3))
    assert len(flats(Graph(1))) == 1


def test_connected_partitions_complete_is_bell():
    for n in range(1, 9):
        assert len(flats(complete(n))) == bell(n)


# --- characteristic polynomial ------------------------------------------------


def test_char_poly_complete_graphs():
    for n in range(1, 8):
        expect = Poly([1], "t")
        for k in range(1, n):
            expect = expect * Poly([-k, 1], "t")
        assert char_poly(complete(n)) == expect


def test_char_poly_examples():
    assert char_poly(Graph(1)) == Poly([1], "t")
    # C4: (t-1)(t^2-3t+3)
    assert char_poly(cycle(4)) == Poly([-1, 1], "t") * Poly([3, -3, 1], "t")


def test_char_poly_counts_colorings():
    graphs = [path(4), cycle(5), star(5), complete(4), Graph(5, [(0, 1), (2, 3)])]
    for g in graphs:
        cp = char_poly(g)
        ncomp = len(components(g))
        for q in range(5):
            assert cp(q) * q**ncomp == oracle_colorings(g, q)


def test_char_poly_grid_4x4_counts_colourings():
    # deletion-contraction over its 24 edges took minutes on this graph
    grid = Graph(
        16,
        [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
        + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)],
    )
    cp = char_poly(grid)
    assert cp.degree() == 15
    assert cp(2) * 2 == 2  # the two chessboard colourings
    assert cp(3) * 3 == 7812


def test_chromatic_edgeless_triangles_tree_and_wide_cone():
    assert _chromatic(Graph(15)) == (0,) * 15 + (1,)
    # components multiply: seven triangles, which one recursion over all 21
    # vertices would take tens of seconds to colour
    sides = ((0, 1), (1, 2), (0, 2))
    triangles = [(3 * c + a, 3 * c + b) for c in range(7) for a, b in sides]
    expect = [1]
    for _ in range(7):
        expect = pmul(expect, falling_factorial(3))
    assert _chromatic(Graph(21, triangles)) == tuple(expect)
    # a spider: legs of 4, 4 and 5 vertices at a centre, so a tree on 14
    legs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]
    legs += [(0, 9), (9, 10), (10, 11), (11, 12), (12, 13)]
    tree = [1]
    for _ in range(13):
        tree = pmul(tree, [-1, 1])
    assert _chromatic(Graph(14, legs)) == tuple(pmul([0, 1], tree))
    # cone(P4, 300) is (t)_300 chi_P4(t - 300), chi_P4(t) = t (t - 1)^3; the
    # universal vertices must not deepen the recursion
    shifted = [-300, 1]
    for _ in range(3):
        shifted = pmul(shifted, [-301, 1])
    expect = pmul(falling_factorial(300), shifted)
    assert _chromatic(cone_extend(path(4), 300)) == tuple(expect)


def test_char_poly_degree_is_rank():
    for g in (path(5), cycle(6), complete(5), Graph(4, [(0, 1)])):
        assert char_poly(g).degree() == matroid_rank(g)


# --- localization and contraction ----------------------------------------------


def test_contract_examples():
    assert contraction(complete(4), [0b0011, 0b0100, 0b1000]) == complete(3)
    finest = [1 << v for v in range(4)]
    assert contraction(complete(4), finest) == complete(4)
    # contracting the middle edge of P4 leaves P3, blocks in the order given
    assert contraction(path(4), [0b0001, 0b0110, 0b1000]) == path(3)


def test_localize_examples():
    blocks = [induced_subgraph(complete(5), members(b)) for b in (0b00111, 0b11000)]
    assert blocks == [complete(3), complete(2)]


def test_rank_additivity_over_flats():
    rng = random.Random(7)
    graphs = []
    for n in (3, 4):
        for bits in range(1 << (n * (n - 1) // 2)):
            pairs = list(itertools.combinations(range(n), 2))
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            graphs.append(Graph(n, edges))
    for n in (5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(12):
            graphs.append(Graph(n, [e for e in pairs if rng.random() < 0.5]))
    for g in graphs:
        for blocks in flats(g):
            block_total = sum(matroid_rank(induced_subgraph(g, members(b))) for b in blocks)
            assert matroid_rank(g) == matroid_rank(contraction(g, blocks)) + block_total


# --- canonical keys -------------------------------------------------------------


def test_canonical_key_distinguishes():
    k4 = canonical_key(complete(4))
    k4e = canonical_key(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]))
    assert k4 != k4e
    assert canonical_key(path(4)) != canonical_key(star(4))


def test_canonical_key_isomorphism_invariance():
    rng = random.Random(11)
    samples = [cycle(4), path(5), star(6), complete(5),
               Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
               cone_extend(path(3), 2),
               Graph(8, [(k, (k + 2) % 8) for k in range(8)] + [(0, 1)])]
    for g in samples:
        base = canonical_key(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == base


def test_canonical_key_takes_one_value_per_isomorphism_class():
    """Over every labelled graph on n <= 6 vertices, equal keys iff
    isomorphic: the classes, orbits of edge sets under relabelling, number
    1, 1, 2, 4, 11, 34 and 156 for n = 0..6, and the keys as many.  The
    empty and complete graphs, whose keys are not searched for, are among
    them."""
    for n, count in enumerate([1, 1, 2, 4, 11, 34, 156]):
        pairs = list(itertools.combinations(range(n), 2))
        index = {e: j for j, e in enumerate(pairs)}
        orbit = {}  # edge mask -> the least mask of its class
        for mask in range(1 << len(pairs)):
            if mask in orbit:
                continue
            edges = [e for j, e in enumerate(pairs) if mask >> j & 1]
            for p in itertools.permutations(range(n)):
                image = sum(1 << index[tuple(sorted((p[u], p[v])))] for u, v in edges)
                orbit[image] = mask
        assert len(set(orbit.values())) == count
        keys = {}
        for mask, cls in orbit.items():
            g = Graph(n, [e for j, e in enumerate(pairs) if mask >> j & 1])
            assert keys.setdefault(canonical_key(g), cls) == cls, (n, g)
        assert len(keys) == count


def disjoint_cycles(*sizes):
    edges, start = [], 0
    for size in sizes:
        edges += [(start + k, start + (k + 1) % size) for k in range(size)]
        start += size
    return Graph(start, edges)


def box(g, h):
    """The Cartesian product g □ h, vertex (a, b) numbered a * h.n + b."""
    edges = [(a * h.n + b, c * h.n + b) for a, c in g.edges for b in range(h.n)]
    edges += [(a * h.n + b, a * h.n + d) for b, d in h.edges for a in range(g.n)]
    return Graph(g.n * h.n, edges)


def multipartite(*parts):
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    pairs = itertools.combinations(range(len(side)), 2)
    return Graph(len(side), [(u, v) for u, v in pairs if side[u] != side[v]])


def test_canonical_key_on_graphs_that_colour_refinement_cannot_split():
    """Regular and highly symmetric graphs, on which colour refinement
    alone leaves every vertex in one cell, so the key rests on the
    individualisation step: each key survives 20 relabellings and takes
    under a second, the nine 2-regular graphs on 12 vertices get nine keys,
    and the prism C6 □ K2 is told from the Moebius ladder on 12 vertices."""
    petersen = Graph(10, list(cycle(5).edges) + [(5 + k, 5 + (k + 2) % 5) for k in range(5)]
                     + [(k, k + 5) for k in range(5)])
    icosahedron = Graph(12, [(0, k) for k in range(1, 6)] + [(11, k) for k in range(6, 11)]
                        + [(1 + k, 1 + (k + 1) % 5) for k in range(5)]
                        + [(6 + k, 6 + (k + 1) % 5) for k in range(5)]
                        + [(1 + k, 6 + k) for k in range(5)]
                        + [(1 + k, 6 + (k + 4) % 5) for k in range(5)])
    crown = Graph(12, [(i, 6 + j) for i in range(6) for j in range(6) if i != j])
    prism = box(cycle(6), complete(2))
    family = [cycle(12), disjoint_cycles(6, 6), petersen, icosahedron,
              box(complete(3), complete(4)), prism, box(cycle(4), cycle(3)), crown,
              multipartite(2, 2, 2, 2, 2), multipartite(2, 2, 2, 2, 2, 2),
              multipartite(3, 3, 3, 3), multipartite(6, 6),
              Graph(12, [(2 * k, 2 * k + 1) for k in range(6)]), disjoint_cycles(3, 3, 3, 3)]
    rng = random.Random(32)
    for g in family:
        start = time.monotonic()
        key = canonical_key(g)
        assert time.monotonic() - start < 1.0, g
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key, g
    cycle_types = [(12,), (9, 3), (8, 4), (7, 5), (6, 6), (6, 3, 3), (5, 4, 3),
                   (4, 4, 4), (3, 3, 3, 3)]
    assert len({canonical_key(disjoint_cycles(*t)) for t in cycle_types}) == 9
    moebius = Graph(12, list(cycle(12).edges) + [(k, k + 6) for k in range(6)])
    assert canonical_key(prism) != canonical_key(moebius)


def test_canonical_key_fallback_above_bound():
    big = path(13)
    with pytest.raises(ValueError, match="CANON_BOUND = 12"):
        canonical_key(big)


def test_closed_form_keys_past_the_bound():
    assert canonical_key(Graph(14)) == (14, 0)
    assert canonical_key(complete(14)) == (14, 2**91 - 1)
    with pytest.raises(
        ValueError, match=r"^canonical key: the search handles n <= CANON_BOUND = 12$"
    ):
        canonical_key(path(13))


# --- Betti numbers ---------------------------------------------------------------


def test_conf_betti_examples():
    assert conf_betti(complete(4), 2) == 11
    assert conf_betti(complete(4), 3) == 6
    for g in (complete(5), path(4), cycle(5)):
        assert conf_betti(g, 0) == 1
    assert conf_betti(complete(4), 9) == 0


def test_conf_betti_poincare_product():
    # sum_i betti(K_n, i) t^i = prod_{k=1}^{n-1} (1 + k t)
    for n in range(1, 9):
        expect = Poly([1], "t")
        for k in range(1, n):
            expect = expect * Poly([1, k], "t")
        got = Poly([conf_betti(complete(n), i) for i in range(n)], "t")
        assert got == expect
        for i in range(n):
            assert conf_betti(complete(n), i) == stirling1_unsigned(n, n - i)


def test_conf_betti_disconnected_multiplies():
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    # each path of 3 has betti (1, 2, 1)
    assert [conf_betti(two_paths, i) for i in range(5)] == [1, 4, 6, 4, 1]


# --- io ---------------------------------------------------------------------------


def test_load_graph_json(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    g = load_graph(str(p))
    assert g == Graph(4, [(0, 1), (2, 3)])


def test_load_graph_text(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n# comment\n")
    assert load_graph(str(p)) == path(3)


def test_is_connected():
    assert is_connected(complete(4))
    assert not is_connected(Graph(3, [(0, 1)]))
    assert is_connected(Graph(1))


# --- properties on random graphs ------------------------------------------------

GRAPH_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_n=7):
    """A random simple graph on at most max_n vertices: each vertex pair is
    an edge or not."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, on in zip(pairs, flags) if on])


def proper_colourings(g, t):
    """Maps of the vertices to t colours with adjacent vertices coloured
    differently, counted by colouring the vertices in order."""
    adj = g.adjacency_masks()

    def count(v, colours):
        if v == g.n:
            return 1
        used = {colours[u] for u in range(v) if adj[v] >> u & 1}
        return sum(count(v + 1, colours + [c]) for c in range(t) if c not in used)

    return count(0, [])


@GRAPH_SETTINGS
@given(graphs())
def test_chromatic_counts_proper_colourings(g):
    chrom = _chromatic(g)
    for t in range(5):
        assert sum(c * t**k for k, c in enumerate(chrom)) == proper_colourings(g, t)


def test_chromatic_long_path_peels_pendants():
    expect = [0, 1]
    for _ in range(39):
        expect = pmul(expect, [-1, 1])
    assert _chromatic(path(40)) == tuple(expect)


def test_chromatic_fails_fast_above_the_core_bound():
    assert CHROMATIC_BOUND == 18
    # C20 takes about 12 s to colour; a pendant vertex or two universal ones
    # leave the same 20-vertex core
    hung = Graph(21, [*cycle(20).edges, (0, 20)])
    for g in (cycle(20), hung, cone_extend(cycle(20), 2)):
        start = time.monotonic()
        with pytest.raises(ValueError, match="keeps 20 vertices .* handles <= 18"):
            _chromatic(g)
        with pytest.raises(ValueError, match="out of reach"):
            conf_betti(g, 1)
        assert time.monotonic() - start < 1.0
    # a small component before the big one is not coloured first
    with pytest.raises(ValueError, match="keeps 20 vertices"):
        _chromatic(Graph(23, [(0, 1), (1, 2), (0, 2)] + [(3 + u, 3 + v) for u, v in cycle(20).edges]))


def test_chromatic_computes_below_the_core_bound():
    # chi(C_n) = (t - 1)^n + (-1)^n (t - 1)
    for n in (15, 16):
        expect = [1]
        for _ in range(n):
            expect = pmul(expect, [-1, 1])
        expect[0] += (-1) ** n * -1
        expect[1] += (-1) ** n
        assert _chromatic(cycle(n)) == tuple(expect)


@st.composite
def graphs_with_pendant_trees(draw):
    """A random graph on at most 10 vertices in which each vertex after a
    random core hangs off one earlier vertex, so it is peeled as a pendant
    unless a later vertex hangs off it."""
    core = draw(graphs(max_n=5))
    n = draw(st.integers(core.n, 10))
    hung = [(draw(st.integers(0, v - 1)), v) for v in range(max(core.n, 1), n)]
    return Graph(n, set(core.edges) | set(hung))


@GRAPH_SETTINGS
@given(graphs_with_pendant_trees())
def test_chromatic_peeling_matches_unpeeled_recursion(g):
    classes = _colour_classes(g.adjacency_masks(), (1 << g.n) - 1, {})
    assert list(_chromatic(g)) == falling_sum([[c] for c in classes])


@GRAPH_SETTINGS
@given(graphs(), st.integers(0, (1 << 7) - 1))
def test_colour_classes_count_independent_partitions(g, bits):
    mask = bits & ((1 << g.n) - 1)
    vertices = [v for v in range(g.n) if mask >> v & 1]
    expect = [0] * (len(vertices) + 1)
    k_full = (1 << len(vertices)) - 1
    for blocks in flat_masks([k_full ^ 1 << v for v in range(len(vertices))], k_full):
        if all(not g.has_edge(vertices[a], vertices[b])
               for block in blocks for a in members(block) for b in members(block) if a < b):
            expect[len(blocks)] += 1
    memo: dict = {}
    assert _colour_classes(g.adjacency_masks(), mask, memo) == tuple(expect)
    # a second query answered partly from the memo agrees as well
    full = (1 << g.n) - 1
    assert _colour_classes(g.adjacency_masks(), full, memo) == _colour_classes(
        g.adjacency_masks(), full, {}
    )


def restricted_growth_partitions(n):
    """Every set partition of range(n), from its restricted-growth string
    (vertex v takes a label at most one above the labels before it), as a
    tuple of blocks in order of their lowest vertex."""
    labels = [0] * n

    def rec(v, top):
        if v == n:
            yield tuple(
                tuple(u for u in range(n) if labels[u] == lab) for lab in range(top + 1)
            )
            return
        for lab in range(top + 2):
            labels[v] = lab
            yield from rec(v + 1, max(top, lab))

    if n == 0:
        yield ()
    else:
        yield from rec(1, 0)


def block_connected(g, block):
    """Breadth-first search from the first vertex of block, inside it."""
    inside = set(block)
    seen, queue = {block[0]}, [block[0]]
    for u in queue:
        for a, b in g.edges:
            w = b if a == u else a if b == u else None
            if w in inside and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == inside


@GRAPH_SETTINGS
@given(graphs())
def test_flat_masks_yields_each_connected_partition_once(g):
    got = flats(g)
    for blocks in got:
        lows = [b & -b for b in blocks]
        assert lows == sorted(lows) and len(set(lows)) == len(lows)
    as_tuples = [tuple(tuple(members(b)) for b in blocks) for blocks in got]
    assert len(set(as_tuples)) == len(as_tuples)
    expect = [
        pi for pi in restricted_growth_partitions(g.n)
        if all(block_connected(g, b) for b in pi)
    ]
    assert sorted(as_tuples) == sorted(expect)


@GRAPH_SETTINGS
@given(graphs(max_n=CANON_BOUND), st.randoms(use_true_random=False))
def test_canonical_key_ignores_labelling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(relabel(g, perm)) == canonical_key(g)


@GRAPH_SETTINGS
@given(graphs())
def test_components_match_union_find(g):
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    groups: dict = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    assert components(g) == sorted(tuple(b) for b in groups.values())
    assert is_connected(g) == (len(groups) <= 1)
