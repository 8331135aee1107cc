"""Simple labeled graphs and their matroid-side combinatorics: the cone
construction, reduced characteristic polynomials, canonical forms for the KL
row keys, and configuration-space Betti numbers.

A flat of the graphic matroid is a connected partition of the vertex set,
held as a list of block bit masks in order of their lowest vertex:
flat_masks enumerates them (on a complete graph, every set partition), a
block localizes to its induced subgraph, and quotient_masks gives the
contraction.

Characteristic polynomials come from colour classes: the chromatic
polynomial is sum_l a_l (t)_l, a_l the partitions of the vertex set into l
independent sets (R. C. Read, JCT 1968), and one recursion on bit masks,
_colour_classes, gives the a_l of every induced subgraph.
"""

from __future__ import annotations

from .intpoly import falling_sum, pmul

# polyseries loads only through the Poly API (char_poly), which the
# CLI's `kl` and `e1` never call: they work on the integer rows.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .polyseries import Poly

CANON_BOUND = 12


class Graph:
    """Finite simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        es = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range")
            es.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(es)

    def adjacency_masks(self) -> list:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    @classmethod
    def from_masks(cls, adj: list) -> "Graph":
        """The graph on len(adj) vertices whose vertex v has neighbour set
        adj[v], a bit mask."""
        n = len(adj)
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"


def _reach(mask: int, adj: list) -> int:
    """The vertices of `mask` that its lowest vertex reaches inside it."""
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= adj[v] & mask
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def _mask_connected(mask: int, adj: list) -> bool:
    return _reach(mask, adj) == mask


def is_connected(gamma: Graph) -> bool:
    if gamma.n <= 1:
        return True
    return _mask_connected((1 << gamma.n) - 1, gamma.adjacency_masks())


def components(gamma: Graph) -> list:
    """Vertex sets of the connected components, sorted by minimum element."""
    adj = gamma.adjacency_masks()
    left = (1 << gamma.n) - 1
    comps = []
    while left:
        comp = _reach(left, adj)
        comps.append(tuple(_mask_vertices(comp)))
        left ^= comp
    return comps


def cone_extend(gamma: Graph, n: int) -> Graph:
    """Add n new vertices adjacent to everything (including each other)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = gamma.n + n
    edges = set(gamma.edges)
    for w in range(gamma.n, total):
        for u in range(total):
            if u != w:
                edges.add((min(u, w), max(u, w)))
    return Graph(total, edges)


def flat_masks(adj: list, mask: int):
    """The connected partitions of the subgraph induced on the vertex set
    `mask` (adjacency masks `adj`), each a list of block masks in order of
    their lowest vertex.  Each block is a connected sub-mask holding the
    lowest vertex not yet covered; the connectivity of a candidate block is
    tested once per call."""
    connected: dict = {}
    blocks: list = []

    def rec(rest):
        if not rest:
            yield list(blocks)
            return
        low = rest & -rest
        others = rest ^ low
        sub = others
        while True:
            b = sub | low
            ok = connected.get(b)
            if ok is None:
                ok = connected[b] = _mask_connected(b, adj)
            if ok:
                blocks.append(b)
                yield from rec(rest ^ b)
                blocks.pop()
            if not sub:
                return
            sub = (sub - 1) & others

    yield from rec(mask)


def _mask_vertices(mask: int) -> list:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def quotient_masks(adj: list, blocks: list) -> list:
    """Adjacency masks of the simple quotient graph whose vertices are the
    given disjoint blocks (bit masks), in the order given."""
    reach = []
    for b in blocks:
        r = 0
        for v in _mask_vertices(b):
            r |= adj[v]
        reach.append(r)
    return [
        sum(1 << j for j, b in enumerate(blocks) if j != i and r & b)
        for i, r in enumerate(reach)
    ]


def induced_subgraph(gamma: Graph, vertices) -> Graph:
    """The subgraph induced on the given vertices, relabeled 0..k-1 in the
    order given."""
    index = {v: i for i, v in enumerate(vertices)}
    return Graph(
        len(index),
        [(index[u], index[v]) for u, v in gamma.edges if u in index and v in index],
    )


def _twin_ids(gamma: Graph) -> list:
    # u, w are twins when swapping them is an automorphism: equal open
    # neighborhoods (non-adjacent) or equal closed neighborhoods (adjacent).
    adj = gamma.adjacency_masks()
    ids = list(range(gamma.n))
    for u in range(gamma.n):
        for w in range(u + 1, gamma.n):
            open_eq = adj[u] & ~(1 << w) == adj[w] & ~(1 << u)
            closed_eq = adj[u] | 1 << u == adj[w] | 1 << w
            if open_eq or closed_eq:
                ids[w] = min(ids[w], ids[u])
    return ids


def canonical_key(gamma: Graph) -> tuple:
    """(n, bits): the adjacency bits of a relabeling, vertex k against the
    k before it for k = 1..n-1, read as one integer, minimal over all
    relabelings; equal keys iff isomorphic.  n fixes the bit count, so
    numeric order is the lexicographic order the search minimises.  Above
    CANON_BOUND vertices the search is out of reach and raises ValueError."""
    n = gamma.n
    if n > CANON_BOUND:
        raise ValueError(f"canonical key: the search handles n <= CANON_BOUND = {CANON_BOUND}")
    if n <= 1 or not gamma.edges:
        return n, 0
    if gamma.is_complete():
        return n, (1 << n * (n - 1) // 2) - 1

    adj = gamma.adjacency_masks()
    twins = _twin_ids(gamma)
    degs = [m.bit_count() for m in adj]
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    best: list | None = None
    placed: list = []
    cur: list = []

    def dfs(tight: bool) -> bool:
        nonlocal best
        k = len(placed)
        if k == n:
            if best is None or not tight:
                best = cur.copy()
                return True
            return False
        updated = False
        seen = set()
        for v in order:
            if v in placed:
                continue
            chunk = tuple(1 if adj[p] >> v & 1 else 0 for p in placed)
            profile = (chunk, twins[v])
            if profile in seen:
                continue
            seen.add(profile)
            child_tight = False
            if best is not None:
                ref = tuple(best[len(cur) : len(cur) + k])
                if tight:
                    if chunk > ref:
                        continue
                    child_tight = chunk == ref
            placed.append(v)
            cur.extend(chunk)
            if dfs(child_tight):
                updated = True
                tight = True
            placed.pop()
            del cur[len(cur) - k :]
        return updated

    dfs(False)
    if best is None:
        raise ArithmeticError("canonical search placed no labelling")
    key = 0
    for bit in best:
        key = key << 1 | bit
    return n, key


def _colour_classes(adj: list, mask: int, memo: dict) -> tuple:
    """Entry l counts the partitions of the vertex set `mask` into l
    independent sets of the graph with adjacency masks adj (memo, kept per
    adj, maps masks to results).  The lowest vertex v joins a class of the
    rest or opens one alone when it has no neighbour there (the Stirling
    step); otherwise its class is v plus an independent set s avoiding its
    neighbours, and the rest minus s is partitioned."""
    if not mask:
        return (1,)
    hit = memo.get(mask)
    if hit is not None:
        return hit
    low = mask & -mask
    rest = mask ^ low
    near = adj[low.bit_length() - 1] & rest
    out = [0] * (mask.bit_count() + 1)
    if near:
        subsets, free = [0], rest ^ near
        while free:  # each vertex joins the subsets so far that avoid it
            w = free & -free
            free ^= w
            subsets += [s | w for s in subsets if not s & adj[w.bit_length() - 1]]
        for s in subsets:
            for ell, x in enumerate(_colour_classes(adj, rest ^ s, memo), 1):
                out[ell] += x
    else:
        for ell, x in enumerate(_colour_classes(adj, rest, memo)):
            out[ell] += ell * x
            out[ell + 1] += x
    hit = memo[mask] = tuple(out)
    return hit


# _colour_classes is exponential in the core it colours, and sparse cores are
# the slowest: in-process on a 2-vCPU VM, the cycle C14 took 0.04 s, C16
# 0.22 s, C18 1.6 s and C20 12 s (about 7.5x per two vertices); in another
# session C16 took 0.40 s, C18 3.0 s and the 18-vertex ladder 3.4 s, while a
# dense 20-vertex core (K_20 less a perfect matching) took 0.01 s.  So
# _chromatic fails fast on a core of more than CHROMATIC_BOUND vertices.  The
# KL recursion colours its cone bases through _colour_classes directly.
CHROMATIC_BOUND = 18


def _chromatic(g: Graph) -> tuple:
    """Chromatic polynomial as ascending integer coefficients: the product
    over the connected components, which keeps the recursion off independent
    sets that span several of them.  Vertices of degree 1 are peeled off
    first, each a factor t - 1, so trees cost linear work.  Each of the k
    universal vertices of what remains, C, is a colour class of its own, so
    a_l(C) is a_(l-k) of the rest of C: the recursion runs on the rest only,
    the core, and every core is checked against CHROMATIC_BOUND first."""
    adj = g.adjacency_masks()
    out = [1]
    cores = []  # (universal vertex count, core mask) per component
    left = (1 << g.n) - 1
    while left:
        comp = _reach(left, adj)
        left ^= comp
        stack = _mask_vertices(comp)  # vertices that may have degree 1
        while stack:
            v = stack.pop()
            near = adj[v] & comp
            if comp >> v & 1 and near.bit_count() == 1:
                comp ^= 1 << v
                out = pmul(out, [-1, 1])
                stack.append(near.bit_length() - 1)
        rest = sum(1 << v for v in _mask_vertices(comp) if adj[v] & comp | 1 << v != comp)
        if rest.bit_count() > CHROMATIC_BOUND:
            raise ValueError(
                f"chromatic polynomial is out of reach: a component keeps "
                f"{rest.bit_count()} vertices once its pendant and universal "
                f"vertices are removed (the recursion handles <= {CHROMATIC_BOUND})"
            )
        cores.append((comp.bit_count() - rest.bit_count(), rest))
    memo: dict = {}
    for k, rest in cores:
        classes = (0,) * k + _colour_classes(adj, rest, memo)
        out = pmul(out, falling_sum([[c] for c in classes]))
    return tuple(out)


def reduced_chromatic(gamma: Graph) -> tuple:
    """Reduced characteristic polynomial of the graphic matroid as ascending
    integer coefficients: the chromatic polynomial divided by
    t^(number of components).  Its degree equals the matroid rank."""
    chrom = _chromatic(gamma)
    ncomp = len(components(gamma))
    if any(chrom[:ncomp]):
        raise ArithmeticError("chromatic polynomial not divisible by t^components")
    return chrom[ncomp:]


def char_poly(gamma: Graph) -> Poly:
    """reduced_chromatic(gamma) as a Poly in t."""
    from .polyseries import Poly

    return Poly(reduced_chromatic(gamma), "t")


def matroid_rank(gamma: Graph) -> int:
    return gamma.n - len(components(gamma))


def betti_numbers(gamma: Graph) -> list:
    """(dim H^0, ..., dim H^rank) of the configuration space of gamma: the
    unsigned Whitney numbers, read off one reduced characteristic
    polynomial from the top."""
    return [abs(c) for c in reversed(reduced_chromatic(gamma))]


def conf_betti(gamma: Graph, i: int) -> int:
    """dim H^i of the configuration space of gamma: the unsigned Whitney
    number |[t^(rank-i)] char_poly|."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    betti = betti_numbers(gamma)
    return betti[i] if i < len(betti) else 0


def load_graph(path: str) -> Graph:
    """Read a graph file: JSON {"n": int, "edges": [[u,v], ...]} or plain
    text lines "u v" (vertex count inferred as max label + 1).  A file that
    cannot be read or does not describe a graph raises ValueError naming
    the path."""
    try:
        return _parse_graph(path)
    except KeyError as exc:
        raise ValueError(f"graph file {path}: missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"graph file {path}: {exc}") from exc


def _parse_graph(path: str) -> Graph:
    import json

    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        data = json.loads(stripped)
        n, edges = data["n"], [tuple(e) for e in data.get("edges", [])]
        for x in (n, *(v for e in edges for v in e)):
            if type(x) is not int:  # int() would truncate 1.7; true is an int
                raise ValueError(f"{json.dumps(x)} is not an integer")
        return Graph(n, edges)
    edges = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    n = 1 + max((max(e) for e in edges), default=-1)
    return Graph(max(n, 0), edges)
