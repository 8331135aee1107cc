"""Non-equivariant Kazhdan-Lusztig polynomials of graphic matroids.

The defining functional equation, for a connected graph with matroid rank
r = (vertices - 1):

    t^r P(1/t) = sum over flats F of chi(localization at F) * P(contraction at F)

together with deg P < r/2 and P = 1 in rank 0, determines P uniquely: the
coefficients of t^j on the right for j > r/2 are exactly the low-order
coefficients of P, so they can be read off top-down once every proper
contraction is known (intpoly.read_off; constant term 1 and no negative
coefficient are checked here).  Flats of a graphic matroid are the vertex
partitions with connected blocks.

Every graph goes through one recursion on pairs (H, k).  A connected graph G
is cone(H, k): k counts its universal vertices (adjacent to all others) and
H, the rest, has none; for cone(gamma, k), gamma's universal vertices join
the k new ones, and the cone is never built.  A flat of cone(H, k) is made
of

  * a set S of H-vertices that go into blocks with cone vertices,
  * a flat pi' of H[V - S], whose blocks B localize to H[B], and
  * a partition of S and the k cone vertices into k' blocks that each hold a
    cone vertex; a block (T, c) localizes to cone(H[T], c), whose reduced
    characteristic polynomial is (t)_c chi_{H[T]}(t - c) / t.

Its contraction is cone(H[V - S]/pi', k'), so only quotients of induced
subgraphs of H recur, and the work is exponential in |H| and polynomial in
k.  The cone-block weights, the sums over the third part of the blocks'
characteristic polynomials, are in closed form.  Over the ways S spreads
across the k' blocks, prod chi_{H[T]}(t - c) sums to the colourings of H[S]
from k' disjoint palettes of t - c colours each, chi_{H[S]}(k' t - k).  Over
the partitions of the cone vertices, prod (t)_c / t sums to

    B_{k,k'}(t) = sum_j s(k,j) S(j,k') t^(j-k')

(s signed Stirling numbers of the first kind, S of the second kind), the
flats of K_k with k' blocks, by the exponential formula with
sum_b chi(K_b) x^b / b! = ((1+x)^t - 1)/t.  So the weight is
B_{k,k'}(t) sum_N a_N(S) (k' t - k)_N, with a_N(S) the partitions of S into
N independent sets (the colour-class recursion of graphmat).  The flats of
every H[r], weighted by a_N(V - r), make one table per H that does not
depend on k: entry (Q, u) sums xs[N] over the flats that contract to
cone(Q, u).  With k = 0 only S = {} remains: the plain sum over the flats
of H.

For k >= 1 the sum splits into partial sums that do not depend on k.  By
Vandermonde, (k' t - k)_N = sum_a C(N,a) (k' t)_(N-a) (-1)^a k^(a), with
k^(a) = k(k+1)...(k+a-1) the rising factorial and a <= |H|.  Swapping the
sums over k' and j, with c(k,j) = |s(k,j)|,

    rhs_k = sum_a (-1)^a k^(a) sum_{j<=k} (-1)^(k-j) c(k,j) G_{j,a},
    G_{j,a} = sum_{k'<=j} S(j,k') t^(j-k') R_{k',a},
    R_{k',a} = sum over the entries (Q, u) of
               [sum_N C(N,a) xs[N] (k' t)_(N-a)] P(cone(Q, u + k')).

R_{k',a} needs only rows of at most |H| + k' vertices, and G_{j,a} only the
R up to j, so each is built once, when row k' (row j) lands: a row then
costs O(|H| k^2) integer operations besides the products in R.  The finest
flat, the entry (H, 0) at k' = k, carries the unknown P(cone(H, k)) itself,
so it joins R_{k,0} and G_{k,0} only when its row lands.

The braid rows are the case H = {}: its table is the one entry ({}, 0) with
xs = [1], so only a = 0 remains, R_l = P_l = P(K_l) and, with S(m,m) = 1,

    rhs_m = sum_{k<m} (-1)^(m-k) c(m,k) G_k + (G_m - P_m),
    G_k = sum_{l<=k} S(k,l) t^(k-l) P_l,

the flat sum sum_{l<m} B_{m,l} P_l over the flats of K_m; the table up to n
costs O(n^3).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import comb

from .combinat import double_factorial_odd, stirling1_row, stirling2_row
from .graphmat import (
    Graph,
    _colour_classes,
    _count_byte,
    _mask_connected,
    canonical_key,
    flat_masks,
    induced_subgraph,
    is_connected,
    quotient_masks,
)
from .intpoly import falling_factorial, falling_sum, padd_into, pmul, read_off

# polyseries loads only through the Poly API (kl_braid and kl_graphic),
# which the CLI's `kl` and `e1` never call: they work on the integer rows.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .polyseries import Poly


def _flat_sum(m: int, ell: int) -> list:
    """B_{m,ell}: the sum, over the flats of K_m with ell blocks, of the
    product of the blocks' reduced characteristic polynomials."""
    c = stirling1_row(m)
    return [
        (-1) ** (m - k) * c[k] * stirling2_row(k)[ell] for k in range(ell, m + 1)
    ]


def _solve_functional_equation(rhs_proper: list, rank: int) -> tuple:
    """The KL coefficients read off the flat sum over all proper
    (non-minimal) flats, with constant term 1 and none negative."""
    coeffs = read_off(rhs_proper, rank)
    if not coeffs or coeffs[0] != 1:
        raise ArithmeticError("constant term of a KL polynomial must be 1")
    if any(c < 0 for c in coeffs):
        raise ArithmeticError("negative KL coefficient")
    return tuple(coeffs)


# The braid rows are the rows of cone({}, n), at O(n^3) operations on growing
# integers: in-process on a 2-vCPU VM rows up to 150 take 0.3-0.5 s and up to
# 200 took 1.7 s, so larger n fail fast.
BRAID_BOUND = 150
# `genfun --fit` at weight i reads rows up to 2i, but its cost grows as about
# i^8 (the fit's denominator has about 2i^2 factors): at --max-n 64 on a
# 2-vCPU VM, i = 16 took 0.7 s, i = 24 5-7 s and i = 32 75 s, so larger i
# fail fast.
FIT_BOUND = 24


def _braid_coeffs(n: int) -> tuple:
    if n < 1:
        raise ValueError("n must be positive")
    if n > BRAID_BOUND:
        raise ValueError(
            f"n = {n} is out of reach: the braid table handles n <= {BRAID_BOUND}"
        )
    return _cone_row(_EMPTY_KEY, _EMPTY, n)


def kl_braid(n: int) -> Poly:
    """Kazhdan-Lusztig polynomial of the braid matroid (complete graph on n
    vertices): the row of cone({}, n), read off the Stirling partial sums of
    the flat sum."""
    from .polyseries import Poly

    return Poly(_braid_coeffs(n), "t")


# Row key of cone(H, k): _ROW_TAG, then the vertex count |H| + k in one byte,
# then canonical_key(H) without its tag (|H| in one byte, then H's canonical
# adjacency bits).
_ROW_TAG = b"K"
# Past its base's table, cone(H, k) costs about k^3 to k^4 at fixed H, the
# integers growing with k: in-process on a 2-vCPU VM, cone(P4, 60) took
# 0.2 s, cone(P4, 96) 0.9 s, cone(P4, 120) 1.9 s, cone(P4, 150) 5.2 s and
# cone(P3, 200) 4.3 s, while K_100 took 0.1 s.  Graphs on more vertices fail
# fast, before any row is built; the bound stays until a benchmark cone job
# can set it, below the row key's one-byte vertex count.
VERTEX_BOUND = 100
# The table of a cone base H is exponential in |H|: with k = 4, in-process on
# a 2-vCPU VM, cone(P8, 4) took 0.26 s, cone(P10, 4) 4.0 s, cone(P11, 4)
# 18 s and cone(P12, 4) 70 s, and cycles took about 0.7 of that; so a graph
# with more than BASE_BOUND vertices left once its universal ones are split
# off fails fast.  It sits below graphmat.CANON_BOUND, so every base that
# passes has a canonical key.
BASE_BOUND = 10
# The two bounds do not compose: past its table, cone(H, k) costs about
# 2^|H| k^3, the rows up to k reading partial sums over up to |H| + 1
# rising factorials and multiplying the table's entries into them.
# In-process on a 2-vCPU VM (one session, each run killed at 60 s), cone(P4,
# 96) (2^|H| k^3 = 14e6) took 0.9 s, cone(P5, 95) (27e6) 2.8 s, cone(P8, 48)
# (28e6) 3.3 s, cone(P7, 64) (34e6) 3.3 s, cone(P6, 90) (47e6) 5.2 s, cone(P9,
# 48) (57e6) 6.8 s, cone(P8, 64) (67e6) 7.0 s, cone(P7, 90) (93e6) 9.2 s,
# cone(P10, 48) (113e6) 18 s and cone(P9, 64) (134e6) 12 s; cone(P10, 90)
# was killed.  So a graph with 2^|H| k^3 above that of cone(P4, 96), which
# VERTEX_BOUND admits, fails fast, until a benchmark cone job can set the
# bound.  At the bound cone(P7, 48) took 2.1 s and cone(P10, 24) 10 s: a base
# of ten is mostly its table (cone(P10, k) took 10.5 s at k = 16 and 10.8 s
# at k = 32).
CONE_WORK_BOUND = 2**4 * 96**3
_GRAPH_TABLE: dict = {}  # row key of (H, k) -> KL coefficients of cone(H, k)
_BASES: dict = {}  # canonical key of H -> _ConeBase of H
_EMPTY = Graph(0)  # the base of the braid rows
_EMPTY_KEY = canonical_key(_EMPTY)


def _row_key(hkey: bytes, n: int) -> bytes:
    """The row key of the cone on n vertices over the base with key hkey."""
    return _ROW_TAG + _count_byte(n) + hkey[1:]


@lru_cache(maxsize=None)
def _ff_reduced(m: int) -> tuple:
    """(t)_m / t = (t-1)(t-2)...(t-m+1) for m >= 1: the reduced
    characteristic polynomial of K_m."""
    return tuple(falling_factorial(m)[1:])


def _split_cone(g: Graph) -> tuple:
    """Write g as cone(H, k): k counts its universal vertices and H, the
    rest, has none.  Returns (H, k)."""
    full = (1 << g.n) - 1
    rest = [v for v, m in enumerate(g.adjacency_masks()) if m | 1 << v != full]
    return induced_subgraph(g, rest), g.n - len(rest)


class _ConeBase:
    """What the cones over one graph H (without a universal vertex) share,
    for every number of cone vertices: chromatic polynomials of induced
    subgraphs and the flats of every H[r] grouped by contraction and
    weighted by the colour classes of the rest, a table independent of k."""

    def __init__(self, h: Graph, hkey: bytes):
        self.graph = h
        self.key = hkey
        self.adj = h.adjacency_masks()
        self.full = (1 << h.n) - 1
        self._chrom: dict = {}
        self._classes: dict = {}
        self._table = None
        self._terms = None
        # rows[k] = P(cone(H, k)) and its partial sums r[k][a] = R_{k,a},
        # g[k][a] = G_{k,a} of the module docstring, for k >= 1; built in
        # order under the lock, from the rows of the table `memo`
        self._lock = threading.Lock()
        self._memo = None
        self._rows: list = [None]
        self._r: list = [None]
        self._g: list = [None]

    def classes(self, a: int) -> tuple:
        """Entry l counts the partitions of a into l independent sets of H:
        the chromatic polynomial of H[a] in the falling-factorial basis."""
        return _colour_classes(self.adj, a, self._classes)

    def chromatic(self, a: int) -> tuple:
        """Chromatic polynomial of H[a], ascending integer coefficients."""
        hit = self._chrom.get(a)
        if hit is None:
            hit = self._chrom[a] = falling_sum([[c] for c in self.classes(a)])
        return hit

    def flats(self, r: int) -> list:
        """The flats of H[r] grouped by contraction: one entry (canonical key
        of Q, Q, u, chi) per contraction cone(Q, u), where Q has no universal
        vertex and chi sums the flats' products of reduced characteristic
        polynomials of the blocks."""
        by_quotient: dict = {}
        for blocks in flat_masks(self.adj, r):
            chi = [1]
            for b in blocks:
                chi = pmul(chi, self.chromatic(b)[1:])
            q = tuple(quotient_masks(self.adj, blocks))
            padd_into(by_quotient.setdefault(q, []), chi)
        grouped: dict = {}
        for q, chi in by_quotient.items():
            h, u = _split_cone(Graph.from_masks(list(q)))
            hkey = canonical_key(h)
            padd_into(grouped.setdefault((hkey, u), [hkey, h, u, []])[3], chi)
        return list(grouped.values())

    def table(self) -> dict:
        """Maps (canonical key of Q, u) to [Q, xs]: xs[N] sums chi * a_N(S),
        over every r and every flat of H[r] that contracts to cone(Q, u),
        with S = V(H) - r and a_N(S) = classes(S)[N].  Built once."""
        if self._table is None:
            table: dict = {}
            for r in range(self.full + 1):
                classes = self.classes(self.full ^ r)
                for qkey, q, u, chi in self.flats(r):
                    xs = table.setdefault((qkey, u), [q, []])[1]
                    xs.extend([] for _ in range(len(classes) - len(xs)))
                    for n, a in enumerate(classes):
                        if a:
                            padd_into(xs[n], chi, a)
            self._table = table
        return self._table

    def terms(self) -> list:
        """The table's entries but the finest flat's (H, 0) as (canonical key
        of Q, Q, u, ys), with ys = [(a, [C(N, a) xs[N] for N >= a]) for each
        a]: R_{k',a} sums falling_sum(ys[a], 0, k') P(cone(Q, u + k'))."""
        if self._terms is None:
            self._terms = [
                (qkey, q, u, [
                    (a, [[comb(n, a) * x for x in xs[n]] for n in range(a, len(xs))])
                    for a in range(len(xs))
                ])
                for (qkey, u), (q, xs) in self.table().items()
                if q.n < self.graph.n
            ]
        return self._terms

    def row(self, k: int) -> tuple:
        """P(cone(H, k)) for k >= 1.  The rows and their partial sums are
        extended up to k under the lock; once _GRAPH_TABLE is replaced (as a
        new process would start with another table) they are rebuilt from
        the new one."""
        with self._lock:
            if self._memo is not _GRAPH_TABLE:
                self._memo = _GRAPH_TABLE
                del self._rows[1:], self._r[1:], self._g[1:]
            while len(self._rows) <= k:
                self._extend()
            return self._rows[k]

    def _extend(self) -> None:
        """Row k = len(rows) with R_k and G_k; nothing is kept unless the
        row is read off."""
        k = len(self._rows)
        n = self.graph.n + k
        r = [[] for _ in range(max(len(xs) for _, xs in self.table().values()))]
        for qkey, q, u, ys in self.terms():
            row = _cone_row(qkey, q, u + k)
            for a, y in ys:
                padd_into(r[a], pmul(falling_sum(y, 0, k), row))
        s, rs = stirling2_row(k), self._r
        g = []
        for a, ra in enumerate(r):
            # R_{l,a} has degree below |H| + l/2, so G_{k,a} fits in n terms
            acc = ra + [0] * (n - len(ra))  # S(k, k) = 1
            for ell in range(1, k):
                scale = s[ell]
                for i, x in enumerate(rs[ell][a], k - ell):
                    acc[i] += scale * x
            g.append(acc)
        key = _row_key(self.key, n)
        row = (1,) if n == 1 else _GRAPH_TABLE.get(key)
        if row is None:
            rhs = list(g[0])  # a = 0, j = k: c(k, k) = 1
            c, gs = stirling1_row(k), self._g
            rise = 1  # k^(a)
            for a, ga in enumerate(g):
                if a:
                    padd_into(rhs, ga, (-1) ** a * rise)
                for j in range(1, k):
                    padd_into(rhs, gs[j][a], (-1) ** (a + k - j) * rise * c[j])
                rise *= k + a
            row = _GRAPH_TABLE.setdefault(key, _solve_functional_equation(rhs, n - 1))
        padd_into(r[0], row)
        padd_into(g[0], row)
        self._r.append(r)
        self._g.append(g)
        self._rows.append(row)


def _cone_base(hkey: bytes, h: Graph) -> _ConeBase:
    """The shared _ConeBase of H, with hkey the canonical key of H."""
    base = _BASES.get(hkey)
    if base is None:
        base = _BASES.setdefault(hkey, _ConeBase(h, hkey))
    return base


def _flat_groups(base: _ConeBase, k: int) -> list:
    """The flats of cone(H, k) in groups, one per contraction: entries
    (canonical key of Q, Q, c, chi) for the flats that contract to
    cone(Q, c), with chi the sum of their products of the blocks' reduced
    characteristic polynomials, the finest flat included.  With k = 0 these
    are the flats of H; otherwise the table's entry (Q, u) goes to every
    c = u + k', its xs[N] weighted by B_{k,k'} (k' t - k)_N."""
    if not k:
        return base.flats(base.full)
    out: dict = {}
    for kk in range(1, k + 1):
        blocks = _flat_sum(k, kk)
        for (qkey, u), (q, xs) in base.table().items():
            group = out.setdefault((qkey, u + kk), [qkey, q, u + kk, []])
            padd_into(group[3], pmul(falling_sum(xs, k, kk), blocks))
    return [g for g in out.values() if any(g[3])]


def _cone_row(hkey: bytes, h: Graph, k: int) -> tuple:
    """KL coefficients of cone(H, k), with hkey the canonical key of H: with
    k = 0 from the flats of H, otherwise from the partial sums of H's base."""
    n = h.n + k
    if n == 1:
        return (1,)  # rank 0: the equation is vacuous, P = 1 by definition
    key = _row_key(hkey, n)
    hit = _GRAPH_TABLE.get(key)
    if hit is not None:
        return hit
    base = _cone_base(hkey, h)
    if k:
        return _GRAPH_TABLE.setdefault(key, base.row(k))
    rhs = [0] * n
    for qkey, q, c, chi in _flat_groups(base, 0):
        if q.n + c < n:  # the finest flat carries the unknown P itself
            padd_into(rhs, pmul(chi, _cone_row(qkey, q, c)))
    coeffs = _solve_functional_equation(rhs, n - 1)
    _GRAPH_TABLE[key] = coeffs
    return coeffs


def _cone_input(gamma: Graph, k: int) -> tuple:
    """cone(gamma, k) as (canonical key of H, H, k'), without building the
    cone: gamma's universal vertices join the k new ones in k', and H is the
    rest of gamma.  Every bound is checked here, before any row is built."""
    n = gamma.n + k
    if n > VERTEX_BOUND:
        raise ValueError(
            f"graph on {n} vertices is out of reach: "
            f"the graphic recursion handles at most {VERTEX_BOUND}"
        )
    if k < 0:
        raise ValueError("n must be nonnegative")
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if not k and not is_connected(gamma):
        raise ValueError(
            "disconnected graph: KL polynomials multiply over components, "
            "compute each component separately"
        )
    h, u = _split_cone(gamma)
    k += u
    if h.n > BASE_BOUND:
        raise ValueError(
            f"graph is out of reach: after removing its {k} universal "
            f"vertices, {h.n} remain (the recursion handles <= {BASE_BOUND})"
        )
    if 2**h.n * k**3 > CONE_WORK_BOUND:
        raise ValueError(
            f"graph is out of reach: its {k} universal vertices over the "
            f"{h.n} others cost 2^{h.n} * {k}^3 = {2**h.n * k**3} "
            f"(the recursion handles 2^|H| k^3 <= {CONE_WORK_BOUND})"
        )
    return canonical_key(h), h, k


def _kl_graphic_coeffs(gamma: Graph) -> tuple:
    return _cone_row(*_cone_input(gamma, 0))


def kl_graphic(gamma: Graph) -> Poly:
    """Kazhdan-Lusztig polynomial of the graphic matroid of a connected
    graph, by the recursion on cone(H, k) described in the module
    docstring."""
    from .polyseries import Poly

    return Poly(_kl_graphic_coeffs(gamma), "t")


def d_coeff(i: int, n: int) -> int:
    """dim D_i(n): the t^i coefficient of the braid KL polynomial."""
    if i < 0:
        return 0
    cs = _braid_coeffs(n)
    return cs[i] if i < len(cs) else 0


def d_coeff_graph(gamma: Graph, i: int, n: int) -> int:
    """t^i coefficient of the KL polynomial of the cone graph on gamma with
    n new universal vertices, by the cone recursion."""
    cs = _cone_coeffs(gamma, n)
    return cs[i] if 0 <= i < len(cs) else 0


def _cone_coeffs(gamma: Graph, k: int) -> tuple:
    """KL coefficients of cone(gamma, k), checking every bound first."""
    return _cone_row(*_cone_input(gamma, k))


def c1_count(gamma: Graph) -> int:
    """Linear KL coefficient by subset counting: (connected 2-block
    partitions) minus (edges).  An independent cross-check of the recursion
    in the verification suite."""
    if not is_connected(gamma):
        raise ValueError("graph must be connected")
    n = gamma.n
    if n > 26:
        raise ValueError("subset enumeration capped at 26 vertices")
    adj = gamma.adjacency_masks()
    full = (1 << n) - 1
    count = 0
    # subsets containing vertex 0 so each unordered split is seen once
    for half in range(1 << (n - 1)):
        s = half << 1 | 1
        comp = full & ~s
        if comp == 0:
            continue
        if _mask_connected(s, adj) and _mask_connected(comp, adj):
            count += 1
    return count - len(gamma.edges)


def conjecture_top_check(i: int) -> dict:
    """Compare the top coefficient of the braid KL polynomial on 2i vertices
    with the labeled-triangular-cactus count (2i-3)!! (2i-1)^(i-2).  A
    mismatch is reported, not raised: this is a conjecture checker."""
    if i < 1:
        raise ValueError("i must be positive")
    computed = d_coeff(i - 1, 2 * i)
    # at i = 1 the power is 1^(-1) = 1
    predicted = double_factorial_odd(2 * i - 3) * (2 * i - 1) ** max(i - 2, 0)
    return {
        "i": i,
        "computed": computed,
        "predicted": predicted,
        "equal": computed == predicted,
    }


def kl_cache_export() -> dict:
    """Snapshot the graph memo table as JSON-safe records (graph:<hex key>
    mapping to decimal coefficient strings).  The rows of the empty base,
    the braid rows K_m, are not persisted, however they were reached: a
    braid query writes no file, and no file can change a braid row."""
    return {
        "graph:" + key.hex(): [str(c) for c in coeffs]
        for key, coeffs in _GRAPH_TABLE.items()
        if not _braid_key(key)
    }


def _braid_key(key: bytes) -> bool:
    """Whether a row key is that of a row of the empty base, K_m."""
    return key[2:] == _EMPTY_KEY[1:]


def _row_plausible(key: bytes, coeffs) -> bool:
    """A row as kl_cache_export writes it, a list of decimal-integer
    strings, with the cheap invariants of a KL row: constant term 1, no
    negative coefficient, degree below rank/2.  The rank is the vertex count
    minus one, and a row key holds the vertex count in its second byte."""
    if not coeffs or type(coeffs) is not list:
        return False
    if not all(type(c) is str and c.isdecimal() for c in coeffs):
        return False  # a minus sign fails here: no coefficient is negative
    rank = key[1] - 1
    dmax = (rank - 1) // 2 if rank >= 1 else 0
    return int(coeffs[0]) == 1 and len(coeffs) - 1 <= dmax


def kl_cache_import(records: dict) -> list:
    """Load graph:<hex key> records into the graph memo table; rows already
    known win.  Any other record (such as a braid:<n> row), a graph row
    whose key is not a cone row key (such as a whole-graph canonical key
    written by an older version) and a row of the empty base (which older
    versions wrote) are ignored.  A key too short for a tag and a vertex
    count raises ValueError: no version writes one.  A cone row that fails
    _row_plausible is skipped, and the keys of the skipped rows are
    returned."""
    skipped = []
    for key, coeffs in records.items():
        if key.startswith("graph:"):
            raw = bytes.fromhex(key.split(":", 1)[1])
            if len(raw) < 2:
                raise ValueError(f"malformed KL cache key {key}")
            if not raw.startswith(_ROW_TAG) or _braid_key(raw):
                continue
            if _row_plausible(raw, coeffs):
                _GRAPH_TABLE.setdefault(raw, tuple(map(int, coeffs)))
            else:
                skipped.append(key)
    return skipped
