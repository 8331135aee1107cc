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

Each row P(cone(H, k)) is solved once per process and kept by the base of
H, the one object per canonical key of H that also holds its table and
partial sums; a contraction resolves to the base of its Q.  Nothing is
written to disk.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import comb

from .combinat import double_factorial_odd, stirling1_row, stirling2_row
from .graphmat import (
    Graph,
    _colour_classes,
    _mask_connected,
    canonical_key,
    flat_masks,
    induced_subgraph,
    is_connected,
    quotient_masks,
)
from .intpoly import falling_sum, padd_into, pmul, read_off

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


def _braid_coeffs(n: int) -> tuple:
    if n < 1:
        raise ValueError("n must be positive")
    return _cone_coeffs(_EMPTY, n)


def kl_braid(n: int) -> Poly:
    """Kazhdan-Lusztig polynomial of the braid matroid (complete graph on n
    vertices): the row of cone({}, n), read off the Stirling partial sums of
    the flat sum."""
    from .polyseries import Poly

    return Poly(_braid_coeffs(n), "t")


# The table of a cone base H is exponential in |H|: with k = 4, in-process on
# a 2-vCPU VM, cone(P8, 4) took 0.16-0.18 s, cone(P10, 4) 1.1-1.5 s, cone(P11,
# 4) 3.3-3.8 s, cone(P12, 4) 12-14 s and cone(C12, 4) 8-9 s; so a graph
# with more than BASE_BOUND vertices left once its universal ones are split
# off fails fast.  It sits below graphmat.CANON_BOUND, so every base that
# passes has a canonical key.
BASE_BOUND = 10
# BASE_BOUND does not bound the rows: past its table, cone(H, k) costs about
# 2^|H| k^3, the rows up to k reading partial sums over up to |H| + 1
# rising factorials and multiplying the table's entries into them.
# In-process on a 2-vCPU VM (one session), cone(P4, 96) (2^|H| k^3 = 14e6)
# took 1.2 s, cone(P5, 95) (27e6) 2.9 s, cone(P8, 48) (28e6) 1.8 s, cone(P7,
# 64) (34e6) 2.1 s, cone(P6, 90) (47e6) 3.5 s, cone(P9, 48) (57e6) 3.8 s,
# cone(P8, 64) (67e6) 3.7 s, cone(P7, 90) (93e6) 5.5 s, cone(P10, 48) (113e6)
# 6.2 s and cone(P9, 64) (134e6) 7.1 s.  So a graph with 2^|H| k^3 above that
# of cone(P4, 96) fails fast, until a benchmark cone job can set the bound;
# it bounds the braid rows (H = {}) at k <= 241 too.  At its edges, in the
# same session, K_241 took 2.0 s, cone(2K1, 152) 1.2 s, cone(3K1, 120) 1.0 s,
# cone(P7, 48) 1.1 s and cone(P10, 24) 2.8 s: a base of ten is mostly its
# table (cone(P10, 16) took 2.0 s and cone(P10, 32) 3.4 s).
CONE_WORK_BOUND = 2**4 * 96**3
_BASES: dict = {}  # canonical key of H -> _ConeBase of H, which holds its rows
_EMPTY = Graph(0)  # the base of the braid rows
_EMPTY_KEY = canonical_key(_EMPTY)


def _split_cone(g: Graph) -> tuple:
    """Write g as cone(H, k): k counts its universal vertices and H, the
    rest, has none.  Returns (H, k)."""
    full = (1 << g.n) - 1
    rest = [v for v, m in enumerate(g.adjacency_masks()) if m | 1 << v != full]
    return induced_subgraph(g, rest), g.n - len(rest)


@lru_cache(maxsize=None)
def _resolve_quotient(adj: tuple) -> tuple:
    """The quotient graph with adjacency masks adj as cone(Q, u): returns
    (canonical key of Q, Q, u).  Bases share their quotients, so each is
    resolved once."""
    q, u = _split_cone(Graph.from_masks(list(adj)))
    return canonical_key(q), q, u


class _ConeBase:
    """What the cones over one graph H (without a universal vertex) share,
    for every number of cone vertices: chromatic polynomials of induced
    subgraphs, the flats of every H[r] grouped by contraction and weighted
    by the colour classes of the rest, a table independent of k, and the
    rows P(cone(H, k)) themselves."""

    def __init__(self, h: Graph):
        self.graph = h
        self.adj = h.adjacency_masks()
        self.full = (1 << h.n) - 1
        self._chrom: dict = {}
        self._classes: dict = {}
        self._table = None
        self._terms = None
        # rows[k] = P(cone(H, k)), with row 0 solved only when asked for;
        # the partial sums r[k][a] = R_{k,a} and g[k][a] = G_{k,a} of the
        # module docstring for k >= 1, each kept when row k lands; all are
        # built in order under the lock
        self._lock = threading.Lock()
        self.rows: list = [None]
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
        """The flats of H[r] grouped by contraction: one entry (base of Q, u,
        chi) per contraction cone(Q, u), where Q has no universal vertex and
        chi sums the flats' products of reduced characteristic polynomials
        of the blocks."""
        grouped: dict = {}
        for blocks in flat_masks(self.adj, r):
            chi = [1]
            for b in blocks:
                chi = pmul(chi, self.chromatic(b)[1:])
            qkey, q, u = _resolve_quotient(tuple(quotient_masks(self.adj, blocks)))
            padd_into(grouped.setdefault((qkey, u), [_cone_base(qkey, q), u, []])[2], chi)
        return list(grouped.values())

    def table(self) -> dict:
        """Maps (base of Q, u) to xs: xs[N] sums chi * a_N(S), over every r
        and every flat of H[r] that contracts to cone(Q, u), with
        S = V(H) - r and a_N(S) = classes(S)[N].  Built once."""
        if self._table is None:
            table: dict = {}
            for r in range(self.full + 1):
                classes = self.classes(self.full ^ r)
                for qbase, u, chi in self.flats(r):
                    xs = table.setdefault((qbase, u), [])
                    xs.extend([] for _ in range(len(classes) - len(xs)))
                    for n, a in enumerate(classes):
                        if a:
                            padd_into(xs[n], chi, a)
            self._table = table
        return self._table

    def terms(self) -> list:
        """The table's entries but the finest flat's (H, 0) as (base of Q, u,
        ys), with ys = [(a, [C(N, a) xs[N] for N >= a]) for each a]: R_{k',a}
        sums falling_sum(ys[a], 0, k') P(cone(Q, u + k'))."""
        if self._terms is None:
            self._terms = [
                (qbase, u, [
                    (a, [[comb(n, a) * x for x in xs[n]] for n in range(a, len(xs))])
                    for a in range(len(xs))
                ])
                for (qbase, u), xs in self.table().items()
                if qbase is not self
            ]
        return self._terms

    def groups(self, k: int) -> list:
        """The flats of cone(H, k) in groups, one per contraction: entries
        (base of Q, c, chi) for the flats that contract to cone(Q, c), with
        chi the sum of their products of the blocks' reduced characteristic
        polynomials, the finest flat included.  With k = 0 these are the
        flats of H; otherwise the table's entry (Q, u) goes to every
        c = u + k', its xs[N] weighted by B_{k,k'} (k' t - k)_N."""
        if not k:
            return self.flats(self.full)
        out: dict = {}
        for kk in range(1, k + 1):
            blocks = _flat_sum(k, kk)
            for (qbase, u), xs in self.table().items():
                group = out.setdefault((qbase, u + kk), [qbase, u + kk, []])
                padd_into(group[2], pmul(falling_sum(xs, k, kk), blocks))
        return [g for g in out.values() if any(g[2])]

    def row(self, k: int) -> tuple:
        """P(cone(H, k)) for |H| + k >= 1, read without the lock once it is
        solved: row 0 from the flats of H, the others by extending the
        partial sums up to k."""
        rows = self.rows
        if k >= len(rows) or rows[k] is None:
            with self._lock:
                if not k and rows[0] is None:
                    rhs = [0] * self.graph.n
                    for qbase, u, chi in self.flats(self.full):
                        if qbase is not self:  # the finest flat carries P itself
                            padd_into(rhs, pmul(chi, qbase.row(u)))
                    rows[0] = _solve_functional_equation(rhs, self.graph.n - 1)
                while len(rows) <= k:
                    self._extend()
        return rows[k]

    def _extend(self) -> None:
        """Row k = len(rows) with R_k and G_k; nothing is kept unless the
        row is read off."""
        k = len(self.rows)
        n = self.graph.n + k
        r = [[] for _ in range(max(len(xs) for xs in self.table().values()))]
        for qbase, u, ys in self.terms():
            row = qbase.row(u + k)
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
        if n == 1:
            row = (1,)  # rank 0: the equation is vacuous, P = 1 by definition
        else:
            rhs = list(g[0])  # a = 0, j = k: c(k, k) = 1
            c, gs = stirling1_row(k), self._g
            rise = 1  # k^(a)
            for a, ga in enumerate(g):
                if a:
                    padd_into(rhs, ga, (-1) ** a * rise)
                for j in range(1, k):
                    padd_into(rhs, gs[j][a], (-1) ** (a + k - j) * rise * c[j])
                rise *= k + a
            row = _solve_functional_equation(rhs, n - 1)
        padd_into(r[0], row)
        padd_into(g[0], row)
        self._r.append(r)
        self._g.append(g)
        self.rows.append(row)


def _cone_base(hkey: tuple, h: Graph) -> _ConeBase:
    """The shared _ConeBase of H, with hkey the canonical key of H."""
    base = _BASES.get(hkey)
    if base is None:
        base = _BASES.setdefault(hkey, _ConeBase(h))
    return base


def _cone_input(gamma: Graph, k: int) -> tuple:
    """cone(gamma, k) as (base of H, k'), without building the
    cone: gamma's universal vertices join the k new ones in k', and H is the
    rest of gamma.  Every bound is checked here, before any row is built."""
    if k < 0:
        raise ValueError("n must be nonnegative")
    if gamma.n + k < 1:
        raise ValueError("graph must have at least one vertex")
    # Every split of gamma leaves more than BASE_BOUND vertices in H or at
    # least gamma.n - BASE_BOUND universal ones; when the latter are past the
    # work bound, gamma is refused unsplit, since splitting a graph file on
    # millions of vertices takes minutes.
    if (gamma.n - BASE_BOUND) ** 3 > CONE_WORK_BOUND:
        raise ValueError(
            f"graph on {gamma.n} vertices is out of reach: with at most "
            f"{BASE_BOUND} of them not universal, 2^|H| k^3 >= "
            f"{gamma.n - BASE_BOUND}^3 (the recursion handles 2^|H| k^3 <= "
            f"{CONE_WORK_BOUND})"
        )
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
    return _cone_base(canonical_key(h), h), k


def _kl_graphic_coeffs(gamma: Graph) -> tuple:
    return _cone_coeffs(gamma, 0)


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
    base, k = _cone_input(gamma, k)
    return base.row(k)


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
