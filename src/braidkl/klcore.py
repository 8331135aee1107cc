"""Non-equivariant Kazhdan-Lusztig polynomials of graphic matroids.

The defining functional equation, for a connected graph with matroid rank
r = (vertices - 1):

    t^r P(1/t) = sum over flats F of chi(localization at F) * P(contraction at F)

together with deg P < r/2 and P = 1 in rank 0, determines P uniquely: the
coefficients of t^j on the right for j > r/2 are exactly the low-order
coefficients of P, so they can be read off top-down once every proper
contraction is known (intpoly.read_off; constant term 1 and no negative
coefficient are checked here).  Flats of a graphic matroid are the vertex
partitions with connected blocks.  For the complete graph K_m the
contraction at a flat with l blocks is K_l, and the flats with l blocks
together contribute

    B_{m,l}(t) = sum_k s(m,k) S(k,l) t^(k-l)

(s signed Stirling numbers of the first kind, S of the second kind), by the
exponential formula with sum_b chi(K_b) x^b / b! = ((1+x)^t - 1)/t.  So the
braid row m is read off rhs_m = sum_{l<m} P_l B_{m,l}, with P_l = P(K_l).
Swapping the sums over k and l, and using S(m,m) = 1,

    rhs_m = sum_{k<m} (-1)^(m-k) c(m,k) G_k + (G_m - P_m),
    G_k = sum_{l<=k} S(k,l) t^(k-l) P_l

(c unsigned Stirling numbers of the first kind).  G_k needs only the rows up
to k, so it is built once, when row k lands; a row then costs O(m^2)
integer operations and the table up to n costs O(n^3).

Every other graph goes through one recursion on pairs (H, k).  A connected
graph G is cone(H, k): k counts its universal vertices (adjacent to all
others) and H, the rest, has none; for cone(gamma, k), gamma's universal
vertices join the k new ones, and the cone is never built.  A flat of
cone(H, k) is made of

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
from k' disjoint palettes of t - c colours each, chi_{H[S]}(k' t - k), and
prod (t)_c / t over the partitions of the cone vertices sums to B_{k,k'}.
So the weight is B_{k,k'}(t) sum_N a_N(S) (k' t - k)_N, with a_N(S) the
partitions of S into N independent sets (the colour-class recursion of
graphmat).  The flats of every H[r], weighted by a_N(V - r), make one table
per H that does not depend on k.  With H empty the rows are the braid rows,
and with k = 0 only S = {} remains: the plain sum over the flats of H.
"""

from __future__ import annotations

import threading
from functools import lru_cache

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


_BRAID: list = [None, (1,)]  # _BRAID[n] = coefficients of P for the braid matroid
_BRAID_SUMS: list = [None, [1]]  # _BRAID_SUMS[k] = G_k of the module docstring
_BRAID_LOCK = threading.Lock()  # extending the table must not interleave
# The table costs O(n^3) operations on growing integers: on a 2-vCPU VM rows
# up to 150 take 0.3-0.4 s and up to 200 took 0.9-1.2 s, so larger n fail
# fast.
BRAID_BOUND = 150
# `genfun --fit` at weight i reads rows up to 2i, but its cost grows as about
# i^8 (the fit's denominator has about 2i^2 factors): at --max-n 64 on a
# 2-vCPU VM, i = 16 took 0.7 s, i = 24 5-7 s and i = 32 75 s, so larger i
# fail fast.
FIT_BOUND = 24


def _stirling_sum(k: int, top: int) -> list:
    """sum_{l=1..top} S(k,l) t^(k-l) P_l over the braid rows P_l: G_k when
    top = k, and G_k - P_k when top = k - 1."""
    s = stirling2_row(k)
    out = [0] * k
    for ell in range(1, top + 1):
        scale = s[ell]
        for i, x in enumerate(_BRAID[ell], k - ell):
            out[i] += scale * x
    return out


def _braid_coeffs(n: int) -> tuple:
    if n < 1:
        raise ValueError("n must be positive")
    if n > BRAID_BOUND:
        raise ValueError(
            f"n = {n} is out of reach: the braid table handles n <= {BRAID_BOUND}"
        )
    if len(_BRAID) <= n:
        with _BRAID_LOCK:
            # the sums follow the rows, also after the row table was replaced
            del _BRAID_SUMS[len(_BRAID) :]
            for k in range(len(_BRAID_SUMS), len(_BRAID)):
                _BRAID_SUMS.append(_stirling_sum(k, k))
            while len(_BRAID) <= n:
                m = len(_BRAID)
                below = _stirling_sum(m, m - 1)  # G_m - P_m
                rhs = list(below)
                c = stirling1_row(m)
                for k in range(1, m):
                    padd_into(rhs, _BRAID_SUMS[k], (-1) ** (m - k) * c[k])
                row = _solve_functional_equation(rhs, m - 1)
                padd_into(below, row)
                _BRAID.append(row)
                _BRAID_SUMS.append(below)
    return _BRAID[n]


def kl_braid(n: int) -> Poly:
    """Kazhdan-Lusztig polynomial of the braid matroid (complete graph on n
    vertices), computed by the Stirling closed form of the flat sum."""
    from .polyseries import Poly

    return Poly(_braid_coeffs(n), "t")


# Row key of cone(H, k): _ROW_TAG, then the vertex count |H| + k in one byte,
# then canonical_key(H) without its tag (|H| in one byte, then H's canonical
# adjacency bits).
_ROW_TAG = b"K"
# A row of cone(H, k) costs about k^4.5 at fixed H: in-process on a 2-vCPU
# VM, cone(P4, 60) took 1.7 s, cone(P4, 96) 7.4 s, cone(P4, 120) 24 s and
# cone(P3, 200) 72 s, while K_100 took 0.6 s; so graphs on more vertices
# fail fast, before any row is built.
VERTEX_BOUND = 100
# The table of a cone base H is exponential in |H|: with k = 4, in-process on
# a 2-vCPU VM, cone(P8, 4) took 0.26 s, cone(P10, 4) 4.0 s, cone(P11, 4)
# 18 s and cone(P12, 4) 70 s, and cycles took about 0.7 of that; so a graph
# with more than BASE_BOUND vertices left once its universal ones are split
# off fails fast.  It sits below graphmat.CANON_BOUND, so every base that
# passes has a canonical key.
BASE_BOUND = 10
# The two bounds do not compose: past its table, cone(H, k) costs about
# 2^|H| k^3, the rows up to k summing the table's groups over up to k blocks.
# In-process on a 2-vCPU VM (one session, each run killed at 60 s), cone(P4,
# 96) (2^|H| k^3 = 14e6) took 7.4 s, cone(P5, 95) (27e6) 27 s, cone(P8, 48)
# (28e6) 18 s, cone(P7, 64) (34e6) 24 s, cone(P6, 90) (47e6) 48 s, cone(P9,
# 48) (57e6) 35 s and cone(P8, 64) (67e6) 53 s; cone(P7, 90), cone(P9, 64)
# and cone(P10, 48) were killed, and cone(P10, 90) had run for 120 s.  So a
# graph with 2^|H| k^3 above that of cone(P4, 96), which VERTEX_BOUND admits,
# fails fast.  At the bound cone(P7, 48) took 9.7 s and cone(P10, 24) 19 s:
# a base of ten carries its table too (cone(P10, k) took 14 s at k = 16 and
# 28 s at k = 32 in that session, 6.7 s and 17 s in an earlier one).
CONE_WORK_BOUND = 2**4 * 96**3
_GRAPH_TABLE: dict = {}  # row key of (H, k) -> KL coefficients of cone(H, k)
_BASES: dict = {}  # canonical key of H -> _ConeBase of H


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

    def __init__(self, h: Graph):
        self.graph = h
        self.adj = h.adjacency_masks()
        self.full = (1 << h.n) - 1
        self._chrom: dict = {}
        self._classes: dict = {}
        self._table = None

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


def _cone_base(hkey: bytes, h: Graph) -> _ConeBase:
    """The shared _ConeBase of H, with hkey the canonical key of H."""
    base = _BASES.get(hkey)
    if base is None:
        base = _BASES.setdefault(hkey, _ConeBase(h))
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
    """KL coefficients of cone(H, k), with hkey the canonical key of H, from
    the functional equation summed over the flat groups of cone(H, k)."""
    n = h.n + k
    if n == 1:
        return (1,)  # rank 0: the equation is vacuous, P = 1 by definition
    key = _ROW_TAG + _count_byte(n) + hkey[1:]
    hit = _GRAPH_TABLE.get(key)
    if hit is not None:
        return hit
    base = _cone_base(hkey, h)
    # rows with fewer cone vertices first, which bounds the recursion depth
    for j in range(1, k):
        _cone_row(hkey, base.graph, j)
    rhs = [0] * n
    for qkey, q, c, chi in _flat_groups(base, k):
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
    mapping to decimal coefficient strings).  The braid rows of `kl --n`
    are not persisted; rows of K_m reached as graphs (H empty) are."""
    return {
        "graph:" + key.hex(): [str(c) for c in coeffs]
        for key, coeffs in _GRAPH_TABLE.items()
    }


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
    known win.  Any other record, and a graph row whose key is not a cone
    row key (such as a braid:<n> row or a whole-graph canonical key written
    by an older version), is ignored.  A key too short for a tag and a
    vertex count raises ValueError: no version writes one.  A cone row that
    fails _row_plausible is skipped, and the keys of the skipped rows are
    returned."""
    skipped = []
    for key, coeffs in records.items():
        if key.startswith("graph:"):
            raw = bytes.fromhex(key.split(":", 1)[1])
            if len(raw) < 2:
                raise ValueError(f"malformed KL cache key {key}")
            if not raw.startswith(_ROW_TAG):
                continue
            if _row_plausible(raw, coeffs):
                _GRAPH_TABLE.setdefault(raw, tuple(map(int, coeffs)))
            else:
                skipped.append(key)
    return skipped
