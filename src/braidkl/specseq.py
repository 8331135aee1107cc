"""Dimension ledger of the E1 page converging to the braid KL coefficients,
its Euler-characteristic consistency identity, and the relative (cone-graph)
version.

Cell dimensions: b_dim(i,p,q,n) counts invariants of the direct sum over
ordered surjections onto p+1 labels of (configuration homology in total
degree 2i-p-q) tensor (a smaller KL coefficient on p+1 points).  The label
group permutes surjections freely, so the invariant dimension is the ordered
count divided by (p+1)!.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinat import stirling1_unsigned
from .graphmat import (
    Graph,
    _mask_vertices,
    betti_numbers,
    cone_extend,
    flat_masks,
    induced_subgraph,
    quotient_masks,
)
from .klcore import _kl_graphic_coeffs, _pmul, d_coeff, d_coeff_graph


@lru_cache(maxsize=None)
def _block_gf(n: int, jcap: int) -> tuple:
    """Exponential generating data for one block: entry [b][j] is
    c(b, b-j)/b!, the Betti number of b points in degree j over b!."""
    table = []
    for b in range(n + 1):
        row = [Fraction(0)] * (jcap + 1)
        if b >= 1:
            for j in range(min(b - 1, jcap) + 1):
                row[j] = Fraction(stirling1_unsigned(b, b - j), factorial(b))
        table.append(tuple(row))
    return tuple(table)


def _conv2(a, b, n, jcap):
    out = [[Fraction(0)] * (jcap + 1) for _ in range(n + 1)]
    for ua in range(n + 1):
        rowa = a[ua]
        for ja in range(jcap + 1):
            ca = rowa[ja]
            if not ca:
                continue
            for ub in range(n + 1 - ua):
                rowb = b[ub]
                for jb in range(jcap + 1 - ja):
                    cb = rowb[jb]
                    if cb:
                        out[ua + ub][ja + jb] += ca * cb
    return tuple(tuple(r) for r in out)


@lru_cache(maxsize=None)
def _comp_table(k: int, n: int, jcap: int) -> tuple:
    """Coefficient table of the k-th power of the block series, truncated."""
    if k == 0:
        out = [[Fraction(0)] * (jcap + 1) for _ in range(n + 1)]
        out[0][0] = Fraction(1)
        return tuple(tuple(r) for r in out)
    half = _comp_table(k // 2, n, jcap)
    sq = _conv2(half, half, n, jcap)
    if k % 2:
        sq = _conv2(sq, _block_gf(n, jcap), n, jcap)
    return sq


def comp_dim(p: int, j: int, n: int) -> int:
    """Dimension of the span over ordered surjections of [n] onto [p+1] of
    the degree-j piece of the product configuration homology; computed by
    convolving per-block generating data, never by listing surjections."""
    if p < 0 or j < 0:
        raise ValueError("p and j must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if p + 1 > n:
        return 0
    table = _comp_table(p + 1, n, j)
    val = factorial(n) * table[n][j]
    assert val.denominator == 1
    return val.numerator


def b_dim(i: int, p: int, q: int, n: int) -> int:
    """Dimension of the (p,q) cell at weight i: the unordered surjection
    count times the KL coefficient dim D_{i-q}(p+1)."""
    if i < 1 or p < 0 or q < 0:
        raise ValueError("need i >= 1 and p, q >= 0")
    j = 2 * i - p - q
    if j < 0 or q > i:
        return 0
    kl = d_coeff(i - q, p + 1)
    if kl == 0:
        return 0
    cd = comp_dim(p, j, n)
    orbits, rem = divmod(cd, factorial(p + 1))
    assert rem == 0, "ordered count not divisible by the label group order"
    return orbits * kl


def euler_identity(i: int, n: int) -> dict:
    """Alternating sum of the E1 cell dimensions against dim D_i(n); the
    two must agree exactly (first-quadrant convergence in one total degree)."""
    if i < 1 or n < 1:
        raise ValueError("need i >= 1 and n >= 1")
    lhs = 0
    for p in range(0, min(2 * i, n - 1) + 1):
        for q in range(0, i + 1):
            if 2 * i - p - q < 0:
                continue
            cell = b_dim(i, p, q, n)
            if cell:
                lhs += (-1) ** (p + q) * cell
    rhs = d_coeff(i, n)
    return {"i": i, "n": n, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


RELATIVE_BOUND = 10


def euler_identity_graph(gamma: Graph, i: int, n: int) -> dict:
    """Relative version over the cone graph: sum over connected partitions,
    with per-partition Betti data and KL coefficients of quotient graphs."""
    if i < 1 or n < 0:
        raise ValueError("need i >= 1 and n >= 0")
    if gamma.n + n > RELATIVE_BOUND:
        raise ValueError(
            f"connected-partition enumeration bounded at {RELATIVE_BOUND} vertices"
        )
    cone = cone_extend(gamma, n)
    adj = cone.adjacency_masks()
    betti: dict = {}  # block mask -> Betti numbers of the block in degrees <= 2i
    quotient_kl: dict = {}  # quotient adjacency masks -> its KL coefficients
    lhs = 0
    for blocks in flat_masks(adj, (1 << cone.n) - 1):
        p = len(blocks) - 1
        conv = [1]
        for b in blocks:
            vec = betti.get(b)
            if vec is None:
                block = induced_subgraph(cone, _mask_vertices(b))
                vec = betti[b] = betti_numbers(block)[: 2 * i + 1]
            conv = _pmul(conv, vec)[: 2 * i + 1]
        q = tuple(quotient_masks(adj, blocks))
        kl = quotient_kl.get(q)
        if kl is None:
            kl = quotient_kl[q] = _kl_graphic_coeffs(Graph.from_masks(list(q)))
        for q_deg in range(0, i + 1):
            j = 2 * i - p - q_deg
            if 0 <= j < len(conv) and i - q_deg < len(kl):
                lhs += (-1) ** (p + q_deg) * conv[j] * kl[i - q_deg]
    rhs = d_coeff_graph(gamma, i, n)
    return {"i": i, "n": n, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def ratio_diagnostic(i: int, n_range) -> list:
    """Rows (n, b_dim(i,2i-1,1,n)/(2i)^n, d_coeff(i,n)/(2i)^n); the two
    columns share the limit dim D_{i-1}(2i)/(2i)!."""
    if i < 1:
        raise ValueError("i must be positive")
    d = 2 * i
    out = []
    for n in n_range:
        denom = Fraction(d) ** n
        out.append(
            (
                n,
                Fraction(b_dim(i, 2 * i - 1, 1, n)) / denom,
                Fraction(d_coeff(i, n)) / denom,
            )
        )
    return out
