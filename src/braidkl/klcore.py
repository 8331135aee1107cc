"""Non-equivariant Kazhdan-Lusztig polynomials of graphic matroids.

The defining functional equation, for a connected graph with matroid rank
r = (vertices - 1):

    t^r P(1/t) = sum over flats F of chi(localization at F) * P(contraction at F)

together with deg P < r/2 and P = 1 in rank 0, determines P uniquely: the
coefficients of t^j on the right for j > r/2 are exactly the low-order
coefficients of P, so they can be read off top-down once every proper
contraction is known.  Flats of a graphic matroid are the vertex partitions
with connected blocks.  For the complete graph K_m the contraction at a flat
with l blocks is K_l, and the flats with l blocks together contribute

    B_{m,l}(t) = sum_k s(m,k) S(k,l) t^(k-l)

(s signed Stirling numbers of the first kind, S of the second kind), by the
exponential formula with sum_b chi(K_b) x^b / b! = ((1+x)^t - 1)/t.  So the
braid row m is sum_{l<m} P(K_l) B_{m,l}, and the table up to n costs O(n^4)
integer operations.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .combinat import double_factorial_odd, stirling1_row, stirling2_row
from .graphmat import (
    CANON_BOUND,
    Graph,
    canonical_key,
    char_poly,
    cone_extend,
    connected_partitions,
    contract,
    is_connected,
    localize,
)
from .polyseries import Poly


def _pmul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _padd_into(acc: list, b: list) -> None:
    for i, y in enumerate(b):
        acc[i] += y


def _flat_sum(m: int, ell: int) -> list:
    """B_{m,ell}: the sum, over the flats of K_m with ell blocks, of the
    product of the blocks' reduced characteristic polynomials."""
    c = stirling1_row(m)
    return [
        (-1) ** (m - k) * c[k] * stirling2_row(k)[ell] for k in range(ell, m + 1)
    ]


def _solve_functional_equation(rhs_proper: list, rank: int) -> tuple:
    """Given the flat sum over all proper (non-minimal) flats, read off the
    KL coefficients from the top of t^r P(1/t) - P = rhs and check the
    forced structure of the remaining coefficients."""
    s = rhs_proper + [0] * (rank + 1 - len(rhs_proper))
    dmax = (rank - 1) // 2 if rank >= 1 else 0
    coeffs = [s[rank - i] for i in range(dmax + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        coeffs = [0]
    # the low coefficients of the sum must be -P, and the middle must vanish
    for i in range(dmax + 1):
        low = -s[i]
        want = coeffs[i] if i < len(coeffs) else 0
        if low != want:
            raise ArithmeticError("functional equation is inconsistent (low read)")
    for j in range(dmax + 1, rank - dmax):
        if s[j] != 0:
            raise ArithmeticError("functional equation is inconsistent (middle)")
    if coeffs[0] != 1:
        raise ArithmeticError("constant term of a KL polynomial must be 1")
    if any(c < 0 for c in coeffs):
        raise ArithmeticError("negative KL coefficient")
    return tuple(coeffs)


_BRAID: list = [None, (1,)]  # _BRAID[n] = coefficients of P for the braid matroid
_BRAID_LOCK = threading.Lock()  # extending the table must not interleave


def _braid_coeffs(n: int) -> tuple:
    if n < 1:
        raise ValueError("n must be positive")
    if len(_BRAID) <= n:
        with _BRAID_LOCK:
            while len(_BRAID) <= n:
                m = len(_BRAID)
                rhs = [0] * m
                # l = m is the finest flat, which carries the unknown P itself
                for ell in range(1, m):
                    _padd_into(rhs, _pmul(_BRAID[ell], _flat_sum(m, ell)))
                _BRAID.append(_solve_functional_equation(rhs, m - 1))
    return _BRAID[n]


def kl_braid(n: int) -> Poly:
    """Kazhdan-Lusztig polynomial of the braid matroid (complete graph on n
    vertices), computed by the Stirling closed form of the flat sum."""
    return Poly([Fraction(c) for c in _braid_coeffs(n)], "t")


_GRAPH_TABLE: dict = {}


def _kl_graphic_coeffs(gamma: Graph) -> tuple:
    if gamma.n < 1:
        raise ValueError("graph must have at least one vertex")
    if not is_connected(gamma):
        raise ValueError(
            "disconnected graph: KL polynomials multiply over components, "
            "compute each component separately"
        )
    if gamma.n == 1:
        return (1,)  # rank 0: the equation is vacuous, P = 1 by definition
    key = canonical_key(gamma) if gamma.n <= CANON_BOUND else None
    if key is not None and key in _GRAPH_TABLE:
        return _GRAPH_TABLE[key]
    rank = gamma.n - 1
    rhs = [0] * (rank + 1)
    for pi in connected_partitions(gamma):
        if pi.num_blocks == gamma.n:
            continue
        chi = [1]
        for block in localize(gamma, pi):
            cp = char_poly(block)
            chi = _pmul(chi, [int(c) for c in cp.coeffs])
        contr = _kl_graphic_coeffs(contract(gamma, pi))
        _padd_into(rhs, _pmul(chi, list(contr)))
    coeffs = _solve_functional_equation(rhs, rank)
    if key is not None:
        _GRAPH_TABLE[key] = coeffs
    return coeffs


def kl_graphic(gamma: Graph) -> Poly:
    """Kazhdan-Lusztig polynomial of the graphic matroid of a connected
    graph, by direct recursion over connected partitions."""
    return Poly([Fraction(c) for c in _kl_graphic_coeffs(gamma)], "t")


def d_coeff(i: int, n: int) -> int:
    """dim D_i(n): the t^i coefficient of the braid KL polynomial."""
    if i < 0:
        return 0
    cs = _braid_coeffs(n)
    return cs[i] if i < len(cs) else 0


def d_coeff_graph(gamma: Graph, i: int, n: int) -> int:
    """t^i coefficient of the KL polynomial of the cone graph on gamma with
    n new universal vertices."""
    cone = cone_extend(gamma, n)
    if cone.is_complete():
        return d_coeff(i, cone.n)
    if cone.n <= CANON_BOUND:
        cs = _kl_graphic_coeffs(cone)
        return cs[i] if 0 <= i < len(cs) else 0
    if i == 1 and cone.n <= 26:
        return c1_count(cone)
    raise ValueError(
        f"cone graph on {cone.n} vertices is out of reach (full recursion "
        f"needs <= {CANON_BOUND} vertices; the subset shortcut covers i=1 "
        "up to 26)"
    )


def c1_count(gamma: Graph) -> int:
    """Linear KL coefficient shortcut: (connected 2-block partitions) minus
    (edges).  Cross-checked against the recursion in the verification suite."""
    if not is_connected(gamma):
        raise ValueError("graph must be connected")
    n = gamma.n
    if n > 26:
        raise ValueError("subset enumeration capped at 26 vertices")
    adj = gamma.adjacency_masks()
    full = (1 << n) - 1
    from .graphmat import _mask_connected

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
    predicted = Fraction(double_factorial_odd(2 * i - 3)) * Fraction(2 * i - 1) ** (
        i - 2
    )
    assert predicted.denominator == 1
    predicted = predicted.numerator
    return {
        "i": i,
        "computed": computed,
        "predicted": predicted,
        "equal": computed == predicted,
    }


def kl_cache_export() -> dict:
    """Snapshot the graph memo table as JSON-safe records (graph:<hex key>
    mapping to decimal coefficient strings).  Braid rows are cheap to
    recompute and are not persisted."""
    return {
        "graph:" + key.hex(): [str(c) for c in coeffs]
        for key, coeffs in _GRAPH_TABLE.items()
    }


def _row_plausible(key: bytes, coeffs: tuple) -> bool:
    """Cheap invariants of a KL row: constant term 1, no negative
    coefficient, degree below rank/2.  The rank is the vertex count minus
    one, and a canonical key holds the vertex count in its second byte."""
    if len(key) < 2 or not coeffs:
        return False
    rank = key[1] - 1
    dmax = (rank - 1) // 2 if rank >= 1 else 0
    return coeffs[0] == 1 and min(coeffs) >= 0 and len(coeffs) - 1 <= dmax


def kl_cache_import(records: dict) -> list:
    """Load graph:<hex key> records into the graph memo table; rows already
    known win, and any other record (such as a braid:<n> row written by an
    older version) is ignored.  A graph row that fails _row_plausible is
    skipped, and the keys of the skipped rows are returned."""
    skipped = []
    for key, coeffs in records.items():
        if key.startswith("graph:"):
            raw = bytes.fromhex(key.split(":", 1)[1])
            vals = tuple(int(c) for c in coeffs)
            if _row_plausible(raw, vals):
                _GRAPH_TABLE.setdefault(raw, vals)
            else:
                skipped.append(key)
    return skipped
