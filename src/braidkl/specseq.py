"""Dimension ledger of the E1 page converging to the braid KL coefficients,
its Euler-characteristic consistency identity, and the relative (cone-graph)
version.

Cell dimensions: b_dim(i,p,q,n) counts invariants of the direct sum over
ordered surjections onto p+1 labels of (configuration homology in total
degree 2i-p-q) tensor (a smaller KL coefficient on p+1 points).  The label
group permutes surjections freely, so the invariant dimension is the ordered
count divided by (p+1)!.  The ordered count in degree j has the closed form

    comp_dim(p, j, n) = c(n, n-j) (p+1)! S(n-j, p+1)

(c unsigned Stirling numbers of the first kind, S of the second kind): the
Poincare polynomials prod_{k<b} (1 + k y) of Conf_b(C) have the exponential
generating function (1 - x y)^(-1/y), and n! [x^n y^j] of
((1 - x y)^(-1/y) - 1)^(p+1), expanded binomially, is
c(n, n-j) sum_s (-1)^(p+1-s) C(p+1, s) s^(n-j) = c(n, n-j) (p+1)! S(n-j, p+1).

The relative ledger of an N-vertex cone sums, over its flats with b = p+1
blocks, (-1)^(p+q) times the blocks' Betti product in degree j = 2i-p-q
times the degree i-q KL coefficient of the contraction.  Betti numbers are
the reduced characteristic polynomials read backwards with alternating
signs, so the Betti product is (-1)^j [t^(N-b-j)] prod_B chi_B: the signs
cancel, and with m = i-q the index is N-1-i-m, free of b.  So the ledger is
sum_m chi[N-1-i-m] row[m] over the flats grouped by contraction (chi their
summed products, row the contraction's KL coefficients), as klcore groups
them.  The independent check, the per-block Betti enumeration over every
connected partition, is the oracle in tests/test_specseq.py.
"""

from __future__ import annotations

from math import factorial

from .combinat import stirling1_unsigned, stirling2
from .graphmat import Graph, canonical_key, cone_extend
from .klcore import _cone_base, _cone_row, _flat_groups, _split_cone
from .klcore import d_coeff, d_coeff_graph


def _orbit_dim(p: int, j: int, n: int) -> int:
    """c(n, n-j) S(n-j, p+1): the ordered count comp_dim over (p+1)!."""
    if n < 1:
        raise ValueError("n must be positive")
    if j >= n:
        return 0  # a block of b points has homology only below degree b
    return stirling1_unsigned(n, n - j) * stirling2(n - j, p + 1)


def comp_dim(p: int, j: int, n: int) -> int:
    """Dimension of the span over ordered surjections of [n] onto [p+1] of
    the degree-j piece of the product configuration homology, by the closed
    form c(n, n-j) (p+1)! S(n-j, p+1) of the module docstring; zero when
    j >= n or p+1 > n-j."""
    if p < 0 or j < 0:
        raise ValueError("p and j must be nonnegative")
    return factorial(p + 1) * _orbit_dim(p, j, n)


def b_dim(i: int, p: int, q: int, n: int) -> int:
    """Dimension of the (p,q) cell at weight i: the unordered surjection
    count c(n, n-j) S(n-j, p+1) in degree j = 2i-p-q times the KL
    coefficient dim D_{i-q}(p+1)."""
    if i < 1 or p < 0 or q < 0:
        raise ValueError("need i >= 1 and p, q >= 0")
    j = 2 * i - p - q
    if j < 0 or q > i:
        return 0
    kl = d_coeff(i - q, p + 1)
    if kl == 0:
        return 0
    return _orbit_dim(p, j, n) * kl


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


def euler_identity_graph(gamma: Graph, i: int, n: int) -> dict:
    """Relative ledger over cone(gamma, n), summed over the flat groups of
    the KL recursion as in the module docstring, against d_coeff_graph.  The
    sum is the t^(N-1-i) coefficient of the full flat sum of the functional
    equation, so lhs = rhs checks that the solve is consistent."""
    if i < 1 or n < 0:
        raise ValueError("need i >= 1 and n >= 0")
    rhs = d_coeff_graph(gamma, i, n)  # checks the bounds, builds every row
    cone = cone_extend(gamma, n)
    h, k = _split_cone(cone.adjacency_masks())
    top = cone.n - 1 - i
    lhs = 0
    for qkey, q, c, chi in _flat_groups(_cone_base(canonical_key(h), h), k):
        row = _cone_row(qkey, q, c)
        for m in range(min(i + 1, len(row), top + 1)):
            if top - m < len(chi):
                lhs += chi[top - m] * row[m]
    return {"i": i, "n": n, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def ratio_diagnostic(i: int, n_range) -> list:
    """Rows (n, b_dim(i,2i-1,1,n)/(2i)^n, d_coeff(i,n)/(2i)^n); the two
    columns share the limit dim D_{i-1}(2i)/(2i)!."""
    from fractions import Fraction

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
