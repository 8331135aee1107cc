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

The Euler identity turns into the paper's rationality statement.  Write
S(n-j, p+1) = sum_{s=1}^{p+1} (-1)^(p+1-s) C(p+1, s) s^(n-j) / (p+1)! (the
s = 0 term only matters at n = j, where c(n, n-j) = 0 for j >= 1), and let
c_j(n) = c(n, n-j), a polynomial in n of degree 2j that vanishes at
n = 0..j when j >= 1, so the values at n = 0..2j fix it.  Then, for n >= 1,

    dim D_i(n) = sum_{s <= 2i} s^n Q_s(n),
    Q_s(n) = sum (-1)^(q+1-s) C(p+1, s) D_{i-q}(p+1) c_j(n) / ((p+1)! s^j)

over p >= s-1, q <= i and j = 2i-p-q >= 0 (p = 2i would need D_i(2i+1),
which is 0).  Only p = 2i-1, q = 1, j = 0 reaches s = 2i, so
Q_2i = D_{i-1}(2i)/(2i)!, the limit of dim D_i(n)/(2i)^n.  In the basis
C(n, k), Q_s has the coefficients g_k, and sum_n C(n, k) x^n =
x^k/(1-x)^(k+1) = sum_m (-1)^(k+1-m) C(k, m-1)/(1-x)^m, so with x = su the
generating function sum_{n>=1} dim D_i(n) u^n is the constant -sum_s Q_s(0)
plus sum_{s,m} c_{s,m}/(1-su)^m with c_{s,m} = sum_k (-1)^(k+1-m) C(k, m-1) g_k;
the pole at 1/s has order deg Q_s + 1, and its exponential generating
function part is sum_k g_k s^k u^k/k! e^(su).

The relative ledger of an N-vertex cone sums, over its flats with b = p+1
blocks, (-1)^(p+q) times the blocks' Betti product in degree j = 2i-p-q
times the degree i-q KL coefficient of the contraction.  Betti numbers are
the reduced characteristic polynomials read backwards with alternating
signs, so the Betti product is (-1)^j [t^(N-b-j)] prod_B chi_B: the signs
cancel, and with m = i-q the index is N-1-i-m, free of b.  So the ledger is
sum_m chi[N-1-i-m] row[m] over the flats grouped by contraction (chi their
summed products, row the contraction's KL coefficients), as the cone base
of klcore groups them: the cone resolves once to the base of H and k, each
contraction to the base of its Q, and every row, dim D_i of the cone's
included, is read from the base that holds it.  The independent check, the
per-block Betti enumeration over every connected partition, is the oracle
in tests/test_specseq.py.
"""

from __future__ import annotations

from math import comb, factorial, lcm

from .combinat import stirling1_unsigned, stirling2
from .graphmat import Graph
from .klcore import _cone_input, d_coeff


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


def _stirling_binomial(j: int) -> list:
    """Integers e_k with c(n, n-j) = sum_k e_k C(n, k) for every n >= 0: the
    forward differences at 0 of its values at n = 0..2j."""
    vals = [stirling1_unsigned(n, n - j) if n >= j else 0 for n in range(2 * j + 1)]
    out = []
    while vals:
        out.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return out


def euler_form(i: int) -> dict:
    """The closed form of the module docstring as {s: g}, with
    dim D_i(n) = sum_s s^n sum_k g[k] C(n, k) for every n >= 1.  Each g is a
    list of Fractions ending in a nonzero one; an s with Q_s = 0 is left out."""
    from fractions import Fraction

    if i < 1:
        raise ValueError("i must be positive")
    stirling = [_stirling_binomial(j) for j in range(2 * i + 1)]
    weights = {}  # (s, j) -> the coefficient of c_j(n) in Q_s(n)
    for p in range(2 * i):
        for q in range(min(i, 2 * i - p) + 1):
            kl = d_coeff(i - q, p + 1)
            if kl:
                j = 2 * i - p - q
                for s in range(1, p + 2):
                    sign = -1 if (q + 1 + s) % 2 else 1
                    w = Fraction(sign * comb(p + 1, s) * kl, factorial(p + 1) * s**j)
                    weights[s, j] = weights.get((s, j), 0) + w
    form = {}
    for (s, j), w in sorted(weights.items()):
        g = form.setdefault(s, [])
        g += [0] * (len(stirling[j]) - len(g))
        for k, e in enumerate(stirling[j]):
            g[k] += w * e
    for s, g in list(form.items()):
        while g and not g[-1]:
            g.pop()
        if not g:
            del form[s]
    return form


def _scaled_series(form: dict, n_max: int) -> tuple:
    """(L, [L a_0, ..., L a_n_max]) for the terms a_n of form_series, with L
    the lcm of the form's denominators, so that every entry is an integer."""
    scale = lcm(*(c.denominator for g in form.values() for c in g))
    ints = [(s, [c.numerator * (scale // c.denominator) for c in g]) for s, g in form.items()]
    width = max(len(g) for _, g in ints)
    out = [0]
    for n in range(1, n_max + 1):
        binom = [comb(n, k) for k in range(width)]
        out.append(sum(s**n * sum(c * b for c, b in zip(g, binom)) for s, g in ints))
    return scale, out


def form_series(form: dict, n_max: int) -> list:
    """Terms a_0..a_n_max of sum_{n>=1} (sum_s s^n Q_s(n)) u^n for a form of
    euler_form, as Fractions (a_0 = 0)."""
    from fractions import Fraction

    scale, out = _scaled_series(form, n_max)
    return [Fraction(a, scale) for a in out]


# `genfun --fit` at weight i reads rows up to 2i, but its cost grows as about
# i^8 (the fit's denominator has about 2i^2 factors): at --max-n 64 on a
# 2-vCPU VM, i = 16 took 0.7 s, i = 24 5-7 s and i = 32 75 s, so larger i
# fail fast.
FIT_BOUND = 24


def form_fit(form: dict) -> dict:
    """The rational generating function of a form of euler_form, read off the
    form as in the module docstring: numerator and denominator (reduced,
    denominator prod_s (1 - su)^(deg Q_s + 1), so constant term 1), the
    partial fractions as (s, m, c_{s,m}) sorted with zeros dropped, the
    polynomial part, and the polynomials p_s with sum_n a_n u^n/n! =
    sum_s p_s(u) e^(su).  This is the one generating-function fit of the
    package; its oracle in tests/fit_oracle.py divides a RatFn found by
    polyseries.fit_rational into the same values with Poly."""
    from fractions import Fraction

    den = [1]
    terms = []
    egf = [[] for _ in range(max(form) + 1)]
    const = 0
    for s, g in sorted(form.items()):
        for _ in g:  # one factor (1 - su) per coefficient: the order deg Q_s + 1
            den = [a - s * b for a, b in zip(den + [0], [0] + den)]
        for m in range(1, len(g) + 1):
            c = sum(
                (-1 if (k + 1 - m) % 2 else 1) * comb(k, m - 1) * g[k]
                for k in range(m - 1, len(g))
            )
            if c:
                terms.append((s, m, c))
        egf[s] = [c * s**k / factorial(k) for k, c in enumerate(g)]
        const -= g[0]
    egf[0] = [const] if const else []
    scale, series = _scaled_series(form, len(den) - 1)
    num = [
        Fraction(sum(den[t] * series[k - t] for t in range(k + 1)), scale)
        for k in range(len(den))
    ]
    while num and not num[-1]:
        num.pop()
    return {
        "numerator": num,
        "denominator": den,
        "partial_fractions": terms,
        "poly_part": egf[0],
        "egf_polynomials": egf,
    }


def limit_constant(fit: dict, i: int):
    """The coefficient of 1/(1 - 2iu) in the partial fractions of a
    form_fit at weight i, lim dim D_i(n)/(2i)^n; 0 without that pole."""
    return next((c for s, m, c in fit["partial_fractions"] if (s, m) == (2 * i, 1)), 0)


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
    two must agree exactly (first-quadrant convergence in one total degree).
    The nonzero cells come back as "cells", (p, q, dim) by p and then q.
    dim D_i(n) is read first, so the braid bound refuses before any cell."""
    if i < 1 or n < 1:
        raise ValueError("need i >= 1 and n >= 1")
    rhs = d_coeff(i, n)
    cells = [
        (p, q, dim)
        for p in range(min(2 * i, n - 1) + 1)
        for q in range(min(i, 2 * i - p) + 1)
        if (dim := b_dim(i, p, q, n))
    ]
    lhs = sum((-1) ** (p + q) * dim for p, q, dim in cells)
    return {"i": i, "n": n, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "cells": cells}


def euler_identity_graph(gamma: Graph, i: int, n: int) -> dict:
    """Relative ledger over cone(gamma, n), summed over the flat groups of
    the KL recursion as in the module docstring, against d_coeff_graph.  The
    sum is the t^(N-1-i) coefficient of the full flat sum of the functional
    equation, so lhs = rhs checks that the solve is consistent."""
    if i < 1 or n < 0:
        raise ValueError("need i >= 1 and n >= 0")
    base, k = _cone_input(gamma, n)  # checks the bounds
    own = base.row(k)  # builds every row the ledger reads
    rhs = own[i] if i < len(own) else 0
    top = base.graph.n + k - 1 - i
    lhs = 0
    for qbase, c, chi in base.groups(k):
        row = qbase.row(c)
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
