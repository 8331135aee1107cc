"""The integer kernel of the equivariant Kazhdan-Lusztig polynomial of the
braid matroid: class values by the plethystic recursion, and their Specht
multiplicities.  It imports neither `fractions` nor `polyseries`, so a
process that only prints multiplicities (`braidkl eqkl`) loads no rational
arithmetic; `eqkl` builds the Fraction-valued API and the oracles on it.

A graded symmetric function sum_mu c_mu(t) p_mu is held as chi_mu = z_mu
c_mu, one integer polynomial in t per partition.  The characteristic data of
S_r come from Lehrer's product formula for the graded trace on the
Orlik-Solomon algebra: a permutation with m_i cycles of length i has trace
(1/t) prod_i prod_{k < m_i} (E_i(t) - k i), E_i the necklace polynomial.
Flats of the braid matroid grouped by block-size type induce from
wreath-product stabilizers, and induction of a product over blocks is
plethysm into the sum of the characteristic data.  In class values a
product multiplies by binomials of cycle counts, p_k[g] sends chi_mu(t) to
k^len(mu) chi_mu(t^k), and f[g] for f of degree k is an integer sum divided
exactly by k!.  Carrying t to t^k also accounts for the Koszul signs picked
up when equal-size blocks with odd cohomology are permuted (the graded
pieces are stored with their alternating signs).

The powers g^m of the characteristic data g = sum_r chi_{S_r}, which
p_{1^m}[g] needs, have a closed form.  Let F_j(mu) = prod_i prod_{k < m_i}
(j E_i(t) - k i), Lehrer's product with each E_i scaled by j.  Then
F_1 = 1 + t g, and F_x F_y = F_{x+y} by Vandermonde's identity for falling
factorials, so F_j = (1 + t g)^j: written in the binomial basis C(j, m),
F_j(mu) has the coefficients t^m g^m(mu).  _char_powers gets F_j(mu) from
F_j of mu without its largest part times one more factor, and
_plethysm_part takes g itself (m = 1) and p_{1^m}[g] = g^m from it instead
of multiplying by g m times; the product formula for g alone is the oracle
in tests/symfn_oracle.py.

The recursion solves the same functional equation as the non-equivariant
one, class by class, with the same read-off (intpoly.read_off): the top
t-coefficients of the proper-flat sum are the low coefficients of the
unknown polynomial.

Class values are dicts from partition tuples to integer polynomials in t
(ascending coefficient tuples without trailing zeros; zero is left out), or
lists of such dicts indexed by degree.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .combinat import character_table, class_size, mobius, partitions
from .intpoly import padd_into, pmul, read_off

EQKL_BOUND = 18


def _trimmed(acc: dict, divisor: int = 1) -> dict:
    """Freeze accumulated lists into trimmed tuples, divided exactly."""
    out = {}
    for key, cs in acc.items():
        while cs and not cs[-1]:
            cs.pop()
        if divisor > 1 and any(c % divisor for c in cs):
            raise ArithmeticError(f"class values not divisible by {divisor}")
        if cs:
            out[key] = tuple(c // divisor for c in cs) if divisor > 1 else tuple(cs)
    return out


def _necklace(i: int) -> list:
    """The necklace polynomial E_i(t) = sum_{d | i} mobius(i/d) t^d."""
    return [0] + [mobius(i // d) if i % d == 0 else 0 for d in range(1, i + 1)]


@lru_cache(maxsize=None)
def _char_powers(d: int) -> tuple:
    """Class values of the degree-d parts of the powers g^m, m = 0..d, of the
    characteristic data g = sum_r chi_{S_r}: entry m maps partition tuples
    to integer polynomials in t, zeros left out.  F_j(mu) = (1 + t g)^j(mu)
    is a product of factors j E_i(t) - k i (module docstring), and its
    coefficient of the binomial C(j, m) is t^m g^m(mu).  F_j of mu is F_j of
    mu without its largest part i, read from the table of degree d - i,
    times one more factor."""
    if d == 0:
        return ({(): (1,)},)
    rows = [{} for _ in range(d + 1)]
    for mu in partitions(d):
        i, rest = mu[0], mu[1:]
        below = _char_powers(d - i)
        e = _necklace(i)
        ki = rest.count(i) * i
        f = [[] for _ in range(len(mu) + 1)]  # f[r]: the coefficient of C(j, r)
        for r in range(len(rest) + 1):
            c = [0] * r + list(below[r].get(rest, ()))
            # (j e - k i) C(j, r) = (r + 1) e C(j, r + 1) + (r e - k i) C(j, r)
            ec = pmul(e, c)
            padd_into(f[r + 1], ec, r + 1)
            padd_into(f[r], ec, r)
            padd_into(f[r], c, -ki)
        for m, c in enumerate(f):
            if any(c[:m]):
                raise ArithmeticError(f"F_j{mu.parts} at C(j, {m}) is not divisible by t^{m}")
            while c and not c[-1]:
                c.pop()
            if c[m:]:
                rows[m][mu] = tuple(c[m:])
    return tuple(rows)


@lru_cache(maxsize=None)
def _merge(a: tuple, b: tuple) -> tuple:
    """The partition a + b and the factor z_{a+b} / (z_a z_b)."""
    key = tuple(sorted(a + b, reverse=True))
    factor = 1
    for part in set(b):
        factor *= comb(key.count(part), b.count(part))
    return key, factor


def _class_mul(a: list, b: list, cap: int) -> list:
    """Product of two degree-graded class-value functions up to degree cap."""
    acc = [{} for _ in range(cap + 1)]
    for da, terms_a in enumerate(a):
        items_a = list(terms_a.items())
        for db in range(1, min(len(b) - 1, cap - da) + 1):
            out = acc[da + db]
            for kb, vb in b[db].items():
                for ka, va in items_a:
                    key, factor = _merge(ka, kb)
                    cur = out.setdefault(key, [])
                    cur.extend([0] * (len(va) + len(vb) - 1 - len(cur)))
                    for j, y in enumerate(vb):
                        if y:  # p_k[g] has nonzero terms only at multiples of k
                            fy = factor * y
                            for i, x in enumerate(va, j):
                                cur[i] += fy * x
    return [_trimmed(terms) for terms in acc]


def _class_pk(g: list, k: int, cap: int) -> list:
    """p_k[g]: chi_{k mu}(t) = k^len(mu) chi_mu(t^k), up to degree cap."""
    out = [{} for _ in range(cap + 1)]
    for d in range(1, min(len(g) - 1, cap // k) + 1):
        for mu, v in g[d].items():
            spread = [0] * (k * (len(v) - 1) + 1)
            spread[::k] = [k ** len(mu) * c for c in v]
            out[k * d][tuple(k * p for p in mu)] = tuple(spread)
    return out


def _plethysm_part(fs: dict, n: int) -> dict:
    """Class values of the degree-n part of sum_k f_k[g], where fs maps k to
    the class values of a degree-k f_k (t in f_k does not transform) and g is
    the characteristic data sum_r chi_{S_r}.  f_k[g] is (1/k!) sum_mu
    chi_f(mu) (k!/z_mu) prod_j p_{mu_j}[g]: the products are shared along a
    walk that extends mu one part at a time, and each k! must divide its sum
    exactly.  g itself and, along mu = 1^m, the product g^m are read from
    _char_powers."""
    top = max(fs)
    powers = [_char_powers(d) for d in range(n + 1)]
    # p_c[g] for c >= 2 reaches degree n from the degrees <= n // 2 of g
    g = [{}] + [powers[r][1] for r in range(1, n // 2 + 1)]
    pk = [None, None] + [_class_pk(g, c, n) for c in range(2, top + 1)]
    acc: dict = {k: {} for k in fs}

    def walk(mu: tuple, prod: list, k: int, z: int) -> None:
        if k in fs and mu in fs[k]:
            f, scale = fs[k][mu], factorial(k) // z
            for lam, v in prod[n].items():
                padd_into(acc[k].setdefault(lam, []), pmul(f, v), scale)
        # a new part is at least the largest one, so each mu is reached once
        for c in range(mu[0] if mu else 1, top - k + 1):
            if c == 1:  # mu = 1^k, and the product grows to g^(k+1)
                nxt = [p[k + 1] if k + 1 < len(p) else {} for p in powers]
            else:
                nxt = _class_mul(prod, pk[c], n)
            walk((c,) + mu, nxt, k + c, z * c * (mu.count(c) + 1))

    walk((), [p[0] for p in powers], 0, 1)
    total: dict = {}
    for k, terms in acc.items():
        for lam, v in _trimmed(terms, factorial(k)).items():
            padd_into(total.setdefault(lam, []), v)
    return _trimmed(total)


@lru_cache(maxsize=None)
def _eqkl_values(n: int) -> dict:
    """Class values of the equivariant KL polynomial of the braid matroid."""
    if n == 1:
        return {(1,): (1,)}
    flats = _plethysm_part({k: _eqkl_values(k) for k in range(1, n)}, n)
    out = {mu: read_off(flats.get(mu, ()), n - 1) for mu in partitions(n)}
    return _trimmed(out)


def eqkl_values(n: int) -> dict:
    """Class values of the equivariant KL polynomial of the braid matroid on
    n vertices, for 1 <= n <= EQKL_BOUND."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > EQKL_BOUND:
        raise ValueError(f"plethystic path bounded at n = {EQKL_BOUND}")
    return _eqkl_values(n)


# ---------------------------------------------------------------------------
# Specht multiplicities: <f, chi^lam> = (1/n!) sum_mu class_size(mu) f(mu)
# chi^lam(mu), with the integer sums shared by both decompositions.


def _specht_sums(n: int, values: dict) -> dict:
    """lam -> sum_mu class_size(mu) values[mu] chi^lam(mu), for values a map
    from class tuples to integers (a missing class is zero); zero sums are
    dropped and lam runs in partitions(n) order.  Each sum is n! times the
    multiplicity of the Specht module of lam."""
    parts = partitions(n)
    weights = [(b, class_size(mu) * values[mu]) for b, mu in enumerate(parts) if values.get(mu)]
    out = {}
    for lam, row in zip(parts, character_table(n)):
        tot = sum(w * row[b] for b, w in weights)
        if tot:
            out[lam] = tot
    return out


def specht_multiplicities(n: int, q: dict) -> list:
    """The Specht decomposition of each t-degree of the graded class values
    q (class tuple -> integer coefficients): one dict Partition -> integer
    multiplicity per degree, zeros dropped, in partitions(n) order.  Raises
    ArithmeticError when a sum is not divisible by n!, that is, when a
    degree is not a virtual character."""
    order = factorial(n)
    out = []
    for i in range(max(map(len, q.values()), default=1)):
        dec = {}
        sums = _specht_sums(n, {mu: v[i] for mu, v in q.items() if i < len(v)})
        for lam, tot in sums.items():
            m, rem = divmod(tot, order)
            if rem:
                raise ArithmeticError(
                    f"multiplicity of {lam.parts} at degree {i} is not an integer"
                )
            dec[lam] = m
        out.append(dec)
    return out


def _within_row_bound(dec: dict, i: int) -> bool:
    """True iff every Specht summand of the decomposition dec has at most
    2i rows."""
    return all(len(lam) <= 2 * i for lam in dec)
