"""The Fraction plethysm on `eqkl.SymFn`: the inverse Frobenius
characteristic, p_k[g], plethysm f[g], the complete homogeneous h_k, and
Lehrer's characteristic data, by his product formula, as class values and
as a symmetric function with Poly coefficients.  It is the independent
oracle of `eqcore`'s integer plethysm, which works on class values z_mu
[p_mu] instead and reads the characteristic data off its closed-form
powers.  Test-only; nothing in `src/` uses it."""

from fractions import Fraction
from functools import lru_cache

from braidkl.combinat import Partition, centralizer_order, partitions
from braidkl.eqcore import _necklace
from braidkl.eqkl import ClassFn, SymFn
from braidkl.intpoly import pmul
from braidkl.polyseries import Poly


def homogeneous_part(s: SymFn, n: int) -> SymFn:
    return SymFn({mu: c for mu, c in s.terms.items() if sum(mu) == n})


def t_coeff(s: SymFn, j: int) -> SymFn:
    return SymFn({mu: c.coeff(j) for mu, c in s.terms.items()})


def pleth_pk(s: SymFn, k: int, cap: int | None = None) -> SymFn:
    """p_k[s]: every p_j becomes p_{jk} and t becomes t^k."""
    out = {}
    for mu, c in s.terms.items():
        if cap is not None and k * sum(mu) > cap:
            continue
        spread = [Fraction(0)] * (k * c.degree() + 1)
        spread[::k] = c.coeffs
        out[tuple(k * p for p in mu)] = Poly(spread, "t")
    return SymFn(out)


def ch_inv(s: SymFn, n: int) -> ClassFn:
    """Inverse Frobenius characteristic of a degree-n symmetric function
    with constant (t-free) coefficients."""
    vals = {}
    for mu, c in s.terms.items():
        if sum(mu) != n:
            raise ValueError(f"term p_{mu} is not of degree {n}")
        if c.degree() > 0:
            raise ValueError("coefficients must be t-free for ch_inv")
        part = Partition(mu)
        vals[part] = c.coeff(0) * centralizer_order(part)
    return ClassFn(n, vals)


def plethysm(f: SymFn, g: SymFn, cap: int | None = None) -> SymFn:
    """Plethysm f[g] in the p-basis (t in g transforms; t in f does not)."""
    if () in g.terms:
        raise ValueError("plethysm requires g to have no constant term")
    pk_cache: dict = {}
    out = SymFn()
    for mu, c in f.terms.items():
        prod = SymFn({(): 1})
        for part in mu:
            if part not in pk_cache:
                pk_cache[part] = pleth_pk(g, part, cap)
            prod = prod.mul(pk_cache[part], cap)
            if not prod.terms:
                break
        out = out + SymFn({nu: co * c for nu, co in prod.terms.items()})
    return out


@lru_cache(maxsize=None)
def h_sym(k: int) -> SymFn:
    """Complete homogeneous symmetric function h_k = sum p_mu / z_mu."""
    return SymFn({mu.parts: Fraction(1, centralizer_order(mu)) for mu in partitions(k)})


@lru_cache(maxsize=None)
def char_values(n: int) -> dict:
    """Class values of the graded characteristic data of S_n, by Lehrer's
    product formula (1/t) prod_i prod_{k < m_i} (E_i(t) - k i)."""
    out = {}
    for mu in partitions(n):
        prod = [1]
        for i, m in mu.multiplicities().items():
            e = _necklace(i)
            for k in range(m):
                prod = pmul(prod, (e[0] - k * i, *e[1:]))
        out[mu.parts] = tuple(prod[1:])
    return out


@lru_cache(maxsize=None)
def char_poly_symfn(n: int) -> SymFn:
    """Frobenius characteristic of the graded characteristic data
    sum_i (-1)^i [OS^i] t^(n-1-i): the coefficient of p_mu is the class
    value from Lehrer's product formula divided by z_mu."""
    return SymFn(
        {
            mu: Poly([Fraction(c, centralizer_order(Partition(mu))) for c in v], "t")
            for mu, v in char_values(n).items()
        }
    )
