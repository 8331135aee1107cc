"""The Poly path from a rational function to its partial fractions, its
exponential form and its limit constant r_d: the independent oracle of
`specseq.form_fit`, which reads the same values off the Euler identity's
closed form.  Here they come from polynomial division of a RatFn, usually
one found by `polyseries.fit_rational`.  Test-only; nothing in `src/` uses
it."""

from fractions import Fraction
from math import factorial

from braidkl.combinat import stirling2
from braidkl.polyseries import Poly, RatFn


def _pole_multiplicities(den: Poly) -> dict:
    """Factor den(0)=1 as prod (1-ju)^{m_j}; error on any other factor."""
    mults = {}
    rem = den
    j = 1
    while rem.degree() > 0:
        if rem(Fraction(1, j)) == 0:
            rem = rem // Poly([1, -j], den.var)
            mults[j] = mults.get(j, 0) + 1
        else:
            j += 1
            # |leading coeff| = prod of remaining pole values
            if j > abs(rem.coeffs[-1]):
                raise ValueError(
                    "denominator has an irreducible factor outside the "
                    "(1 - j*u) family"
                )
    return mults


def partial_fractions(r: RatFn):
    """Decompose r as polypart + sum c_{j,m}/(1-ju)^m.

    Returns (polypart, terms) with terms a list of (j, m, c) sorted by
    (j, m); zero coefficients are dropped.  The denominator must factor
    over the (1-ju) family.
    """
    mults = _pole_multiplicities(r.den)
    polypart, num = divmod(r.num, r.den)
    den = r.den
    terms = []
    for j in sorted(mults):
        for m in range(mults[j], 0, -1):
            lin = Poly([1, -j], r.var)
            rest = den
            for _ in range(m):
                rest = rest // lin
            c = num(Fraction(1, j)) / rest(Fraction(1, j))
            if c:
                terms.append((j, m, c))
            num = num - c * rest
            q, rem = divmod(num, lin)
            if rem:
                raise ArithmeticError("residue subtraction left a nonzero remainder")
            num = q
            den = den // lin
    if num:
        raise ArithmeticError("partial fractions did not exhaust the numerator")
    terms.sort(key=lambda t: (t[0], t[1]))
    return polypart, terms


def r_extract(r: RatFn, d: int) -> Fraction:
    """Coefficient of 1/(1-du) in the partial fractions of r; this is
    lim dim(n)/d^n when r generates the dimensions.  Requires all poles
    in {1,...,d} and at worst a simple pole at 1/d."""
    if d < 1:
        raise ValueError("d must be positive")
    mults = _pole_multiplicities(r.den)
    high = [j for j in mults if j > d]
    if high:
        raise ValueError(f"pole at 1/{high[0]} beyond 1/{d}: no finite limit")
    if mults.get(d, 0) >= 2:
        raise ValueError("limit does not exist: pole at 1/d of order >= 2")
    _, terms = partial_fractions(r)
    for j, m, c in terms:
        if j == d and m == 1:
            return c
    return Fraction(0)


def _binom_poly(m: int) -> Poly:
    """C(n+m-1, m-1) as a polynomial in n."""
    out = Poly([Fraction(1, factorial(m - 1))], "n")
    for s in range(1, m):
        out = out * Poly([s, 1], "n")
    return out


def egf_form(r: RatFn) -> list:
    """Polynomials p_0..p_d with sum_n a_n u^n/n! = sum_j p_j(u) e^{ju},
    where a_n are the series coefficients of r and d is the largest pole.

    The conversion is exact: a_n = poly part + sum_j q_j(n) j^n with q_j
    polynomial; rewriting q_j in the falling-factorial basis (Stirling
    change of basis from n^k) turns q_j(n) j^n u^n / n! into p_j(u) e^{ju}.
    """
    polypart, terms = partial_fractions(r)
    d = max((j for j, _, _ in terms), default=0)
    ps = [Poly([], "u") for _ in range(d + 1)]
    ps[0] = Poly(
        [polypart.coeff(k) / factorial(k) for k in range(polypart.degree() + 1)],
        "u",
    )
    by_pole = {}
    for j, m, c in terms:
        by_pole.setdefault(j, []).append((m, c))
    for j, parts in sorted(by_pole.items()):
        q = Poly([], "n")
        for m, c in parts:
            q = q + c * _binom_poly(m)
        # monomial basis -> falling factorials: n^i = sum_k S(i,k) n^(k)
        deg = q.degree()
        falling = [Fraction(0)] * (deg + 1)
        for i in range(deg + 1):
            ci = q.coeff(i)
            if ci:
                for k in range(i + 1):
                    falling[k] += ci * stirling2(i, k)
        pj = Poly([falling[k] * j**k for k in range(deg + 1)], "u")
        ps[j] = pj
    return ps
