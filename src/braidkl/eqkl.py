"""Equivariant Kazhdan-Lusztig polynomials of braid matroids as graded
class functions of the symmetric group.

Two independent computation paths are provided and cross-checked:

* a plethystic path on integer class values.  A graded symmetric function
  sum_mu c_mu(t) p_mu is held as chi_mu = z_mu c_mu, one integer polynomial
  in t per partition.  The characteristic data of S_r come from Lehrer's
  product formula for the graded trace on the Orlik-Solomon algebra: a
  permutation with m_i cycles of length i has trace
  (1/t) prod_i prod_{k < m_i} (E_i(t) - k i), E_i the necklace polynomial.
  Flats of the braid matroid grouped by block-size type induce from
  wreath-product stabilizers, and induction of a product over blocks is
  plethysm into the sum of the characteristic data.  In class values a
  product multiplies by binomials of cycle counts, p_k[g] sends chi_mu(t)
  to k^len(mu) chi_mu(t^k), and f[g] for f of degree k is an integer sum
  divided exactly by k!.  Carrying t to t^k also accounts for the Koszul
  signs picked up when equal-size blocks with odd cohomology are permuted
  (the graded pieces are stored with their alternating signs).

  The powers g^m of the characteristic data g = sum_r chi_{S_r}, which
  p_{1^m}[g] needs, have a closed form.  Let F_j(mu) = prod_i prod_{k < m_i}
  (j E_i(t) - k i), Lehrer's product with each E_i scaled by j.  Then
  F_1 = 1 + t g, and F_x F_y = F_{x+y} by Vandermonde's identity for
  falling factorials, so F_j = (1 + t g)^j: written in the binomial basis
  C(j, m), F_j(mu) has the coefficients t^m g^m(mu).  _char_powers gets
  F_j(mu) from F_j of mu without its largest part times one more factor,
  and _plethysm_part takes p_{1^m}[g] = g^m from it instead of multiplying
  by g m times.

* a brute-force path (small n) over the flats of K_n as block bit masks.
  A table of the images of all masks under a class representative gives
  the cycles of blocks by lookup, the cycle type of the L-th power on a
  block of an L-cycle is read off its mask, and the integer graded traces
  of the Orlik-Solomon straightening oracle multiply over the cycles.

The Fraction-valued SymFn, ch, ch_inv and plethysm are the rational API and
a test oracle for the integer kernel.  Both paths solve the same functional
equation as the non-equivariant recursion: the top t-coefficients of the
proper-flat sum are the low coefficients of the unknown polynomial, read off
degree by degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import gt

from .combinat import (
    Partition,
    centralizer_order,
    character_table,
    class_size,
    mobius,
    partitions,
    stirling1_unsigned,
)
from .intpoly import padd_into, pmul

# polyseries loads only where the rational API builds a Poly (at_identity,
# SymFn, char_poly_symfn); the integer kernel never needs it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .polyseries import Poly


class ClassFn:
    """Class function on S_n: one exact value per partition of n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values=None):
        self.n = n
        values = values or {}
        self.values = {mu: Fraction(values.get(mu, 0)) for mu in partitions(n)}

    @classmethod
    def trivial(cls, n: int):
        return cls(n, {mu: 1 for mu in partitions(n)})

    def value(self, mu: Partition) -> Fraction:
        return self.values[mu]

    def dim(self) -> Fraction:
        return self.values[Partition((1,) * self.n)] if self.n else Fraction(1)

    def __add__(self, other):
        if not isinstance(other, ClassFn) or other.n != self.n:
            return NotImplemented
        return ClassFn(
            self.n, {mu: v + other.values[mu] for mu, v in self.values.items()}
        )

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return ClassFn(self.n, {mu: c * v for mu, v in self.values.items()})

    def inner(self, other: "ClassFn") -> Fraction:
        """<f, g> = (1/n!) sum class_size(mu) f(mu) g(mu)."""
        if other.n != self.n:
            raise ValueError("class functions live on different groups")
        tot = Fraction(0)
        for mu, v in self.values.items():
            tot += class_size(mu) * v * other.values[mu]
        return tot / factorial(self.n)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def __eq__(self, other):
        if not isinstance(other, ClassFn):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __repr__(self):
        shown = {tuple(mu.parts): v for mu, v in sorted(self.values.items())}
        return f"ClassFn({self.n}, {shown})"


class GradedClassFn:
    """Polynomial in t whose coefficients are class functions on one S_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if c.n != n:
                raise ValueError("graded coefficients must share one n")
        self.n = n
        self.coeffs = coeffs

    def at_identity(self) -> Poly:
        from .polyseries import Poly

        return Poly([c.dim() for c in self.coeffs], "t")

    def eval_t(self, x) -> ClassFn:
        out = ClassFn(self.n)
        xk = Fraction(1)
        for c in self.coeffs:
            out = out + c.scale(xk)
            xk *= Fraction(x)
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedClassFn):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"GradedClassFn(n={self.n}, degrees={len(self.coeffs)})"


class SymFn:
    """Symmetric function with Poly-in-t coefficients, in the power-sum
    basis: a finitely supported map (partition tuple) -> Poly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        from .polyseries import Poly

        clean = {}
        if terms:
            for mu, c in terms.items():
                c = c if isinstance(c, Poly) else Poly([c], "t")
                if c:
                    clean[tuple(mu)] = c
        self.terms = clean

    @classmethod
    def one(cls):
        return cls({(): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out[mu] + c if mu in out else c
        return SymFn(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return SymFn({mu: co * c for mu, co in self.terms.items()})

    def mul(self, other: "SymFn", cap: int | None = None) -> "SymFn":
        out = {}
        for mu, a in self.terms.items():
            wa = sum(mu)
            for nu, b in other.terms.items():
                if cap is not None and wa + sum(nu) > cap:
                    continue
                key = tuple(sorted(mu + nu, reverse=True))
                prod = a * b
                out[key] = out[key] + prod if key in out else prod
        return SymFn(out)

    def homogeneous_part(self, n: int) -> "SymFn":
        return SymFn({mu: c for mu, c in self.terms.items() if sum(mu) == n})

    def t_coeff(self, j: int) -> "SymFn":
        return SymFn({mu: c.coeff(j) for mu, c in self.terms.items()})

    def pleth_pk(self, k: int, cap: int | None = None) -> "SymFn":
        """p_k[self]: every p_j becomes p_{jk} and t becomes t^k."""
        from .polyseries import Poly

        out = {}
        for mu, c in self.terms.items():
            if cap is not None and k * sum(mu) > cap:
                continue
            spread = [Fraction(0)] * (k * c.degree() + 1)
            spread[::k] = c.coeffs
            out[tuple(k * p for p in mu)] = Poly(spread, "t")
        return SymFn(out)

    def __eq__(self, other):
        if not isinstance(other, SymFn):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"SymFn({self.terms})"


def ch(f: ClassFn) -> SymFn:
    """Frobenius characteristic: sum over mu of f(mu) p_mu / z_mu."""
    return SymFn({mu.parts: v / centralizer_order(mu) for mu, v in f.values.items()})


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
        prod = SymFn.one()
        for part in mu:
            if part not in pk_cache:
                pk_cache[part] = g.pleth_pk(part, cap)
            prod = prod.mul(pk_cache[part], cap)
            if prod.is_zero():
                break
        out = out + prod.scale(c)
    return out


@lru_cache(maxsize=None)
def h_sym(k: int) -> SymFn:
    """Complete homogeneous symmetric function h_k = sum p_mu / z_mu."""
    return SymFn({mu.parts: Fraction(1, centralizer_order(mu)) for mu in partitions(k)})


# ---------------------------------------------------------------------------
# Orlik-Solomon characters by explicit basis and straightening.  The edge
# x_ab (a < b, 1-based labels) is the int b << 4 | a, so int order is the
# (max, min) order of the basis and a wedge is a tuple of such ints.

OS_BOUND = 8


def _sign(raw) -> int:
    """The sign of the permutation that sorts the wedge factors raw."""
    return -1 if sum(itertools.starmap(gt, itertools.combinations(raw, 2))) & 1 else 1


def _straighten(mono: tuple, memo: dict) -> dict:
    """Expand a sorted wedge of edges in the distinct-maxima basis using the
    three-term relation x_ab x_cb = x_ac x_cb + x_ab x_ac (a < c < b), which
    strictly lowers the multiset of maxima.  memo maps wedges already
    expanded to their expansions; the caller owns it and drops it."""
    hit = memo.get(mono)
    if hit is not None:
        return hit
    k = next((k for k in range(len(mono) - 1) if mono[k] >> 4 == mono[k + 1] >> 4), None)
    if k is None:
        return memo.setdefault(mono, {mono: 1})
    ab, cb = mono[k], mono[k + 1]
    ac = (cb & 15) << 4 | ab & 15
    out: dict = {}
    for pair in ((ac, cb), (ab, ac)):
        raw = mono[:k] + pair + mono[k + 2 :]
        if len(set(raw)) < len(raw):
            continue  # a repeated edge: the wedge vanishes
        sign = _sign(raw)
        for m2, c2 in _straighten(tuple(sorted(raw)), memo).items():
            out[m2] = out.get(m2, 0) + sign * c2
    out = memo[mono] = {m: v for m, v in out.items() if v}
    return out


def _monomials(n: int, i: int):
    """Generate the monomial basis of H^i as coded wedges, in os_basis order."""
    for maxima in itertools.combinations(range(2, n + 1), i):
        yield from itertools.product(*[range(b << 4 | 1, b << 4 | b) for b in maxima])


def os_basis(n: int, i: int) -> tuple:
    """Monomial basis x_{a1 b1}...x_{ai bi} with a_k < b_k and strictly
    increasing maxima b_1 < ... < b_i; labels are 1-based."""
    return tuple(tuple((e & 15, e >> 4) for e in m) for m in _monomials(n, i))


def _flat(n: int, mono) -> tuple:
    """The flat a coded basis wedge spans: position v-1 holds the least
    label of the block of v.  Edges come in increasing maxima, so the
    minimum of each edge already carries its final block when it is read."""
    least = list(range(n + 1))
    for e in mono:
        least[e >> 4] = least[e & 15]
    return tuple(least[1:])


def _fixes(sigma: tuple, flat: tuple) -> bool:
    """Whether sigma maps every block of the flat onto a block: it does when
    each label lands in the block where the least label of its block lands."""
    return all(flat[sigma[v] - 1] == flat[sigma[least - 1] - 1] for v, least in enumerate(flat))


def _class_rep_perm(mu: Partition) -> tuple:
    """One permutation of cycle type mu, as a tuple: position v-1 holds the
    image of v (1-based labels, cycles on consecutive integers)."""
    sigma = list(range(1, mu.n + 1))
    start = 0
    for part in mu.parts:
        for off in range(part):
            sigma[start + off] = start + 1 + (off + 1) % part
        start += part
    return tuple(sigma)


@lru_cache(maxsize=None)
def _os_traces(n: int, i: int) -> dict:
    """Class tuple -> integer trace of its representative on H^i, from the
    straightened monomial basis.  The three-term relation keeps the flat
    the edges span, so sigma.m has no component on m unless sigma fixes the
    flat of m: only the sigma-stable flats are straightened, and of those
    only images whose maxima repeat."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > OS_BOUND:
        raise ValueError(f"brute-force path bounded at n = {OS_BOUND}")
    by_flat: dict = {}
    for mono in _monomials(n, i):
        by_flat.setdefault(_flat(n, mono), []).append(mono)
    expected = stirling1_unsigned(n, n - i) if i <= n - 1 else 0
    if sum(map(len, by_flat.values())) != expected:
        raise ArithmeticError("basis size disagrees with Whitney number")
    memo: dict = {}
    traces = {}
    for mu in partitions(n):
        sigma = _class_rep_perm(mu)
        image = {}  # edge code -> code of its image under sigma
        for (e,) in _monomials(n, 1):
            x, y = sorted((sigma[(e & 15) - 1], sigma[(e >> 4) - 1]))
            image[e] = y << 4 | x
        tr = 0
        for flat, monos in by_flat.items():
            if not _fixes(sigma, flat):
                continue
            for mono in monos:
                raw = tuple(map(image.__getitem__, mono))
                srt = tuple(sorted(raw))
                if srt == mono:
                    tr += _sign(raw)
                elif len({e >> 4 for e in srt}) < i:
                    tr += _sign(raw) * _straighten(srt, memo).get(mono, 0)
                # else srt is a basis wedge other than mono: no component
        traces[mu.parts] = tr
    return traces


def os_character(n: int, i: int) -> ClassFn:
    """Character of S_n on H^i of the configuration space of n points in
    the plane, from the straightened monomial basis."""
    return ClassFn(n, _os_traces(n, i))


def _eq_char_values(n: int) -> dict:
    """Class values of eq_char_poly(n): class tuple -> integer coefficients
    of t^0, ..., t^(n-1)."""
    traces = [_os_traces(n, i) for i in range(n)]
    return {mu: tuple((-1) ** i * traces[i][mu] for i in reversed(range(n)))
            for mu in _os_traces(n, 0)}


def eq_char_poly(n: int) -> GradedClassFn:
    """Graded virtual character sum_i (-1)^i [OS^i] t^(n-1-i); evaluates at
    the identity to the reduced characteristic polynomial of the braid
    matroid, and to zero at t=1 (the group acts freely)."""
    return _graded(n, _eq_char_values(n))


# ---------------------------------------------------------------------------
# Plethystic path on integer class values: a dict from partition tuples to
# integer polynomials in t (ascending coefficient tuples without trailing
# zeros; zero is left out), or a list of such dicts indexed by degree.

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
def _char_values(n: int) -> dict:
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
        i, rest = mu.parts[0], mu.parts[1:]
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
                rows[m][mu.parts] = tuple(c[m:])
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
    exactly.  Along mu = 1^m the product g^m is read from _char_powers."""
    top = max(fs)
    # p_c[g] for c >= 2 reaches degree n from the degrees <= n // 2 of g
    g = [{}] + [_char_values(r) for r in range(1, n // 2 + 1)]
    pk = [None, None] + [_class_pk(g, c, n) for c in range(2, top + 1)]
    powers = [_char_powers(d) for d in range(n + 1)]
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
def char_poly_symfn(n: int) -> SymFn:
    """Frobenius characteristic of the graded characteristic data
    sum_i (-1)^i [OS^i] t^(n-1-i), valid for any n: the coefficient of p_mu
    is the class value from Lehrer's product formula (1/t) prod_i
    prod_{k < m_i} (E_i(t) - k i) divided by z_mu.  Cross-checked against
    the straightening path."""
    from .polyseries import Poly

    if n < 1:
        raise ValueError("n must be positive")
    return SymFn(
        {
            mu: Poly([Fraction(c, centralizer_order(Partition(mu))) for c in v], "t")
            for mu, v in _char_values(n).items()
        }
    )


@lru_cache(maxsize=None)
def _eqkl_values(n: int) -> dict:
    """Class values of the equivariant KL polynomial of the braid matroid."""
    if n == 1:
        return {(1,): (1,)}
    flats = _plethysm_part({k: _eqkl_values(k) for k in range(1, n)}, n)
    rank = n - 1
    dmax = (rank - 1) // 2
    out = {}
    for mu in partitions(n):
        s = list(flats.get(mu.parts, ())) + [0] * (rank + 1)
        # the low t-coefficients of the flat sum must be minus the unknown,
        # and the middle band must vanish
        if any(s[i] + s[rank - i] for i in range(dmax + 1)):
            raise ArithmeticError("equivariant recursion inconsistent (low read)")
        if any(s[j] for j in range(dmax + 1, rank - dmax)):
            raise ArithmeticError("equivariant recursion inconsistent (middle)")
        out[mu.parts] = [s[rank - i] for i in range(dmax + 1)]
    return _trimmed(out)


def eqkl_braid(n: int) -> GradedClassFn:
    """Equivariant Kazhdan-Lusztig polynomial of the braid matroid as a
    graded class function of S_n (plethystic recursion)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > EQKL_BOUND:
        raise ValueError(f"plethystic path bounded at n = {EQKL_BOUND}")
    return _graded(n, _eqkl_values(n))


def _graded(n: int, q: dict) -> GradedClassFn:
    """The graded class function with class values q, a map from classes to
    integer coefficients without trailing zeros."""
    degrees = range(max(map(len, q.values()), default=1))
    return GradedClassFn(
        n,
        [ClassFn(n, {mu: v[i] for mu, v in q.items() if i < len(v)}) for i in degrees],
    )


# ---------------------------------------------------------------------------
# Brute-force oracle on the flats of K_n as lists of block bit masks (bit v-1
# for label v), with graded traces over the cycles of their blocks.

BRUTE_BOUND = 6


def _mask_images(sigma: tuple) -> list:
    """Entry m: the bit mask of the image under sigma of the set with mask m."""
    image = [0] * (1 << len(sigma))
    for m in range(1, len(image)):
        low = m & -m
        image[m] = image[m ^ low] | 1 << (sigma[low.bit_length() - 1] - 1)
    return image


def _block_orbits(blocks: list, image: list):
    """(block, length) of each cycle in which the permutation with mask
    images image permutes the blocks; None if it does not stabilize them."""
    inside = set(blocks)
    out, seen = [], 0
    for b in blocks:
        if b & seen:
            continue
        length, c = 1, image[b]
        while c != b:
            if c not in inside:
                return None
            seen |= c
            length, c = length + 1, image[c]
        out.append((b, length))
    return out


def _power_type(block: int, cycles: list) -> tuple:
    """Cycle type of sigma^L on a block that sigma moves around L blocks, with
    cycles the masks of sigma's cycles, longest first.  A cycle C meeting the
    block meets each of the L blocks in |C|/L points, one cycle of sigma^L,
    so the parts come out sorted."""
    return tuple((block & c).bit_count() for c in cycles if block & c)


def eqkl_braid_bruteforce(n: int) -> GradedClassFn:
    """Independent oracle for eqkl_braid: enumerate the flats of K_n, keep
    those stabilized by a class representative, and take graded traces over
    block cycles (t -> t^len on the signed characteristic data handles the
    Koszul signs of permuted odd factors)."""
    if not 1 <= n <= BRUTE_BOUND:
        raise ValueError(f"brute-force path bounded at n = {BRUTE_BOUND}")
    return _graded(n, _brute_values(n))


@lru_cache(maxsize=None)
def _brute_values(n: int) -> dict:
    """Class values of eqkl_braid_bruteforce(n).  The characteristic data
    come from the straightening oracle, never from Lehrer's formula."""
    from .graphmat import flat_masks

    if n == 1:
        return {(1,): (1,)}
    chardata = {m: _eq_char_values(m) for m in range(1, n + 1)}
    contrdata = {m: _brute_values(m) for m in range(1, n)}
    full = (1 << n) - 1
    flats = [p for p in flat_masks([full ^ 1 << v for v in range(n)], full) if len(p) < n]
    rank = n - 1
    dmax = (rank - 1) // 2
    out = {}
    for mu in partitions(n):
        ends = itertools.accumulate(mu.parts)  # sigma's cycles, as masks
        cycles = [(1 << e) - (1 << e - p) for p, e in zip(mu.parts, ends)]
        image = _mask_images(_class_rep_perm(mu))
        spread: dict = {}  # block -> its trace factor, t spread to t^length
        total = [0] * (rank + 1)
        for blocks in flats:
            orbits = _block_orbits(blocks, image)
            if orbits is None:
                continue
            loc = [1]
            for b, length in orbits:
                s = spread.get(b)
                if s is None:
                    v = chardata[b.bit_count()][_power_type(b, cycles)]
                    s = spread[b] = [0] * (length * (len(v) - 1) + 1)
                    s[::length] = v
                loc = pmul(loc, s)
            ghat = tuple(sorted((length for _, length in orbits), reverse=True))
            padd_into(total, pmul(loc, contrdata[len(blocks)][ghat]))
        if any(total[i] + total[rank - i] for i in range(dmax + 1)):
            raise ArithmeticError("brute-force recursion inconsistent (low read)")
        if any(total[dmax + 1 : rank - dmax]):
            raise ArithmeticError("brute-force recursion inconsistent (middle)")
        out[mu.parts] = [total[rank - i] for i in range(dmax + 1)]
    return _trimmed(out)


# ---------------------------------------------------------------------------


def specht_decompose(f: ClassFn) -> dict:
    """Multiplicities <f, chi^lam> for every irreducible; zeros dropped."""
    # sum in integers over the common denominator of the values
    den = lcm(*(v.denominator for v in f.values.values()))
    parts = partitions(f.n)
    weights = [
        (b, int(class_size(mu) * f.values[mu] * den))
        for b, mu in enumerate(parts)
        if f.values[mu]
    ]
    out = {}
    for lam, row in zip(parts, character_table(f.n)):
        tot = sum(w * row[b] for b, w in weights)
        if tot:
            out[lam] = Fraction(tot, factorial(f.n) * den)
    return out


def _within_row_bound(dec: dict, i: int) -> bool:
    """True iff every Specht summand of the decomposition dec has at most
    2i rows."""
    return all(len(lam) <= 2 * i for lam in dec)


def row_bound_check(i: int, n: int) -> bool:
    """True iff every Specht summand of the degree-i coefficient of the
    equivariant KL polynomial has at most 2i rows (for i = 1 this is the
    two-row statement); vacuously true when the coefficient vanishes."""
    if i < 1:
        raise ValueError("i must be positive")
    graded = eqkl_braid(n)
    if i >= len(graded.coeffs):
        return True
    return _within_row_bound(specht_decompose(graded.coeffs[i]), i)
