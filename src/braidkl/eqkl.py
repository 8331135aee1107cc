"""Equivariant Kazhdan-Lusztig polynomials of braid matroids as graded
class functions of the symmetric group: the Fraction-valued API and the
independent oracles, built on the integer kernel in `eqcore`.

* The rational API: ClassFn and GradedClassFn (class functions, graded by
  t), SymFn in the power-sum basis with Poly coefficients and the Frobenius
  characteristic ch, and specht_decompose, which divides eqcore's integer
  Specht sums into Fractions.  eqkl_braid wraps eqcore's class values
  (eqkl_values); the Fraction plethysm that checks eqcore's integer one is
  a test helper, outside the package.

* Orlik-Solomon characters by straightening (small n): the trace of a class
  representative on the monomial basis of H^i, straightened by the
  three-term relation on the flats the class fixes.  eq_char_poly is the
  characteristic data from this oracle, never from Lehrer's formula.

* A brute-force path (small n) over the flats of K_n as block bit masks.
  A table of the images of all masks under a class representative gives
  the cycles of blocks by lookup, the cycle type of the L-th power on a
  block of an L-cycle is read off its mask, and the integer graded traces
  of the straightening oracle multiply over the cycles.  It solves the
  same functional equation as eqcore's plethystic recursion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import gt

from .combinat import (
    Partition,
    centralizer_order,
    class_size,
    partitions,
    stirling1_unsigned,
)
from .eqcore import EQKL_BOUND  # noqa: F401  the bound of eqkl_braid
from .eqcore import (
    _specht_sums,
    _trimmed,
    _within_row_bound,
    eqkl_values,
    specht_multiplicities,
)
from .intpoly import padd_into, pmul, read_off

# polyseries loads only where the rational API builds a Poly (at_identity,
# SymFn).
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
        return self.values[(1,) * self.n] if self.n else Fraction(1)

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
        shown = {tuple(mu): v for mu, v in sorted(self.values.items())}
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

    def __add__(self, other):
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out[mu] + c if mu in out else c
        return SymFn(out)

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

    def __eq__(self, other):
        if not isinstance(other, SymFn):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"SymFn({self.terms})"


def ch(f: ClassFn) -> SymFn:
    """Frobenius characteristic: sum over mu of f(mu) p_mu / z_mu."""
    return SymFn({mu: v / centralizer_order(mu) for mu, v in f.values.items()})


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
    """The flat a coded basis wedge spans, as block masks (bit v-1 for label
    v) in order of their lowest vertex, the flat_masks format.  Edges come
    in increasing maxima, so the minimum of each edge already carries the
    least label of its final block when it is read."""
    least = list(range(n + 1))
    for e in mono:
        least[e >> 4] = least[e & 15]
    blocks = [0] * (n + 1)
    for v in range(1, n + 1):
        blocks[least[v]] |= 1 << v - 1
    return tuple(filter(None, blocks))


def _class_rep_perm(mu: Partition) -> tuple:
    """One permutation of cycle type mu, as a tuple: position v-1 holds the
    image of v (1-based labels, cycles on consecutive integers)."""
    sigma = list(range(1, mu.n + 1))
    start = 0
    for part in mu:
        for off in range(part):
            sigma[start + off] = start + 1 + (off + 1) % part
        start += part
    return tuple(sigma)


@lru_cache(maxsize=None)
def _os_traces(n: int, i: int) -> dict:
    """Class tuple -> integer trace of its representative sigma on H^i, from
    the straightened monomial basis, with sigma's images of the edges one
    list indexed by edge code.  The three-term relation keeps the flat the
    edges span, so sigma.m has no component on m unless sigma fixes the
    flat of m: only the images of the monomials of flats that sigma
    stabilizes, by the brute-force oracle's _block_orbits test, are
    straightened, and a basis wedge straightens to itself."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > OS_BOUND:
        raise ValueError(f"straightening oracle bounded at n = {OS_BOUND}")
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
        mask_image = _mask_images(sigma)
        image = [0] * (n << 4 | n)  # edge code -> code of its image under sigma
        for (e,) in _monomials(n, 1):
            x, y = sigma[(e & 15) - 1], sigma[(e >> 4) - 1]
            image[e] = y << 4 | x if x < y else x << 4 | y
        tr = 0
        for flat, monos in by_flat.items():
            if _block_orbits(flat, mask_image) is None:
                continue
            for mono in monos:
                raw = tuple(map(image.__getitem__, mono))
                srt = tuple(sorted(raw))
                if srt == mono:
                    tr += _sign(raw)
                else:  # a basis wedge other than mono straightens to itself
                    tr += _sign(raw) * _straighten(srt, memo).get(mono, 0)
        traces[mu] = tr
    return traces


def os_character(n: int, i: int) -> ClassFn:
    """Character of S_n on H^i of the configuration space of n points in
    the plane, from the straightened monomial basis."""
    return ClassFn(n, _os_traces(n, i))


def _eq_char_poly_values(n: int) -> dict:
    """Class values of eq_char_poly(n): class tuple -> integer coefficients
    of t^0, ..., t^(n-1)."""
    traces = [_os_traces(n, i) for i in range(n)]
    return {mu: tuple((-1) ** i * traces[i][mu] for i in reversed(range(n)))
            for mu in _os_traces(n, 0)}


def eq_char_poly(n: int) -> GradedClassFn:
    """Graded virtual character sum_i (-1)^i [OS^i] t^(n-1-i); evaluates at
    the identity to the reduced characteristic polynomial of the braid
    matroid, and to zero at t=1 (the group acts freely)."""
    return _graded(n, _eq_char_poly_values(n))


def eqkl_braid(n: int) -> GradedClassFn:
    """Equivariant Kazhdan-Lusztig polynomial of the braid matroid as a
    graded class function of S_n (plethystic recursion), for
    1 <= n <= EQKL_BOUND."""
    return _graded(n, eqkl_values(n))


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
    images image permutes the blocks; None if it does not stabilize them.
    A flat of K_n has at most n blocks, so an image is looked up in the
    list itself, with no set built per flat and class."""
    out, seen = [], 0
    for b in blocks:
        if b & seen:
            continue
        length, c = 1, image[b]
        while c != b:
            if c not in blocks:
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
    chardata = {m: _eq_char_poly_values(m) for m in range(1, n + 1)}
    contrdata = {m: _brute_values(m) for m in range(1, n)}
    full = (1 << n) - 1
    flats = [p for p in flat_masks([full ^ 1 << v for v in range(n)], full) if len(p) < n]
    rank = n - 1
    out = {}
    for mu in partitions(n):
        ends = itertools.accumulate(mu)  # sigma's cycles, as masks
        cycles = [(1 << e) - (1 << e - p) for p, e in zip(mu, ends)]
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
        out[mu] = read_off(total, rank)
    return _trimmed(out)


# ---------------------------------------------------------------------------


def specht_decompose(f: ClassFn) -> dict:
    """Multiplicities <f, chi^lam> for every irreducible; zeros dropped."""
    # eqcore's integer sums over the common denominator of the values
    den = lcm(*(v.denominator for v in f.values.values()))
    sums = _specht_sums(f.n, {mu: int(v * den) for mu, v in f.values.items()})
    return {lam: Fraction(tot, factorial(f.n) * den) for lam, tot in sums.items()}


def row_bound_check(i: int, n: int) -> bool:
    """True iff every Specht summand of the degree-i coefficient of the
    equivariant KL polynomial has at most 2i rows (for i = 1 this is the
    two-row statement); vacuously true when the coefficient vanishes."""
    if i < 1:
        raise ValueError("i must be positive")
    decs = specht_multiplicities(n, eqkl_values(n))
    return i >= len(decs) or _within_row_bound(decs[i], i)
