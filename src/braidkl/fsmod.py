"""Finite-set surjection bookkeeping and the concrete structure maps on
degree-one configuration homology: pullbacks, the generation-in-degree-2
test with explicit witnesses, principal-projective counting, and the
finite-window growth diagnostic for dim/d^n ratios.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd

from .combinat import _Record, stirling2

# growth_diagnostic takes a polyseries.SeqTable but never loads the module
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .polyseries import SeqTable


class Surjection(_Record):
    """Surjective map [n] -> [m], stored as the 1-based image tuple."""

    __slots__ = ("n", "m", "values")

    def __init__(self, n: int, m: int, values: tuple):
        self._set(n, m, values)
        if self.m < 1 or self.n < self.m:
            raise ValueError("need n >= m >= 1")
        if len(self.values) != self.n:
            raise ValueError("value list must have length n")
        if set(self.values) != set(range(1, self.m + 1)):
            raise ValueError("map must hit every element of [m]")

    def __call__(self, x: int) -> int:
        return self.values[x - 1]

    def fiber(self, y: int) -> tuple:
        return tuple(x for x in range(1, self.n + 1) if self.values[x - 1] == y)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, tuple(range(1, n + 1)))


def compose(f: Surjection, g: Surjection) -> Surjection:
    """f after g; requires target of g = source of f."""
    if g.m != f.n:
        raise ValueError("target of g must equal source of f")
    return Surjection(g.n, f.m, tuple(f(g(x)) for x in range(1, g.n + 1)))


def enumerate_surjections(n: int, m: int) -> list:
    """All surjections [n] -> [m], lexicographic by image tuple."""
    out = []
    targets = set(range(1, m + 1))
    for values in itertools.product(range(1, m + 1), repeat=n):
        if set(values) == targets:
            out.append(Surjection(n, m, values))
    return out


def hom_fs_count(n: int, m: int) -> int:
    """|Hom_FS([n],[m])| = m! S(n,m); always at most m^n."""
    if n < 1 or m < 1:
        raise ValueError("sets must be nonempty")
    count = factorial(m) * stirling2(n, m)
    if count > m**n:
        raise ArithmeticError("more surjections than maps")
    return count


def _coord(c):
    """A coordinate as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class H1Vector:
    """Vector in degree-one configuration homology of n points: a finitely
    supported map on unordered pairs {i,j} of [n], keys normalized i < j.
    Integral coordinates are ints and the others Fractions."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords=None):
        self.n = n
        clean = {}
        if coords:
            for (a, b), c in coords.items():
                if not (1 <= a <= n and 1 <= b <= n) or a == b:
                    raise ValueError(f"bad pair ({a},{b})")
                key = (a, b) if a < b else (b, a)
                c = _coord(c)
                if c:
                    clean[key] = clean.get(key, 0) + c
        self.coords = {k: _coord(v) for k, v in clean.items() if v}

    @classmethod
    def basis(cls, n: int, a: int, b: int):
        return cls(n, {(a, b): 1})

    def __add__(self, other):
        if not isinstance(other, H1Vector) or other.n != self.n:
            return NotImplemented
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, 0) + v
        return H1Vector(self.n, out)

    def scale(self, c):
        c = _coord(c)
        return H1Vector(self.n, {k: c * v for k, v in self.coords.items()})

    def __eq__(self, other):
        if not isinstance(other, H1Vector):
            return NotImplemented
        return self.n == other.n and self.coords == other.coords

    def __repr__(self):
        body = " + ".join(
            f"{v}*e{a}{b}" if v != 1 else f"e{a}{b}"
            for (a, b), v in sorted(self.coords.items())
        )
        return f"H1Vector({self.n}, {body or '0'})"


def h1_pullback(f: Surjection, v: H1Vector) -> H1Vector:
    """Contravariant structure map on homology: e_kl pulls back to the sum
    of e_ij over i in the fiber of k and j in the fiber of l."""
    if v.n != f.m:
        raise ValueError("vector must live on the target of f")
    fibres = [[] for _ in range(f.m + 1)]
    for x, y in enumerate(f.values, 1):
        fibres[y].append(x)
    out: dict = {}
    for (k, l), c in v.coords.items():
        for i in fibres[k]:
            for j in fibres[l]:
                key = (i, j) if i < j else (j, i)
                out[key] = out.get(key, 0) + c
    return H1Vector(f.n, out)


def _add_pivot(pivots: dict, row: list) -> bool:
    """Reduce an integer row against the pivot rows (column -> row, zero left
    of its column) by fraction-free elimination, row = p*row - row[col]*prow
    over the gcd of the result; a row left nonzero becomes a new pivot."""
    for col in range(len(row)):
        x = row[col]
        if not x:
            continue
        prow = pivots.get(col)
        if prow is None:
            pivots[col] = row
            return True
        p = prow[col]
        row = [p * a - x * b for a, b in zip(row, prow)]
        g = gcd(*row)
        if g > 1:
            row = [a // g for a in row]
    return False


def _h1_generation(n: int):
    """Row-reduce the pullbacks of e12 along all surjections [n] -> [2];
    returns (spans_everything, witness surjections for the pivot rows)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    index = {pair: k for k, pair in enumerate(itertools.combinations(range(1, n + 1), 2))}
    pivots: dict = {}
    witnesses = []
    for f in enumerate_surjections(n, 2):
        row = [0] * len(index)
        for key, c in h1_pullback(f, H1Vector.basis(2, 1, 2)).coords.items():
            row[index[key]] = c
        if _add_pivot(pivots, row):
            witnesses.append(f)
            if len(pivots) == len(index):
                return True, witnesses
    return False, witnesses


def h1_generation_check(n: int) -> bool:
    """True iff the pullbacks of e12 along surjections onto a 2-set span all
    of degree-one homology (dimension C(n,2)); exact fraction-free integer
    elimination."""
    ok, _ = _h1_generation(n)
    return ok


def h1_generation_witnesses(n: int) -> list:
    """Surjections whose pullbacks realize a full-rank spanning set."""
    ok, ws = _h1_generation(n)
    if not ok:
        raise ArithmeticError("pullbacks from a 2-set failed to span")
    return ws


class GrowthReport(_Record):
    """Result of growth_diagnostic: the window's ratios dims(n)/d^n from
    n = start, the verdict, and the extrapolated limit or None."""

    __slots__ = ("d", "start", "ratios", "verdict", "estimate")

    def __init__(self, d: int, start: int, ratios: tuple, verdict: str, estimate):
        self._set(d, start, ratios, verdict, estimate)


def growth_diagnostic(dims: SeqTable, d: int) -> GrowthReport:
    """Finite-window behavior of dims(n)/d^n.  Verdicts: a constant window
    or an increasing window with strictly shrinking gaps reads as
    "stabilizing" (with a geometric extrapolation as the estimate); a
    strictly decreasing window reads as "monotone decreasing over window";
    anything else is "inconclusive".  This is a diagnostic, never a proof.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if len(dims.values) < 6:
        raise ValueError("need at least 6 consecutive terms")
    ratios = tuple(
        Fraction(v) / Fraction(d) ** (dims.start + k)
        for k, v in enumerate(dims.values)
    )
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    if all(x == ratios[0] for x in ratios):
        return GrowthReport(d, dims.start, ratios, "stabilizing", ratios[-1])
    if all(x < 0 for x in diffs):
        return GrowthReport(d, dims.start, ratios, "monotone decreasing over window", None)
    shrinking = all(abs(b) <= abs(a) for a, b in zip(diffs, diffs[1:]))
    if all(x > 0 for x in diffs) and shrinking and abs(diffs[-1]) * 2 <= abs(diffs[0]):
        last, prev = diffs[-1], diffs[-2]
        est = ratios[-1]
        if prev != last:
            est = ratios[-1] + last * last / (prev - last)
        return GrowthReport(d, dims.start, ratios, "stabilizing", est)
    return GrowthReport(d, dims.start, ratios, "inconclusive", None)
