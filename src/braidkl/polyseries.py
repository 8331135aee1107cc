"""Exact univariate polynomials and rational functions over Q: series
expansion and rational fitting against a prescribed pole set {1/j}.

The generating functions of the paper are not fitted here: specseq.form_fit
reads their numerator, denominator, partial fractions, exponential form and
limit constant off the Euler identity's closed form.  fit_rational is kept
as an independent oracle, run by the `polyseries-roundtrip` check of
`verify --suite properties`; tests/fit_oracle.py divides its result into the
values form_fit gives, and the tests compare the two.

Values are fractions.Fraction at the API; fit_rational searches in
integers after scaling its data by their common denominator.  Nothing here
ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .combinat import _Record
from .intpoly import pmul


class InsufficientDataError(ValueError):
    """A fit was requested with fewer sequence terms than the candidate
    denominators require (distinct from a fit that fails validation)."""


class Poly:
    """Dense polynomial with Fraction coefficients; index = degree.

    Trailing zeros are stripped; the zero polynomial has an empty
    coefficient tuple.  The variable name is presentation metadata only
    and does not participate in equality.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var: str = "t"):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other], self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(
            [self.coeff(i) + o.coeff(i) for i in range(n)], self.var
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(pmul(self.coeffs, o.coeffs), self.var)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly([1], self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reflect(self, r: int):
        """var^r * P(1/var); requires deg P <= r."""
        if self.degree() > r:
            raise ValueError("degree exceeds reflection order")
        return Poly([self.coeff(r - i) for i in range(r + 1)], self.var)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly([], self.var), self
        quo = [Fraction(0)] * (dq + 1)
        lead = o.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(o.coeffs) - 1] / lead
            quo[i] = c
            if c:
                for j, b in enumerate(o.coeffs):
                    rem[i + j] -= c * b
        return Poly(quo, self.var), Poly(rem, self.var)

    def __floordiv__(self, other):
        qr = self.__divmod__(other)
        return qr if qr is NotImplemented else qr[0]

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd over Q."""
        while b:
            a, b = b, divmod(a, b)[1]
        if a:
            a = a * (Fraction(1) / a.coeffs[-1])
        return a

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                bits.append(str(c))
            elif i == 1:
                bits.append(f"{c}*{self.var}")
            else:
                bits.append(f"{c}*{self.var}^{i}")
        return " + ".join(bits)


class SeqTable(_Record):
    """Exact values of a sequence on a contiguous index range.  Immutable;
    the values are stored as a tuple of Fractions."""

    __slots__ = ("start", "values")

    def __init__(self, start: int, values):
        self._set(start, tuple(Fraction(v) for v in values))

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def value_at(self, n: int) -> Fraction:
        if not self.start <= n <= self.end:
            raise IndexError(f"index {n} outside [{self.start}, {self.end}]")
        return self.values[n - self.start]


class RatFn:
    """Rational function num/den, normalized so gcd(num, den) = 1 and
    den(0) = 1.  Denominators with a root at 0 are rejected."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var: str = "u"):
        num = num if isinstance(num, Poly) else Poly([num], var)
        den = den if isinstance(den, Poly) else Poly([den], var)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = Poly([], var)
            self.den = Poly([1], var)
            return
        g = Poly.gcd(num, den)
        if g.degree() > 0:
            num = num // g
            den = den // g
        c0 = den.coeff(0)
        if c0 == 0:
            raise ValueError("pole at 0 (den(0) = 0 after reduction)")
        inv = Fraction(1) / c0
        self.num = num * inv
        self.den = den * inv

    @property
    def var(self):
        return self.num.var

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, RatFn):
            other = RatFn(other)
        return RatFn(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            self.var,
        )

    def __sub__(self, other):
        if not isinstance(other, RatFn):
            other = RatFn(other)
        return RatFn(
            self.num * other.den - other.num * self.den,
            self.den * other.den,
            self.var,
        )

    def __mul__(self, other):
        if not isinstance(other, RatFn):
            other = RatFn(other)
        return RatFn(self.num * other.num, self.den * other.den, self.var)

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


def geometric_denominator(mults: dict, var: str = "u") -> Poly:
    """prod_j (1 - j*u)^{m_j} for a pole -> multiplicity map."""
    den = Poly([1], var)
    for j in sorted(mults):
        for _ in range(mults[j]):
            den = den * Poly([1, -j], var)
    return den


def series(r: RatFn, n_max: int) -> SeqTable:
    """Maclaurin coefficients of r through degree n_max, exact."""
    # den(0) = 1 by normalization, so a_n = num_n - sum den_k a_{n-k}.
    out = []
    for n in range(n_max + 1):
        a = r.num.coeff(n)
        for k in range(1, min(n, r.den.degree()) + 1):
            a -= r.den.coeff(k) * out[n - k]
        out.append(a)
    return SeqTable(0, tuple(out))


def _geometric_walk(b: list, poles: list, left: int, cap: int, budget: int):
    """First multiplicity vector over poles, in ascending lexicographic order,
    with entries at most cap summing to left, whose product
    prod_j (1-ju)^{m_j} * b vanishes beyond the budget.  b already holds the
    factors of the earlier poles.  Returns the vector and that product, or
    None."""
    if left > cap * len(poles):
        return None
    if not poles:
        return None if any(b[budget + 1 :]) else ([], b)
    j = poles[0]
    for m in range(min(cap, left) + 1):
        if m:
            # one more factor (1 - ju): b[n] -= j * b[n-1], into a copy
            b = [b[0]] + [x - j * y for x, y in zip(b[1:], b)]
        found = _geometric_walk(b, poles[1:], left - m, cap, budget)
        if found is not None:
            return [m] + found[0], found[1]
    return None


def fit_rational(seq: SeqTable, poles, mult_cap: int = 8):
    """Find the rational function with denominator prod (1-ju)^{m_j},
    j in poles and m_j <= mult_cap, of minimal total denominator degree,
    that reproduces every supplied term (coefficients below seq.start are
    taken to be zero, matching the sum-from-n=start convention).

    Returns None if no candidate within the caps reproduces the data.
    Raises ValueError for a pole below 1 or a negative seq.start.
    Raises InsufficientDataError once candidates require more terms than
    supplied: each candidate of total degree d gets a numerator budget of
    d + 10, and the data must extend at least 5 indices past that budget
    so the fit is validated on held-out terms.

    The search is exact and in integers.  The data are scaled once by the
    lcm of their denominators.  For each total degree the multiplicity
    vectors are walked depth-first over the sorted poles, in ascending
    lexicographic order with the first pole varying slowest; raising one
    multiplicity applies a single (1 - ju) pass to a copy of the parent's
    product, so every prefix product is built once.  A candidate fits when
    its product vanishes beyond the budget; only that candidate becomes a
    RatFn.
    """
    poles = sorted(set(int(j) for j in poles))
    if any(j < 1 for j in poles):
        raise ValueError("poles must be positive integers")
    if seq.start < 0:
        raise ValueError("a power series has no terms below index 0")
    end = seq.end
    scale = lcm(*(v.denominator for v in seq.values))
    a = [0] * (end + 1)
    for i, v in enumerate(seq.values):
        a[seq.start + i] = v.numerator * (scale // v.denominator)
    for total in range(mult_cap * len(poles) + 1):
        budget = total + 10
        if end < budget + 5:
            raise InsufficientDataError(
                f"data through index {end} cannot validate candidates of "
                f"denominator degree {total} (need index {budget + 5})"
            )
        found = _geometric_walk(a, poles, total, mult_cap, budget)
        if found is None:
            continue
        vec, c = found
        den = geometric_denominator(dict(zip(poles, vec)))
        num = Poly([Fraction(x, scale) for x in c[: budget + 1]], "u")
        fit = RatFn(num, den)
        if fit.den != den:
            raise ArithmeticError("fit unexpectedly reducible")
        return fit
    return None

