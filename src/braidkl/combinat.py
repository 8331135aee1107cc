"""Exact integer combinatorics: partitions, Stirling numbers, set-partition
counts, conjugacy-class data, and symmetric-group character values; and
_Record, the immutable-record base of fsmod's records and polyseries.SeqTable.

Everything is pure and deterministic.  Caches fill under get-or-compute, so
concurrent use yields the same values as sequential use.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import factorial


class _Record:
    """Immutable record over the field names in __slots__, with the equality,
    hashing and repr of a frozen dataclass.  (A plain class, so that loading
    fsmod or polyseries does not load dataclasses.)"""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting slots
        return (self.__class__, self._values())


class Partition:
    """A weakly decreasing tuple of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError("partition parts must be positive")
            if i and parts[i - 1] < p:
                raise ValueError("partition parts must be weakly decreasing")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def _key(self):
        # graded reverse-lexicographic: (3) before (2,1) before (1,1,1)
        return (self.n, tuple(-p for p in self.parts))

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def multiplicities(self) -> dict:
        m = {}
        for p in self.parts:
            m[p] = m.get(p, 0) + 1
        return m

    def __repr__(self):
        return f"Partition({list(self.parts)})"


@lru_cache(maxsize=None)
def _partition_tuples(n: int, maxpart: int) -> tuple:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _partition_objects(n: int) -> tuple:
    return tuple(Partition(t) for t in _partition_tuples(n, n if n else 1))


def partitions(n: int) -> list:
    """All partitions of n in graded reverse-lexicographic order, as a new
    list of Partition objects built once per n and shared between calls."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partition_objects(n))


_ROWS_LOCK = threading.Lock()
_S2_ROWS = [(1,)]
_S1_ROWS = [(1,)]


def _row(rows: list, n: int, weights) -> tuple:
    """rows[n] of a Stirling triangle whose entry (m, k) is
    w_k (m-1, k) + (m-1, k-1), with w = weights(m), built under the lock
    from the largest row held, one row at a time, so no depth bound."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(rows):
        with _ROWS_LOCK:
            for m in range(len(rows), n + 1):
                prev = rows[m - 1]
                rows.append(tuple(w * a + b for w, a, b in zip(weights(m), prev + (0,), (0,) + prev)))
    return rows[n]


def stirling2_row(n: int) -> tuple:
    """(S(n,0), ..., S(n,n)), Stirling numbers of the second kind."""
    return _row(_S2_ROWS, n, lambda m: range(m + 1))


def stirling2(n: int, k: int) -> int:
    """S(n,k): set partitions of an n-set into k nonempty blocks."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    return stirling2_row(n)[k]


def stirling1_row(n: int) -> tuple:
    """(c(n,0), ..., c(n,n)), unsigned Stirling numbers of the first kind."""
    return _row(_S1_ROWS, n, lambda m: [m - 1] * (m + 1))


def stirling1_unsigned(n: int, k: int) -> int:
    """c(n,k): permutations of an n-set with exactly k cycles."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    return stirling1_row(n)[k]


def mobius(n: int) -> int:
    """Number-theoretic Mobius function: 0 if a square divides n, else
    (-1)^(number of prime factors of n)."""
    if n < 1:
        raise ValueError("n must be positive")
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def set_partition_count_by_type(lam: Partition) -> int:
    """Number of set partitions of [n] whose block-size multiset is lam."""
    if not lam.parts:
        raise ValueError("type must be nonempty")
    n = lam.n
    denom = 1
    for p in lam.parts:
        denom *= factorial(p)
    for m in lam.multiplicities().values():
        denom *= factorial(m)
    count, rem = divmod(factorial(n), denom)
    if rem:
        raise ArithmeticError("set partition count is not an integer")
    return count


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod r^{m_r} m_r!, the centralizer order of the class mu."""
    z = 1
    for r, m in mu.multiplicities().items():
        z *= r**m * factorial(m)
    return z


def class_size(mu: Partition) -> int:
    """Size of the conjugacy class of cycle type mu in S_n."""
    if mu.n < 1:
        raise ValueError("mu must be a partition of n >= 1")
    count, rem = divmod(factorial(mu.n), centralizer_order(mu))
    if rem:
        raise ArithmeticError("class size is not an integer")
    return count


def _beads(lam: tuple) -> int:
    """The beta-set of lam as a bit mask: bead lam_i + (L-1-i) for each of
    its L parts."""
    L = len(lam)
    return sum(1 << (p + L - 1 - i) for i, p in enumerate(lam))


@lru_cache(maxsize=None)
def _mn(beads: int, mu: tuple) -> int:
    # Murnaghan-Nakayama over border strips on the beta-set: removing a strip
    # of size k moves a bead b to an empty b - k, with sign (-1)^(number of
    # beads strictly between).  An empty row is a bead at 0 below the others;
    # shifting such beads off keeps one key per partition.
    if not mu:
        return 0 if beads else 1
    k = mu[0]
    rest = mu[1:]
    gap = (1 << (k - 1)) - 1
    total = 0
    # the beads b >= k with b - k empty
    movable = (beads & ~(beads << k)) >> k
    while movable:
        low = movable & -movable
        movable ^= low
        new = beads ^ (low | low << k)
        new >>= (new ^ (new + 1)).bit_length() - 1  # trailing ones off
        value = _mn(new, rest)
        if value:
            between = beads >> low.bit_length() & gap
            total += -value if between.bit_count() & 1 else value
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam(mu) by the Murnaghan-Nakayama rule."""
    if lam.n != mu.n:
        raise ValueError("lam and mu must be partitions of the same n")
    return _mn(_beads(lam.parts), mu.parts)


@lru_cache(maxsize=None)
def character_table(n: int) -> tuple:
    """The irreducible characters of S_n: entry [a][b] is chi^lam(mu) for
    lam = partitions(n)[a] and mu = partitions(n)[b]."""
    parts = [p.parts for p in partitions(n)]
    return tuple(tuple(_mn(_beads(lam), mu) for mu in parts) for lam in parts)


def double_factorial_odd(m: int) -> int:
    """m!! for odd m >= -1, with (-1)!! = 1 (empty product)."""
    if m < -1 or m % 2 == 0:
        raise ValueError("argument must be odd and >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def bell(n: int) -> int:
    """Number of set partitions of an n-set."""
    return sum(stirling2_row(n))
