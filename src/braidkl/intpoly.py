"""Integer polynomials in one variable as lists of ascending coefficients.

The exact kernels (KL rows, chromatic polynomials, E1 Betti products,
equivariant class values) all multiply and accumulate such lists; this is
their one implementation.  `fractions.Fraction` and `Poly` stay at the API
edge and where rationals really appear.
"""

from __future__ import annotations


def pmul(a, b) -> list:
    """The product of two coefficient sequences, as a new list."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def padd_into(acc: list, b, scale: int = 1) -> None:
    """acc += scale * b in place, extending acc when b is longer."""
    if len(b) > len(acc):
        acc.extend([0] * (len(b) - len(acc)))
    if scale != 1:
        b = [scale * y for y in b]
    for i, y in enumerate(b):
        acc[i] += y


def falling_factorial(n: int) -> list:
    """(t)_n = t(t-1)...(t-n+1)."""
    out = [1]
    for k in range(n):
        out = pmul(out, [-k, 1])
    return out
