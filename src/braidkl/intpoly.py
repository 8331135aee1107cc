"""Integer polynomials in one variable as lists of ascending coefficients.

The exact kernels (KL rows, chromatic polynomials, E1 Betti products,
equivariant class values) all multiply and accumulate such lists; this is
their one implementation, together with the two steps that the KL
recursions share: the Horner sum in the falling-factorial basis and the
read-off of the functional equation.  `fractions.Fraction` and `Poly` stay
at the API edge and where rationals really appear.
"""

from __future__ import annotations


def pmul(a, b) -> list:
    """The product of two coefficient sequences of any number type, as a
    new list (of zeros when either is empty)."""
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


def falling_sum(xs: list, k: int = 0, kk: int = 1) -> list:
    """sum_N xs[N] (kk t - k)_N for coefficient sequences xs[N], by Horner's
    rule in the falling-factorial basis; with xs[N] = [a_N] and the defaults,
    sum_N a_N (t)_N."""
    out = list(xs[-1])
    for n in range(len(xs) - 2, -1, -1):
        out = pmul(out, [-k - n, kk])
        padd_into(out, xs[n])
    return out


def read_off(s, rank: int) -> list:
    """P in t^rank P(1/t) - P = s, deg P < rank/2, for s the sum over the
    proper flats: [t^i] P = s[rank - i], trailing zeros dropped.  Raises
    ArithmeticError unless the low coefficients of s are -P ("low read") and
    those between vanish ("middle")."""
    s = list(s) + [0] * (rank + 1 - len(s))
    half = (rank - 1) // 2
    if any(s[i] + s[rank - i] for i in range(half + 1)):
        raise ArithmeticError("functional equation is inconsistent (low read)")
    if any(s[half + 1 : rank - half]):
        raise ArithmeticError("functional equation is inconsistent (middle)")
    out = [s[rank - i] for i in range(half + 1)]
    while out and not out[-1]:
        out.pop()
    return out
