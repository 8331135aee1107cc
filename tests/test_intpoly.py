"""The shared integer polynomial kernel against exact Poly arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkl.intpoly import falling_factorial, falling_sum, padd_into, pmul, read_off
from braidkl.polyseries import Poly

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


def as_poly(cs):
    return Poly([Fraction(c) for c in cs], "t")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_pmul_and_padd_into_match_poly(a, b, scale):
    prod = pmul(a, b)
    assert len(prod) == len(a) + len(b) - 1
    assert as_poly(prod) == as_poly(a) * as_poly(b)
    acc = list(a)
    padd_into(acc, b, scale)
    assert len(acc) == max(len(a), len(b))
    assert as_poly(acc) == as_poly(a) + as_poly(b) * Fraction(scale)
    acc = list(a)
    padd_into(acc, b)
    assert as_poly(acc) == as_poly(a) + as_poly(b)


def test_falling_factorial():
    assert falling_factorial(0) == [1]
    for n in range(1, 8):
        ff = falling_factorial(n)
        for t in range(-3, 10):
            value = 1
            for k in range(n):
                value *= t - k
            assert sum(c * t**i for i, c in enumerate(ff)) == value


def test_falling_sum_examples():
    # sum_N a_N (t)_N with the defaults, and (kk t - k)_N in general
    assert falling_sum([[0], [0], [1]]) == [0, -1, 1]
    assert falling_sum([[5]]) == [5]
    assert falling_sum([[1], [2], [3]], 1, 2) == [5, -14, 12]  # 1 + 2(2t-1) + 3(2t-1)(2t-2)
    assert falling_sum([[], [1, 1]], 2, 3) == [-2, 1, 3]  # (1 + t)(3t - 2)


def flat_sum_of(p, rank):
    """t^rank p(1/t) - p: the proper-flat sum whose read-off is p."""
    s = [0] * (rank + 1)
    for i, c in enumerate(p):
        s[rank - i] += c
        s[i] -= c
    return s


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.lists(st.integers(-9, 9), max_size=5))
def test_read_off_inverts_the_functional_equation(rank, p):
    p = p[: (rank - 1) // 2 + 1]
    while p and not p[-1]:
        p.pop()
    assert read_off(flat_sum_of(p, rank), rank) == p
    assert read_off(tuple(flat_sum_of(p, rank)), rank) == p


def test_read_off_examples():
    # P(K_4) = 1 + t: t^3 (1 + 1/t) - (1 + t) = -1 - t + t^2 + t^3
    assert read_off([-1, -1, 1, 1], 3) == [1, 1]
    # the read-off drops trailing zeros, and a short sum is padded with zeros
    assert read_off([-1, 1], 1) == [1] and read_off([-1, 0, 0, 1], 3) == [1]
    assert read_off([], 2) == [] and read_off((0,), 5) == []
    # the read-off itself makes no KL-only check
    assert read_off([0, 3, -3, 0], 3) == [0, -3]


@pytest.mark.parametrize(
    "s, rank, message",
    [
        ([0, 0], 1, None),
        ([1, 0], 1, "low read"),
        ([-1, -1, 1, 0], 3, "low read"),
        ([-1, 0, 1], 2, None),
        ([-1, 1, 1], 2, "middle"),
        ([-1, 0, 0, 0, 1], 4, None),
        ([-1, 0, 2, 0, 1], 4, "middle"),
        ([-1, 0, 0, 0, 0, 0, 1], 6, None),
        ([-1, 0, 0, 1, 0, 0, 1], 6, "middle"),
        ([-1, 0, 0, 0, 0, 1, 1], 6, "low read"),
    ],
)
def test_read_off_checks(s, rank, message):
    if message is None:
        read_off(s, rank)
    else:
        with pytest.raises(ArithmeticError, match=rf"equation is inconsistent \({message}\)"):
            read_off(s, rank)
