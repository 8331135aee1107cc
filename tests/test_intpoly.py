"""The shared integer polynomial kernel against exact Poly arithmetic."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from braidkl.intpoly import falling_factorial, padd_into, pmul
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
