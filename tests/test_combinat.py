"""Combinatorial primitives against independent brute-force oracles."""

import itertools
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from braidkl.combinat import (
    Partition,
    bell,
    centralizer_order,
    character_table,
    class_size,
    double_factorial_odd,
    mn_character,
    mobius,
    partitions,
    set_partition_count_by_type,
    stirling1_unsigned,
    stirling2,
)
from test_cli import _probe_env


# --- oracles -------------------------------------------------------------


def oracle_partition_count(n):
    """Coin-style DP, independent of the recursive generator."""
    dp = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            dp[total] += dp[total - part]
    return dp[n]


def oracle_set_partitions(elements):
    """All set partitions of a list, by direct recursive placement."""
    if not elements:
        return [[]]
    first, rest = elements[0], elements[1:]
    out = []
    for smaller in oracle_set_partitions(rest):
        for i in range(len(smaller)):
            out.append(smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :])
        out.append([[first]] + smaller)
    return out


def oracle_series_coeff(num, den, k):
    """Coefficient of u^k in num/den by long division (plain int lists)."""
    out = []
    for n in range(k + 1):
        a = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            a -= den[j] * out[n - j]
        assert den[0] == 1
        out.append(a)
    return out[k]


def oracle_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        v = s
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def hook_length_dimension(lam):
    parts = lam.parts
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    dim = factorial(lam.n)
    for i, p in enumerate(parts):
        for j in range(p):
            dim //= (p - j) + (conj[j] - i) - 1
    return dim


# --- partitions ----------------------------------------------------------


def test_partitions_small_exhaustive():
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in partitions(1)] == [(1,)]
    assert [p.parts for p in partitions(0)] == [()]


def test_partitions_count_matches_oracle():
    assert oracle_partition_count(9) == 30
    assert len(partitions(9)) == 30
    for n in range(13):
        assert len(partitions(n)) == oracle_partition_count(n)


def test_partitions_are_valid_and_sorted():
    for n in range(11):
        ps = partitions(n)
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert p.n == n
            assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))
        assert ps == sorted(ps)


def oracle_partition_tuples(n, maxpart):
    """Partitions of n with parts <= maxpart, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in oracle_partition_tuples(n - first, first):
            yield (first,) + rest


def test_partitions_are_built_once_per_n_in_the_same_order():
    for n in range(13):
        first, second = partitions(n), partitions(n)
        assert [p.parts for p in first] == list(oracle_partition_tuples(n, n))
        assert first == [Partition(t) for t in oracle_partition_tuples(n, n)]
        assert first is not second and all(a is b for a, b in zip(first, second))
        first.clear()  # each call gets a list of its own
        assert partitions(n) == second


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


# --- Stirling numbers ----------------------------------------------------


def test_stirling2_against_enumeration():
    by_blocks = {}
    for sp in oracle_set_partitions(list(range(4))):
        by_blocks[len(sp)] = by_blocks.get(len(sp), 0) + 1
    assert by_blocks[2] == 7
    assert stirling2(4, 2) == 7
    count6 = sum(1 for sp in oracle_set_partitions(list(range(6))) if len(sp) == 3)
    assert count6 == 90
    assert stirling2(6, 3) == 90


def test_stirling2_edge_rows():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 7) == 0
    for n in range(1, 10):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1


def test_stirling2_falling_factorial_identity():
    # sum_k S(n,k) t(t-1)...(t-k+1) = t^n, exactly
    for n in range(13):
        total = [0] * (n + 1)
        for k in range(n + 1):
            ff = [1]
            for j in range(k):
                ff = oracle_poly_mul(ff, [-j, 1])
            for i, c in enumerate(ff):
                total[i] += stirling2(n, k) * c
        expected = [0] * (n + 1)
        expected[n] = 1
        assert total == expected


def test_stirling1_small_oracles():
    # coefficient of t^2 in (1+t)(1+2t)(1+3t)
    poly = oracle_poly_mul(oracle_poly_mul([1, 1], [1, 2]), [1, 3])
    assert poly[2] == 11
    assert stirling1_unsigned(4, 2) == 11
    # u^6 coefficient of (2u^3+u^4)/(1-u)^5 equals c(6,4)
    den = [1]
    for _ in range(5):
        den = oracle_poly_mul(den, [1, -1])
    assert oracle_series_coeff([0, 0, 0, 2, 1], den, 6) == 85
    assert stirling1_unsigned(6, 4) == 85
    for n in range(9):
        assert stirling1_unsigned(n, n) == 1


def test_stirling1_rising_factorial_identity():
    # sum_k c(n,k) t^k = t(t+1)...(t+n-1)
    for n in range(13):
        rising = [1]
        for j in range(n):
            rising = oracle_poly_mul(rising, [j, 1])
        got = [stirling1_unsigned(n, k) for k in range(n + 1)]
        assert got == rising


def test_stirling1_counts_cycles():
    for n in range(1, 7):
        counts = {}
        for perm in itertools.permutations(range(n)):
            k = len(cycle_type(perm))
            counts[k] = counts.get(k, 0) + 1
        for k, c in counts.items():
            assert stirling1_unsigned(n, k) == c


# --- set-partition types and class sizes ---------------------------------


def test_set_partition_count_by_type_oracle():
    by_type = {}
    for sp in oracle_set_partitions(list(range(4))):
        t = tuple(sorted((len(b) for b in sp), reverse=True))
        by_type[t] = by_type.get(t, 0) + 1
    assert by_type[(2, 1, 1)] == 6
    assert by_type[(2, 2)] == 3
    for t, count in by_type.items():
        assert set_partition_count_by_type(Partition(t)) == count
    assert set_partition_count_by_type(Partition((1, 1, 1, 1))) == 1


def test_type_counts_sum_to_bell():
    for n in range(1, 13):
        total = sum(set_partition_count_by_type(lam) for lam in partitions(n))
        assert total == bell(n)
    assert bell(4) == 15


def test_class_size_oracle():
    for n in range(1, 6):
        counts = {}
        for perm in itertools.permutations(range(n)):
            t = cycle_type(perm)
            counts[t] = counts.get(t, 0) + 1
        for t, c in counts.items():
            assert class_size(Partition(t)) == c
    assert class_size(Partition((2, 1))) == 3
    assert class_size(Partition((3,))) == 2
    for n in range(1, 8):
        assert class_size(Partition((1,) * n)) == 1


def test_class_sizes_sum_to_group_order():
    for n in range(1, 13):
        assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)


# --- characters ----------------------------------------------------------


def test_mn_trivial_and_sign():
    for n in range(1, 7):
        for mu in partitions(n):
            assert mn_character(Partition((n,)), mu) == 1
            assert mn_character(Partition((1,) * n), mu) == (-1) ** (n - len(mu))


def test_mn_standard_rep_dimension():
    assert hook_length_dimension(Partition((2, 1))) == 2
    assert mn_character(Partition((2, 1)), Partition((1, 1, 1))) == 2


def test_mn_dimensions_match_hook_lengths():
    for n in range(1, 8):
        idc = Partition((1,) * n)
        for lam in partitions(n):
            assert mn_character(lam, idc) == hook_length_dimension(lam)


def test_mn_column_orthogonality():
    for n in range(1, 9):
        parts = partitions(n)
        for a, mu in enumerate(parts):
            for nu in parts[a:]:
                total = sum(
                    mn_character(lam, mu) * mn_character(lam, nu) for lam in parts
                )
                assert total == (centralizer_order(mu) if mu == nu else 0)


def test_character_table_matches_mn_character():
    for n in range(0, 10):
        parts = partitions(n)
        assert character_table(n) == tuple(
            tuple(mn_character(lam, mu) for mu in parts) for lam in parts
        )


@lru_cache(maxsize=None)
def tuple_mn(lam, mu):
    """The older Murnaghan-Nakayama recursion on partition tuples: removing
    a strip of size k from row i moves its first-column hook length beta_i
    to beta_i - k, with sign (-1)^(number of beta_j strictly between)."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    L = len(lam)
    beta = tuple(lam[i] + (L - 1 - i) for i in range(L))
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        crossings = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((set(beta) - {b}) | {nb}, reverse=True)
        newlam = tuple(
            p for p in (newbeta[j] - (L - 1 - j) for j in range(L)) if p > 0
        )
        total += (-1) ** crossings * tuple_mn(newlam, rest)
    return total


def test_character_table_matches_tuple_recursion():
    for n in range(0, 13):
        parts = [p.parts for p in partitions(n)]
        assert character_table(n) == tuple(
            tuple(tuple_mn(lam, mu) for mu in parts) for lam in parts
        )


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character(Partition((2,)), Partition((3,)))


# --- misc ----------------------------------------------------------------


def test_double_factorial():
    assert double_factorial_odd(5) == 15
    assert double_factorial_odd(-1) == 1
    assert double_factorial_odd(1) == 1
    assert double_factorial_odd(9) == 945
    with pytest.raises(ValueError):
        double_factorial_odd(4)
    with pytest.raises(ValueError):
        double_factorial_odd(-3)


def test_bell_from_stirling_rows():
    for n in range(13):
        assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))


@pytest.mark.parametrize(
    "check",
    ["stirling2(600, 2) == 2**599 - 1", "stirling1_unsigned(600, 599) == comb(600, 2)"],
)
def test_large_stirling_row_in_a_fresh_interpreter(tmp_path, check):
    """With no row cached, row 600 is built up from row 0 without a call per
    row; a recursion per row overflowed the stack near n = 490."""
    code = f"from math import comb\nfrom braidkl.combinat import stirling1_unsigned, stirling2\nprint({check})"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_probe_env(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_mobius_values_and_divisor_sums():
    first = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert [mobius(n) for n in range(1, 13)] == first
    assert mobius(30) == -1 and mobius(49) == 0 and mobius(97) == -1
    # sum over the divisors d of n of mobius(d) is 1 for n = 1 and 0 otherwise
    for n in range(1, 300):
        assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == (n == 1)
    with pytest.raises(ValueError):
        mobius(0)
