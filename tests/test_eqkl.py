"""Equivariant KL machinery: Frobenius characteristic, plethysm, OS
characters, the two recursion paths, Specht decompositions, row bounds."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkl.eqcore as eqcore
import braidkl.eqkl as eqkl

from braidkl.combinat import (
    Partition,
    centralizer_order,
    class_size,
    mn_character,
    partitions,
    stirling1_unsigned,
)
from braidkl.eqkl import (
    EQKL_BOUND,
    ClassFn,
    SymFn,
    ch,
    eq_char_poly,
    eqkl_braid,
    eqkl_braid_bruteforce,
    os_basis,
    os_character,
    row_bound_check,
    specht_decompose,
)
from braidkl.intpoly import padd_into, pmul
from braidkl.klcore import d_coeff, kl_braid
from braidkl.polyseries import Poly
from symfn_oracle import (
    ch_inv,
    char_poly_symfn,
    char_values,
    h_sym,
    homogeneous_part,
    plethysm,
    t_coeff,
)


def trivial(n):
    return ClassFn.trivial(n)


def sign_char(n):
    return ClassFn(n, {mu: (-1) ** (n - len(mu)) for mu in partitions(n)})


def regular(n):
    return ClassFn(n, {Partition((1,) * n): factorial(n)})


# --- ch / ch_inv -------------------------------------------------------------


def test_ch_trivial_and_sign_s2():
    assert ch(trivial(2)) == SymFn({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert ch(sign_char(2)) == SymFn({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})


def test_ch_regular_rep_is_power_of_p1():
    for n in range(1, 6):
        assert ch(regular(n)) == SymFn({(1,) * n: 1})


def test_ch_roundtrip_random_virtual_characters():
    rng = random.Random(2024)
    for n in range(1, 8):
        for _ in range(100):
            vals = {
                mu: Fraction(rng.randint(-12, 12), rng.randint(1, 5))
                for mu in partitions(n)
            }
            f = ClassFn(n, vals)
            assert ch_inv(ch(f), n) == f


def test_ch_inv_rejects_mixed_degree():
    with pytest.raises(ValueError):
        ch_inv(SymFn({(1,): 1, (2,): 1}), 2)


# --- plethysm ------------------------------------------------------------------


def test_plethysm_p_basis_rules():
    pk = SymFn({(3,): 1})
    pj = SymFn({(2,): 1})
    assert plethysm(pk, pj) == SymFn({(6,): 1})
    # t goes to t^k inside the inner function
    inner = SymFn({(1,): Poly([0, 1], "t")})
    assert plethysm(SymFn({(2,): 1}), inner) == SymFn(
        {(2,): Poly([0, 0, 1], "t")}
    )


def test_plethysm_rejects_constant_term():
    with pytest.raises(ValueError):
        plethysm(SymFn({(1,): 1}), SymFn({(): 1, (1,): 1}))


def oracle_h2_of_h2_character():
    """Permutation character of S4 on unordered 2+2 set partitions."""
    pairs = [
        frozenset({frozenset({0, 1}), frozenset({2, 3})}),
        frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        frozenset({frozenset({0, 3}), frozenset({1, 2})}),
    ]
    values = {}
    for mu in partitions(4):
        # class representative with cycles on consecutive points
        perm = list(range(4))
        start = 0
        for part in mu.parts:
            for off in range(part):
                perm[start + off] = start + (off + 1) % part
            start += part
        fixed = 0
        for pp in pairs:
            image = frozenset(
                frozenset(perm[v] for v in block) for block in pp
            )
            if image == pp:
                fixed += 1
        values[mu] = fixed
    return ClassFn(4, values)


def test_plethysm_h2_h2_schur_multiplicities():
    composed = plethysm(h_sym(2), h_sym(2), cap=4)
    f = ch_inv(homogeneous_part(composed, 4), 4)
    assert f == oracle_h2_of_h2_character()
    dec = specht_decompose(f)
    assert dec == {Partition((4,)): 1, Partition((2, 2)): 1}


# --- Orlik-Solomon characters -----------------------------------------------


def test_os_basis_dimensions():
    for n in range(1, 8):
        for i in range(n):
            assert len(os_basis(n, i)) == stirling1_unsigned(n, n - i)


def test_os_character_examples():
    for n in range(1, 6):
        assert os_character(n, 0) == trivial(n)
    c31 = os_character(3, 1)
    assert c31.value(Partition((2, 1))) == 1
    assert c31.dim() == 3
    assert os_character(4, 2).dim() == 11


def test_os_character_bound():
    with pytest.raises(ValueError, match="straightening oracle bounded at n = 8"):
        os_character(9, 1)


def test_os_characters_decompose_integrally():
    for n in range(2, 6):
        for i in range(n):
            dec = specht_decompose(os_character(n, i))
            assert all(m.denominator == 1 and m > 0 for m in dec.values())


# --- graded characteristic data -----------------------------------------------


def test_eq_char_poly_identity_column():
    for n in range(1, 7):
        expect = Poly([1], "t")
        for k in range(1, n):
            expect = expect * Poly([-k, 1], "t")
        assert eq_char_poly(n).at_identity() == expect


def test_eq_char_poly_vanishes_at_one():
    for n in range(2, 7):
        assert eq_char_poly(n).eval_t(1).is_zero()
    assert not eq_char_poly(1).eval_t(1).is_zero()


def test_eq_char_poly_n1_trivial():
    g = eq_char_poly(1)
    assert len(g.coeffs) == 1 and g.coeffs[0] == trivial(1)


def test_char_poly_symfn_matches_straightening():
    for n in range(1, 8):
        sym = char_poly_symfn(n)
        graded = eq_char_poly(n)
        for k in range(n):
            assert ch(graded.coeffs[k]) == t_coeff(sym, k)


# Set-based copies of the brute-force oracle's block bookkeeping, which works
# on bit masks: labels are 1-based and sigma is a tuple whose position v-1
# holds the image of v, as eqkl._class_rep_perm gives it.


def _cycles(img):
    """(first element, length) of each cycle of the permutation img (a dict)."""
    out, seen = [], set()
    for v in img:
        w, length = v, 0
        while w not in seen:
            seen.add(w)
            w, length = img[w], length + 1
        if length:
            out.append((v, length))
    return out


def _block_cycles(blocks, sigma):
    """(one block, length) of each cycle in which sigma permutes the blocks;
    None if sigma does not stabilize the partition."""
    index = {frozenset(b): i for i, b in enumerate(blocks)}
    img = [index.get(frozenset(sigma[v - 1] for v in b)) for b in blocks]
    if None in img:
        return None
    return [(blocks[i], length) for i, length in _cycles(dict(enumerate(img)))]


def _perm_power_cycle_type(sigma, power, block):
    """Cycle type of sigma^power restricted to a block it maps onto itself."""
    tau = {v: v for v in block}
    for _ in range(power):
        tau = {v: sigma[tau[v] - 1] for v in block}
    return tuple(sorted((length for _, length in _cycles(tau)), reverse=True))


def _set_partitions(n):
    """Set partitions of {1, ..., n} as tuples of 1-based blocks, each label
    joining an earlier block or opening a new one."""
    out, blocks = [], []

    def rec(v):
        if v > n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(v)
            rec(v + 1)
            b.pop()
        blocks.append([v])
        rec(v + 1)
        blocks.pop()

    rec(1)
    return out


def test_set_partitions_count_bell_numbers():
    assert [len(_set_partitions(n)) for n in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]


def _masks(blocks):
    return [sum(1 << (v - 1) for v in b) for b in blocks]


def _cycle_masks(sigma):
    """The cycles of sigma as bit masks, longest first."""
    out = set()
    for v in range(1, len(sigma) + 1):
        m, w = 1 << (v - 1), sigma[v - 1]
        while w != v:
            m, w = m | 1 << (w - 1), sigma[w - 1]
        out.add(m)
    return sorted(out, key=lambda c: -c.bit_count())


@st.composite
def perms_and_partitions(draw):
    """A random permutation of {1..n} (n <= 7) and a random set partition,
    its blocks in order of their least label."""
    n = draw(st.integers(1, 7))
    sigma = tuple(draw(st.permutations(range(1, n + 1))))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for v, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(v)
    return sigma, tuple(sorted(map(tuple, blocks.values())))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(perms_and_partitions())
def test_mask_block_orbits_and_power_types_match_the_set_based_copies(case):
    sigma, blocks = case
    cycles = _block_cycles(blocks, sigma)
    orbits = eqkl._block_orbits(_masks(blocks), eqkl._mask_images(sigma))
    if cycles is None:
        assert orbits is None
        return
    assert orbits == [(_masks([block])[0], length) for block, length in cycles]
    cycle_masks = _cycle_masks(sigma)
    for block, length in cycles:
        want = _perm_power_cycle_type(sigma, length, block)
        assert eqkl._power_type(_masks([block])[0], cycle_masks) == want


# The fixed-point trace formula, enumerated over all set partitions: the trace
# of sigma on the alternating OS sum is the sum, over the sigma-stable
# partitions X, of mu(bottom, X) in the sigma-fixed subposet weighted by
# t^(blocks(X) - 1).  The interval below X factors over the cycles in which
# sigma permutes the blocks of X.


def _mu_product(blocks, sigma):
    cycles = _block_cycles(blocks, sigma)
    if cycles is None:
        return None
    prod = 1
    for block, length in cycles:
        ret = _perm_power_cycle_type(sigma, length, block)
        prod *= _mu_top(len(block), ret)
    return prod


@lru_cache(maxsize=None)
def _fixed_flat_sums(n, tau):
    """Entry [k]: sum of fixed-subposet Mobius values over the partitions of
    [n] with k >= 2 blocks stabilized by a permutation of type tau."""
    sigma = eqkl._class_rep_perm(Partition(tau))
    sums = [0] * (n + 1)
    for blocks in _set_partitions(n):
        v = _mu_product(blocks, sigma) if len(blocks) > 1 else None
        if v is not None:
            sums[len(blocks)] += v
    return tuple(sums)


@lru_cache(maxsize=None)
def _mu_top(b, tau):
    """mu(bottom, top) of the tau-fixed subposet of the partition lattice."""
    return 1 if b == 1 else -sum(_fixed_flat_sums(b, tau))


def fixed_flat_class_value(mu):
    n = mu.n
    coeffs = [0] * n
    coeffs[0] = _mu_top(n, mu.parts)
    for k, s in enumerate(_fixed_flat_sums(n, mu.parts)[2:], start=2):
        coeffs[k - 1] += s
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def test_product_formula_matches_fixed_flat_enumeration():
    for n in range(1, 9):
        values = char_values(n)
        for mu in partitions(n):
            assert values[mu.parts] == fixed_flat_class_value(mu), (n, mu)


def test_char_values_identity_and_free_action():
    # beyond the oracles' range: the identity column is the reduced
    # characteristic polynomial, and every class value vanishes at t = 1
    for n in range(2, 21):
        values = eqcore._char_powers(n)[1]
        expect = Poly([1], "t")
        for k in range(1, n):
            expect = expect * Poly([-k, 1], "t")
        assert Poly(values[(1,) * n], "t") == expect
        assert all(sum(v) == 0 for v in values.values())


# --- the integer class-value kernel against the Fraction plethysm -----------


def class_values(sym):
    """z_mu [p_mu] of a SymFn, as integer coefficient tuples."""
    out = {}
    for mu, c in sym.terms.items():
        z = centralizer_order(Partition(mu))
        vals = [v * z for v in c.coeffs]
        assert all(v.denominator == 1 for v in vals)
        out[mu] = tuple(int(v) for v in vals)
    return out


def char_data_symfn(top):
    """The characteristic data sum_r ch(chi_{S_r}) for r <= top."""
    g_sym = SymFn()
    for r in range(1, top + 1):
        g_sym = g_sym + char_poly_symfn(r)
    return g_sym


def test_integer_plethysm_matches_fraction_plethysm():
    g_sym = char_data_symfn(7)  # in full up to the largest cap
    for k in range(1, 5):
        fs = [h_sym(k)] + [t_coeff(char_poly_symfn(k), j) for j in range(k)]
        for f in fs:
            for cap in range(1, 8):
                want = class_values(homogeneous_part(plethysm(f, g_sym, cap), cap))
                got = eqcore._plethysm_part({k: class_values(f)}, cap)
                assert got == want, (k, cap)


def test_integer_plethysm_sums_over_degrees():
    g_sym = char_data_symfn(6)
    fs = {k: class_values(h_sym(k)) for k in range(1, 4)}
    for n in range(1, 7):
        want = SymFn()
        for k in fs:
            want = want + homogeneous_part(plethysm(h_sym(k), g_sym, n), n)
        assert eqcore._plethysm_part(fs, n) == class_values(want)


def test_inexact_class_value_division_raises():
    with pytest.raises(ArithmeticError):
        eqcore._trimmed({(2,): [4, 3]}, 2)
    assert eqcore._trimmed({(2,): [4, 6, 0]}, 2) == {(2,): (2, 3)}


# --- closed-form powers of the characteristic data --------------------------


def test_char_powers_match_repeated_class_mul():
    cap = 10
    g = [{}] + [char_values(r) for r in range(1, cap + 1)]
    prod = [{(): (1,)}] + [{} for _ in range(cap)]
    for m in range(cap + 1):
        for d in range(cap + 1):
            want = prod[d]
            got = eqcore._char_powers(d)[m] if m <= d else {}
            assert got == want, (d, m)
        prod = eqcore._class_mul(prod, g, cap)


def test_char_powers_first_row_is_char_values():
    for d in range(1, 21):
        assert eqcore._char_powers(d)[1] == char_values(d), d


def _walk_plethysm_part(fs, n):
    """The plethystic walk with every product multiplied out by _class_mul,
    g^m along mu = 1^m included: the path the closed form replaced."""
    g = [{}] + [char_values(r) for r in range(1, n + 1)]
    top = max(fs)
    pk = [None] + [eqcore._class_pk(g, c, n) for c in range(1, top + 1)]
    acc = {k: {} for k in fs}

    def walk(mu, prod, k, z):
        if k in fs and mu in fs[k]:
            for lam, v in prod[n].items():
                cur = acc[k].setdefault(lam, [])
                padd_into(cur, pmul(fs[k][mu], v), factorial(k) // z)
        for c in range(mu[0] if mu else 1, top - k + 1):
            nxt = eqcore._class_mul(prod, pk[c], n)
            walk((c,) + mu, nxt, k + c, z * c * (mu.count(c) + 1))

    walk((), [{(): (1,)}] + [{} for _ in range(n)], 0, 1)
    total = {}
    for k, terms in acc.items():
        for lam, v in eqcore._trimmed(terms, factorial(k)).items():
            padd_into(total.setdefault(lam, []), v)
    return eqcore._trimmed(total)


def test_eqkl_values_match_the_multiplied_out_walk():
    want = {1: {(1,): (1,)}}
    for n in range(2, 14):
        flats = _walk_plethysm_part({k: want[k] for k in range(1, n)}, n)
        rank, out = n - 1, {}
        for mu in partitions(n):
            s = list(flats.get(mu.parts, ())) + [0] * (rank + 1)
            out[mu.parts] = [s[rank - i] for i in range((rank - 1) // 2 + 1)]
        want[n] = eqcore._trimmed(out)
        assert eqcore._eqkl_values(n) == want[n], n


def _clear_char_memos():
    for memo in (eqcore._char_powers, eqcore._eqkl_values):
        memo.cache_clear()


def test_char_powers_division_by_t_power_raises(monkeypatch):
    """A necklace polynomial with a constant term makes F_1 at the class
    (1) a unit at t = 0, so the C(j, 1) row is not divisible by t."""
    real = eqcore._necklace

    def with_constant(i):
        e = real(i)
        e[0] += 1
        return e

    monkeypatch.setattr(eqcore, "_necklace", with_constant)
    _clear_char_memos()
    try:
        with pytest.raises(ArithmeticError, match="not divisible by t"):
            eqcore._char_powers(1)
        with pytest.raises(ArithmeticError, match="not divisible by t"):
            eqkl_braid(5)
    finally:
        _clear_char_memos()


def test_plethysm_part_per_degree_division_raises(monkeypatch):
    """f = p_2 / 2 has class value 1 at (2), and f[g] = p_2[g] / 2; with
    p_2[g] at the class (2) off by one, 3 is not divisible by 2!."""
    real = eqcore._class_pk

    def perturbed(g, k, cap):
        out = real(g, k, cap)
        if k == 2:
            out[2] = {(2,): (3,)}
        return out

    assert eqcore._plethysm_part({2: {(2,): (1,)}}, 2) == {(2,): (1,)}
    monkeypatch.setattr(eqcore, "_class_pk", perturbed)
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        eqcore._plethysm_part({2: {(2,): (1,)}}, 2)


@pytest.mark.parametrize(
    "n, degree, message", [(4, 0, "low read"), (5, 2, "middle"), (6, 0, "low read")]
)
def test_eqkl_consistency_checks_catch_a_perturbed_flat_sum(
    monkeypatch, n, degree, message
):
    """The flat sum of S_n at the identity, off by one in one t-degree."""
    real = eqcore._plethysm_part

    def perturbed(fs, m):
        values = real(fs, m)
        if m != n:
            return values
        identity = list(values[(1,) * m]) + [0] * m
        identity[degree] += 1
        return {**values, (1,) * m: tuple(identity)}

    monkeypatch.setattr(eqcore, "_plethysm_part", perturbed)
    eqcore._eqkl_values.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=message):
            eqkl_braid(n)
    finally:
        eqcore._eqkl_values.cache_clear()


# --- the equivariant KL polynomial ------------------------------------------


def test_eqkl_low_ranks_trivial():
    for n in (1, 2, 3):
        g = eqkl_braid(n)
        assert len(g.coeffs) == 1
        assert g.coeffs[0] == trivial(n)


def test_eqkl_degree_one_at_four():
    g = eqkl_braid(4)
    assert g.coeffs[1].dim() == 1
    # it must be one of the two linear characters; the recursion decides
    dec = specht_decompose(g.coeffs[1])
    assert sum(m * mn_character(lam, Partition((1, 1, 1, 1))) for lam, m in dec.items()) == 1


def test_eqkl_dimensions_match_kl():
    for n in range(1, EQKL_BOUND + 1):
        assert eqkl_braid(n).at_identity() == kl_braid(n), n


def test_eqkl_six_dimensions():
    dims = [c.dim() for c in eqkl_braid(6).coeffs]
    assert dims == [1, 16, 15]


def test_eqkl_honest_and_trivial_constant():
    for n in range(1, 8):
        g = eqkl_braid(n)
        assert specht_decompose(g.coeffs[0]) == {Partition((n,)): 1}
        for coeff in g.coeffs:
            for lam, m in specht_decompose(coeff).items():
                assert m.denominator == 1 and m > 0


def test_eqkl_two_paths_agree():
    for n in range(1, 7):
        assert eqkl_braid(n) == eqkl_braid_bruteforce(n)


@pytest.mark.parametrize(
    "n, degree, message", [(4, 0, "low read"), (5, 2, "middle"), (6, 0, "low read")]
)
def test_bruteforce_consistency_checks_catch_a_perturbed_class_value(
    monkeypatch, n, degree, message
):
    """One class value of the characteristic data of S_n, at the identity
    in the given t-degree, off by one: the flat sum of the whole set moves
    in that degree alone, and the check of that degree fails."""
    real = eqkl._eq_char_poly_values

    def perturbed(m):
        values = real(m)
        if m != n:
            return values
        identity = list(values[(1,) * m])
        identity[degree] += 1
        return {**values, (1,) * m: tuple(identity)}

    monkeypatch.setattr(eqkl, "_eq_char_poly_values", perturbed)
    eqkl._brute_values.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=message):
            eqkl_braid_bruteforce(n)
    finally:
        eqkl._brute_values.cache_clear()


# Tuple-coded copies of the straightening, which eqkl runs on edges coded as
# the ints b << 4 | a: a wedge is a tuple of pairs (a, b), a < b.


def _sort_edges(raw):
    """Sort wedge factors by (max, min); returns (sorted tuple, sign) or
    (None, 0) if an edge repeats."""
    keys = [(b, a) for a, b in raw]
    if len(set(keys)) < len(keys):
        return None, 0
    inversions = sum(x > y for i, x in enumerate(keys) for y in keys[i + 1 :])
    return tuple((a, b) for b, a in sorted(keys)), (-1) ** inversions


def _straighten_pairs(mono, memo):
    """Expansion of a sorted wedge in the distinct-maxima basis by the
    three-term relation x_ab x_cb = x_ac x_cb + x_ab x_ac (a < c < b)."""
    hit = memo.get(mono)
    if hit is not None:
        return hit
    k = next((k for k in range(len(mono) - 1) if mono[k][1] == mono[k + 1][1]), None)
    if k is None:
        return memo.setdefault(mono, {mono: 1})
    (a, b), (c, _) = mono[k], mono[k + 1]
    out = {}
    for pair in (((a, c), (c, b)), ((a, b), (a, c))):
        srt, sign = _sort_edges(mono[:k] + pair + mono[k + 2 :])
        if srt is None:
            continue
        for m2, c2 in _straighten_pairs(srt, memo).items():
            out[m2] = out.get(m2, 0) + sign * c2
    out = memo[mono] = {m: v for m, v in out.items() if v}
    return out


def _code(mono):
    return tuple(b << 4 | a for a, b in mono)


def _pairs(mono):
    return tuple((e & 15, e >> 4) for e in mono)


@st.composite
def wedges(draw):
    """A wedge of distinct edges of K_n (n <= 8), in a random order."""
    n = draw(st.integers(2, 8))
    edges = [(a, b) for b in range(2, n + 1) for a in range(1, b)]
    return tuple(draw(st.lists(st.sampled_from(edges), max_size=n - 1, unique=True)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wedges())
def test_coded_straightening_matches_the_tuple_coded_copy(raw):
    srt, sign = _sort_edges(raw)
    assert _code(srt) == tuple(sorted(_code(raw)))
    assert eqkl._sign(_code(raw)) == sign
    want = _straighten_pairs(srt, {})
    got = eqkl._straighten(_code(srt), {})
    assert {_pairs(m): c for m, c in got.items()} == want


def test_straightening_worked_example():
    """x_13 x_23 = x_12 x_23 + x_13 x_12 = x_12 x_23 - x_12 x_13."""
    want = {((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1}
    assert _straighten_pairs(((1, 3), (2, 3)), {}) == want
    got = eqkl._straighten(_code(((1, 3), (2, 3))), {})
    assert {_pairs(m): c for m, c in got.items()} == want


def _image(sigma, mono):
    """sigma . mono as a sorted wedge of edges, with its sign."""
    raw = tuple(tuple(sorted((sigma[a - 1], sigma[b - 1]))) for a, b in mono)
    return _sort_edges(raw)


def test_os_character_matches_straightening_every_image():
    """os_character skips the straightening of images with distinct
    maxima and of monomials whose flat sigma moves; straightening every
    image gives the same trace."""
    for n in range(1, 6):
        for i in range(n):
            memo = {}
            for mu in partitions(n):
                sigma = eqkl._class_rep_perm(mu)
                tr = 0
                for mono in os_basis(n, i):
                    srt, sign = _image(sigma, mono)
                    tr += sign * _straighten_pairs(srt, memo).get(mono, 0)
                assert os_character(n, i).value(mu) == tr


def _blocks(n, edges):
    """The flat an edge set spans, as a set of blocks of {1..n}."""
    block = {v: frozenset([v]) for v in range(1, n + 1)}
    for a, b in edges:
        merged = block[a] | block[b]
        for v in merged:
            block[v] = merged
    return frozenset(block.values())


def test_flat_and_fixes_match_the_set_partition_definition():
    """_flat gives the blocks of the flat as masks in order of their lowest
    vertex, and _block_orbits on sigma's mask images finds sigma stable on
    the flat exactly when sigma maps its blocks onto blocks."""
    for n in range(1, 7):
        for i in range(n):
            for mono in os_basis(n, i):
                flat = eqkl._flat(n, _code(mono))
                blocks = _blocks(n, mono)
                assert list(flat) == sorted(flat, key=lambda b: b & -b)
                assert len(flat) == len(blocks)
                assert {frozenset(v for v in range(1, n + 1) if b >> v - 1 & 1)
                        for b in flat} == blocks
                for mu in partitions(n):
                    sigma = eqkl._class_rep_perm(mu)
                    moved = {frozenset(sigma[v - 1] for v in b) for b in blocks}
                    stable = eqkl._block_orbits(flat, eqkl._mask_images(sigma)) is not None
                    assert stable == (moved == blocks)


def test_moved_flat_contributes_nothing_to_the_trace():
    """The fact the sigma-stable filter rests on: when sigma does not fix
    the flat of m, the straightened sigma . m has coefficient 0 on m, as
    every monomial in it spans the flat sigma moved m's flat to."""
    moved = 0
    for n in range(1, 7):
        for i in range(n):
            memo = {}
            for mu in partitions(n):
                sigma = eqkl._class_rep_perm(mu)
                mask_image = eqkl._mask_images(sigma)
                for mono in os_basis(n, i):
                    if eqkl._block_orbits(eqkl._flat(n, _code(mono)), mask_image) is not None:
                        continue
                    moved += 1
                    srt, _ = _image(sigma, mono)
                    image = eqkl._straighten(_code(srt), memo)
                    assert image.get(_code(mono), 0) == 0
                    assert {_blocks(n, _pairs(m)) for m in image} == {_blocks(n, srt)}
    assert moved > 0


def test_os_oracle_keeps_no_table_after_it_returns():
    """The straightening memo lives for one call of the cached traces, and
    the basis is not cached: after eq_char_poly(7) returns, little memory
    stays."""
    eqkl._os_traces.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eq_char_poly(7)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 * 2**20
    assert not hasattr(eqkl, "_STRAIGHT_CACHE")
    assert not hasattr(os_basis, "cache_info")


def test_eqkl_bounds():
    assert EQKL_BOUND == 18
    with pytest.raises(ValueError):
        eqkl_braid(19)
    with pytest.raises(ValueError):
        eqkl_braid_bruteforce(7)


def test_eqkl_degree_one_specht_sums_to_dimension():
    dec = specht_decompose(eqkl_braid(6).coeffs[1])
    total = sum(
        m * mn_character(lam, Partition((1,) * 6)) for lam, m in dec.items()
    )
    assert total == 16


# --- decomposition and row bounds ---------------------------------------------


def test_specht_decompose_trivial():
    for n in range(1, 7):
        assert specht_decompose(trivial(n)) == {Partition((n,)): 1}


def test_specht_decompose_regular():
    for n in range(1, 7):
        dec = specht_decompose(regular(n))
        idc = Partition((1,) * n)
        assert dec == {
            lam: Fraction(mn_character(lam, idc)) for lam in partitions(n)
        }


def test_row_bounds():
    for n in range(1, 8):
        for i in range(1, max(2, len(eqkl_braid(n).coeffs))):
            assert row_bound_check(i, n)
    # vacuous when the coefficient is absent
    assert row_bound_check(3, 4)


def test_row_bound_check_rejects_a_degree_or_n_out_of_range():
    with pytest.raises(ValueError, match="i must be positive"):
        row_bound_check(0, 4)
    with pytest.raises(ValueError, match=f"bounded at n = {EQKL_BOUND}"):
        row_bound_check(1, EQKL_BOUND + 1)


def test_row_bound_two_rows_at_degree_one():
    for n in range(4, 8):
        dec = specht_decompose(eqkl_braid(n).coeffs[1])
        assert all(len(lam) <= 2 for lam in dec)


# --- integer Specht multiplicities --------------------------------------------


def test_integer_specht_multiplicities_match_specht_decompose():
    for n in range(1, 13):
        graded = eqkl_braid(n)
        got = eqcore.specht_multiplicities(n, eqcore.eqkl_values(n))
        assert len(got) == len(graded.coeffs)
        for dec, coeff in zip(got, graded.coeffs):
            want = specht_decompose(coeff)
            assert dec == want, n
            assert all(type(m) is int for m in dec.values())
            # partitions(n) order, which the CLI's CSV rows follow
            assert list(dec) == sorted(want)


def test_integer_specht_multiplicities_of_characters():
    # t^0 the regular character, t^1 the sign, t^2 five times the indicator
    # of the 24 five-cycles, whose multiplicities are chi^lam((5))
    n, idc, cyc = 5, Partition((1,) * 5), Partition((5,))
    values = {}
    for mu in partitions(n):
        v = [factorial(n) if mu == idc else 0, (-1) ** (n - len(mu)), 5 if mu == cyc else 0]
        values[mu.parts] = tuple(v[: 3 if mu == cyc else 2])
    assert eqcore.specht_multiplicities(n, values) == [
        {lam: mn_character(lam, idc) for lam in partitions(n)},
        {idc: 1},
        {lam: mn_character(lam, cyc) for lam in partitions(n) if mn_character(lam, cyc)},
    ]


def test_integer_specht_multiplicities_reject_a_non_character():
    # the indicator of the 3-cycles: class size 2, so <f, trivial> = 2 / 3!
    with pytest.raises(ArithmeticError, match=r"\(3,\) at degree 0 is not an integer"):
        eqcore.specht_multiplicities(3, {(3,): (1,)})
    # off by one at the identity in degree 1 only
    values = dict(eqcore.eqkl_values(6))
    identity = list(values[(1,) * 6])
    identity[1] += 1
    values[(1,) * 6] = tuple(identity)
    with pytest.raises(ArithmeticError, match="at degree 1 is not an integer"):
        eqcore.specht_multiplicities(6, values)
    # the rational API divides the same sums into Fractions
    f = ClassFn(3, {Partition((3,)): 1})
    assert specht_decompose(f)[Partition((3,))] == Fraction(1, 3)


def test_eqkl_values_bounds():
    with pytest.raises(ValueError, match="n must be positive"):
        eqcore.eqkl_values(0)
    with pytest.raises(ValueError, match=f"bounded at n = {EQKL_BOUND}"):
        eqcore.eqkl_values(EQKL_BOUND + 1)
    assert eqcore.eqkl_values(6) is eqcore._eqkl_values(6)
