"""Surjection category bookkeeping and degree-one homology structure maps."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkl.combinat import stirling2
from braidkl.fsmod import (
    GrowthReport,
    H1Vector,
    Surjection,
    _add_pivot,
    _h1_generation,
    compose,
    enumerate_surjections,
    growth_diagnostic,
    h1_generation_check,
    h1_generation_witnesses,
    h1_pullback,
    hom_fs_count,
)
from braidkl.klcore import d_coeff
from braidkl.polyseries import SeqTable


def e(n, a, b):
    return H1Vector.basis(n, a, b)


# --- surjections -----------------------------------------------------------


def test_surjection_validation():
    with pytest.raises(ValueError):
        Surjection(3, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        Surjection(2, 3, (1, 2))
    with pytest.raises(ValueError):
        Surjection(3, 2, (1, 2))


def test_identity_composition():
    for f in enumerate_surjections(4, 2):
        assert compose(f, Surjection.identity(4)) == f
        assert compose(Surjection.identity(2), f) == f


def test_compose_mismatch():
    f = Surjection(3, 2, (1, 2, 1))
    with pytest.raises(ValueError):
        compose(f, f)


def test_enumeration_counts():
    assert len(enumerate_surjections(3, 2)) == 6
    assert len(enumerate_surjections(4, 2)) == 14
    for n in range(1, 6):
        for m in range(1, n + 1):
            assert len(enumerate_surjections(n, m)) == factorial(m) * stirling2(n, m)


def test_composition_is_surjective_and_associative():
    for g in enumerate_surjections(4, 3):
        for f in enumerate_surjections(3, 2):
            fg = compose(f, g)
            assert set(fg.values) == {1, 2}
    h = Surjection(2, 1, (1, 1))
    g = Surjection(3, 2, (1, 2, 2))
    f = Surjection(4, 3, (1, 2, 3, 3))
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_hom_fs_count():
    for n in range(1, 7):
        assert hom_fs_count(n, n) == factorial(n)
    assert hom_fs_count(3, 2) == 6
    assert hom_fs_count(5, 2) == 30
    for m in range(1, 7):
        for n in range(m, 21):
            assert hom_fs_count(n, m) <= m**n


# --- pullbacks --------------------------------------------------------------


def test_pullback_parity_map():
    parity = Surjection(3, 2, (1, 2, 1))
    assert h1_pullback(parity, e(2, 1, 2)) == H1Vector(3, {(1, 2): 1, (2, 3): 1})


def test_pullback_singleton_fibers():
    # i -> 1, j -> 2, everything else to 3 sends e12 to e_ij
    for n in range(3, 6):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            values = tuple(
                1 if v == i else 2 if v == j else 3 for v in range(1, n + 1)
            )
            f = Surjection(n, 3, values)
            assert h1_pullback(f, e(3, 1, 2)) == e(n, i, j)


def test_pullback_identity():
    v = H1Vector(4, {(1, 2): 3, (2, 4): Fraction(-1, 2)})
    assert h1_pullback(Surjection.identity(4), v) == v


def oracle_pullback_via_cohomology_matrix(f, v):
    """Dualize the map x_ij -> x_f(i)f(j) explicitly."""
    src_pairs = list(itertools.combinations(range(1, f.n + 1), 2))
    tgt_pairs = list(itertools.combinations(range(1, f.m + 1), 2))
    # matrix rows = target pairs, columns = source pairs, entry 1 when
    # the source pair maps onto the target pair (never degenerate here)
    out = {}
    for i, j in src_pairs:
        fi, fj = f(i), f(j)
        if fi == fj:
            continue
        key = (min(fi, fj), max(fi, fj))
        coeff = v.coords.get(key, Fraction(0))
        if coeff:
            out[(i, j)] = out.get((i, j), Fraction(0)) + coeff
    return H1Vector(f.n, out)


def test_pullback_matches_dualized_matrix():
    for n in range(2, 6):
        for f in enumerate_surjections(n, 2):
            v = e(2, 1, 2)
            assert h1_pullback(f, v) == oracle_pullback_via_cohomology_matrix(f, v)


def test_pullback_contravariant_functoriality():
    # exhaustive over composable pairs g: [n] ->> [m], f: [m] ->> [k], n <= 5
    for n in range(2, 6):
        for m in range(1, n + 1):
            for k in range(1, m + 1):
                if k < 2:
                    continue  # H1 of a singleton is zero; nothing to pull back
                for g in enumerate_surjections(n, m):
                    for f in enumerate_surjections(m, k):
                        v = e(k, 1, 2) if k >= 2 else None
                        assert h1_pullback(compose(f, g), v) == h1_pullback(
                            g, h1_pullback(f, v)
                        )
    for g in enumerate_surjections(4, 3):
        for f in enumerate_surjections(3, 2):
            v = H1Vector(2, {(1, 2): Fraction(5, 3)})
            assert h1_pullback(compose(f, g), v) == h1_pullback(
                g, h1_pullback(f, v)
            )


# --- generation -------------------------------------------------------------


def test_generation_families():
    for n in range(2, 9):
        assert h1_generation_check(n)


def test_generation_witness_triple_at_three():
    expected_span = [
        H1Vector(3, {(1, 2): 1, (2, 3): 1}),
        H1Vector(3, {(1, 3): 1, (2, 3): 1}),
        H1Vector(3, {(1, 2): 1, (1, 3): 1}),
    ]
    # the documented spanning triple really spans: e12 = (v1 - v2 + v3)/2 etc.
    half = Fraction(1, 2)
    v1, v2, v3 = expected_span
    assert v1.scale(half) + v2.scale(-half) + v3.scale(half) == e(3, 1, 2)
    assert v1.scale(-half) + v2.scale(half) + v3.scale(half) == e(3, 1, 3)
    assert v1.scale(half) + v2.scale(half) + v3.scale(-half) == e(3, 2, 3)
    witnesses = h1_generation_witnesses(3)
    assert len(witnesses) == comb(3, 2)
    span = [h1_pullback(f, e(2, 1, 2)) for f in witnesses]
    for vec in expected_span:
        assert vec in span


def test_generation_witness_count_is_rank():
    for n in range(2, 8):
        assert len(h1_generation_witnesses(n)) == comb(n, 2)


def fraction_rank_oracle(rows):
    """The Fraction row reduction that fraction-free elimination replaced:
    each row is reduced in column order against the pivot rows, scaled to a
    leading 1.  Returns (column -> pivot row, indices of the rows that became
    pivots)."""
    pivots, raised = {}, []
    for idx, row in enumerate(rows):
        row = [Fraction(x) for x in row]
        for col in range(len(row)):
            if not row[col]:
                continue
            prow = pivots.get(col)
            if prow is None:
                inv = 1 / row[col]
                pivots[col] = [x * inv for x in row]
                raised.append(idx)
                break
            factor = row[col]
            row = [x - factor * y for x, y in zip(row, prow)]
    return pivots, raised


def integer_elimination(rows):
    """_add_pivot over the rows, in the shape of fraction_rank_oracle, with
    each pivot row scaled to a leading 1."""
    pivots, raised = {}, []
    for idx, row in enumerate(rows):
        if _add_pivot(pivots, list(row)):
            raised.append(idx)
    return {c: [Fraction(x, r[c]) for x in r] for c, r in pivots.items()}, raised


def test_generation_matches_fraction_oracle():
    for n in range(2, 9):
        index = {p: k for k, p in enumerate(itertools.combinations(range(1, n + 1), 2))}
        surjections = enumerate_surjections(n, 2)
        rows = []
        for f in surjections:
            row = [0] * len(index)
            for key, c in h1_pullback(f, e(2, 1, 2)).coords.items():
                row[index[key]] = c
            rows.append(row)
        pivots, raised = fraction_rank_oracle(rows)
        want = (len(pivots) == comb(n, 2), [surjections[i].values for i in raised])
        ok, witnesses = _h1_generation(n)
        assert (ok, [f.values for f in witnesses]) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-6, 6), min_size=width, max_size=width), max_size=8
        )
    )
)
def test_fraction_free_elimination_matches_oracle(rows):
    assert integer_elimination(rows) == fraction_rank_oracle(rows)


# --- growth diagnostics --------------------------------------------------------


def test_growth_h1_dimensions_decrease():
    dims = SeqTable(4, [comb(n, 2) for n in range(4, 21)])
    rep = growth_diagnostic(dims, 2)
    assert rep.verdict == "monotone decreasing over window"


def test_growth_constant_zero():
    rep = growth_diagnostic(SeqTable(1, [0] * 8), 4)
    assert rep.verdict == "stabilizing"
    assert rep.estimate == 0


def test_growth_kl_linear_coefficient():
    dims = SeqTable(4, [d_coeff(1, n) for n in range(4, 26)])
    rep = growth_diagnostic(dims, 2)
    assert rep.verdict == "stabilizing"
    assert abs(rep.estimate - Fraction(1, 2)) < Fraction(1, 100)


def test_growth_needs_window():
    with pytest.raises(ValueError):
        growth_diagnostic(SeqTable(1, [1, 2, 3]), 2)


def test_growth_inconclusive_on_oscillation():
    rep = growth_diagnostic(SeqTable(1, [1, 5, 2, 6, 3, 7, 4]), 1)
    assert rep.verdict == "inconclusive"
