"""Polynomials, rational functions, series, fits, partial fractions, EGFs."""

import copy
import itertools
import pickle
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkl import klcore
from braidkl.polyseries import (
    InsufficientDataError,
    Poly,
    RatFn,
    SeqTable,
    fit_rational,
    geometric_denominator,
    series,
)
from fit_oracle import egf_form, partial_fractions, r_extract


def h1_ratfn():
    return RatFn(Poly([0, 0, 0, 0, 1], "u"), geometric_denominator({1: 3, 2: 1}))


def h2_ratfn():
    return RatFn(
        Poly([0] * 6 + [15, -50, 40, 4], "u"),
        geometric_denominator({1: 5, 2: 3, 4: 1}),
    )


def oracle_long_division(num, den, k):
    """Series coefficients of num/den with den(0)=1, independent of RatFn."""
    out = []
    for n in range(k + 1):
        a = Fraction(num[n]) if n < len(num) else Fraction(0)
        for j in range(1, min(n, len(den) - 1) + 1):
            a -= den[j] * out[n - j]
        out.append(a)
    return out


# --- Poly ------------------------------------------------------------------


def test_poly_basics():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert (p + q).coeffs == (1, 3, 3)
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (p - p).coeffs == ()
    assert p(2) == 17
    assert Poly([1, 0, 0]).coeffs == (1,)
    assert (q**3).coeffs == (0, 0, 0, 1)
    assert p.coeff(10) == 0


def test_poly_divmod_and_gcd():
    a = Poly([1, -3, 3, -1])  # (1-t)^3
    b = Poly([1, -1])
    q, r = divmod(a, b)
    assert not r
    assert q * b == a
    g = Poly.gcd(Poly([1, -1]) * Poly([2, 1]), Poly([1, -1]) * Poly([5, 7]))
    assert g == Poly([-1, 1])  # monic normalization
    q2, r2 = divmod(Poly([1, 1]), Poly([0, 0, 1]))
    assert q2 == Poly([]) and r2 == Poly([1, 1])
    # an operand Poly cannot take is a type error, not a zero divisor
    with pytest.raises(TypeError):
        Poly([1, 1]) // 2.5
    with pytest.raises(TypeError):
        divmod(Poly([1, 1]), "x")
    with pytest.raises(ZeroDivisionError):
        Poly([1, 1]) // 0


def test_poly_reflect():
    p = Poly([1, 4, 2])
    assert p.reflect(4).coeffs == (0, 0, 2, 4, 1)
    with pytest.raises(ValueError):
        p.reflect(1)


def test_ratfn_normalization():
    r = RatFn(Poly([0, 2], "u"), Poly([2, -2], "u"))
    assert r.num == Poly([0, 1], "u") and r.den == Poly([1, -1], "u")
    cancel = RatFn(Poly([0, 1, -1], "u"), Poly([1, -1], "u"))  # u(1-u)/(1-u)
    assert cancel.num == Poly([0, 1], "u") and cancel.den == Poly([1], "u")
    with pytest.raises(ValueError):
        RatFn(Poly([1], "u"), Poly([0, 1], "u"))  # 1/u
    with pytest.raises(ZeroDivisionError):
        RatFn(Poly([1], "u"), Poly([], "u"))


# --- series ----------------------------------------------------------------


def test_series_geometric():
    ones = series(RatFn(1, Poly([1, -1], "u")), 3)
    assert ones.values == (1, 1, 1, 1)


def test_series_h1_matches_closed_form():
    got = series(h1_ratfn(), 7)
    for n in range(8):
        want = 2 ** (n - 1) - 1 - comb(n, 2) if n >= 1 else 0
        assert got.value_at(n) == want
    assert [got.value_at(n) for n in range(4, 8)] == [1, 5, 16, 42]


def test_series_h2_u7_against_long_division():
    den = geometric_denominator({1: 5, 2: 3, 4: 1})
    oracle = oracle_long_division(
        [0] * 6 + [15, -50, 40, 4], [c for c in den.coeffs], 7
    )
    assert oracle[7] == 175
    assert series(h2_ratfn(), 7).value_at(7) == 175


# --- fitting ----------------------------------------------------------------


def test_fit_recovers_h1():
    seq = series(h1_ratfn(), 20)
    data = SeqTable(1, seq.values[1:])
    assert fit_rational(data, {1, 2}) == h1_ratfn()


def test_fit_recovers_h2_with_superfluous_pole():
    seq = series(h2_ratfn(), 30)
    data = SeqTable(1, seq.values[1:])
    fit = fit_rational(data, {1, 2, 3, 4})
    assert fit == h2_ratfn()
    assert fit.num == Poly([0] * 6 + [15, -50, 40, 4], "u")


def test_fit_zero_sequence():
    fit = fit_rational(SeqTable(1, [0] * 16), {1, 2})
    assert fit == RatFn(0)
    assert not fit


def test_fit_insufficient_data_is_distinct():
    with pytest.raises(InsufficientDataError):
        fit_rational(SeqTable(1, [0] * 10), {1})
    # enough data but no candidate matches factorial growth
    assert fit_rational(SeqTable(1, [factorial(n) for n in range(1, 40)]), {1}, 8) is None


def test_fit_roundtrip_on_ansatz_family():
    family = [
        RatFn(Poly([1, 3], "u"), geometric_denominator({2: 2})),
        RatFn(Poly([0, 0, 7], "u"), geometric_denominator({1: 1, 3: 1})),
        RatFn(Poly([5], "u"), geometric_denominator({1: 2, 2: 1, 3: 1})),
    ]
    for target in family:
        upto = 2 * target.den.degree() + 16
        data = series(target, upto)
        fit = fit_rational(data, {1, 2, 3}, mult_cap=4)
        assert fit == target
        assert series(fit, upto).values == data.values


def fraction_fit_oracle(seq, poles, mult_cap=8):
    """The Fraction candidate search that fit_rational replaced: every
    multiplicity vector of each total, filtered from the full product of
    ranges in ascending lexicographic order, with its denominator rebuilt
    as a Poly and multiplied into the data in Fractions."""
    poles = sorted(set(int(j) for j in poles))
    if any(j < 1 for j in poles):
        raise ValueError("poles must be positive integers")
    end = seq.end
    a = [Fraction(0)] * (end + 1)
    for i, v in enumerate(seq.values):
        a[seq.start + i] = v
    for total in range(mult_cap * len(poles) + 1):
        budget = total + 10
        if end < budget + 5:
            raise InsufficientDataError(
                f"data through index {end} cannot validate candidates of "
                f"denominator degree {total} (need index {budget + 5})"
            )
        for vec in itertools.product(range(min(mult_cap, total) + 1), repeat=len(poles)):
            if sum(vec) != total:
                continue
            den = geometric_denominator(dict(zip(poles, vec)))
            c = [
                a[n] + sum(den.coeff(k) * a[n - k] for k in range(1, min(n, den.degree()) + 1))
                for n in range(end + 1)
            ]
            if any(c[budget + 1 :]):
                continue
            fit = RatFn(Poly(c[: budget + 1], "u"), den)
            assert fit.den == den, "fit unexpectedly reducible"
            return fit
    return None


def same_outcome(seq, poles, mult_cap=8):
    """fit_rational and the oracle agree: the same RatFn (or None), or the
    same InsufficientDataError message.  Returns the common fit."""
    try:
        want = fraction_fit_oracle(seq, poles, mult_cap)
    except InsufficientDataError as exc:
        with pytest.raises(InsufficientDataError) as got:
            fit_rational(seq, poles, mult_cap)
        assert str(got.value) == str(exc)
        raise
    got = fit_rational(seq, poles, mult_cap)
    assert got == want
    if got is not None:
        assert got.num.var == want.num.var == "u"
    return got


def _ogf_data(i, n_max):
    return SeqTable(1, [klcore.d_coeff(i, n) for n in range(1, n_max + 1)])


def _ansatz_data(target):
    return series(target, 2 * target.den.degree() + 16)


# every (data, poles, mult_cap) that verify and the tests above pass to
# fit_rational
ORACLE_INPUTS = [
    pytest.param(lambda: _ogf_data(1, 20), {1, 2}, 8, id="paper-i1"),
    pytest.param(lambda: _ogf_data(2, 30), {1, 2, 3, 4}, 8, id="paper-i2"),
    pytest.param(lambda: _ansatz_data(h1_ratfn()), {1, 2}, 8, id="roundtrip-h1"),
    pytest.param(lambda: _ansatz_data(h2_ratfn()), {1, 2, 4}, 8, id="roundtrip-h2"),
    pytest.param(lambda: SeqTable(1, series(h1_ratfn(), 20).values[1:]), {1, 2}, 8, id="h1"),
    pytest.param(
        lambda: SeqTable(1, series(h2_ratfn(), 30).values[1:]), {1, 2, 3, 4}, 8, id="h2"
    ),
    pytest.param(lambda: SeqTable(1, [0] * 16), {1, 2}, 8, id="zero"),
    pytest.param(lambda: SeqTable(1, [0] * 10), {1}, 8, id="too-short"),
    pytest.param(
        lambda: SeqTable(1, [factorial(n) for n in range(1, 40)]), {1}, 8, id="factorial"
    ),
    pytest.param(
        lambda: _ansatz_data(RatFn(Poly([1, 3], "u"), geometric_denominator({2: 2}))),
        {1, 2, 3},
        4,
        id="ansatz-1",
    ),
    pytest.param(
        lambda: _ansatz_data(RatFn(Poly([0, 0, 7], "u"), geometric_denominator({1: 1, 3: 1}))),
        {1, 2, 3},
        4,
        id="ansatz-2",
    ),
    pytest.param(
        lambda: _ansatz_data(RatFn(Poly([5], "u"), geometric_denominator({1: 2, 2: 1, 3: 1}))),
        {1, 2, 3},
        4,
        id="ansatz-3",
    ),
    pytest.param(lambda: SeqTable(0, [1] * 20), set(), 8, id="no-poles-none"),
    pytest.param(
        lambda: SeqTable(0, [1, 2, Fraction(3, 4)] + [0] * 20), set(), 8, id="no-poles-poly"
    ),
]


@pytest.mark.parametrize("make,poles,mult_cap", ORACLE_INPUTS)
def test_fit_matches_fraction_oracle(make, poles, mult_cap):
    try:
        same_outcome(make(), poles, mult_cap)
    except InsufficientDataError:
        pass


def test_fit_honours_mult_cap_on_every_pole():
    # (1-2u)^4 needs the last pole's multiplicity above the cap
    over_cap = series(RatFn(1, geometric_denominator({2: 4})), 40)
    assert same_outcome(over_cap, {1, 2}, mult_cap=3) is None
    assert same_outcome(over_cap, {1, 2}, mult_cap=4) == RatFn(1, geometric_denominator({2: 4}))


def test_fit_numerator_budget_is_total_plus_ten():
    # u^12/(1-2u)^2 fits with its numerator exactly at the budget 2 + 10;
    # u^13/(1-2u)^2 overshoots it by one, and so does every larger candidate
    at_budget = RatFn(Poly([0] * 12 + [1], "u"), geometric_denominator({2: 2}))
    assert same_outcome(series(at_budget, 40), {1, 2}, mult_cap=3) == at_budget
    past_budget = RatFn(Poly([0] * 13 + [1], "u"), geometric_denominator({2: 2}))
    assert same_outcome(series(past_budget, 40), {1, 2}, mult_cap=3) is None


def test_fit_rejects_nonpositive_pole():
    with pytest.raises(ValueError, match="positive"):
        fit_rational(SeqTable(1, [1] * 20), {0, 1})


def test_fit_rejects_negative_start():
    # the terms at -2 and -1 would otherwise be dropped: the fit came out 1/(1-u)
    with pytest.raises(ValueError, match="below index 0"):
        fit_rational(SeqTable(-2, [5, 7] + [1] * 20), {1})


_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def ratfn_targets(draw):
    """(target, search poles, start): poles from {1..4} with multiplicity at
    most 3, a Fraction numerator divisible by u^start, and a search pole
    set holding the target's poles and perhaps others."""
    mults = draw(st.dictionaries(st.integers(1, 4), st.integers(1, 3), min_size=1))
    start = draw(st.integers(0, 2))
    coeffs = draw(st.lists(_fractions, min_size=1, max_size=6))
    coeffs[-1] = coeffs[-1] or Fraction(1)  # a nonzero numerator
    target = RatFn(Poly([0] * start + coeffs, "u"), geometric_denominator(mults))
    poles = set(mults) | draw(st.sets(st.integers(1, 4), max_size=2))
    return target, poles, start


def _data(target, start, end):
    return SeqTable(start, series(target, end).values[start:])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ratfn_targets())
def test_fit_matches_oracle_on_random_targets(case):
    target, poles, start = case
    fit = same_outcome(_data(target, start, 2 * target.den.degree() + 16), poles, 3)
    assert fit == target


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ratfn_targets(), _fractions.filter(bool))
def test_fit_of_perturbed_data_is_none_for_both(case, delta):
    # a change at index 36 lies beyond every candidate's numerator budget
    # (at most 3 * 4 + 10) plus the target's denominator degree (at most 12)
    target, poles, start = case
    data = _data(target, start, 36)
    values = data.values[:-1] + (data.values[-1] + delta,)
    assert same_outcome(SeqTable(start, values), poles, 3) is None


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ratfn_targets())
def test_fit_on_short_data_raises_for_both(case):
    # data through index 14 + d cannot validate degree d, the least degree
    # of a denominator that fits, so the search gives up before reaching it
    target, poles, start = case
    d = target.den.degree()
    with pytest.raises(InsufficientDataError):
        same_outcome(_data(target, start, 14 + d), poles, 3)


# --- partial fractions -------------------------------------------------------


def test_partial_fractions_simple():
    poly, terms = partial_fractions(RatFn(1, Poly([1, -1], "u")))
    assert poly == Poly([], "u")
    assert terms == [(1, 1, Fraction(1))]


def test_partial_fractions_h_examples():
    _, terms = partial_fractions(h1_ratfn())
    assert (2, 1, Fraction(1, 2)) in terms
    _, terms2 = partial_fractions(h2_ratfn())
    assert (4, 1, Fraction(1, 24)) in terms2
    # independent residue oracle: evaluate num/(den without (1-4u)) at u=1/4
    h2 = h2_ratfn()
    rest = geometric_denominator({1: 5, 2: 3})
    assert h2.num(Fraction(1, 4)) / rest(Fraction(1, 4)) == Fraction(1, 24)


def test_partial_fractions_recombine():
    for r in (h1_ratfn(), h2_ratfn(), RatFn(Poly([3, 1], "u"), geometric_denominator({2: 3}))):
        poly, terms = partial_fractions(r)
        total = RatFn(poly)
        for j, m, c in terms:
            total = total + RatFn(Poly([c], "u"), geometric_denominator({j: m}))
        assert total == r


def test_partial_fractions_rejects_foreign_factor():
    with pytest.raises(ValueError):
        partial_fractions(RatFn(Poly([1], "u"), Poly([1, 0, 1], "u")))


# --- r extraction -------------------------------------------------------------


def test_r_extract_values():
    assert r_extract(h1_ratfn(), 2) == Fraction(1, 2)
    assert r_extract(h2_ratfn(), 4) == Fraction(1, 24)
    assert r_extract(RatFn(1, Poly([1, -1], "u")), 2) == 0


def test_r_extract_errors():
    double = RatFn(1, geometric_denominator({2: 2}))
    with pytest.raises(ValueError, match="limit does not exist"):
        r_extract(double, 2)
    beyond = RatFn(1, geometric_denominator({3: 1}))
    with pytest.raises(ValueError, match="beyond"):
        r_extract(beyond, 2)


def test_r_extract_window_convergence():
    # |a_n / d^n - r| strictly decreasing over the last five indices
    for r, d in ((h1_ratfn(), 2), (h2_ratfn(), 4)):
        lim = r_extract(r, d)
        seq = series(r, 30)
        errs = [abs(Fraction(seq.value_at(n)) / d**n - lim) for n in range(26, 31)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


# --- exponential form ---------------------------------------------------------


def test_egf_form_h1():
    # the u^2/2 term enters negatively: sum C(n,2) u^n/n! = (u^2/2)e^u
    # and the dimension formula subtracts it
    assert egf_form(h1_ratfn()) == [
        Poly([Fraction(1, 2)], "u"),
        Poly([-1, 0, Fraction(-1, 2)], "u"),
        Poly([Fraction(1, 2)], "u"),
    ]


def test_egf_form_h2_top_is_r4():
    ps = egf_form(h2_ratfn())
    assert len(ps) == 5
    assert ps[4] == Poly([Fraction(1, 24)], "u")
    assert ps[4].coeff(0) == r_extract(h2_ratfn(), 4)


def test_egf_form_zero():
    assert egf_form(RatFn(0)) == [Poly([], "u")]


@pytest.mark.parametrize("r", [h1_ratfn(), h2_ratfn()])
def test_egf_form_reproduces_series(r):
    # n! [u^n] sum_j p_j(u) e^{ju} equals the ordinary coefficients, n <= 25
    ps = egf_form(r)
    seq = series(r, 25)
    for n in range(26):
        total = Fraction(0)
        for j, p in enumerate(ps):
            for k in range(min(p.degree(), n) + 1):
                c = p.coeff(k)
                if c:
                    total += c * Fraction(j ** (n - k), factorial(n - k))
        assert total * factorial(n) == seq.value_at(n)


def test_seqtable_equality_and_hash():
    t = SeqTable(1, [1, 2, 3])
    same = SeqTable(1, (Fraction(1), Fraction(4, 2), 3))
    assert t == same and hash(t) == hash(same)
    assert hash(t) == hash((1, t.values))
    assert len({t, same}) == 1
    for other in (SeqTable(2, [1, 2, 3]), SeqTable(1, [1, 2, 4]), SeqTable(1, [1, 2])):
        assert t != other
    assert t != (1, t.values)


def test_seqtable_is_immutable():
    t = SeqTable(1, [1, 2])
    for name, value in (("start", 0), ("values", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
    with pytest.raises(AttributeError):
        del t.start
    assert t == SeqTable(1, [1, 2])
    assert copy.copy(t) == t == pickle.loads(pickle.dumps(t))


def test_seqtable_repr_and_fraction_values():
    t = SeqTable(3, [1, Fraction(1, 2)])
    assert repr(t) == "SeqTable(start=3, values=(Fraction(1, 1), Fraction(1, 2)))"
    assert all(type(v) is Fraction for v in t.values)
    assert SeqTable(start=3, values=[1, Fraction(1, 2)]) == t


def test_seqtable_index_range():
    t = SeqTable(4, [10, 11, 12])
    assert t.end == 6
    assert [t.value_at(n) for n in (4, 5, 6)] == [10, 11, 12]
    for n in (3, 7):
        with pytest.raises(IndexError, match=f"index {n} outside \\[4, 6\\]"):
            t.value_at(n)
    assert SeqTable(0, []).end == -1
