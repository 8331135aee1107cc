"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational arithmetic; where a criterion states an
inequality tolerance it is asserted as an exact Fraction inequality; stated
runtime budgets are asserted on a single wall-clock measurement.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on passing runs.
"""

import time
from fractions import Fraction
from math import comb, factorial

from braidkl import combinat, eqkl, fsmod, graphmat, klcore, polyseries, specseq, verify
from braidkl.combinat import Partition
from braidkl.graphmat import Graph
from braidkl.polyseries import Poly, RatFn, SeqTable, geometric_denominator
from fit_oracle import egf_form, r_extract


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_criterion_01_example_i1():
    start = time.monotonic()
    closed = all(
        klcore.d_coeff(1, n) == 2 ** (n - 1) - 1 - comb(n, 2)
        for n in range(1, 26)
    )
    seq = SeqTable(1, [klcore.d_coeff(1, n) for n in range(1, 21)])
    fit = polyseries.fit_rational(seq, {1, 2})
    expected = RatFn(Poly([0, 0, 0, 0, 1], "u"), geometric_denominator({1: 3, 2: 1}))
    fit_ok = fit == expected
    # the sign of the u^2/2 term is forced by the closed form (see the
    # decisions ledger: the source display carries a sign typo)
    egf_ok = egf_form(fit) == [
        Poly([Fraction(1, 2)], "u"),
        Poly([-1, 0, Fraction(-1, 2)], "u"),
        Poly([Fraction(1, 2)], "u"),
    ]
    r_ok = r_extract(fit, 2) == Fraction(1, 2)
    elapsed = time.monotonic() - start
    _report(
        1,
        closed and fit_ok and egf_ok and r_ok and elapsed < 5,
        f"i=1 closed form, OGF fit, EGF polynomials, r=1/2 ({elapsed:.1f}s < 5s)",
    )


def test_criterion_02_example_i2():
    start = time.monotonic()

    def s1(a, b):
        return combinat.stirling1_unsigned(a, b) if b >= 0 else 0

    closed = all(
        klcore.d_coeff(2, n)
        == s1(n, n - 2)
        - combinat.stirling2(n, n - 1) * combinat.stirling2(n - 1, 2)
        + combinat.stirling2(n, 3)
        + combinat.stirling2(n, 4)
        for n in range(1, 26)
    )
    seq = SeqTable(1, [klcore.d_coeff(2, n) for n in range(1, 31)])
    fit = polyseries.fit_rational(seq, {1, 2, 3, 4})
    expected = RatFn(
        Poly([0] * 6 + [15, -50, 40, 4], "u"),
        geometric_denominator({1: 5, 2: 3, 4: 1}),
    )
    fit_ok = fit == expected
    r_ok = r_extract(fit, 4) == Fraction(1, 24)
    elapsed = time.monotonic() - start
    _report(
        2,
        closed and fit_ok and r_ok and elapsed < 30,
        f"i=2 Stirling expression, OGF fit, r=1/24 ({elapsed:.1f}s < 30s)",
    )


def test_criterion_03_dfg_constants():
    start = time.monotonic()
    ok = True
    for i in (1, 2):
        seq = SeqTable(1, [klcore.d_coeff(i, n) for n in range(1, 21 + 10 * (i - 1))])
        fit = polyseries.fit_rational(seq, set(range(1, 2 * i + 1)))
        target = Fraction(klcore.d_coeff(i - 1, 2 * i), factorial(2 * i))
        ok = ok and r_extract(fit, 2 * i) == target
    target3 = Fraction(klcore.d_coeff(2, 6), factorial(6))
    assert target3 == Fraction(15, 720)
    (_, _, ratio30), = specseq.ratio_diagnostic(3, [30])
    ok = ok and abs(ratio30 - target3) < Fraction(1, 100)
    elapsed = time.monotonic() - start
    _report(
        3,
        ok and elapsed < 120,
        f"r_2i = dim D_(i-1)(2i)/(2i)! for i=1,2; i=3 window within 1/100 "
        f"({elapsed:.1f}s < 120s)",
    )


def test_criterion_04_euler_identity_grid():
    start = time.monotonic()
    failures = [
        (i, n)
        for i in range(1, 4)
        for n in range(i + 1, 13)
        if not specseq.euler_identity(i, n)["equal"]
    ]
    elapsed = time.monotonic() - start
    _report(
        4,
        not failures and elapsed < 60,
        f"alternating cell sums equal KL coefficients, i<=3, n<=12 "
        f"({elapsed:.1f}s < 60s); failures={failures}",
    )


def test_criterion_05_conjecture_checker():
    start = time.monotonic()
    r2 = klcore.conjecture_top_check(2)
    r3 = klcore.conjecture_top_check(3)
    r4_first = klcore.conjecture_top_check(4)
    r4_second = klcore.conjecture_top_check(4)
    required = (
        r2["computed"] == r2["predicted"] == 1
        and r3["computed"] == r3["predicted"] == 15
    )
    reported = (
        r4_first["predicted"] == 735
        and r4_first["computed"] == klcore.d_coeff(3, 8)
        and "equal" in r4_first
        and r4_first == r4_second  # stable across runs
    )
    elapsed = time.monotonic() - start
    _report(
        5,
        required and reported and elapsed < 120,
        f"i=2: 1=1, i=3: 15=15; i=4 report computed={r4_first['computed']} "
        f"predicted=735 equal={r4_first['equal']} ({elapsed:.1f}s < 120s)",
    )


def test_criterion_06_equivariant_suite():
    ok = True
    for n in range(1, 8):
        graded = eqkl.eqkl_braid(n)
        ok = ok and graded.at_identity() == klcore.kl_braid(n)
        ok = ok and eqkl.specht_decompose(graded.coeffs[0]) == {
            Partition((n,)): 1
        }
        for coeff in graded.coeffs:
            for lam, mult in eqkl.specht_decompose(coeff).items():
                ok = ok and mult.denominator == 1 and mult > 0
        for i in range(1, len(graded.coeffs)):
            ok = ok and eqkl.row_bound_check(i, n)
    for n in range(1, 7):
        ok = ok and eqkl.eqkl_braid(n) == eqkl.eqkl_braid_bruteforce(n)
    # optional extension: n = 8, 9 within the 10 minute budget
    start = time.monotonic()
    extended = []
    for n in (8, 9):
        if time.monotonic() - start > 600:
            print(f"ACCEPTANCE 6: notice - skipped n={n} (budget exceeded)")
            break
        graded = eqkl.eqkl_braid(n)
        ok = ok and graded.at_identity() == klcore.kl_braid(n)
        for i in range(1, len(graded.coeffs)):
            ok = ok and eqkl.row_bound_check(i, n)
        extended.append(n)
    _report(
        6,
        ok,
        f"equivariant dims/honesty/row bounds n<=7, two paths agree n<=6, "
        f"extended to n={extended}",
    )


def test_criterion_07_fs_suite():
    start = time.monotonic()
    gen = all(fsmod.h1_generation_check(n) for n in range(2, 9))
    parity = fsmod.Surjection(3, 2, (1, 2, 1))
    ex1 = fsmod.h1_pullback(parity, fsmod.H1Vector.basis(2, 1, 2)) == fsmod.H1Vector(
        3, {(1, 2): 1, (2, 3): 1}
    )
    triple = [
        fsmod.h1_pullback(f, fsmod.H1Vector.basis(2, 1, 2))
        for f in (
            fsmod.Surjection(3, 2, (1, 2, 1)),
            fsmod.Surjection(3, 2, (1, 1, 2)),
            fsmod.Surjection(3, 2, (1, 2, 2)),
        )
    ]
    ex2 = triple == [
        fsmod.H1Vector(3, {(1, 2): 1, (2, 3): 1}),
        fsmod.H1Vector(3, {(1, 3): 1, (2, 3): 1}),
        fsmod.H1Vector(3, {(1, 2): 1, (1, 3): 1}),
    ]
    bound = all(
        fsmod.hom_fs_count(n, m) <= m**n
        for m in range(1, 7)
        for n in range(m, 21)
    )
    elapsed = time.monotonic() - start
    _report(
        7,
        gen and ex1 and ex2 and bound and elapsed < 30,
        f"H1 generation n<=8, both pullback examples, hom bound grid "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_08_relative_suite():
    ok = True
    for gamma in (Graph(0), Graph(1), Graph(2, [(0, 1)])):
        for n in range(1, 9 - gamma.n):
            if gamma.n + n < 3:
                continue
            ok = ok and specseq.euler_identity_graph(gamma, 1, n)["equal"]
    ratio = Fraction(klcore.d_coeff_graph(Graph(1), 1, 22), 2**22)
    ok = ok and abs(ratio - 1) < Fraction(1, 50)
    graphs = [
        complete(n) for n in range(2, 8)
    ] + [
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        Graph(6, [(k, (k + 1) % 6) for k in range(6)]),
        Graph(7, [(0, k) for k in range(1, 7)]),
        graphmat.cone_extend(Graph(3, [(0, 1), (1, 2)]), 3),
        Graph(8, [(k, (k + 1) % 8) for k in range(8)] + [(0, 4), (1, 5)]),
    ]
    for g in graphs:
        ok = ok and klcore.c1_count(g) == klcore.kl_graphic(g).coeff(1)
    _report(
        8,
        ok,
        f"relative Euler identities, cone-point ratio |{ratio} - 1| < 1/50, "
        "corank-1 shortcut matches the recursion on all test graphs",
    )


def test_criterion_09_oracle_equivalences():
    braid_ok = all(
        klcore.kl_braid(n) == klcore.kl_graphic(complete(n)) for n in range(1, 9)
    )
    os_ok = all(
        len(eqkl.os_basis(n, i)) == combinat.stirling1_unsigned(n, n - i)
        for n in range(1, 8)
        for i in range(n)
    )
    vanish_ok = all(
        eqkl.eq_char_poly(n).eval_t(1).is_zero() for n in range(2, 7)
    )
    _report(
        9,
        braid_ok and os_ok and vanish_ok,
        "braid fast path vs generic recursion n<=8; OS dimensions n<=7; "
        "free-action vanishing at t=1 for n in [2,6]",
    )


def test_criterion_10_property_suites():
    start = time.monotonic()
    checks = verify.run_suite("all")
    failures = [c["name"] for c in checks if not c["ok"]]
    elapsed = time.monotonic() - start
    _report(
        10,
        not failures and elapsed < 900,
        f"verify --suite all: {len(checks)} checks green in {elapsed:.1f}s "
        f"< 900s; failures={failures}",
    )
