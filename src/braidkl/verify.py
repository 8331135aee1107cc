"""Named verification suites tying the library together: closed forms,
generating-function fits, Euler identities, FS checks, the top-coefficient
conjecture report, the relative (cone-graph) checks, and assorted
cross-oracle properties.  Each check is a dict of name, ok, detail and the
monotonic time it was made at.

Each suite imports the braidkl modules it uses at its top, so a run of one
suite loads only those: `properties` loads neither fsmod nor specseq, `fs`
neither eqkl nor specseq, and the other suites neither eqkl nor fsmod.  The
paper suites read their generating functions off specseq.form_fit and load
no polyseries; only `properties` fits, in its polyseries round trip."""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, factorial
from operator import mul


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": str(detail), "at": time.monotonic()}


# The generating functions of the paper's examples, written out by hand as
# (numerator coefficients, {pole s: order of 1/(1 - su)}).
_H1 = ([0, 0, 0, 0, 1], {1: 3, 2: 1})
_H2 = ([0] * 6 + [15, -50, 40, 4], {1: 5, 2: 3, 4: 1})


def _expand(poles):
    """prod_s (1 - su)^m as integer coefficients."""
    from .intpoly import pmul

    den = [1]
    for s, m in sorted(poles.items()):
        for _ in range(m):
            den = pmul(den, [1, -s])
    return den


def _paper_fit(i, n_max, hand):
    """form_fit of the weight-i closed form, and whether its generating
    function is the hand-written one and its series the braid table's dims
    for n = 1..n_max."""
    from . import klcore, specseq

    form = specseq.euler_form(i)
    fit = specseq.form_fit(form)
    num, poles = hand
    ok = (
        fit["numerator"] == num
        and fit["denominator"] == _expand(poles)
        and specseq.form_series(form, n_max)[1:]
        == [klcore.d_coeff(i, n) for n in range(1, n_max + 1)]
    )
    return fit, ok


def suite_paper_i1():
    from . import klcore, specseq

    checks = []
    formula_ok = all(
        klcore.d_coeff(1, n) == 2 ** (n - 1) - 1 - comb(n, 2)
        for n in range(1, 26)
    )
    checks.append(
        _check("i1-closed-form", formula_ok, "dim D_1(n) vs 2^(n-1)-1-C(n,2), n<=25")
    )
    fit, ogf_ok = _paper_fit(1, 20, _H1)
    checks.append(_check("i1-ogf-fit", ogf_ok, "u^4/((1-u)^3(1-2u))"))
    # the u^2 term carries a minus sign: expanding sum C(n,2) u^n/n!
    # gives (u^2/2)e^u, and the dimensions subtract it
    expect = [[Fraction(1, 2)], [-1, 0, Fraction(-1, 2)], [Fraction(1, 2)]]
    checks.append(
        _check("i1-egf-form", fit["egf_polynomials"] == expect, "(1/2, -u^2/2 - 1, 1/2)")
    )
    r = specseq.limit_constant(fit, 1)
    checks.append(_check("i1-asymptotic-constant", r == Fraction(1, 2), f"r = {r}"))
    expected = Fraction(klcore.d_coeff(0, 2), factorial(2))
    checks.append(
        _check("i1-dfg-constant", r == expected, f"dim D_0(2)/2! = {expected}")
    )
    return checks


def suite_paper_i2():
    from . import combinat, klcore, specseq

    checks = []
    stirling_ok = True
    for n in range(1, 26):
        want = (
            combinat.stirling1_unsigned(n, n - 2)
            - combinat.stirling2(n, n - 1) * combinat.stirling2(n - 1, 2)
            + combinat.stirling2(n, 3)
            + combinat.stirling2(n, 4)
        ) if n >= 2 else 0
        if klcore.d_coeff(2, n) != want:
            stirling_ok = False
            break
    checks.append(
        _check("i2-closed-form", stirling_ok, "dim D_2(n) vs Stirling expression, n<=25")
    )
    fit, ogf_ok = _paper_fit(2, 30, _H2)
    checks.append(
        _check(
            "i2-ogf-fit",
            ogf_ok,
            "(15u^6-50u^7+40u^8+4u^9)/((1-u)^5(1-2u)^3(1-4u))",
        )
    )
    r = specseq.limit_constant(fit, 2)
    checks.append(_check("i2-asymptotic-constant", r == Fraction(1, 24), f"r = {r}"))
    expected = Fraction(klcore.d_coeff(1, 4), factorial(4))
    checks.append(
        _check("i2-dfg-constant", r == expected, f"dim D_1(4)/4! = {expected}")
    )
    checks.append(
        _check(
            "i2-egf-top",
            fit["egf_polynomials"][4] == [Fraction(1, 24)],
            "top exponential polynomial is the constant 1/24",
        )
    )
    # finite-window ratio for i=3 against dim D_2(6)/6!
    target = Fraction(klcore.d_coeff(2, 6), factorial(6))
    rows = specseq.ratio_diagnostic(3, [30])
    gap = abs(rows[0][2] - target)
    checks.append(
        _check(
            "dfg-i3-window",
            gap < Fraction(1, 100),
            f"|dim D_3(30)/6^30 - 15/720| = {gap}",
        )
    )
    return checks


def suite_euler():
    from . import specseq

    checks = []
    for i in range(1, 4):
        bad = []
        for n in range(i + 1, 13):
            rep = specseq.euler_identity(i, n)
            if not rep["equal"]:
                bad.append((n, rep["lhs"], rep["rhs"]))
        checks.append(
            _check(
                f"euler-i{i}",
                not bad,
                f"grid n in [{i + 1},12]" if not bad else f"failures: {bad}",
            )
        )
    return checks


def suite_fs():
    from . import fsmod

    checks = []
    gen_ok = all(fsmod.h1_generation_check(n) for n in range(2, 9))
    checks.append(_check("fs-h1-generation", gen_ok, "pullbacks from [2] span, n<=8"))
    parity = fsmod.Surjection(3, 2, (1, 2, 1))
    image = fsmod.h1_pullback(parity, fsmod.H1Vector.basis(2, 1, 2))
    want = fsmod.H1Vector(3, {(1, 2): 1, (2, 3): 1})
    checks.append(_check("fs-parity-pullback", image == want, "e12 -> e12 + e23"))
    spanning = [
        fsmod.h1_pullback(f, fsmod.H1Vector.basis(2, 1, 2))
        for f in (
            fsmod.Surjection(3, 2, (1, 2, 1)),
            fsmod.Surjection(3, 2, (1, 1, 2)),
            fsmod.Surjection(3, 2, (1, 2, 2)),
        )
    ]
    want_triple = [
        fsmod.H1Vector(3, {(1, 2): 1, (2, 3): 1}),
        fsmod.H1Vector(3, {(1, 3): 1, (2, 3): 1}),
        fsmod.H1Vector(3, {(1, 2): 1, (1, 3): 1}),
    ]
    checks.append(
        _check("fs-spanning-triple", spanning == want_triple, "three vectors at n=3")
    )
    bound_ok = all(
        fsmod.hom_fs_count(n, m) <= m**n
        for m in range(1, 7)
        for n in range(m, 21)
    )
    checks.append(_check("fs-hom-bound", bound_ok, "m! S(n,m) <= m^n, n<=20, m<=6"))
    return checks


def suite_conjecture():
    from . import klcore

    checks = []
    for i in (2, 3):
        rep = klcore.conjecture_top_check(i)
        checks.append(
            _check(
                f"conjecture-i{i}",
                rep["equal"],
                f"computed {rep['computed']} vs predicted {rep['predicted']}",
            )
        )
    rep = klcore.conjecture_top_check(4)
    checks.append(
        _check(
            "conjecture-i4-report",
            True,  # a conjecture: the verdict is recorded, not required
            f"computed {rep['computed']} vs predicted {rep['predicted']}; "
            f"equal={rep['equal']}",
        )
    )
    return checks


def _c1_test_graphs():
    from . import graphmat
    from .graphmat import Graph

    graphs = {}
    for n in range(2, 8):
        graphs[f"K{n}"] = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    for n in range(3, 8):
        graphs[f"path{n}"] = Graph(n, [(k, k + 1) for k in range(n - 1)])
        graphs[f"cycle{n}"] = Graph(n, [(k, (k + 1) % n) for k in range(n)])
    for n in range(4, 8):
        graphs[f"star{n}"] = Graph(n, [(0, k) for k in range(1, n)])
    graphs["K4-e"] = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    graphs["K5-e"] = Graph(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
    )
    graphs["cone-path3"] = graphmat.cone_extend(Graph(3, [(0, 1), (1, 2)]), 2)
    return graphs


def suite_relative():
    from . import klcore, specseq
    from .graphmat import Graph

    checks = []
    cases = {
        "empty": Graph(0),
        "K1": Graph(1),
        "edge": Graph(2, [(0, 1)]),
    }
    reports = {}
    for name, g in cases.items():
        bad = []
        for n in range(1, 9 - g.n):
            if g.n + n < 3:
                continue  # rank < 2: nothing to check but run anyway
            rep = reports[name, n] = specseq.euler_identity_graph(g, 1, n)
            if not rep["equal"]:
                bad.append((n, rep["lhs"], rep["rhs"]))
        checks.append(
            _check(
                f"relative-euler-{name}",
                not bad,
                "i=1 over all feasible n" if not bad else f"failures: {bad}",
            )
        )
    # The loop above covered the empty graph for n = 3..8; only n = 2 is new.
    reports["empty", 2] = specseq.euler_identity_graph(Graph(0), 1, 2)
    empty_agree = all(
        reports["empty", n]["lhs"] == specseq.euler_identity(1, n)["lhs"]
        for n in range(2, 9)
    )
    checks.append(
        _check("relative-matches-absolute", empty_agree, "empty graph reduces exactly")
    )
    ratio = Fraction(klcore.d_coeff_graph(Graph(1), 1, 22), 2**22)
    gap = abs(ratio - 1)
    checks.append(
        _check(
            "relative-K1-ratio",
            gap < Fraction(1, 50),
            f"|dim/2^22 - 2^|V| r_2| = {gap}",
        )
    )
    c1_ok = []
    for name, g in _c1_test_graphs().items():
        want = (klcore._kl_graphic_coeffs(g) + (0,))[1]
        got = klcore.c1_count(g)
        if got != want:
            c1_ok.append((name, got, str(want)))
    checks.append(
        _check(
            "relative-c1-shortcut",
            not c1_ok,
            "corank-1 count matches the recursion" if not c1_ok else f"{c1_ok}",
        )
    )
    return checks


def suite_properties():
    """Cross-oracle properties: braid vs generic recursion, OS dimensions,
    free-action vanishing, equivariant consistency, functional-equation
    residuals, and exact round trips."""
    from . import combinat, eqcore, eqkl, graphmat, klcore, polyseries
    from .graphmat import Graph

    checks = []
    checks.append(_check("oracle-braid-vs-graphic", _braid_vs_base_groups(8), "n <= 8"))

    os_ok = all(
        sum(1 for _ in eqkl._monomials(n, i)) == combinat.stirling1_unsigned(n, n - i)
        for n in range(1, 8)
        for i in range(0, n)
    )
    checks.append(_check("oracle-os-dimensions", os_ok, "basis counts, n <= 7"))

    # eq_char_poly(n) at t = 1, on its integer class values
    vanish_ok = all(
        not any(map(sum, eqkl._eq_char_poly_values(n).values())) for n in range(2, 7)
    )
    checks.append(_check("oracle-free-action-vanishing", vanish_ok, "t=1, n in [2,6]"))

    # Lehrer's class values, the first power of the characteristic data,
    # against the signed traces of the straightened basis: both are z_mu
    # times the coefficient of p_mu, so this is the Frobenius characteristic
    # check on integers
    lehrer_ok = all(
        eqkl._eq_char_poly_values(n) == eqcore._char_powers(n)[1] for n in range(1, 7)
    )
    checks.append(
        _check("oracle-char-poly-plethystic", lehrer_ok, "straightening vs flat sum, n <= 6")
    )

    # each graded object is built once per n and shared by the checks below
    braids = {n: eqkl.eqkl_braid(n) for n in range(1, 8)}
    eq_ok = all(braids[n] == eqkl.eqkl_braid_bruteforce(n) for n in range(1, 7))
    checks.append(_check("oracle-eqkl-two-paths", eq_ok, "plethystic vs brute force, n <= 6"))

    dims_ok = all(braids[n].at_identity() == klcore.kl_braid(n) for n in range(1, 8))
    checks.append(_check("eqkl-dimension-consistency", dims_ok, "identity evaluation, n <= 7"))

    honest_ok = True
    trivial_ok = True
    rows_ok = True
    for n, graded in braids.items():
        for i, coeff in enumerate(graded.coeffs):
            dec = eqkl.specht_decompose(coeff)
            for lam, m in dec.items():
                if m.denominator != 1 or m < 0:
                    honest_ok = False
            if i == 0 and dec != {(n,): Fraction(1)}:
                trivial_ok = False
            if i >= 1 and not eqkl._within_row_bound(dec, i):
                rows_ok = False
    checks.append(_check("eqkl-honesty", honest_ok, "nonneg integer multiplicities, n <= 7"))
    checks.append(_check("eqkl-constant-term", trivial_ok, "degree 0 is trivial, n <= 7"))
    checks.append(_check("eqkl-row-bounds", rows_ok, "at most 2i rows, n <= 7"))

    resid_ok = all(_braid_residual(n) for n in range(1, 11))
    checks.append(_check("kl-functional-equation-braid", resid_ok, "residual zero, n <= 10"))

    graph_resid_ok = all(
        _graph_residual(g)
        for g in [
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),
            graphmat.cone_extend(Graph(2, [(0, 1)]), 3),
            Graph(6, [(k, (k + 1) % 6) for k in range(6)]),
        ]
    )
    checks.append(_check("kl-functional-equation-graphs", graph_resid_ok, "residual zero"))

    fit_ok = True
    for num, poles in (_H1, _H2):
        target = polyseries.RatFn(
            polyseries.Poly(num, "u"), polyseries.geometric_denominator(poles)
        )
        n_terms = 2 * target.den.degree() + 16
        ser = polyseries.series(target, n_terms)
        refit = polyseries.fit_rational(ser, set(poles))
        if refit != target:
            fit_ok = False
    checks.append(_check("polyseries-roundtrip", fit_ok, "series -> fit -> same function"))

    ortho_ok = True
    for n in range(1, 9):
        parts = combinat.partitions(n)
        cols = list(zip(*combinat.character_table(n)))
        for a, mu in enumerate(parts):
            for b in range(a, len(parts)):
                tot = sum(map(mul, cols[a], cols[b]))
                want = combinat.centralizer_order(mu) if a == b else 0
                if tot != want:
                    ortho_ok = False
    checks.append(_check("combinat-column-orthogonality", ortho_ok, "n <= 8"))
    return checks


def _braid_vs_base_groups(top: int) -> bool:
    """The braid rows up to top, read off the empty base's partial sums,
    against rows read off its flat groups, sum_l B_{n,l} P_l, one Stirling
    product per l and each P_l from these rows again."""
    from . import klcore
    from .intpoly import padd_into, pmul

    base = klcore._cone_base(klcore._EMPTY_KEY, klcore._EMPTY)
    rows = [None, (1,)]
    for n in range(2, top + 1):
        rhs = [0] * n
        for _, c, chi in base.groups(n):
            if c < n:  # the finest flat carries the unknown P itself
                padd_into(rhs, pmul(chi, rows[c]))
        rows.append(klcore._solve_functional_equation(rhs, n - 1))
    return all(klcore._braid_coeffs(n) == rows[n] for n in range(1, top + 1))


def _braid_residual(n: int) -> bool:
    from . import combinat, klcore
    from .intpoly import falling_factorial, padd_into, pmul

    # (t)_m / t, the reduced characteristic polynomial of K_m, and P(K_m)
    reduced = [None] + [falling_factorial(m)[1:] for m in range(1, n + 1)]
    rows = [None] + [klcore._braid_coeffs(m) for m in range(1, n + 1)]
    rhs = [0] * n
    for lam in combinat.partitions(n):
        chi = [1]
        for part in lam:
            chi = pmul(chi, reduced[part])
        count = combinat.set_partition_count_by_type(lam)
        padd_into(rhs, pmul(chi, rows[len(lam)]), count)
    row = rows[n]
    return [0] * (n - len(row)) + list(reversed(row)) == rhs


def _graph_residual(g) -> bool:
    from . import graphmat, klcore
    from .intpoly import falling_sum, padd_into, pmul

    row = klcore._kl_graphic_coeffs(g)  # checks every bound first
    adj = g.adjacency_masks()
    rhs = [0] * g.n
    classes, chis = {}, {}  # colour-class memo of adj, block mask -> chi
    for blocks in graphmat.flat_masks(adj, (1 << g.n) - 1):
        chi = [1]
        for b in blocks:
            if b not in chis:
                cs = graphmat._colour_classes(adj, b, classes)
                chis[b] = falling_sum([[c] for c in cs])[1:]  # a block is connected
            chi = pmul(chi, chis[b])
        key, q, u = klcore._resolve_quotient(tuple(graphmat.quotient_masks(adj, blocks)))
        padd_into(rhs, pmul(chi, klcore._cone_base(key, q).row(u)))
    return [0] * (g.n - len(row)) + list(reversed(row)) == rhs


SUITES = {
    "paper-i1": suite_paper_i1,
    "paper-i2": suite_paper_i2,
    "euler": suite_euler,
    "fs": suite_fs,
    "conjecture": suite_conjecture,
    "relative": suite_relative,
    "properties": suite_properties,
}


def run_suite(name: str) -> list:
    """The checks of one suite, or of every suite in SUITES order for "all"."""
    if name == "all":
        return [c for key in SUITES for c in SUITES[key]()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    return SUITES[name]()
