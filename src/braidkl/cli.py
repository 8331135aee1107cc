"""Command-line surface: KL tables, equivariant decompositions, E1-page
ledgers, generating-function fits, and the verification suites.

Reports are JSON with every exact value rendered as a decimal string
(big integers overflow native JSON numbers).  Output is byte-stable across
runs; wall-clock timing is only included when --timing is passed.

Each command imports the modules it uses in its own handler, so a fresh
process loads only what its command runs.  KL rows are memoised per
process; nothing is written to disk.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import factorial


def cmd_kl(args) -> int:
    from . import klcore
    from .graphmat import load_graph

    if (args.n is None) == (args.graph is None):
        raise ValueError("give exactly one of --n or --graph")
    if args.n is not None:
        if args.n < 1:
            raise ValueError("--n must be positive")
        if args.cone:
            raise ValueError("--cone needs --graph")
        coeffs = klcore._braid_coeffs(args.n)
        inputs = {"n": str(args.n)}
    else:
        if args.cone < 0:
            raise ValueError("--cone must be nonnegative")
        gamma = load_graph(args.graph)
        inputs = {"graph": args.graph, "cone": str(args.cone)}
        coeffs = klcore._cone_coeffs(gamma, args.cone)
    # the integer rows are trimmed and start at 1, as the Poly API's are
    return _finish(args, "kl", inputs, {"coefficients": [str(c) for c in coeffs]})


def cmd_eqkl(args) -> int:
    from . import eqcore

    n = args.n
    values = eqcore.eqkl_values(n)
    identity = values.get((1,) * n, ())
    degrees = []
    verdicts = {}
    # rows in partitions(n) order, which is the sorted order of Partition
    for i, dec in enumerate(eqcore.specht_multiplicities(n, values)):
        degrees.append(
            {
                "degree": i,
                "dimension": str(identity[i] if i < len(identity) else 0),
                "specht_multiplicities": {
                    ",".join(map(str, lam)): str(m) for lam, m in dec.items()
                },
            }
        )
        if i >= 1:
            verdicts[f"row_bound_degree_{i}"] = eqcore._within_row_bound(dec, i)
    if args.format == "csv":
        print("degree,partition,multiplicity")
        for row in degrees:
            for key, m in row["specht_multiplicities"].items():
                print(f"{row['degree']},\"{key}\",{m}")
        return 0
    return _finish(args, "eqkl", {"n": str(n)}, {"degrees": degrees}, verdicts)


def cmd_e1(args) -> int:
    from . import specseq

    if args.graph:
        from .graphmat import load_graph

        gamma = load_graph(args.graph)
        rep = specseq.euler_identity_graph(gamma, args.i, args.n)
        inputs = {"i": str(args.i), "n": str(args.n), "graph": args.graph}
        cells = []
    else:
        rep = specseq.euler_identity(args.i, args.n)
        inputs = {"i": str(args.i), "n": str(args.n)}
        cells = [{"p": p, "q": q, "dim": str(dim)} for p, q, dim in rep["cells"]]
    outputs = {
        "cells": cells,
        "euler_lhs": str(rep["lhs"]),
        "euler_rhs": str(rep["rhs"]),
    }
    return _finish(args, "e1", inputs, outputs, {"euler_identity": rep["equal"]})


def cmd_genfun(args) -> int:
    from . import klcore

    i, n_max = args.i, args.max_n
    if i < 0:
        raise ValueError("--i must be nonnegative")
    if n_max < 1:
        raise ValueError("--max-n must be positive")
    if i == 0 and (args.fit or args.asymptotics):
        # D_0(n) = 1: no pole in 1..2i to fit and no (2i)^n ratio to take
        raise ValueError("--fit and --asymptotics need --i >= 1")
    if args.fit:
        from . import specseq

        if i > specseq.FIT_BOUND:
            raise ValueError(
                f"--fit at i = {i} is out of reach: it handles i <= {specseq.FIT_BOUND}"
            )
    if args.format == "csv" and (args.fit or args.asymptotics):
        raise ValueError(
            "--format csv prints only the dims; it cannot carry --fit or --asymptotics"
        )
    klcore.d_coeff(i, n_max)  # the last term first: fills the table, or fails fast
    seq = [klcore.d_coeff(i, n) for n in range(1, n_max + 1)]
    if args.format == "csv":
        print("n,dim")
        for n, v in enumerate(seq, start=1):
            print(f"{n},{v}")
        return 0
    from fractions import Fraction

    from . import specseq

    outputs = {"dims": [str(v) for v in seq]}
    verdicts = {}
    if args.fit:
        # read off the Euler identity's closed form; no search
        form = specseq.euler_form(i)
        fit = specseq.form_fit(form)
        r = specseq.limit_constant(fit, i)
        expected = Fraction(klcore.d_coeff(i - 1, 2 * i), factorial(2 * i))
        outputs["fit"] = {
            "numerator": [str(c) for c in fit["numerator"]],
            "denominator": [str(c) for c in fit["denominator"]],
            "partial_fractions": [
                {"pole": s, "order": m, "coefficient": str(c)}
                for s, m, c in fit["partial_fractions"]
            ],
            "poly_part": [str(c) for c in fit["poly_part"]],
            "egf_polynomials": [
                [str(c) for c in p] for p in fit["egf_polynomials"]
            ],
            "r_constant": str(r),
            "r_expected": str(expected),
        }
        # the independent check: the form reproduces the braid table's dims
        verdicts["fit_found"] = specseq.form_series(form, n_max)[1:] == seq
        verdicts["r_matches_dfg"] = r == expected
    if args.asymptotics:
        rows = specseq.ratio_diagnostic(i, range(max(1, n_max - 9), n_max + 1))
        outputs["ratios"] = [
            {"n": n, "cell_ratio": str(a), "dim_ratio": str(b)}
            for n, a, b in rows
        ]
    return _finish(
        args, "genfun", {"i": str(i), "max_n": str(n_max)}, outputs, verdicts
    )


def cmd_verify(args) -> int:
    from . import verify

    checks, times, check_times = [], [], []
    for name in verify.SUITES if args.suite == "all" else [args.suite]:
        start = last = time.monotonic()
        for c in verify.run_suite(name):
            checks.append(c)
            check_times.append(f"TIME {name}/{c['name']} {c['at'] - last:.3f}")
            last = c["at"]
        times.append(f"TIME {name} {time.monotonic() - start:.3f}")
    failed = 0
    for c in checks:
        mark = "PASS" if c["ok"] else "FAIL"
        detail = f" - {c['detail']}" if c["detail"] else ""
        print(f"{mark} {c['name']}{detail}")
        if not c["ok"]:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    if args.timing:
        print("\n".join(times + check_times))
    return 0 if failed == 0 else 1


def _finish(args, command, inputs, outputs, verdicts=None) -> int:
    report = {"command": command, "inputs": inputs, "outputs": outputs}
    if verdicts:
        report["verdicts"] = verdicts
    if args.timing:
        report["timing_seconds"] = f"{time.monotonic() - args._start:.3f}"
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidkl",
        description="Exact Kazhdan-Lusztig computations for braid and "
        "cone-graph matroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kl = sub.add_parser("kl", help="KL polynomial coefficients")
    p_kl.add_argument("--n", type=int, help="braid matroid on n vertices")
    p_kl.add_argument("--graph", help="graph file (JSON or edge list)")
    p_kl.add_argument("--cone", type=int, default=0, help="cone with N new vertices")
    p_kl.set_defaults(func=cmd_kl)

    p_eq = sub.add_parser("eqkl", help="equivariant KL decomposition")
    p_eq.add_argument("--n", type=int, required=True)
    p_eq.add_argument("--format", choices=("json", "csv"), default="json")
    p_eq.set_defaults(func=cmd_eqkl)

    p_e1 = sub.add_parser("e1", help="E1-page cell dimensions and Euler identity")
    p_e1.add_argument("--i", type=int, required=True)
    p_e1.add_argument("--n", type=int, required=True)
    p_e1.add_argument("--graph", help="relative version over a cone graph")
    p_e1.set_defaults(func=cmd_e1)

    p_gf = sub.add_parser("genfun", help="dimension sequences and fits")
    p_gf.add_argument("--i", type=int, required=True)
    p_gf.add_argument("--max-n", type=int, required=True)
    p_gf.add_argument("--fit", action="store_true")
    p_gf.add_argument("--asymptotics", action="store_true")
    p_gf.add_argument("--format", choices=("json", "csv"), default="json")
    p_gf.set_defaults(func=cmd_genfun)

    p_v = sub.add_parser("verify", help="run a verification suite")
    p_v.add_argument(
        "--suite",
        required=True,
        help="paper-i1, paper-i2, euler, fs, conjecture, relative, properties, all",
    )
    p_v.set_defaults(func=cmd_verify)

    for sp in (p_kl, p_eq, p_e1, p_gf, p_v):
        sp.add_argument("--timing", action="store_true", help="include wall time")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._start = time.monotonic()
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _entry():
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe shows here, not at shutdown
    except BrokenPipeError:
        # the reader went away, as in `braidkl ... | head`: exit quietly, with
        # stdout on devnull so that the flush at shutdown cannot fail again
        # (the recipe of the signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    _entry()
