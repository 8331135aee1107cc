"""Command-line surface: reports, exit codes, formats."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

import braidkl.cli as cli
import braidkl.klcore as klcore
import braidkl.specseq as specseq
import braidkl.verify as verify
from braidkl.cli import main
from braidkl.graphmat import Graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_kl_braid_report(capsys):
    code, out = run_cli(capsys, "kl", "--n", "6")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "kl"
    assert report["outputs"]["coefficients"] == ["1", "16", "15"]


def test_kl_braid_trivial(capsys):
    code, out = run_cli(capsys, "kl", "--n", "2")
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == ["1"]


def test_kl_cone_from_file(tmp_path, capsys):
    p = tmp_path / "k1.json"
    p.write_text(json.dumps({"n": 1, "edges": []}))
    code, out = run_cli(capsys, "kl", "--graph", str(p), "--cone", "3")
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == ["1", "1"]


def test_kl_invalid_input(capsys):
    assert run_cli(capsys, "kl", "--n", "0")[0] == 2
    assert run_cli(capsys, "kl")[0] == 2


def test_reports_byte_stable(capsys):
    _, first = run_cli(capsys, "e1", "--i", "1", "--n", "5")
    _, second = run_cli(capsys, "e1", "--i", "1", "--n", "5")
    assert first == second


def test_e1_report_roundtrip(capsys):
    code, out = run_cli(capsys, "e1", "--i", "1", "--n", "4")
    assert code == 0
    report = json.loads(out)
    # re-derive the verdict from the exact values in the report
    assert report["verdicts"]["euler_identity"] == (
        report["outputs"]["euler_lhs"] == report["outputs"]["euler_rhs"]
    )
    cells = {(c["p"], c["q"]): int(c["dim"]) for c in report["outputs"]["cells"]}
    assert cells == {(0, 1): 6, (1, 1): 7}
    lhs = sum((-1) ** (p + q) * d for (p, q), d in cells.items())
    assert lhs == int(report["outputs"]["euler_lhs"])


def test_eqkl_json_and_csv(capsys):
    code, out = run_cli(capsys, "eqkl", "--n", "6")
    assert code == 0
    report = json.loads(out)
    degrees = report["outputs"]["degrees"]
    assert [d["dimension"] for d in degrees] == ["1", "16", "15"]
    assert degrees[0]["specht_multiplicities"] == {"6": "1"}
    assert all(report["verdicts"][k] for k in report["verdicts"])

    code, out = run_cli(capsys, "eqkl", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,partition,multiplicity"
    assert any(line.startswith("1,") for line in lines[1:])


def _rational_eqkl_report(n: int, fmt: str) -> str:
    """The `eqkl` report rebuilt from the Fraction API: graded class
    functions, Specht decompositions as Fractions and sorted partitions."""
    from braidkl import eqkl

    degrees, verdicts = [], {}
    for i, coeff in enumerate(eqkl.eqkl_braid(n).coeffs):
        dec = eqkl.specht_decompose(coeff)
        degrees.append(
            {
                "degree": i,
                "dimension": str(coeff.dim()),
                "specht_multiplicities": {
                    ",".join(map(str, lam.parts)): str(m)
                    for lam, m in sorted(dec.items())
                },
            }
        )
        if i >= 1:
            verdicts[f"row_bound_degree_{i}"] = all(len(lam) <= 2 * i for lam in dec)
    if fmt == "csv":
        lines = ["degree,partition,multiplicity"]
        for row in degrees:
            for key, m in row["specht_multiplicities"].items():
                lines.append(f"{row['degree']},\"{key}\",{m}")
        return "\n".join(lines) + "\n"
    report = {"command": "eqkl", "inputs": {"n": str(n)}, "outputs": {"degrees": degrees}}
    if verdicts:
        report["verdicts"] = verdicts
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", range(1, 11))
def test_eqkl_integer_report_matches_the_rational_api(capsys, n):
    for fmt in ("json", "csv"):
        code, out = run_cli(capsys, "eqkl", "--n", str(n), "--format", fmt)
        assert code == 0
        assert out == _rational_eqkl_report(n, fmt), (n, fmt)


def test_genfun_fit_report(capsys):
    code, out = run_cli(capsys, "genfun", "--i", "1", "--max-n", "20", "--fit")
    assert code == 0
    report = json.loads(out)
    fit = report["outputs"]["fit"]
    assert fit["numerator"] == ["0", "0", "0", "0", "1"]
    assert fit["r_constant"] == "1/2"
    assert fit["r_expected"] == "1/2"
    assert report["verdicts"]["r_matches_dfg"] is True
    assert {"pole": 2, "order": 1, "coefficient": "1/2"} in fit["partial_fractions"]


def test_genfun_fit_needs_no_more_terms_than_it_prints(capsys):
    # the fit is read off the closed form, so 30 terms do for i = 3: a search
    # for its degree-16 denominator needed 35 and exited 2 on fewer
    fits = []
    for max_n in ("30", "34"):
        code, out = run_cli(capsys, "genfun", "--i", "3", "--max-n", max_n, "--fit")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"fit_found": True, "r_matches_dfg": True}
        fits.append(report["outputs"]["fit"])
    assert fits[0] == fits[1]


@pytest.mark.parametrize("i", [4, 5, 6])
def test_genfun_fit_beyond_the_search(capsys, i):
    # the search with poles of multiplicity <= 8 ran for minutes and then
    # failed at i = 4; the closed form gives the fit and its limit constant
    start = time.monotonic()
    code, out = run_cli(
        capsys, "genfun", "--i", str(i), "--max-n", "40", "--fit", "--asymptotics"
    )
    assert time.monotonic() - start < 2
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"fit_found": True, "r_matches_dfg": True}
    fit = report["outputs"]["fit"]
    want = Fraction(klcore.d_coeff(i - 1, 2 * i), factorial(2 * i))
    assert fit["r_constant"] == fit["r_expected"] == str(want)


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--n", "242"],
        ["genfun", "--i", "1", "--max-n", "242"],
        ["e1", "--i", "2", "--n", "242"],
    ],
)
def test_braid_table_bound_fails_fast(capsys, argv):
    """K_242 is the first braid row past the work bound (2^0 * 242^3)."""
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    bound = f"2^0 * 242^3 = {242**3} (the recursion handles 2^|H| k^3 <= "
    assert bound in captured.err and captured.out == ""


def test_genfun_fit_bound_fails_fast(capsys):
    i = str(specseq.FIT_BOUND + 1)
    start = time.monotonic()
    assert main(["genfun", "--i", i, "--max-n", "64", "--fit"]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert f"i <= {specseq.FIT_BOUND}" in captured.err and captured.out == ""
    # without --fit only the braid table bounds i
    code, out = run_cli(capsys, "genfun", "--i", i, "--max-n", "64", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == f"64,{klcore.d_coeff(int(i), 64)}"


def test_closed_stdout_exits_quietly(tmp_path):
    # the read end is closed before the report is written, as when `head`
    # has already gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidkl", "genfun", "--i", "2", "--max-n", "30", "--fit"],
        env=_probe_env(tmp_path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err == ""


@pytest.mark.parametrize(
    "i, max_n, message",
    [("-1", "5", "--i must be nonnegative"), ("1", "0", "--max-n must be positive")],
)
def test_genfun_rejects_out_of_range_input(capsys, i, max_n, message):
    assert main(["genfun", "--i", i, "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("flag", ["--fit", "--asymptotics"])
@pytest.mark.parametrize(
    "extra, message",
    [
        # D_0(n) = 1: no pole in 1..2i to fit and no (2i)^n ratio to take
        (["--i", "0"], "--fit and --asymptotics need --i >= 1"),
        # the csv report holds only the dims
        (["--i", "1", "--format", "csv"], "--format csv prints only the dims"),
    ],
)
def test_genfun_rejects_flags_it_cannot_serve(capsys, extra, message, flag):
    assert main(["genfun", "--max-n", "10", *extra, flag]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and flag in captured.err
    assert captured.out == ""
    code, out = run_cli(capsys, "genfun", "--max-n", "4", *extra)
    assert code == 0 and out


def test_genfun_asymptotics(capsys):
    code, out = run_cli(capsys, "genfun", "--i", "1", "--max-n", "12", "--asymptotics")
    assert code == 0
    report = json.loads(out)
    assert len(report["outputs"]["ratios"]) == 10


def test_genfun_csv(capsys):
    code, out = run_cli(capsys, "genfun", "--i", "1", "--max-n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,dim"
    assert lines[4] == "4,1"
    assert lines[6] == "6,16"


def test_e1_past_the_braid_bound_exits_2_in_a_fresh_process(tmp_path):
    """dim D_i(n) is read before any E1 cell, so no Stirling row past the
    bound is built: in a fresh process, with no row cached, K_520 is refused
    with the work-bound message."""
    proc = subprocess.run(
        [sys.executable, "-m", "braidkl", "e1", "--i", "1", "--n", "520"],
        env=_probe_env(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"2^0 * 520^3 = {520**3} (the recursion handles" in proc.stderr
    assert proc.stdout == ""


def test_e1_relative_graph(tmp_path, capsys):
    p = tmp_path / "edge.json"
    p.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    code, out = run_cli(capsys, "e1", "--i", "1", "--n", "2", "--graph", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["euler_identity"] is True
    assert report["outputs"]["euler_rhs"] == "1"
    # K2's vertices are universal: cone(K2, 300) is the braid row K_302,
    # past the work bound: exit 2 at once
    start = time.monotonic()
    assert main(["e1", "--i", "1", "--n", "300", "--graph", str(p)]) == 2
    assert f"2^0 * 302^3 = {302**3} (the recursion handles" in capsys.readouterr().err
    assert time.monotonic() - start < 1


def test_e1_relative_graph_beyond_ten_vertices(tmp_path, capsys):
    p = tmp_path / "p4.json"
    p.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    code, out = run_cli(capsys, "e1", "--i", "2", "--n", "12", "--graph", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["euler_identity"] is True
    want = klcore.d_coeff_graph(Graph(4, [(0, 1), (1, 2), (2, 3)]), 2, 12)
    assert report["outputs"]["euler_rhs"] == str(want) == "174109594"


def test_bad_graph_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nosuch.json"
    no_n = tmp_path / "no_n.json"
    no_n.write_text(json.dumps({"edges": [[0, 1]]}))
    null_n = tmp_path / "null_n.json"
    null_n.write_text(json.dumps({"n": None, "edges": []}))
    null_edge = tmp_path / "null_edge.json"
    null_edge.write_text(json.dumps({"n": 2, "edges": [[0, None]]}))
    # numbers that int() would truncate, and true for 1, used to load as P4
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps({"n": 4.9, "edges": [[0, 1.7], [1, 2], [2, 3]]}))
    bools = tmp_path / "bools.json"
    bools.write_text(json.dumps({"n": 4, "edges": [[0, True], [1, 2], [2, 3]]}))
    for path in (missing, no_n, null_n, null_edge, floats, bools):
        assert main(["kl", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kl"], "give exactly one of --n or --graph"),
        (["kl", "--n", "0"], "--n must be positive"),
        (["kl", "--n", "5", "--cone", "3"], "--cone needs --graph"),
        (["genfun", "--i", "-1", "--max-n", "5"], "--i must be nonnegative"),
        (["genfun", "--i", "1", "--max-n", "0"], "--max-n must be positive"),
        (
            ["genfun", "--i", "0", "--max-n", "5", "--fit"],
            "--fit and --asymptotics need --i >= 1",
        ),
        (
            ["genfun", "--i", "25", "--max-n", "64", "--fit"],
            "--fit at i = 25 is out of reach: it handles i <= 24",
        ),
        (
            ["genfun", "--i", "1", "--max-n", "5", "--format", "csv", "--asymptotics"],
            "--format csv prints only the dims; it cannot carry --fit or --asymptotics",
        ),
        (
            ["verify", "--suite", "nope"],
            "unknown suite 'nope'; choose from "
            f"{sorted(verify.SUITES)} or 'all'",
        ),
        (["kl", "--graph", "g.json", "--cone", "-1"], "--cone must be nonnegative"),
    ],
)
def test_input_refusals_print_one_error_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_kl_cone_needs_graph(capsys):
    assert main(["kl", "--n", "5", "--cone", "3"]) == 2
    assert "--cone needs --graph" in capsys.readouterr().err
    assert run_cli(capsys, "kl", "--n", "5", "--cone", "0")[0] == 0


def test_verify_exit_codes(capsys):
    assert run_cli(capsys, "verify", "--suite", "euler")[0] == 0
    assert run_cli(capsys, "verify", "--suite", "no-such-suite")[0] == 2


def test_verify_prints_pass_lines(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "conjecture")
    assert code == 0
    assert out.count("PASS") == 3


def _timed(out):
    return [line.split()[1:] for line in out.splitlines() if line.startswith("TIME ")]


def test_verify_timing_adds_one_line_per_suite(capsys):
    plain = run_cli(capsys, "verify", "--suite", "fs")[1]
    code, out = run_cli(capsys, "verify", "--suite", "fs", "--timing")
    assert code == 0
    lines, timed = out.splitlines(), _timed(out)
    assert "\n".join(lines[: -len(timed)]) + "\n" == plain
    name, seconds = timed[0]
    assert lines[-len(timed)].startswith("TIME ") and name == "fs" and float(seconds) >= 0
    code, out = run_cli(capsys, "verify", "--suite", "all", "--timing")
    assert code == 0
    suites = [name for name, _ in _timed(out) if "/" not in name]
    assert suites == list(verify.SUITES)


def test_verify_timing_adds_one_line_per_check(capsys):
    """After the suite lines, one TIME <suite>/<check> line per check, in
    report order; the check times of a suite add up to its time."""
    code, out = run_cli(capsys, "verify", "--suite", "properties", "--timing")
    assert code == 0
    checks = [line.split()[1] for line in out.splitlines() if line.startswith("PASS ")]
    (suite, total), *per_check = _timed(out)
    assert suite == "properties"
    assert [name for name, _ in per_check] == [f"properties/{c}" for c in checks]
    seconds = [float(s) for _, s in per_check]
    assert min(seconds) >= 0
    # each printed time is rounded to the millisecond
    assert abs(sum(seconds) - float(total)) <= 0.0005 * (len(seconds) + 1)


def _cone_query(tmp_path, cone=2):
    graph = tmp_path / "p3.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    return ("kl", "--graph", str(graph), "--cone", str(cone))


def test_kl_cone_past_the_work_bound_fails_fast(tmp_path, capsys):
    # cone(P3, 300) is cone(2K1, 301), on 303 vertices: past the work bound
    code = main(list(_cone_query(tmp_path, cone=300)))
    assert code == 2
    assert f"2^2 * 301^3 = {4 * 301**3} (the recursion handles" in capsys.readouterr().err


def test_complete_graph_file_is_bounded_as_the_braid_row(tmp_path, capsys, monkeypatch, new_process):
    """K_n given as a file splits into cone({}, n), the braid row, and is
    bounded as `kl --n` is: past the work bound (K_242) it exits 2 at once.
    So does a file on 256 vertices or on 10**9, before the graph is split:
    splitting the latter would take minutes, when every split of it is out
    of reach."""
    k120 = tmp_path / "k120.json"
    edges = [[u, v] for v in range(120) for u in range(v)]
    k120.write_text(json.dumps({"n": 120, "edges": edges}))
    code, out = run_cli(capsys, "kl", "--graph", str(k120))
    assert code == 0
    coeffs = json.loads(out)["outputs"]["coefficients"]
    new_process()
    code, out = run_cli(capsys, "kl", "--n", "120")
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == coeffs
    path256 = tmp_path / "p256.json"
    path256.write_text(json.dumps({"n": 256, "edges": [[v, v + 1] for v in range(255)]}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**9, "edges": []}))
    start = time.monotonic()
    assert main(["kl", "--n", "242"]) == 2
    assert "(the recursion handles 2^|H| k^3 <= " in capsys.readouterr().err
    assert time.monotonic() - start < 1

    def no_split(g):
        raise AssertionError("split past the work bound")

    monkeypatch.setattr(klcore, "_split_cone", no_split)
    for path, n in ((path256, 256), (huge, 10**9)):
        for cone in ("0", "1"):
            start = time.monotonic()
            assert main(["kl", "--graph", str(path), "--cone", cone]) == 2
            refusal = (
                f"graph on {n} vertices is out of reach: with at most 10 of them "
                f"not universal, 2^|H| k^3 >= {n - 10}^3 (the recursion handles"
            )
            assert refusal in capsys.readouterr().err
            assert time.monotonic() - start < 1


def test_cone_past_the_base_bound_exits_at_once(tmp_path, capsys):
    """cone(P12, 4) is inside the canonical-key search bound, and its base
    table would take more than a minute."""
    graph = tmp_path / "p12.json"
    graph.write_text(json.dumps({"n": 12, "edges": [[v, v + 1] for v in range(11)]}))
    bound = f"12 remain (the recursion handles <= {klcore.BASE_BOUND})"
    start = time.monotonic()
    assert main(["kl", "--graph", str(graph), "--cone", "4"]) == 2
    assert bound in capsys.readouterr().err
    assert main(["e1", "--i", "1", "--n", "4", "--graph", str(graph)]) == 2
    assert bound in capsys.readouterr().err
    assert time.monotonic() - start < 1


def test_cone_past_the_joint_bound_exits_at_once(tmp_path, capsys):
    """cone(P10, 90) is inside the base bound, and ran
    for more than two minutes before 2^|H| k^3 was bounded."""
    graph = tmp_path / "p10.json"
    graph.write_text(json.dumps({"n": 10, "edges": [[v, v + 1] for v in range(9)]}))
    bound = f"2^10 * 90^3 = {2**10 * 90**3} (the recursion handles 2^|H| k^3 <= "
    start = time.monotonic()
    assert main(["kl", "--graph", str(graph), "--cone", "90"]) == 2
    assert bound in capsys.readouterr().err
    assert main(["e1", "--i", "1", "--n", "90", "--graph", str(graph)]) == 2
    assert bound in capsys.readouterr().err
    assert time.monotonic() - start < 1


# P3's middle vertex is universal: cone(P3, k) is cone(2K1, k + 1)
CONE_REFUSALS = {
    98: None,
    250: "graph is out of reach: its 251 universal vertices over the 2 others "
    f"cost 2^2 * 251^3 = {4 * 251**3} "
    f"(the recursion handles 2^|H| k^3 <= {klcore.CONE_WORK_BOUND})",
    10**9: f"graph is out of reach: its {10**9 + 1} universal vertices over the 2 "
    f"others cost 2^2 * {10**9 + 1}^3 = {4 * (10**9 + 1) ** 3} "
    f"(the recursion handles 2^|H| k^3 <= {klcore.CONE_WORK_BOUND})",
}


@pytest.mark.parametrize("cone", CONE_REFUSALS)
def test_cone_past_the_vertex_bound_exits_at_once(tmp_path, capsys, cone):
    """Cones over P3 past 100 vertices.  cone(P3, 98), on 101, is answered;
    cone(P3, 250) is past the work bound and would run for minutes, and
    10**9 would not fit in memory if the cone were built: both exit 2 at
    once."""
    refusal = CONE_REFUSALS[cone]
    query = _cone_query(tmp_path, cone=cone)
    e1 = ["e1", "--i", "1", "--n", str(cone), "--graph", query[2]]
    if refusal is None:
        code, out = run_cli(capsys, *query)
        assert code == 0
        c1 = int(json.loads(out)["outputs"]["coefficients"][1])
        # t^1 counts the connected 2-block splits less the edges: a cone
        # vertex on each side, or one side a connected set of path vertices
        k = cone
        assert c1 == (2 ** (k - 1) - 1) * 2**3 + 6 - (2 + 3 * k + k * (k - 1) // 2)
        code, out = run_cli(capsys, *e1)
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"euler_identity": True}
        assert report["outputs"]["euler_rhs"] == str(c1)
        return
    start = time.monotonic()
    assert main(list(query)) == 2
    assert refusal in capsys.readouterr().err
    assert time.monotonic() - start < 1
    assert main(e1) == 2
    assert refusal in capsys.readouterr().err
    assert time.monotonic() - start < 2


def test_timing_flag_adds_field(capsys):
    _, out = run_cli(capsys, "kl", "--n", "4", "--timing")
    assert "timing_seconds" in json.loads(out)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "braidkl", "kl", "--n", "4"],
        env=_probe_env(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["coefficients"] == ["1", "1"]


# Modules a `kl` job has no use for; a fresh `kl` process must not load them.
# Its rows are integers, so neither Poly nor Fraction takes part.
UNUSED_BY_KL = (
    "braidkl.eqkl",
    "braidkl.fsmod",
    "braidkl.polyseries",
    "braidkl.specseq",
    "braidkl.verify",
    "dataclasses",
    "decimal",
    "fractions",
)
# `e1` runs the integer ledger in specseq, and nothing rational either.
UNUSED_BY_E1 = tuple(m for m in UNUSED_BY_KL if m != "braidkl.specseq")
LOAD_PROBE = """
import sys
before = set(sys.modules)
from braidkl.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in {unused!r} if m in sys.modules and m not in before))
sys.exit(code)
"""


def _probe_env(tmp_path) -> dict:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, KL_CACHE_DIR=str(tmp_path / "cache"))  # ignored
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _assert_not_loaded(argv, unused, env):
    """Run the command in a fresh process; none of `unused` may load, nor
    fcntl: no command locks a file."""
    unused = (*unused, "fcntl")
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE.format(unused=unused), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", (argv, proc.stdout)


def test_kl_loads_only_the_modules_it_uses(tmp_path):
    """Each run is a fresh `kl` process."""
    env = _probe_env(tmp_path)
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    cone = ["kl", "--graph", str(graph), "--cone", "2"]
    for argv in (["kl", "--n", "5"], cone, cone):
        _assert_not_loaded(argv, UNUSED_BY_KL, env)


def test_e1_loads_only_the_modules_it_uses(tmp_path):
    env = _probe_env(tmp_path)
    graph = tmp_path / "g4.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2]]}))
    for argv in (
        ["e1", "--i", "3", "--n", "30"],
        ["e1", "--i", "2", "--n", "4", "--graph", str(graph)],
    ):
        _assert_not_loaded(argv, UNUSED_BY_E1, env)


def test_genfun_loads_only_the_modules_it_uses(tmp_path):
    # the fit comes from specseq's closed form: no Poly, RatFn or search
    argv = ["genfun", "--i", "2", "--max-n", "30", "--fit", "--asymptotics"]
    unused = ("braidkl.eqkl", "braidkl.fsmod", "braidkl.polyseries", "braidkl.verify", "dataclasses")
    _assert_not_loaded(argv, unused, _probe_env(tmp_path))


def test_eqkl_loads_only_the_modules_it_uses(tmp_path):
    # the plethystic path and the Specht multiplicities run on integers in
    # eqcore: no graph table, no flats, no Poly and no Fraction
    unused = (
        "braidkl.klcore",
        "braidkl.graphmat",
        "braidkl.polyseries",
        "braidkl.specseq",
        "braidkl.fsmod",
        "braidkl.verify",
        "braidkl.eqkl",
        "fractions",
        "decimal",
        "dataclasses",
    )
    env = _probe_env(tmp_path)
    for argv in (["eqkl", "--n", "6"], ["eqkl", "--n", "5", "--format", "csv"]):
        _assert_not_loaded(argv, unused, env)


# cone(P3, 2) is cone(2K1, 3), whose row is 1 + 5t: a plausible but wrong
# row for it, under the key and in the file that KL_CACHE_DIR used to hold
WRONG_ROW = {"graph:4b050202": ["1", "6"]}


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--n", "4"],
        ["kl", "--graph", "p3.json", "--cone", "2"],
        ["e1", "--i", "2", "--n", "6"],
        ["e1", "--i", "1", "--n", "2", "--graph", "p3.json"],
        ["eqkl", "--n", "5"],
        ["verify", "--suite", "paper-i1"],
    ],
    ids=["kl", "kl-graph", "e1", "e1-graph", "eqkl", "verify"],
)
def test_every_command_ignores_kl_cache_dir(tmp_path, monkeypatch, capsys, new_process, argv):
    """KL rows live in memory only: with KL_CACHE_DIR naming a directory
    that holds a wrong row, each command prints what it prints without the
    variable, warns of nothing, and leaves the directory as it was."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    monkeypatch.delenv("KL_CACHE_DIR", raising=False)
    assert main(argv) == 0
    want = capsys.readouterr().out
    if "p3.json" in argv:
        assert '"5"' in want and '"6"' not in want  # t^1 of cone(P3, 2)
    cache = tmp_path / "cache"
    cache.mkdir()
    cache_file = cache / "kltable.json"
    cache_file.write_text(json.dumps(WRONG_ROW))
    before = cache_file.read_bytes()
    monkeypatch.setenv("KL_CACHE_DIR", str(cache))
    new_process()
    assert main(argv) == 0
    assert capsys.readouterr() == (want, "")
    assert os.listdir(cache) == ["kltable.json"]
    assert cache_file.read_bytes() == before


# Modules a verify suite has no use for; each suite imports its own.
UNUSED_BY_SUITE = {
    "properties": ("braidkl.fsmod", "braidkl.specseq", "dataclasses"),
    "paper-i1": ("braidkl.eqkl", "braidkl.fsmod", "braidkl.polyseries", "dataclasses"),
    "paper-i2": ("braidkl.eqkl", "braidkl.fsmod", "braidkl.polyseries", "dataclasses"),
    "fs": ("braidkl.eqkl", "braidkl.polyseries", "braidkl.specseq", "dataclasses"),
    "relative": ("braidkl.eqkl", "braidkl.fsmod", "braidkl.polyseries", "dataclasses"),
    "euler": ("braidkl.eqkl", "braidkl.fsmod", "braidkl.polyseries", "dataclasses"),
    "conjecture": (
        "braidkl.eqkl",
        "braidkl.fsmod",
        "braidkl.polyseries",
        "braidkl.specseq",
        "dataclasses",
    ),
}


@pytest.mark.parametrize("suite", sorted(UNUSED_BY_SUITE))
def test_verify_suite_loads_only_the_modules_it_uses(tmp_path, suite):
    argv = ["verify", "--suite", suite]
    _assert_not_loaded(argv, UNUSED_BY_SUITE[suite], _probe_env(tmp_path))
