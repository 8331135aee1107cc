"""Command-line surface: reports, exit codes, formats, cache persistence."""

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
import braidkl.verify as verify
from braidkl.cli import main
from braidkl.graphmat import (
    KEY_VERTEX_LIMIT,
    Graph,
    canonical_key,
    cone_extend,
    flat_masks,
    quotient_masks,
)


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
    i = str(klcore.FIT_BOUND + 1)
    start = time.monotonic()
    assert main(["genfun", "--i", i, "--max-n", "64", "--fit"]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert f"i <= {klcore.FIT_BOUND}" in captured.err and captured.out == ""
    # without --fit only the braid table bounds i
    code, out = run_cli(capsys, "genfun", "--i", i, "--max-n", "64", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == f"64,{klcore.d_coeff(int(i), 64)}"


def test_closed_stdout_exits_quietly():
    # the read end is closed before the report is written, as when `head`
    # has already gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidkl", "genfun", "--i", "2", "--max-n", "30", "--fit"],
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


def test_e1_relative_graph(tmp_path, capsys):
    p = tmp_path / "edge.json"
    p.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    code, out = run_cli(capsys, "e1", "--i", "1", "--n", "2", "--graph", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["euler_identity"] is True
    assert report["outputs"]["euler_rhs"] == "1"
    # past the row key's one-byte vertex count: exit 2 at once
    start = time.monotonic()
    assert main(["e1", "--i", "1", "--n", "300", "--graph", str(p)]) == 2
    assert f"in one byte (at most {KEY_VERTEX_LIMIT})" in capsys.readouterr().err
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
    ],
)
def test_input_refusals_print_one_error_line(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("KL_CACHE_DIR", raising=False)
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


def test_cache_persistence(tmp_path, capsys, monkeypatch, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    query = _cone_query(tmp_path)
    code, out = run_cli(capsys, *query)
    assert code == 0
    coeffs = json.loads(out)["outputs"]["coefficients"]
    cache_file = tmp_path / "kltable.json"
    records = json.loads(cache_file.read_text())
    assert records and all(key.startswith("graph:") for key in records)

    # a braid query writes no braid row
    code, out = run_cli(capsys, "kl", "--n", "5")
    assert code == 0
    assert json.loads(cache_file.read_text()) == records

    # an empty memo table, as in a new process, is filled from the file
    new_process()
    code, out = run_cli(capsys, *query)
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == coeffs
    assert klcore.kl_cache_export() == records

    # a file from an older version with braid rows, one of them wrong, loads;
    # the braid rows are ignored and every answer stays the same.  Older
    # versions also wrote rows of K_m reached as graphs: a plausible but
    # wrong row of the empty base is ignored as well
    k5 = "graph:" + (b"K\x05" + canonical_key(Graph(0))[1:]).hex()
    old = dict(records, **{"braid:4": ["1", "1"], "braid:5": ["1", "7"], k5: ["1", "7"]})
    cache_file.write_text(json.dumps(old))
    new_process()
    code, out = run_cli(capsys, "kl", "--n", "5")
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == ["1", "5"]
    code, out = run_cli(capsys, *query)
    assert json.loads(out)["outputs"]["coefficients"] == coeffs


def test_cache_untouched_when_nothing_added(tmp_path, capsys, monkeypatch, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    query = _cone_query(tmp_path)
    assert run_cli(capsys, *query)[0] == 0
    cache_file = tmp_path / "kltable.json"
    # braid rows from an older version: a rewrite would drop them
    records = json.loads(cache_file.read_text())
    cache_file.write_text(json.dumps(dict(records, **{"braid:5": ["1", "5"]})))
    before = cache_file.read_bytes()
    inode = cache_file.stat().st_ino
    for argv in (("kl", "--n", "6"), query):
        assert run_cli(capsys, *argv)[0] == 0
    assert cache_file.read_bytes() == before
    assert cache_file.stat().st_ino == inode


def test_cache_save_is_atomic(tmp_path, capsys, monkeypatch, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, *_cone_query(tmp_path, cone=1))[0] == 0
    cache_file = tmp_path / "kltable.json"
    before = cache_file.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    # a new graph row triggers a save, which fails half-way through
    assert main(list(_cone_query(tmp_path))) == 0
    assert "could not persist" in capsys.readouterr().err
    assert cache_file.read_bytes() == before
    # no temp file is left; the writers' lock file stays
    assert sorted(os.listdir(tmp_path)) == ["kltable.json", "kltable.json.lock", "p3.json"]


def test_cache_save_keeps_rows_of_another_writer(tmp_path, monkeypatch, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "kltable.json"
    on_disk = cli._load_cache()
    assert on_disk == {}
    # another run, with a memo of its own, saves its rows B in the meantime
    new_process()
    klcore.kl_graphic(cone_extend(Graph(3, [(0, 1), (1, 2)]), 2))
    rows_b = klcore.kl_cache_export()
    cli._save_cache({})
    assert json.loads(cache_file.read_text()) == rows_b
    # then this run, whose memo is still empty, computes its rows A and saves
    new_process()
    klcore.kl_graphic(cone_extend(Graph(4, [(0, 1), (2, 3)]), 2))
    rows_a = klcore.kl_cache_export()
    assert rows_a.keys() - rows_b.keys() and rows_b.keys() - rows_a.keys()
    cli._save_cache(on_disk)
    assert json.loads(cache_file.read_text()) == {**rows_b, **rows_a}


def test_cache_save_merge_keeps_memo_rows_and_drops_implausible(tmp_path, monkeypatch, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    klcore.kl_graphic(cone_extend(Graph(4, [(0, 1), (2, 3)]), 2))
    theirs = klcore.kl_cache_export()
    new_process()
    klcore.kl_graphic(cone_extend(Graph(3, [(0, 1), (1, 2)]), 2))
    ours = klcore.kl_cache_export()
    shared = max(ours, key=lambda k: len(ours[k]))
    poisoned = sorted(theirs.keys() - ours.keys())[0]
    assert ours[shared] != ["1"] and len(theirs.keys() - ours.keys()) > 1
    # the file holds a plausible but different row for one of our keys, an
    # implausible row, and rows of the other writer that we lack
    other = dict(theirs, **{shared: ["1"], poisoned: ["2"]})
    (tmp_path / "kltable.json").write_text(json.dumps(other))
    cli._save_cache({})
    saved = json.loads((tmp_path / "kltable.json").read_text())
    theirs.pop(poisoned)
    assert saved == {**theirs, **ours}


def test_concurrent_cli_writers_keep_every_row(tmp_path, monkeypatch, new_process):
    bases = {
        "p4": [(0, 1), (1, 2), (2, 3)],
        "2k2": [(0, 1), (2, 3)],
        "c4": [(0, 1), (1, 2), (2, 3), (3, 0)],
        "star": [(0, 1), (0, 2), (0, 3)],
    }
    expected = {}
    for name, edges in bases.items():
        new_process()
        klcore.kl_graphic(cone_extend(Graph(4, edges), 3))
        expected.update(klcore.kl_cache_export())
        (tmp_path / name).write_text(json.dumps({"n": 4, "edges": edges}))
    env = dict(os.environ, KL_CACHE_DIR=str(tmp_path / "cache"))
    # four writers started together: each loads no file, computes its rows
    # and saves
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "braidkl", "kl", "--graph", str(tmp_path / name), "--cone", "3"],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        for name in bases
    ]
    assert [p.wait(timeout=120) for p in procs] == [0] * len(procs)
    assert json.loads((tmp_path / "cache" / "kltable.json").read_text()) == expected


@pytest.mark.parametrize("content", ["[]", '{"graph:00": [null]}', "{"])
def test_cache_unreadable_is_replaced(tmp_path, capsys, monkeypatch, content):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "kltable.json"
    cache_file.write_text(content)
    assert main(list(_cone_query(tmp_path))) == 0
    assert "ignoring unreadable KL cache" in capsys.readouterr().err
    assert json.loads(cache_file.read_text()) == klcore.kl_cache_export()


@pytest.mark.parametrize(
    "poison", [["2", "1"], ["1", "-1"], ["1", "1", "1", "1"], [], "1", ["1", 1.0]]
)
def test_cache_implausible_row_is_skipped(tmp_path, capsys, monkeypatch, poison, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    query = _cone_query(tmp_path)
    code, out = run_cli(capsys, *query)
    assert code == 0
    coeffs = json.loads(out)["outputs"]["coefficients"]
    cache_file = tmp_path / "kltable.json"
    records = json.loads(cache_file.read_text())
    # every row of the file breaks an invariant of KL polynomials
    cache_file.write_text(json.dumps({key: poison for key in records}))
    new_process()
    code = main(list(query))
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["outputs"]["coefficients"] == coeffs
    assert captured.err.count("skipping implausible KL cache row") == len(records)
    assert json.loads(cache_file.read_text()) == records


def test_cache_row_as_string_is_skipped_not_read_digit_by_digit(tmp_path, capsys, monkeypatch, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    graph = tmp_path / "p4.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    query = ("kl", "--graph", str(graph), "--cone", "2")
    code, out = run_cli(capsys, *query)
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == ["1", "14", "8"]
    cache_file = tmp_path / "kltable.json"
    records = json.loads(cache_file.read_text())
    # the one row on 6 vertices (second key byte) is cone(P4, 2) itself
    (key,) = [k for k in records if bytes.fromhex(k.split(":", 1)[1])[1] == 6]
    assert records[key] == ["1", "14", "8"]
    cache_file.write_text(json.dumps(dict(records, **{key: "123"})))
    new_process()
    code = main(list(query))
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["outputs"]["coefficients"] == ["1", "14", "8"]
    assert f"skipping implausible KL cache row {key}" in captured.err
    assert json.loads(cache_file.read_text()) == records


def test_cache_in_older_format_changes_no_answer(tmp_path, capsys, monkeypatch, new_process):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    query = _cone_query(tmp_path)
    code, out = run_cli(capsys, *query)
    coeffs = json.loads(out)["outputs"]["coefficients"]
    assert coeffs == ["1", "5"]
    # an older version keyed every graph it met by its whole canonical key:
    # the cone and all its contractions, here each with a wrong row that
    # passes the plausibility check
    cone = cone_extend(Graph(3, [(0, 1), (1, 2)]), 2)
    adj = cone.adjacency_masks()
    graphs = {
        Graph.from_masks(quotient_masks(adj, blocks))
        for blocks in flat_masks(adj, (1 << cone.n) - 1)
    }
    old = {"graph:" + canonical_key(g).hex(): ["1"] for g in graphs if g.n > 1}
    cache_file = tmp_path / "kltable.json"
    cache_file.write_text(json.dumps(old))
    new_process()
    code, out = run_cli(capsys, *query)
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == coeffs
    records = json.loads(cache_file.read_text())
    assert records == klcore.kl_cache_export()
    assert not set(records) & set(old)


def test_kl_cone_beyond_key_byte_fails_fast(tmp_path, capsys):
    code = main(list(_cone_query(tmp_path, cone=300)))
    assert code == 2
    assert f"in one byte (at most {KEY_VERTEX_LIMIT})" in capsys.readouterr().err


def test_complete_graph_file_is_bounded_as_the_braid_row(tmp_path, capsys, monkeypatch, new_process):
    """K_n given as a file splits into cone({}, n), the braid row, and is
    bounded as `kl --n` is: past the work bound (K_242) and past the row
    key's byte (256 vertices) both exit 2 at once, the latter before the
    graph is split."""
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
    start = time.monotonic()
    assert main(["kl", "--n", "242"]) == 2
    assert "(the recursion handles 2^|H| k^3 <= " in capsys.readouterr().err
    assert time.monotonic() - start < 1

    def no_split(g):
        raise AssertionError("split past the key byte")

    monkeypatch.setattr(klcore, "_split_cone", no_split)
    start = time.monotonic()
    assert main(["kl", "--graph", str(path256)]) == 2
    byte = "graph on 256 vertices is out of reach: memo keys hold the vertex count"
    assert byte in capsys.readouterr().err
    assert time.monotonic() - start < 1


def test_cone_rows_past_100_vertices_persist(tmp_path, capsys, monkeypatch, new_process):
    """cone(3K1, 105) has 108 vertices, more than any row the cache held
    before: it is saved, and a new process given the same cone another way
    (one base vertex universal, listed first) reads it back unchanged."""
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    three = tmp_path / "3k1.json"
    three.write_text(json.dumps({"n": 3, "edges": []}))
    code, first = run_cli(capsys, "kl", "--graph", str(three), "--cone", "105")
    assert code == 0
    key = "graph:" + klcore._row_key(canonical_key(Graph(3)), 108).hex()
    records = json.loads((tmp_path / "kltable.json").read_text())
    assert records[key] == json.loads(first)["outputs"]["coefficients"]
    relabelled = tmp_path / "w3k1.json"
    relabelled.write_text(json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}))
    new_process()

    def no_row(self, k):
        raise AssertionError("row rebuilt instead of read from the cache")

    monkeypatch.setattr(klcore._ConeBase, "row", no_row)
    code, again = run_cli(capsys, "kl", "--graph", str(relabelled), "--cone", "104")
    assert code == 0
    assert json.loads(again)["outputs"]["coefficients"] == records[key]
    assert json.loads((tmp_path / "kltable.json").read_text()) == records


def test_cone_past_the_base_bound_exits_at_once(tmp_path, capsys):
    """cone(P12, 4) is inside the row key's byte and the canonical-key search
    bound, and its base table would take more than a minute."""
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
    """cone(P10, 90) is inside the row key's byte and the base bound, and ran
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
    10**9: f"graph on {3 + 10**9} vertices is out of reach: memo keys hold the "
    f"vertex count in one byte (at most {KEY_VERTEX_LIMIT})",
}


@pytest.mark.parametrize("cone", CONE_REFUSALS)
def test_cone_past_the_vertex_bound_exits_at_once(tmp_path, capsys, cone):
    """Cones over P3 past 100 vertices.  cone(P3, 98), on 101, is answered;
    cone(P3, 250) fits the row key's byte but is past the work bound and would
    run for minutes, and 10**9 would not fit in memory if the cone were built:
    both exit 2 at once."""
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "braidkl", "kl", "--n", "4"],
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
    env = dict(os.environ, KL_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _assert_not_loaded(argv, unused, env):
    """Run the command in a fresh process; none of `unused` may load."""
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
    """Each run is a fresh `kl` process; the cone runs write, then read, a
    persisted table, so the cache load and save are covered too."""
    env = _probe_env(tmp_path)
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    cone = ["kl", "--graph", str(graph), "--cone", "2"]
    for argv in (["kl", "--n", "5"], cone, cone):
        _assert_not_loaded(argv, UNUSED_BY_KL, env)
    assert (tmp_path / "cache" / "kltable.json").exists()


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


def test_eqkl_leaves_the_kl_cache_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "kltable.json"
    cache_file.write_bytes(b"{not json")
    assert main(["eqkl", "--n", "5"]) == 0
    assert capsys.readouterr().err == ""
    assert cache_file.read_bytes() == b"{not json"
    assert os.listdir(tmp_path) == ["kltable.json"]
    # a query that uses the table reads the same file and warns
    assert main(list(_cone_query(tmp_path))) == 0
    assert "ignoring unreadable KL cache" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--n", "4"],
        ["e1", "--i", "2", "--n", "6"],
        ["verify", "--suite", "paper-i1"],
    ],
    ids=["kl", "e1", "verify"],
)
def test_queries_without_graph_leave_the_kl_cache_alone(tmp_path, monkeypatch, capsys, new_process, argv):
    """No braid row is persisted and verify checks the code, not a file:
    an unreadable file draws no warning and is neither rewritten nor
    locked."""
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "kltable.json"
    cache_file.write_bytes(b"{not json")
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert cache_file.read_bytes() == b"{not json"
    assert os.listdir(tmp_path) == ["kltable.json"]


# Modules a verify suite has no use for; each suite imports its own.
UNUSED_BY_SUITE = {
    "properties": ("braidkl.fsmod", "braidkl.specseq", "dataclasses"),
    "paper-i1": ("braidkl.eqkl", "braidkl.fsmod", "braidkl.polyseries", "dataclasses"),
    "paper-i2": ("braidkl.eqkl", "braidkl.fsmod", "braidkl.polyseries", "dataclasses"),
    "fs": ("braidkl.eqkl", "braidkl.polyseries", "braidkl.specseq", "dataclasses"),
}


@pytest.mark.parametrize("suite", sorted(UNUSED_BY_SUITE))
def test_verify_suite_loads_only_the_modules_it_uses(tmp_path, suite):
    argv = ["verify", "--suite", suite]
    _assert_not_loaded(argv, UNUSED_BY_SUITE[suite], _probe_env(tmp_path))
