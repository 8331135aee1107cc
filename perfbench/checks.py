"""Output checks of one braidkl CLI job.

`check_output` holds for any seed: the job exited 0, every verdict it
reports is true, and every KL row has constant term 1, non-negative
coefficients and degree below rank/2.  It also returns a digest of the
job's outputs, which run.py compares with the digests pinned in
`digests.json` and, in cache-replay, with the job's first occurrence.
"""

from __future__ import annotations

import hashlib
import json


class CheckFailed(Exception):
    pass


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def _kl_row(coeffs: list, rank: int) -> None:
    _require(coeffs[0] == 1, f"constant term {coeffs[0]} is not 1")
    _require(all(c >= 0 for c in coeffs), "negative KL coefficient")
    _require(2 * (len(coeffs) - 1) < rank, f"degree {len(coeffs) - 1} not below rank/2")


def _check_verify(text: str) -> str:
    lines = text.splitlines()
    _require(bool(lines), "no output")
    _require(all(line.startswith("PASS ") for line in lines[:-1]), "a check failed")
    passed, _, total = lines[-1].split()[0].partition("/")
    _require(passed == total and int(total) == len(lines) - 1, lines[-1])
    return text


def _check_eqkl_csv(text: str, n: int) -> str:
    lines = text.splitlines()
    _require(lines[:1] == ["degree,partition,multiplicity"], "missing CSV header")
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    _require(all(int(m) > 0 for _, m in rows), "non-positive multiplicity")
    degree0 = [row for row in rows if row[0].split(",", 1)[0] == "0"]
    _require(degree0 == [[f'0,"{n}"', "1"]], "degree 0 is not the trivial character")
    return text


def _check_report(report: dict, kind: str, rank: int | None):
    verdicts = report.get("verdicts", {})
    _require(all(v is True for v in verdicts.values()), f"verdicts {verdicts}")
    out = report["outputs"]
    if kind == "kl":
        _kl_row([int(c) for c in out["coefficients"]], rank)
    elif kind == "e1":
        _require(out["euler_lhs"] == out["euler_rhs"], "Euler identity fails")
        _require("euler_identity" in verdicts, "no Euler verdict")
    elif kind == "genfun":
        _require(all(int(d) >= 0 for d in out["dims"]), "negative dimension")
        _require(verdicts.get("r_matches_dfg") is True, "asymptotic constant not checked")
    elif kind == "eqkl":
        n = int(report["inputs"]["n"])
        degrees = out["degrees"]
        _require(degrees[0]["specht_multiplicities"] == {str(n): "1"}, "degree 0 not trivial")
        for d in degrees:
            _require(all(int(m) > 0 for m in d["specht_multiplicities"].values()),
                     "non-positive multiplicity")
        _kl_row([int(d["dimension"]) for d in degrees], n - 1)
    return out


def check_output(job, code: int, stdout: str) -> str:
    """Digest of the job's outputs; raises CheckFailed when they are wrong."""
    _require(code == 0, f"exit code {code}")
    try:
        if job.kind == "verify":
            outputs = _check_verify(stdout)
        elif job.kind == "eqkl-csv":
            outputs = _check_eqkl_csv(stdout, int(job.argv[job.argv.index("--n") + 1]))
        else:
            outputs = _check_report(json.loads(stdout), job.kind, job.rank)
    except (ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
