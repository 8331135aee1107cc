"""Smoke test of the traced benchmark job runner.

perfbench/tracer.py wraps library functions by name from outside the
package, so a refactor that drops or renames one of them breaks the traced
benchmark passes without failing any library test.  Here traced verify,
kl --graph, e1 --graph and eqkl jobs run end to end through
perfbench/jobrun.py."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
JOBRUN = os.path.join(ROOT, "perfbench", "jobrun.py")
P4 = "{p4}"  # replaced by the path of a P4 graph file


def run_traced(tmp_path, argv):
    p4 = tmp_path / "p4.json"
    p4.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    argv = [str(p4) if a == P4 else a for a in argv]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, JOBRUN, SRC, str(tmp_path), "j0", "1", "--", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "j0.spans.json").exists()


@pytest.mark.parametrize("suite", ["paper-i2", "properties"])
def test_traced_verify_job_runs(tmp_path, suite):
    run_traced(tmp_path, ["verify", "--suite", suite])


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--graph", P4, "--cone", "3"],
        ["e1", "--i", "2", "--n", "4", "--graph", P4],
        ["eqkl", "--n", "6"],
    ],
    ids=["kl-graph-cone", "e1-graph", "eqkl"],
)
def test_traced_job_runs(tmp_path, argv):
    run_traced(tmp_path, argv)
