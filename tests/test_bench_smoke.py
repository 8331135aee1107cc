"""Smoke test of the traced benchmark job runner.

perfbench/tracer.py wraps library functions by name from outside the
package, so a refactor that drops or renames one of them breaks the traced
benchmark passes without failing any library test.  Here one traced job per
suite runs end to end through perfbench/jobrun.py."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
JOBRUN = os.path.join(ROOT, "perfbench", "jobrun.py")


@pytest.mark.parametrize("suite", ["paper-i2", "properties"])
def test_traced_verify_job_runs(tmp_path, suite):
    env = dict(os.environ, KL_CACHE_DIR=str(tmp_path / "cache"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, JOBRUN, SRC, str(tmp_path), "j0", "1", "--", "verify", "--suite", suite],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "j0.spans.json").exists()
