"""Benchmark of the braidkl command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one `braidkl` CLI call in its own fresh interpreter (see
jobrun.py), run one at a time from this process, with the library taken
from `src/` of the checkout.  Every job's output is checked (checks.py).

--trace 0 runs passes of the workload for about S seconds and prints the
end-to-end metrics; --trace 1 runs one untraced and one traced pass of the
same jobs and prints the per-layer metrics taken from the spans
(tracer.py).  `--workload all` runs every workload both ways, so it prints
every metric.  The last line of standard output is one JSON object; the
lines before it print every metric by name with its unit, the stamp of the
run and the distribution of each timing.  Scratch files go to
`.perfbench_out/` and are removed at the end; the full report of each run
is kept in `.perfbench_out/results/`.

`--pin-digests` rewrites digests.json from the default seed's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
PINNED_PASSES = 3  # passes of the default seed whose digests are pinned
SAMPLES_PER_PASS = 8  # setup and calibration samples spread over a pass
JOB_BUDGET_S = 60.0  # a job running longer is killed and counts as failed
RUN_BUDGET_S = 120.0  # no job is started after this; the rest count as failed

SETUP = "import sys; sys.path.insert(0, sys.argv[1]); import braidkl.cli"
# The interpreter start and the standard-library imports that SETUP pays too;
# setup samples are rescaled by it rather than by CALIBRATION, since start-up
# speed on this host drifts apart from compute speed.
SETUP_CALIBRATION = "import argparse, dataclasses, fractions, functools, itertools, json, math, threading"

# The host's speed drifts by tens of percent over minutes, for every process
# alike.  A fixed pure-Python program, run in a fresh interpreter beside the
# jobs, measures that speed: every end-to-end time is rescaled to a host on
# which it takes CAL_REF_S.  It uses nothing from the repository, so a change
# to braidkl never moves it.  Do not edit it: that would rescale every time.
CALIBRATION = """
from fractions import Fraction
a = [(i * 7919) % 104729 for i in range(300)]
out = [0] * 599
for i, x in enumerate(a):
    for j, y in enumerate(a):
        out[i + j] += x * y
d = {}
for i in range(60000):
    d[i % 997] = d.get(i % 997, 0) + i
s = sum(Fraction(1, k) for k in range(1, 250))
"""
CAL_REF_S = 0.1


class JobResult:
    def __init__(self, job, wall, rss_mb, code, stdout, stderr, span_file):
        self.job = job
        self.wall = wall
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.span_file = span_file
        self.wall_ref = None  # wall rescaled to the reference host speed
        self.digest = None
        self.error = None


def run_job(job, ctx, pass_dir, traced, env) -> JobResult:
    argv = list(job.argv)
    if job.graph is not None:
        path = os.path.join(pass_dir, f"{job.id}.graph.json")
        with open(path, "w") as fh:
            json.dump({"n": job.graph[0], "edges": job.graph[1]}, fh)
        argv = [path if a == "{graph}" else a for a in argv]
    cmd = [sys.executable, os.path.join(HERE, "jobrun.py"), ctx.src, pass_dir, job.id,
           "1" if traced else "0", "--", *argv]
    base = os.path.join(pass_dir, job.id)
    with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ctx.root)
        timer = threading.Timer(JOB_BUDGET_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(base + ".out") as fh:
        stdout = fh.read()
    with open(base + ".err") as fh:
        stderr = fh.read()
    try:
        with open(base + ".rss") as fh:
            rss_mb = int(fh.read()) / 1024
    except (OSError, ValueError):
        rss_mb = 0.0
    span_file = base + ".spans.json" if traced else None
    res = JobResult(job, wall, rss_mb, code, stdout, stderr, span_file)
    if wall >= JOB_BUDGET_S:
        res.error = f"over the {JOB_BUDGET_S:.0f} s budget"
    return res


def run_pass(ctx, index: int, traced: bool) -> dict:
    jobs = workloads.jobs_for(ctx.workload, ctx.seed, index)
    pass_dir = os.path.join(ctx.run_dir, f"pass{index}-{'traced' if traced else 'untraced'}")
    os.makedirs(pass_dir)
    env = dict(os.environ)
    cache_dir = None
    if ctx.workload == "cache-replay":
        cache_dir = env["KL_CACHE_DIR"] = os.path.join(pass_dir, "klcache")
    results = []
    calib = []  # calibration times, before every stride-th job and after the last
    stride = max(1, len(jobs) // SAMPLES_PER_PASS)
    for k, job in enumerate(jobs):
        if not traced and k % stride == 0:
            setup = time_setup(ctx)
            setup_calib = time_interpreter(ctx, ["-c", SETUP_CALIBRATION])
            calib.append(time_interpreter(ctx, ["-c", CALIBRATION]))
            ctx.setup_raw.append(setup)
            ctx.setup_ref.append(setup * CAL_REF_S / setup_calib)
        if time.perf_counter() - ctx.start > RUN_BUDGET_S:
            res = JobResult(job, 0.0, 0.0, None, "", "", None)
            res.error = "not started: run time budget spent"
        else:
            res = run_job(job, ctx, pass_dir, traced, env)
        results.append(res)
    if not traced:
        calib.append(time_interpreter(ctx, ["-c", CALIBRATION]))
        for k, res in enumerate(results):
            speed = (calib[k // stride] + calib[k // stride + 1]) / 2
            res.wall_ref = res.wall * CAL_REF_S / speed
    by_id = {r.job.id: r for r in results}
    for res in results:
        if res.error is None:
            try:
                res.digest = checks.check_output(res.job, res.code, res.stdout)
            except checks.CheckFailed as exc:
                res.error = f"{exc}; stderr: {res.stderr.strip()[-300:]}"
        if res.error is None:
            res.error = ctx.digest_mismatch(res, index)
        if res.error is None and res.job.warm:
            first = by_id[res.job.first]
            if res.digest != first.digest:
                res.error = f"outputs differ from first occurrence {first.job.id}"
    cache_bytes = 0
    if cache_dir is not None:
        path = os.path.join(cache_dir, "kltable.json")
        cache_bytes = os.path.getsize(path) if os.path.exists(path) else 0
    out = {
        "index": index,
        "traced": traced,
        "results": results,
        "wall": sum(r.wall for r in results),
        "job_max": max(r.wall for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "cache_bytes": cache_bytes,
        "calib": calib,
    }
    if not traced:
        out["wall_ref"] = sum(r.wall_ref for r in results)
        out["job_max_ref"] = max(r.wall_ref for r in results)
    return out


def distribution(values: list) -> dict:
    """Median and sample count, plus the highest of p50/p90/p99/p99.9 that
    has at least ten samples beyond it (None when there are too few)."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n, "pct": None, "pct_value": None}
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            out["pct"] = p
            out["pct_value"] = vals[min(n - 1, int(n * p / 100))]
    return out


def time_interpreter(ctx, args: list) -> float:
    """Wall time of a fresh interpreter run with `args`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ctx.root,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{args} failed:\n{proc.stderr.decode()}")
    return elapsed


def time_setup(ctx) -> float:
    """Wall time of a fresh interpreter running `import braidkl.cli`."""
    return time_interpreter(ctx, ["-c", SETUP, ctx.src])


def git_commit(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


class Context:
    def __init__(self, root, workload, seed, digests):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.start = time.perf_counter()
        self.setup_raw: list = []  # import-only start times, as measured
        self.setup_ref: list = []  # the same, rescaled by SETUP_CALIBRATION beside each
        self.run_dir = os.path.join(root, ".perfbench_out", f"{workload}-seed{seed}-pid{os.getpid()}")

    def digest_mismatch(self, res, index: int):
        pinned = self.digests.get(res.job.key())
        if pinned is None:
            must = self.seed == DEFAULT_SEED and index < PINNED_PASSES and self.digests
            return "no pinned digest for a default-seed job" if must else None
        return None if pinned == res.digest else "outputs differ from the pinned digest"


def per_layer(untraced: dict, traced: dict) -> dict:
    s = tracer.summarize([r.span_file for r in traced["results"] if os.path.exists(r.span_file)])
    self_s, calls, obs = s["self_s"], s["calls"], s["obs"]

    def t(name):
        return self_s.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def frac(a, b):
        return a / b if b else 0.0

    warm = [r.wall for r in untraced["results"] if r.job.warm]
    cold = [r.wall for r in untraced["results"] if not r.job.warm]
    m = {f"{mod}.self_s": (s["module_self_s"][mod], "s") for mod in tracer.MODULES}
    m.update(
        {
            "klcore.braid.self_s": (t("klcore.kl_braid") + t("klcore.d_coeff"), "s"),
            "klcore.braid_max_n": (obs["braid_max_n"], "count"),
            "polyseries.fit_rational.s": (t("polyseries.fit_rational"), "s"),
            "specseq.comp_dim.s": (t("specseq.comp_dim"), "s"),
            "specseq.ratio_diagnostic.s": (t("specseq.ratio_diagnostic"), "s"),
            "klcore.kl_graphic.self_s": (t("klcore.kl_graphic"), "s"),
            "klcore.kl_graphic.calls": (c("klcore._kl_graphic_coeffs"), "count"),
            "graphmat.connected_partitions.s": (t("graphmat.connected_partitions"), "s"),
            "graphmat.flats": (obs.get("flats", 0), "count"),
            "graphmat.flat_yield": (frac(obs.get("flats", 0), obs.get("bell_enumerated", 0)), "ratio"),
            "graphmat.localize.s": (t("graphmat.localize"), "s"),
            "graphmat.contract.s": (t("graphmat.contract"), "s"),
            "graphmat.char_poly.s": (t("graphmat.char_poly"), "s"),
            "graphmat.char_poly.calls": (c("graphmat.char_poly"), "count"),
            "graphmat.canonical_key.s": (t("graphmat.canonical_key"), "s"),
            "graphmat.canonical_key.calls": (c("graphmat.canonical_key"), "count"),
            "graphmat.canonical_key.distinct_frac": (
                frac(obs.get("canonical_key_distinct", 0), c("graphmat.canonical_key")),
                "ratio",
            ),
            "specseq.euler_identity_graph.s": (t("specseq.euler_identity_graph"), "s"),
            "graphmat.conf_betti.s": (t("graphmat.conf_betti"), "s"),
            "eqkl.char_poly_symfn.s": (t("eqkl.char_poly_symfn"), "s"),
            "eqkl.plethysm.s": (t("eqkl.plethysm"), "s"),
            "eqkl.symfn_mul.calls": (c("eqkl.SymFn.mul"), "count"),
            "eqkl.ch_inv.s": (t("eqkl.ch_inv"), "s"),
            "eqkl.ch_inv.calls": (c("eqkl.ch_inv"), "count"),
            "eqkl.specht_decompose.s": (t("eqkl.specht_decompose"), "s"),
            "eqkl.specht_decompose.calls": (c("eqkl.specht_decompose"), "count"),
            "eqkl.bruteforce.s": (t("eqkl.eqkl_braid_bruteforce"), "s"),
            "combinat.mn_character.calls": (c("combinat.mn_character"), "count"),
            "klcore.cache_import_s": (t("klcore.kl_cache_import"), "s"),
            "klcore.cache_export_s": (t("klcore.kl_cache_export"), "s"),
            "cli.cache_bytes": (untraced["cache_bytes"], "B"),
            "cli.warm_job_s": (statistics.median(warm) if warm else 0.0, "s"),
            "cli.cold_job_s": (statistics.median(cold), "s"),
            "trace_overhead_frac": (traced["wall"] / untraced["wall"] - 1, "ratio"),
        }
    )
    return m


def measure(ctx, seconds: float):
    """Untraced passes until the next one would end after `seconds`."""
    time_setup(ctx)  # untimed: writes the bytecode caches
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ctx, len(passes), traced=False))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    timings = {
        "setup_s": distribution(ctx.setup_ref),
        "wall_s": distribution([p["wall_ref"] for p in passes]),
        "job_max_s": distribution([p["job_max_ref"] for p in passes]),
        "job_s": distribution([r.wall_ref for p in passes for r in p["results"]]),
    }
    metrics = {
        "setup_s": (timings["setup_s"]["median"], "s"),
        "wall_s": (timings["wall_s"]["median"], "s"),
        "job_max_s": (timings["job_max_s"]["median"], "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    raw = {
        "setup_s": statistics.median(ctx.setup_raw),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_max_s": statistics.median(p["job_max"] for p in passes),
        "calibration_s": statistics.median(c for p in passes for c in p["calib"]),
    }
    return passes, metrics, timings, raw


def run_workload(root, workload, seed, seconds, trace, digests) -> dict:
    ctx = Context(root, workload, seed, digests)
    os.makedirs(ctx.run_dir)
    try:
        if trace:
            passes = [run_pass(ctx, 0, traced=False), run_pass(ctx, 0, traced=True)]
            metrics, timings, raw = per_layer(*passes), {}, {}
        else:
            passes, metrics, timings, raw = measure(ctx, seconds)
        attempted = sum(len(p["results"]) for p in passes)
        failed = sum(1 for p in passes for r in p["results"] if r.error is not None)
        if not trace:
            metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
        report = {
            "stamp": {
                "workload": workload,
                "seed": seed,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "commit": git_commit(root),
                "traced": bool(trace),
            },
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "timings": timings,
            "raw": raw,
            "attempted": attempted,
            "failed": failed,
            "jobs": [
                {
                    "pass": p["index"],
                    "traced": p["traced"],
                    "id": r.job.id,
                    "args": r.job.key(),
                    "cache": "warm" if r.job.warm else "cold",
                    "wall_s": r.wall,
                    "wall_ref_s": r.wall_ref,
                    "rss_mb": r.rss_mb,
                    "exit": r.code,
                    "digest": r.digest,
                    "error": r.error,
                }
                for p in passes
                for r in p["results"]
            ],
        }
        results_dir = os.path.join(root, ".perfbench_out", "results")
        os.makedirs(results_dir, exist_ok=True)
        name = f"{workload}-seed{seed}-trace{trace}.json"
        with open(os.path.join(results_dir, name), "w") as fh:
            json.dump(report, fh, indent=1)
        print_report(report)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": report["metrics"],
        }
    finally:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)


def print_report(report: dict) -> None:
    st = report["stamp"]
    warm = sum(1 for job in report["jobs"] if job["cache"] == "warm")
    print(
        f"# {st['workload']}: seed={st['seed']} python={st['python']} nproc={st['nproc']} "
        f"commit={st['commit'][:12]} {'traced' if st['traced'] else 'untraced'} "
        f"cold={len(report['jobs']) - warm} warm={warm}"
    )
    for job in report["jobs"]:
        if job["error"]:
            print(f"#   FAILED {job['id']} ({job['args']}): {job['error']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"#   attempted={attempted} failed={failed} failed_frac={failed / attempted:.4g}")
    if report["raw"]:
        print(f"#   times in reference seconds: measured time x {CAL_REF_S} s / calibration "
              f"time beside it (median {report['raw']['calibration_s']:.4g} s)")

    def describe(dist):
        if dist["pct"] is None:
            return f"median of n={dist['n']}; no percentile with 10 samples beyond"
        return f"median of n={dist['n']}; p{dist['pct']:g}={dist['pct_value']:.6g}"

    for name, m in report["metrics"].items():
        line = f"  {name:40s} {m['value']:.6g} {m['unit']}"
        if name in report["timings"]:
            line += f"  ({describe(report['timings'][name])}; measured {report['raw'][name]:.6g} s)"
        print(line)
    if "job_s" in report["timings"]:
        print(f"  {'(job wall)':40s} {report['timings']['job_s']['median']:.6g} s  "
              f"({describe(report['timings']['job_s'])})")


def pin_digests(root: str) -> int:
    pinned = {}
    for workload in workloads.WORKLOADS:
        ctx = Context(root, workload, DEFAULT_SEED, {})
        os.makedirs(ctx.run_dir)
        try:
            for index in range(PINNED_PASSES):
                for res in run_pass(ctx, index, traced=False)["results"]:
                    if res.error is not None:
                        print(f"{workload} {res.job.key()}: {res.error}", file=sys.stderr)
                        return 1
                    pinned[res.job.key()] = res.digest
        finally:
            shutil.rmtree(ctx.run_dir, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "passes": PINNED_PASSES, "digests": pinned}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pinned)} job digests in {DIGESTS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "braidkl", "cli.py")):
        print(f"error: no braidkl sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.pin_digests:
        return pin_digests(root)
    with open(DIGESTS) as fh:
        digests = json.load(fh)["digests"]
    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace, digests)
        print(json.dumps(result))
        return 0
    results = {
        f"{name}/trace{trace}": run_workload(root, name, args.seed, args.seconds, trace, digests)
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
