"""Run one braidkl CLI job in this fresh interpreter, the way the `braidkl`
console script does (`braidkl.cli.main(argv)`), with the library imported
from SRC.

    python3 perfbench/jobrun.py SRC OUT_DIR JOB_ID TRACE -- ARG...

With TRACE 1 the public functions of the traced braidkl modules are wrapped
before the job starts, and the spans are written to OUT_DIR/JOB_ID.spans.json
when it ends.  TRACE 0 runs the same code path without the wrappers, so the
traced and untraced wall times differ only by the tracing.  Either way the
job's peak resident set goes to OUT_DIR/JOB_ID.rss, in kB.
"""

import os
import sys


def peak_rss_kb() -> int:
    """High-water resident set of this process image.  VmHWM counts only
    pages touched since exec; ru_maxrss would also count the parent's pages
    inherited through the fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src, out_dir, job_id, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: jobrun.py SRC OUT_DIR JOB_ID 0|1 -- ARG...", file=sys.stderr)
        return 2
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    try:
        import braidkl.cli

        if not os.path.abspath(braidkl.cli.__file__).startswith(src + os.sep):
            print(f"braidkl was not imported from {src}", file=sys.stderr)
            return 3
        if trace == "0":
            return braidkl.cli.main(argv)
        from tracer import Tracer, install

        tracer = Tracer(job_id)
        install(tracer)
        try:
            return braidkl.cli.main(argv)
        finally:
            tracer.dump(os.path.join(out_dir, f"{job_id}.spans.json"))
    finally:
        with open(os.path.join(out_dir, f"{job_id}.rss"), "w") as fh:
            fh.write(str(peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(main())
