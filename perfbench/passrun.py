"""One pass of one workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  Prints nothing; writes
one JSON result file:

  setup_s       seconds from the parent's spawn call until the first job
                can start: interpreter start, `import confbc`, and writing
                the seeded channel files
  wall_s        seconds for the whole job list, back to back
  peak_rss_mib  high-water resident memory of this process
  jobs          per job: exit code or exception, and its output
  trace         per-layer metrics, when run with --trace 1
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run_job(job, cli, suites):
    """Run one job; returns (record, raw output).  Output is decoded after
    the timed loop."""
    if job["kind"] == "region":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(job["argv"])
        return {"exit": code}, buf.getvalue()
    report = suites.run_suite(job["suite"], seed=job["seed"], **job["overrides"])
    return {"exit": 0}, report


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="parent's time.monotonic() just before spawning")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import confbc                                   # noqa: F401
    from confbc import cli, suites
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    channels, jobs = workloads.job_list(args.workload, args.seed, args.scale)
    os.chdir(args.workdir)
    workloads.write_channels(channels, ".")
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    records, raw = [], []
    t0 = time.perf_counter()
    for job in jobs:
        j0 = time.perf_counter()
        try:
            if tracer:
                with tracer.job(job["id"]):
                    rec, out = _run_job(job, cli, suites)
            else:
                rec, out = _run_job(job, cli, suites)
        except Exception:
            rec, out = {"exit": None, "error": traceback.format_exc()}, None
        rec["seconds"] = time.perf_counter() - j0
        records.append(rec)
        raw.append(out)
    wall_s = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for job, rec, out in zip(jobs, records, raw):
        rec["id"] = job["id"]
        if out is None:
            continue
        if job["kind"] == "region":
            if rec["exit"] == 0:
                doc = json.loads(out)
                rec["directions"] = doc["directions"]
                rec["supports"] = [float(s) for s in doc["supports"]]
        else:
            rec["suite_pass"] = out.passed
            rec["failed_checks"] = [c["name"] for c in out.checks if not c["pass"]]
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mib": peak_rss_mib, "jobs": records}
    if tracer:
        result["trace"] = tracer.metrics()
        tracer.write(os.path.join(args.workdir, "spans-%s.jsonl" % args.workload))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
