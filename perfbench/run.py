"""confbc benchmark: three seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload support-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0          # all workloads, untraced and traced
    python3 perfbench/run.py --self-test

Run from the repository root (the package is imported from ./src).
Each workload is a closed loop with one client: its fixed job list
(workloads.py) runs back to back in a fresh interpreter per pass, and
passes repeat until --seconds is used up (at least one pass).

--trace 0 prints the end-to-end metrics, each a median over the run:
  wall_s        seconds for one pass of the job list
  setup_s       seconds from spawning a fresh interpreter until its first
                job can start (import confbc, write the seeded inputs),
                over every pass plus extra set-up-only interpreters
  peak_rss_mib  high-water resident memory of a pass process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of tracer.py; trace.overhead_s is traced minus untraced wall_s.

Every job's output is checked after its pass (checks.py).  The failure
ratio is printed as failed/attempted jobs, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Work files (channel JSON, CSVs, spans) go to .perfbench_work/<workload>/
and each run's result to .perfbench_work/<workload>.trace<0|1>.json.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# A run must end within 180 s; no pass may start that would need more.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CONFBC_THREADS")
REFERENCE = os.path.join(HERE, "reference.json")


class BenchError(Exception):
    pass


def environment():
    """What the numbers depend on.  The thread variables are recorded,
    never set."""
    import numpy
    return {"commit": _commit(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def _commit():
    """HEAD from .git when the checkout has one, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def run_pass(workload, seed, workdir, deadline, scale="full", trace=0,
             setup_only=False):
    """One pass in a fresh interpreter; returns its result dict."""
    result = os.path.join(workdir, "pass.json")
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--trace", str(trace), "--workdir", workdir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("pass did not finish within %.0f s" % timeout) from None
    if proc.returncode != 0:
        raise BenchError("pass exited with code %d:\n%s" % (proc.returncode, err))
    with open(result) as fh:
        return json.load(fh)


def load_reference(workload, seed, scale):
    if seed != workloads.CANONICAL_SEED or scale != "full":
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def make_oracles(jobs, channels, results, seed):
    """Oracle samples for every region job that produced an envelope in
    any of the results (a job that never did fails on its exit code)."""
    import numpy as np
    import checks
    dirs = {}
    for res in results:
        for rec in res["jobs"]:
            if "directions" in rec:
                dirs.setdefault(rec["id"], np.array(rec["directions"]))
    return {job["id"]: checks.oracle_supports(
                job, channels[job["channel"]], dirs[job["id"]], seed)
            for job in jobs if job["id"] in dirs}


def measure(workload, seed, seconds, trace, scale="full", out=sys.stdout):
    """Run passes for `seconds`, check them, and return the result line."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench_work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(run_pass(workload, seed, workdir, deadline, scale))
        if trace:
            traced.append(run_pass(workload, seed, workdir, deadline, scale,
                                   trace=1))
        step = time.monotonic() - t0
        elapsed = time.monotonic() - start
        # start another pass only if at least half of it fits
        if elapsed + step / 2 > seconds or elapsed + step > RUN_LIMIT_S - 20:
            break
    measured = time.monotonic() - start
    setups = [p["setup_s"] for p in plain]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(workload, seed, workdir, deadline, scale,
                                   setup_only=True)["setup_s"])

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    channels, jobs = workloads.job_list(workload, seed, scale)
    oracles = make_oracles(jobs, channels, plain + traced, seed)
    reference = load_reference(workload, seed, scale)
    attempted = failed = 0
    for kind, results in (("pass", plain), ("traced pass", traced)):
        for i, res in enumerate(results):
            verdicts = checks.check_pass(jobs, res, oracles, reference,
                                         untraced=plain[0] if kind != "pass" else None)
            bad = {j: p for j, p in verdicts.items() if p}
            attempted += len(verdicts)
            failed += len(bad)
            print("%s %d: wall %.3f s, setup %.3f s, peak rss %.1f MiB, "
                  "%d jobs, %d failed"
                  % (kind, i + 1, res["wall_s"], res["setup_s"],
                     res["peak_rss_mib"], len(verdicts), len(bad)), file=out)
            for jid, probs in bad.items():
                for p in probs:
                    print("  FAIL %s: %s" % (jid, p), file=out)

    print("workload %s, seed %d: %d pass(es) in %.1f s of %g s"
          % (workload, seed, len(plain), measured, seconds), file=out)
    if trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in plain), "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit), file=out)
    print("%-40s %.4g ratio (%d failed of %d attempted jobs)"
          % ("fail_ratio", failed / attempted, failed, attempted), file=out)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    with open(workdir + ".trace%d.json" % trace, "w") as fh:
        json.dump(dict(line, seed=seed, environment=environment()), fh, indent=1)
    return line


def measure_all(seed, seconds):
    """Every workload, untraced then traced; metrics named workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            print("== %s, %s" % (w, "traced" if trace else "untraced"))
            line = measure(w, seed, seconds, trace)
            total["correct"] &= line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            for name, m in line["metrics"].items():
                total["metrics"]["%s/%s" % (w, name)] = m
    return total


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def per_layer(plain, traced):
    """Median of each per-layer metric over the traced passes, plus the
    tracing cost against the untraced passes of the same run."""
    names = list(traced[0]["trace"])
    out = {n: (statistics.median(t["trace"][n] for t in traced), _unit(n))
           for n in sorted(names)}
    wall = statistics.median(t["wall_s"] for t in traced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - statistics.median(p["wall_s"] for p in plain), "s")
    return out


# ---------------------------------------------------------------------------
# self-test and reference
# ---------------------------------------------------------------------------

def self_test():
    """All three workloads and the tracer at tiny sizes, then two
    negative cases that must be counted as failures."""
    ok = True
    results = {}
    for w in workloads.WORKLOADS:
        buf = io.StringIO()
        line = measure(w, 0, 0, trace=1, scale="tiny", out=buf)
        results[w] = line
        good = line["correct"] and line["attempted"] == 2 * len(
            workloads.job_list(w, 0, "tiny")[1])
        print("%s %s tiny: %d attempted, %d failed"
              % ("ok  " if good else "FAIL", w, line["attempted"], line["failed"]))
        if not good:
            print(buf.getvalue())
        ok &= good
    m = {w: {n: v["value"] for n, v in r["metrics"].items()} for w, r in results.items()}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = sorted(x["name"] for x in json.load(fh)["per_layer"])
    layer_claims = [
        ("traced runs print exactly the per-layer metrics of BENCHMARK.json",
         all(sorted(m[w]) == declared for w in m)),
        ("support-sweep prices rows in batch_support",
         m["support-sweep"]["regions.batch_support_rows"] > 0),
        ("exact-sweep never calls batch_support",
         m["exact-sweep"]["regions.batch_support_calls"] == 0),
        ("per-draw runs Fourier-Motzkin elimination",
         m["per-draw"]["regions.fm_eliminate_calls"] > 0),
        ("every job ran under a job span",
         all(m[w]["cli.calls"] + m[w]["suites.checks"] > 0 for w in m)),
    ]
    for label, good in layer_claims:
        print("%s %s" % ("ok  " if good else "FAIL", label))
        ok &= good

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    from confbc import cli
    workdir = os.path.join(ROOT, ".perfbench_work", "self-test")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    for w, mutate, label in (
            ("support-sweep", "perturb", "a support raised by 1e-6 bits"),
            ("exact-sweep", "exit", "a CLI call that exits nonzero")):
        channels, jobs = workloads.job_list(w, 0, "tiny")
        res = run_pass(w, 0, workdir, deadline, "tiny")
        oracles = make_oracles(jobs, channels, [res], 0)
        rec = res["jobs"][0]
        if mutate == "perturb":
            rec["supports"][len(rec["supports"]) // 2] += 1e-6
        else:
            # the default t4 grid is over the evaluation budget: exit 4
            workloads.write_channels(channels, workdir)
            with contextlib.redirect_stderr(io.StringIO()):
                rec["exit"] = cli.main(["region", "--channel", os.path.join(
                    workdir, jobs[0]["channel"] + ".json"), "--bound", "t4"])
        verdicts = checks.check_pass(jobs, res, oracles)
        bad = [j for j, p in verdicts.items() if p]
        good = bad == [rec["id"]]
        print("%s %s counts as a failure (%s)"
              % ("ok  " if good else "FAIL", label, "; ".join(verdicts[rec["id"]])))
        ok &= good
    print("self-test: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def write_reference():
    """Freeze the canonical seed's supports after checking them against
    the primal oracle."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    ref = {}
    for w in workloads.WORKLOADS:
        workdir = os.path.join(ROOT, ".perfbench_work", w)
        os.makedirs(workdir, exist_ok=True)
        seed = workloads.CANONICAL_SEED
        channels, jobs = workloads.job_list(w, seed)
        res = run_pass(w, seed, workdir, time.monotonic() + RUN_LIMIT_S)
        bad = {j: p for j, p in checks.check_pass(
            jobs, res, make_oracles(jobs, channels, [res], seed)).items() if p}
        if bad:
            raise BenchError("not freezing failing outputs: %s" % bad)
        ref[w] = {r["id"]: r["supports"] for r in res["jobs"] if "supports" in r}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload and the tracer at tiny sizes")
    ap.add_argument("--write-reference", action="store_true",
                    help="freeze the canonical seed's supports")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "confbc", "__init__.py")):
        print("error: no confbc package under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.write_reference:
            return write_reference()
        print("environment %s" % json.dumps(environment()))
        if args.workload is None:
            line = measure_all(args.seed, args.seconds)
        else:
            line = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
