"""Seeded inputs and fixed job lists for the three benchmark workloads.

A workload is a list of jobs that one user runs back to back: `confbc
region` invocations (driven through `confbc.cli.main`, exactly as the
console script does) and verification suites (`confbc.suites.run_suite`,
the body of `confbc verify`).  The seed picks channel parameters and
suite seeds only; grid steps, direction counts and trial counts are
fixed per workload so every seed does the same amount of work (which is
also why fm-equivalence keeps one draw set, see job_list).

This module imports nothing from confbc, so it can describe the jobs
before the package is imported (set-up time is measured around that).
"""

import json
import math
import os
import random

WORKLOADS = ("support-sweep", "exact-sweep", "per-draw")

# Outputs on this seed are compared with reference.json as well.
CANONICAL_SEED = 0

# Directions the CLI is asked for: 8 canonical + 512 fan rows in 3-d,
# 5 canonical + 181 fan rows in 2-d.
DIRS_3D = 512
DIRS_2D = 181

# Grid steps and trial counts.  "full" is the measured workload; "tiny"
# runs every job in well under a second for the self-test.
SIZES = {
    "full": {
        "outer_dm": 1 / 3,          # 5,984 P(u,v,x) points
        "inner1": 0.1,              # 19,448 P(v,x) points
        "outer_g": 0.01,            # 10,201 (alpha, beta) pairs
        "t4": 1 / 30,               # 324,632 P(v,x) points (v_card 3)
        "t5": 1 / 16,               # 245,157 P(v,x) points
        "fig3": 1 / 25,
        "fm_trials": 10,
        "alpha_trials": 25,
        "gaps_trials": 500,
    },
    "tiny": {
        "outer_dm": 1 / 2,
        "inner1": 0.25,
        "outer_g": 0.1,
        "t4": 1 / 6,
        "t5": 1 / 4,
        "fig3": 1 / 6,
        "fm_trials": 1,
        "alpha_trials": 2,
        "gaps_trials": 20,
    },
}


def _dm_params(rng, c12_zero=False):
    return {"p": rng.uniform(0.05, 0.45),
            "c12": 0.0 if c12_zero else rng.uniform(0.05, 1.0),
            "c21": rng.uniform(0.05, 1.0)}


def _xor_channel(family, p, c12, c21):
    """dm-ex1: Y1 = X xor Z, Y2 = Z.  dm-ex2: Y1 = Z, Y2 = X xor Z.
    Z ~ Bern(p); rows list P(y1, y2 | x) with y2 fastest."""
    rows = []
    for x in range(2):
        row = [0.0] * 4
        for z in range(2):
            y1, y2 = (x ^ z, z) if family == "dm-ex1" else (z, x ^ z)
            row[2 * y1 + y2] += p if z else 1.0 - p
        rows.append(row)
    return {"type": "dm", "x_card": 2, "y1_card": 2, "y2_card": 2,
            "transition": rows, "c12": c12, "c21": c21}


def _gaussian(rng, separable, c12_zero):
    """|a| >= |b| always (receiver 1 is the stronger one).  separable:
    lambda = +-1 with b != lambda * a, so both outputs together reveal X
    (theorems 7/8); otherwise |lambda| < 1 (theorems 9/10, converse)."""
    a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    b = a * rng.uniform(0.1, 0.9) * rng.choice((-1.0, 1.0))
    lam = rng.choice((-1.0, 1.0)) if separable else rng.uniform(-0.9, 0.9)
    power = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
    return {"type": "gaussian", "a": a, "b": b, "lambda": lam, "power": power,
            "c12": 0.0 if c12_zero else rng.uniform(0.05, 1.0),
            "c21": rng.uniform(0.05, 1.0)}


def make_inputs(workload, seed):
    """Channel documents and suite seeds for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s/%d" % (workload, seed))
    channels = {}
    if workload == "support-sweep":
        channels["ex1"] = _xor_channel("dm-ex1", **_dm_params(rng))
        channels["gpart"] = _gaussian(rng, separable=False, c12_zero=False)
    elif workload == "exact-sweep":
        channels["ex2"] = _xor_channel("dm-ex2", **_dm_params(rng))
        # theorem 5 ignores c12 and warns when it is set
        channels["ex1"] = _xor_channel("dm-ex1", **_dm_params(rng, c12_zero=True))
        channels["gsep"] = _gaussian(rng, separable=True, c12_zero=False)
        channels["gsep0"] = _gaussian(rng, separable=True, c12_zero=True)
        channels["gpart"] = _gaussian(rng, separable=False, c12_zero=False)
        channels["gpart0"] = _gaussian(rng, separable=False, c12_zero=True)
    suite_seed = rng.randrange(2 ** 31)
    return channels, suite_seed


def job_list(workload, seed, scale="full"):
    """The workload's jobs, in the order they run.

    Each job is a dict with "id" and "kind".  "region" jobs carry the
    CLI argv (file names are relative to the work directory) plus what
    the oracle needs to rebuild the grid; "suite" jobs carry the
    run_suite arguments.
    """
    z = SIZES[scale]
    channels, sseed = make_inputs(workload, seed)

    def region(jid, chan, bound, grid, v_card=None):
        argv = ["region", "--channel", chan + ".json", "--bound", bound,
                "--grid", repr(grid)]
        if v_card is not None:
            argv += ["--v-card", str(v_card)]
        dims = 2 if bound in ("t4", "cutset-fig3", "t7", "t9") else 3
        argv += ["--dirs", str(DIRS_2D if dims == 2 else DIRS_3D),
                 "--out", jid + ".csv", "--json"]
        return {"id": jid, "kind": "region", "argv": argv, "channel": chan,
                "bound": bound, "grid": grid, "v_card": v_card}

    def suite(name, seed=sseed, **overrides):
        return {"id": "suite-" + name, "kind": "suite", "suite": name,
                "seed": seed, "overrides": overrides}

    if workload == "support-sweep":
        jobs = [region("outer-dm", "ex1", "outer", z["outer_dm"]),
                region("inner1-dm", "ex1", "inner1", z["inner1"]),
                region("outer-g", "gpart", "outer", z["outer_g"])]
    elif workload == "exact-sweep":
        jobs = [region("t4", "ex2", "t4", z["t4"], v_card=3),
                region("cutset-fig3", "ex2", "cutset-fig3", z["t4"], v_card=3),
                region("t5", "ex1", "t5", z["t5"]),
                suite("dm-fig3", grid_step=z["fig3"]),
                # the closed forms at the CLI's default steps
                region("t7", "gsep", "t7", 1e-3),
                region("t8", "gsep0", "t8", 1e-3),
                region("t9", "gpart", "t9", 1e-3),
                region("t10", "gpart0", "t10", 1e-3),
                region("df", "gpart", "df", 1e-2)]
    else:
        # An fm-equivalence draw whose split system is feasible costs about
        # a hundred infeasible ones (only then does vertex pruning run), so
        # a seeded draw set would change the job size with the seed.  Its
        # draws stay those of the acceptance criterion's seed, 0.
        jobs = [suite("fm-equivalence", seed=0, trials=z["fm_trials"]),
                suite("alpha-star", trials=z["alpha_trials"]),
                suite("gauss-t8"),
                suite("gauss-gaps", trials=z["gaps_trials"])]
    return channels, jobs


def write_channels(channels, workdir):
    for name, doc in channels.items():
        with open(os.path.join(workdir, name + ".json"), "w") as fh:
            json.dump(doc, fh)
