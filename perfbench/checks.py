"""Output checks, run outside the timed window.

A job fails when it raises, exits nonzero, or misses its oracle:

* suite jobs pass only if every check in their SuiteReport passes;
* region jobs are priced again at a seeded sample of their grid points
  with the primal oracle (the bound's single-point `*_polytope` function
  and `ConstraintPolytope.vertices()`, never `batch_support`); every
  sampled support must lie at or below the envelope within TOL bits,
  and when the sample is the whole grid the envelope must equal its
  maximum.  Empty polytopes price at -inf and directions that leave
  every finite row give +inf;
* t4 must lie at or below cutset-fig3 in every direction;
* on the canonical seed, supports must match reference.json within TOL.
"""

import itertools
import math

import numpy as np

TOL = 1e-9
SAMPLES = 64            # sampled grid points per region job
FULL_GRID = 1100        # grids up to this size are checked point by point


def primal_support(poly, dirs):
    """Support of a ConstraintPolytope by vertex enumeration, with the
    package's conventions: any negative rhs means empty (-inf); a
    direction with a positive weight on a variable that no finite row
    bounds is unbounded (+inf)."""
    a, b = poly.coeff_matrix()
    if np.any(b < -1e-12):
        return np.full(dirs.shape[0], -math.inf)
    covered = np.any(a[np.isfinite(b)] > 0, axis=0)
    verts = poly.vertices()
    sup = ((verts @ dirs.T).max(axis=0) if verts.shape[0]
           else np.full(dirs.shape[0], -math.inf))
    sup[np.any(dirs[:, ~covered] > 0, axis=1)] = math.inf
    return sup


def _units(step):
    return int(round(1.0 / step))


def _compositions(n, cells, rng):
    """Points of the simplex grid with step 1/n over `cells` cells, as
    integer counts summing to n: all of them when there are at most
    FULL_GRID, else SAMPLES drawn uniformly.  Returns (counts, whole_grid)."""
    slots = n + cells - 1
    if math.comb(slots, cells - 1) <= FULL_GRID:
        bars = np.array(list(itertools.combinations(range(slots), cells - 1)))
        full = True
    else:
        bars = np.sort(np.array([rng.choice(slots, cells - 1, replace=False)
                                 for _ in range(SAMPLES)]), axis=1)
        full = False
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars,
                       np.full((bars.shape[0], 1), slots)])
    return np.diff(edges, axis=1) - 1, full


def _ticks(step, rng):
    n = _units(step)
    if n + 1 <= FULL_GRID:
        return np.linspace(0.0, 1.0, n + 1), True
    return np.linspace(0.0, 1.0, n + 1)[rng.choice(n + 1, SAMPLES, replace=False)], False


def oracle_polytopes(job, ch, rng):
    """(list of ConstraintPolytope at grid points, whole_grid)."""
    from confbc import dm_bounds as dmb, gaussian_bounds as gb

    bound, step = job["bound"], job["grid"]
    if ch.kind == "gaussian":
        if bound == "outer":
            n = _units(step)
            if (n + 1) ** 2 <= FULL_GRID:
                pairs = [(i / n, j / n) for i in range(n + 1) for j in range(n + 1)]
                full = True
            else:
                pairs = [(i / n, j / n) for i, j in rng.integers(0, n + 1, (SAMPLES, 2))]
                full = False
            return [gb.outer_polytope_g(ch, a, b) for a, b in pairs], full
        make = {"t7": gb.capacity_t7_polytope, "t8": gb.capacity_t8_polytope,
                "t9": gb.approx_t9_polytope, "t10": gb.approx_t10_polytope,
                "df": gb.df_inner_polytope}[bound]
        betas, full = _ticks(step, rng)
        return [make(ch, float(b)) for b in betas], full
    nx = ch.x_card
    if bound == "outer":
        card = nx + 2
        counts, full = _compositions(_units(step), card * card * nx, rng)
        return [dmb.outer_polytope(ch, dmb.OuterAux(c.reshape(card, card, nx) / _units(step)))
                for c in counts], full
    nv = job["v_card"] or nx + 2
    counts, full = _compositions(_units(step), nv * nx, rng)
    pvxs = [c.reshape(nv, nx) / _units(step) for c in counts]
    if bound == "inner1":
        return [dmb.inner1_polytope(ch, dmb.t4_substitution(ch, p)) for p in pvxs], full
    if bound in ("t4", "cutset-fig3"):
        return [dmb.theorem4_polytope(ch, p, include_joint_row=bound == "t4")
                for p in pvxs], full
    if bound == "t5":
        return [dmb.theorem5_polytope(ch, p, warn_checks=False) for p in pvxs], full
    raise ValueError("no oracle for bound %r" % bound)


def oracle_supports(job, ch_doc, dirs, seed):
    """(samples, whole_grid): primal supports of the job's grid sample,
    shape (S, D)."""
    from confbc.channels import load_channel

    rng = np.random.default_rng([seed % 2 ** 32, sum(map(ord, job["id"]))])
    polys, full = oracle_polytopes(job, load_channel(ch_doc), rng)
    return np.array([primal_support(p, dirs) for p in polys]), full


def excess(lower, upper):
    """Largest amount by which lower exceeds upper, elementwise; equal
    infinities (inf - inf, -inf + inf) count as no excess."""
    with np.errstate(invalid="ignore"):
        gap = np.asarray(lower, float) - np.asarray(upper, float)
    gap = np.where(np.isnan(gap), -math.inf, gap)
    return float(gap.max()) if gap.size else -math.inf


def max_abs_diff(a, b):
    """Largest |a - b| over finite entries; inf when the shapes or the
    infinite entries differ."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return math.inf
    fin = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(a[~fin], b[~fin]):
        return math.inf
    return float(np.abs(a[fin] - b[fin]).max()) if fin.any() else 0.0


def check_region(supports, oracle):
    """Problems with one envelope against its oracle sample."""
    samples, full = oracle
    sup = np.asarray(supports, float)
    if sup.shape != samples.shape[1:]:
        return ["%d supports for %d directions" % (sup.size, samples.shape[1])]
    problems = []
    over = excess(samples, sup[None, :])
    if over > TOL:
        problems.append("a grid point's support exceeds the envelope by %.3g bits" % over)
    if full:
        under = excess(sup, samples.max(axis=0))
        if under > TOL:
            problems.append("envelope exceeds every grid point by %.3g bits" % under)
    return problems


def check_pass(jobs, result, oracles, reference=None, untraced=None):
    """Failure reasons per job id ([] = passed) for one pass result.

    oracles   -- job id -> oracle_supports(...) for region jobs
    reference -- job id -> frozen supports, on the canonical seed
    untraced  -- an untraced pass result the supports must equal bit for
                 bit (for traced passes)
    """
    recs = {r["id"]: r for r in result["jobs"]}
    twins = {r["id"]: r.get("supports") for r in (untraced or {"jobs": []})["jobs"]}
    out = {}
    for job in jobs:
        rec = recs.get(job["id"])
        probs = []
        if rec is None:
            probs.append("job did not run")
        elif rec.get("error"):
            probs.append("raised: " + rec["error"].strip().splitlines()[-1])
        elif rec["exit"] != 0:
            probs.append("exit code %s" % rec["exit"])
        elif job["kind"] == "suite":
            if not rec["suite_pass"]:
                probs.append("suite checks failed: %s" % ", ".join(rec["failed_checks"]))
        else:
            probs += check_region(rec["supports"], oracles[job["id"]])
            if reference is not None:
                diff = max_abs_diff(rec["supports"], reference.get(job["id"], ()))
                if diff > TOL:
                    probs.append("differs from the frozen reference by %.3g bits" % diff)
            if untraced is not None and twins.get(job["id"]) != rec["supports"]:
                probs.append("traced supports differ from the untraced run")
        out[job["id"]] = probs
    if "t4" in recs and "cutset-fig3" in recs and not out["t4"] and not out["cutset-fig3"]:
        over = excess(recs["t4"]["supports"], recs["cutset-fig3"]["supports"])
        if over > TOL:
            out["t4"].append("t4 exceeds cutset-fig3 by %.3g bits" % over)
    return out
