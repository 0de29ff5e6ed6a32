"""Geometry for rate regions in (R0, R1, R2) space.

Every region here is one (variables, A, b) form: a tuple of names, an
(m, k) float matrix and an (m,) float rhs, for the rows A @ x <= b.
The form has two meanings, kept as two classes that share only the
arrays' shape check:

* ConstraintPolytope is a rate region: nonnegative integer rows plus
  the implicit R >= 0, so it is downward closed ("comprehensive").
  batch_support prices it.
* LinearSystem is a general-sign system without implicit bounds, what
  Fourier-Motzkin elimination consumes and emits.  support_of_system
  prices it; handed a rate region it would drop R >= 0.

Dicts appear only at the edges, LinearSystem.from_rows and the system
JSON.  rhs = +inf marks an absent row (the Gaussian bounds use it when
the combined-output term blows up); a negative rhs in a rate region,
or a -inf one in a general system, makes the region empty.  The
support of an empty region is -inf and envelopes skip such members.

Supports come from the LP dual: a sweep shares one coefficient matrix
and varies only the rhs, so batch_support enumerates each direction's
dual vertices once and prices every rhs with one matrix product.
Primal vertex enumeration stays for a polytope's own vertices, for the
general-sign systems (whose boundedness is Farkas' lemma, decided in
one vectorised pass by _bounded_along), and as the oracle envelopes
are checked against; an LP solver only appears in the test suite.

Every bound the CLI evaluates is a Bound record in its module's BOUNDS
table: a fixed coefficient matrix and a row function of a parameter
point (an auxiliary pmf or a power split).  sweep walks the parameter
grid once for any number of them and prices each as its matrix allows.
"""

import csv
import functools
import math
from collections import namedtuple
from itertools import chain, combinations

import numpy as np

from .errors import ChannelFormatError, InapplicableBoundError

INF = math.inf
_FEAS_TOL = 1e-9
# the rhs strings system JSON accepts
_INF_TOKENS = {"inf": INF, "Infinity": INF, "-inf": -INF, "-Infinity": -INF}


def _system_arrays(variables, matrix, rhs):
    """The (variables, A, b) form both region classes store: a name
    tuple, an (m, k) float matrix and an (m,) float rhs, copied and
    read-only, as every reader shares them."""
    variables = tuple(variables)
    matrix = np.array(matrix, dtype=float, ndmin=2)
    rhs = np.array(rhs, dtype=float)
    if rhs.ndim != 1 or matrix.shape != (rhs.shape[0], len(variables)):
        raise ValueError("system shape mismatch")
    matrix.flags.writeable = rhs.flags.writeable = False
    return variables, matrix, rhs


class ConstraintPolytope:
    """The rate region {R >= 0 : matrix @ R <= rhs}.  Coefficients are
    nonnegative integers and every row has a nonzero one; rhs = +inf
    disables a row, a negative rhs makes the region empty."""

    def __init__(self, variables, matrix, rhs):
        self.variables, self.matrix, self.rhs = _system_arrays(variables, matrix, rhs)
        if np.any((self.matrix < 0) | (self.matrix % 1 != 0)):
            raise ValueError("coefficients must be nonnegative integers")
        if not np.all(np.any(self.matrix, axis=1)):
            raise ValueError("every row needs at least one nonzero coefficient")
        self._verts = None

    def coeff_matrix(self):
        """(matrix, rhs), absent +inf rows included."""
        return self.matrix, self.rhs

    @property
    def is_empty(self):
        # with nonnegative row coefficients and x >= 0 the only way to
        # have no feasible point is a negative right-hand side
        return bool(np.any(self.rhs < -1e-12))

    def vertices(self):
        if self._verts is None:
            keep = np.isfinite(self.rhs)
            self._verts = enumerate_vertices(self.matrix[keep], self.rhs[keep])
        return self._verts

    def support(self, direction):
        return float(batch_support(self.matrix, self.rhs, direction)[0, 0])

    def contains(self, point, tol=_FEAS_TOL):
        pt, b = np.asarray(point, dtype=float), self.rhs
        slack = tol * (1.0 + np.abs(np.where(np.isfinite(b), b, 0.0)))
        return bool(np.all(pt >= -tol) and np.all(self.matrix @ pt <= b + slack))


class RegionEnvelope:
    """Pointwise-max of supports over a family of polytopes: the convex
    hull of their union, recorded as (direction, support) pairs."""

    def __init__(self, variables, directions, supports, meta=None):
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        supports = np.asarray(supports, dtype=float)
        if directions.shape[0] != supports.shape[0]:
            raise ValueError("one support per direction")
        self.variables = tuple(variables)
        self.directions = directions
        self.supports = supports
        self.meta = dict(meta or {})

    def support_at(self, direction, tol=1e-9):
        d = np.asarray(direction, dtype=float)
        hit = np.all(np.abs(self.directions - d) <= tol, axis=1)
        idx = np.nonzero(hit)[0]
        if idx.size == 0:
            raise KeyError("direction %s not in envelope" % (tuple(d),))
        return float(self.supports[idx[0]])


class LinearSystem:
    """General-sign inequality system  matrix @ x <= rhs  over named
    variables; what Fourier-Motzkin elimination consumes and emits.
    Lower bounds are rows with negative coefficients; rhs = +inf marks
    an absent row and -inf an unsatisfiable one."""

    def __init__(self, variables, matrix, rhs):
        self.variables, self.matrix, self.rhs = _system_arrays(variables, matrix, rhs)

    @classmethod
    def from_rows(cls, variables, rows):
        """rows: iterable of (coeff dict, rhs)."""
        variables = tuple(variables)
        col = {v: j for j, v in enumerate(variables)}
        mat = np.zeros((len(rows), len(variables)))
        rhs = np.empty(len(rows))
        for i, (coeffs, r) in enumerate(rows):
            for name, c in coeffs.items():
                mat[i, col[name]] = c
            rhs[i] = r
        return cls(variables, mat, rhs)

    def to_json_dict(self):
        rows = []
        for i in range(self.matrix.shape[0]):
            coeffs = {v: self.matrix[i, j] for j, v in enumerate(self.variables)
                      if self.matrix[i, j] != 0.0}
            rows.append({"coeffs": coeffs,
                         "rhs": {INF: "inf", -INF: "-inf"}.get(self.rhs[i], self.rhs[i])})
        return {"variables": list(self.variables), "rows": rows}

    @classmethod
    def from_json_dict(cls, doc):
        """The system-JSON edge: anything off the documented schema
        raises ChannelFormatError naming the offending row."""
        if not (isinstance(doc, dict) and isinstance(doc.get("variables"), list)
                and isinstance(doc.get("rows"), list)):
            raise ChannelFormatError("system JSON needs a 'variables' list and a 'rows' list")
        names, rows = doc["variables"], []
        for i, row in enumerate(doc["rows"]):
            fields = row if isinstance(row, dict) else {}
            coeffs, rhs = fields.get("coeffs"), fields.get("rhs")
            rhs = _INF_TOKENS.get(rhs, rhs) if isinstance(rhs, str) else rhs
            if not (isinstance(coeffs, dict) and type(rhs) in (int, float)
                    and not math.isnan(rhs)
                    and all(n in names and type(c) in (int, float) and math.isfinite(c)
                            for n, c in coeffs.items())):
                raise ChannelFormatError(
                    "rows[%d] = %r: coeffs must map declared variables %s to finite "
                    "numbers, rhs must be a number, \"inf\" or \"-inf\"" % (i, row, names))
            rows.append((coeffs, rhs))
        return cls.from_rows(names, rows)


# ---------------------------------------------------------------------------
# vertex enumeration and supports
# ---------------------------------------------------------------------------

_BIG = 1e30
_DUAL_TOL = 1e-12
# Candidate values priced per GEMM block: 2 MiB of float64, plus a
# same-sized +inf mask when a row is absent.  Whether malloc serves such
# a pair from the heap or from mmap depends on the allocation history,
# so a small pair keeps peak memory from depending on it; blocks below
# 1 << 18 start to cost GEMM time.
_PRICE_CELLS = 1 << 18


def enumerate_vertices(a, b, nonneg=True, tol=_FEAS_TOL):
    """Feasible basic solutions of a @ x <= b (plus x >= 0 when nonneg).

    Exact-ish for the 1-3 dimensional systems used here; returns an
    (n, k) array of distinct vertices (possibly empty).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    k = a.shape[1]
    if nonneg:
        a = np.vstack([a, -np.eye(k)])
        b = np.concatenate([b, np.zeros(k)])
    return _feasible_vertices(a, b, *_bases(a, k), tol)


def _feasible_vertices(a, b, idx, mats, tol=_FEAS_TOL):
    """The distinct feasible basic solutions of a @ x <= b at the given
    bases of a (as _bases returns them), in basis order."""
    b_solve = np.where(np.isfinite(b), b, _BIG)
    if idx.shape[0] == 0:
        return np.empty((0, a.shape[1]))
    verts = np.linalg.solve(mats, b_solve[idx][..., None])[..., 0]
    margin = tol * (1.0 + np.abs(b_solve))
    feas = np.all(verts @ a.T <= b_solve[None, :] + margin[None, :], axis=1)
    verts = verts[feas]
    if verts.shape[0] == 0:
        return verts
    # dedup at 1e-9 granularity but hand back full-precision points
    _, first = np.unique(np.round(verts, 9), axis=0, return_index=True)
    return verts[np.sort(first)]


def _combos(n, k):
    """Every k-subset of range(n) in lexicographic order, as a
    (C(n, k), k) index array (no rows when n < k)."""
    count = math.comb(n, k)
    flat = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.intp,
                       count=count * k)
    return flat.reshape(count, k)


def _bases(a, k):
    """The nonsingular k-row bases of a: (T, k) row indices and the
    (T, k, k) matrices they pick."""
    idx = _combos(a.shape[0], k)
    mats = a[idx]
    dets = np.abs(np.linalg.det(mats))
    scale = np.maximum(np.prod(np.linalg.norm(mats, axis=2), axis=1), 1e-30)
    good = dets > 1e-9 * scale
    return idx[good], mats[good]


def batch_support(coeffs, rhs, dirs, reduce_max=False):
    """Supports of many same-shaped polytopes at once.

    coeffs -- (m, k) shared nonnegative coefficient matrix
    rhs    -- (N, m) per-polytope right-hand sides (+inf = row absent,
              negative = that polytope is empty)
    dirs   -- (D, k) directions
    returns (N, D) supports, or the elementwise max over N when
    reduce_max is set (the envelope of the union).  Empty polytopes give
    -inf; directions someone can run off to infinity along give +inf.

    The support is priced through the LP dual
        h(d; b) = min { lam . b : lam >= 0, coeffs^T lam >= d },
    whose vertices depend on (coeffs, d) but not on b.  Identical
    coefficient rows are first merged into one row carrying the
    row-wise min rhs.  The dual vertices of each direction are then
    enumerated once, from the nonsingular k-row bases of [coeffs; -I],
    so every right-hand side costs one GEMM against them plus a min
    over each direction's vertices.  This is exact: an optimal basis of
    the LP is dual feasible, so it is among the candidates, and by weak
    duality no candidate undercuts the LP value.  A candidate that puts
    weight on an absent row is dropped for that polytope (the dual of
    the system without the row is the face lam_row = 0), so +inf rows
    never enter the arithmetic; a direction left with no candidate is
    unbounded.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[1] != coeffs.shape[1]:
        raise ValueError("directions have %d components but the polytopes "
                         "have %d variables" % (dirs.shape[1], coeffs.shape[1]))
    n_poly, n_dirs = rhs.shape[0], dirs.shape[0]
    empty = np.any(rhs < -1e-12, axis=1)
    copies = {}
    for i, row in enumerate(coeffs):
        copies.setdefault(row.tobytes(), []).append(i)
    copies = list(copies.values())
    rows = coeffs[[c[0] for c in copies]]
    rhs = np.column_stack([rhs[:, c].min(axis=1) for c in copies]) if copies \
        else np.zeros((n_poly, 0))
    absent = ~np.isfinite(rhs)
    rhs = np.where(absent, 0.0, rhs)
    lam, used, has = _dual_vertices(rows, dirs)
    n_cand, n_has, m = lam.shape
    lam = lam.reshape(n_cand * n_has, m)
    used = used.reshape(n_cand * n_has, m).astype(float)

    out = np.full(n_dirs, -np.inf) if reduce_max else np.empty((n_poly, n_dirs))
    step = max(1, _PRICE_CELLS // max(lam.shape[0], 1))
    for lo in range(0, n_poly, step):
        vals = lam @ rhs[lo:lo + step].T           # (n_cand * n_has, n)
        gone = absent[lo:lo + step]
        if np.any(gone):
            vals[used @ gone.T.astype(float) > 0.0] = np.inf
        sup = np.full((vals.shape[1], n_dirs), np.inf)
        if n_cand:
            sup[:, has] = vals.reshape(n_cand, n_has, -1).min(axis=0).T
        sup[empty[lo:lo + step]] = -np.inf
        if reduce_max:
            out = np.maximum(out, sup.max(axis=0))
        else:
            out[lo:lo + step] = sup
    return out


def _dual_vertices(a, dirs):
    """Vertices of {lam >= 0 : a^T lam >= d} for every direction d.

    Returns (lam, used, has).  has is a bool mask over dirs; a direction
    without any vertex has an infeasible dual, i.e. an unbounded LP.
    lam is (C, H, m): slot j of direction h (the h-th one in has) holds
    a vertex, and directions with fewer than C vertices repeat their
    last one, which leaves the min over slots unchanged.  used flags
    the rows each slot puts weight on.  A degenerate vertex reached
    from several bases fills one slot per basis."""
    m, k = a.shape
    idx, mats = _bases(np.vstack([a, -np.eye(k)]), k)
    y, tol = _multipliers(mats, dirs)
    feas = np.all(y >= -tol, axis=2)
    # scatter each basis' multipliers onto the coefficient rows; the -I
    # rows carry surplus with zero rhs, so they drop out of the price
    spread = np.zeros((idx.shape[0], k, m))
    t, p = np.nonzero(idx < m)
    spread[t, p, idx[t, p]] = 1.0
    lam = y @ spread                                # (T, D, m)
    used = (y > tol) @ spread > 0.0
    count = feas.sum(axis=0)
    has = count > 0
    first = np.argsort(~feas[:, has], axis=0, kind="stable")   # vertices first
    slot = np.minimum(np.arange(count.max(initial=0))[:, None], count[has] - 1)
    pick = np.take_along_axis(first, slot, axis=0)             # (C, H)
    col = np.nonzero(has)[0][None, :]
    return lam[pick, col], used[pick, col], has


def _multipliers(mats, dirs):
    """Weights y with y @ basis = d for every basis and direction, as a
    (T, D, k) array, and the rounding tolerance of each weight: a
    multiplier within it of zero is zero.  The tolerance scales with the
    terms that make the multiplier up, so tiny direction components
    count."""
    inv = np.linalg.inv(mats)
    return dirs @ inv, _DUAL_TOL * (np.abs(dirs) @ np.abs(inv))


def _bounded_along(a, dirs):
    """For each direction d, is max d.x over a @ x <= b bounded whenever
    it is feasible?

    Farkas: exactly when d is a nonnegative combination of the rows of
    a.  With r = rank a, a d off the row span is unbounded, and by
    Caratheodory a d in the cone is a nonnegative combination of
    independent rows, which extend to an r-row basis with zero weights;
    so it suffices to try every nonsingular r-row basis (in coordinates
    of the row span when r < k).
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    off = np.zeros(dirs.shape[0], dtype=bool)
    span = _row_span(a)
    if span is not None:
        on = dirs @ span
        off = np.linalg.norm(dirs - on @ span.T, axis=1) > _FEAS_TOL
        a, dirs = a @ span, on
    _, mats = _bases(a, a.shape[1])
    return ~off & _in_cone(mats, dirs)


def _in_cone(mats, dirs):
    """For each direction d, is d a nonnegative combination of the rows
    of one of the (T, k, k) bases?"""
    y, tol = _multipliers(mats, dirs)
    bounded = np.any(np.all(y >= -tol, axis=2), axis=0)
    if not np.all(bounded):
        # a weight that is zero in exact arithmetic can come out as rounding
        # noise of the inverse, far above its term-scaled tolerance
        y, tol = y[:, ~bounded], tol[:, ~bounded]
        tol = tol + _DUAL_TOL * np.abs(y).max(axis=2, keepdims=True, initial=0.0)
        bounded[~bounded] = np.any(np.all(y >= -tol, axis=2), axis=0)
    return bounded


def _row_span(a):
    """A (k, r) orthonormal basis of the span of a's rows when their
    rank r is below the dimension k, else None."""
    _, sv, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(sv > sv.max(initial=0.0) * max(a.shape)
                                * np.finfo(float).eps))
    return vt[:rank].T if rank < a.shape[1] else None


def support_of_system(system, direction, tol=_FEAS_TOL):
    """Support of a general-sign LinearSystem (no implicit nonnegativity;
    put explicit -x <= 0 rows in if you want them).

    -inf when the system is empty, which beats +inf when d leaves the
    cone of the rows (Farkas), else the max of d over the vertices.  A
    system whose rows do not span the space has no vertex, so it is
    priced in coordinates of the row span, where it is pointed.
    """
    a, b, d = system.matrix, system.rhs, np.asarray(direction, dtype=float)
    zero_rows = np.all(np.abs(a) <= 1e-12, axis=1)
    if np.any(b[zero_rows] < -1e-9) or np.any(b == -INF):
        return -INF          # carries an inconsistent 0 <= negative row or a -inf row
    a, b = a[~zero_rows], b[~zero_rows]
    keep = np.isfinite(b)
    a, b = a[keep], b[keep]
    span = _row_span(a)
    verts = enumerate_vertices(a if span is None else a @ span, b,
                               nonneg=False, tol=tol)
    if verts.shape[0] == 0:
        return -INF
    if not _bounded_along(a, d)[0]:
        return INF
    return float((verts @ (d if span is None else d @ span)).max())


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def envelope_of_union(polytopes, directions, meta=None):
    """Support of the union of polytopes in each direction (equivalently
    of its convex hull).  Empty members are skipped.  Members sharing a
    coefficient matrix are priced together in one batch_support call."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    polys = list(polytopes)
    if not polys:
        raise ValueError("need at least one polytope")
    variables = polys[0].variables
    groups = {}
    for p in polys:
        if p.variables != variables:
            raise ValueError("mixed variable sets in union")
        key = (p.matrix.shape, p.matrix.tobytes())
        groups.setdefault(key, (p.matrix, []))[1].append(p.rhs)
    sups = np.full(directions.shape[0], -np.inf)
    for a, rhs in groups.values():
        sups = np.maximum(sups, batch_support(a, np.array(rhs), directions,
                                              reduce_max=True))
    return RegionEnvelope(variables, directions, sups, meta=meta)


def envelope_dominates(cover, inner, slack=0.0):
    """Is inner's support <= cover's support + slack in every direction?

    Both envelopes must be over the same direction list.  Returns
    (flag, report) where report carries the worst direction and the
    maximum violation in bits.
    """
    if cover.directions.shape != inner.directions.shape or \
            not np.allclose(cover.directions, inner.directions, atol=1e-12):
        raise ValueError("envelopes use different direction sets")
    with np.errstate(invalid="ignore"):
        gap = inner.supports - cover.supports
    gap = np.where(np.isnan(gap), -np.inf, gap)     # inf - inf: no violation
    worst = int(np.argmax(gap))
    report = {"max_violation_bits": float(gap[worst]),
              "worst_direction": tuple(cover.directions[worst]),
              "slack": float(slack)}
    return bool(gap[worst] <= slack), report


def project_r2_zero(poly):
    """Drop R2 from a downward-closed 3-d polytope.  Because the region
    is comprehensive, projecting onto the R2 = 0 plane is the same as
    slicing, so the rows keep their right-hand sides; a row on R2 alone
    drops out."""
    if "R2" not in poly.variables:
        raise ValueError("nothing to project: no R2 variable")
    j = poly.variables.index("R2")
    a = np.delete(poly.matrix, j, axis=1)
    keep = np.any(a, axis=1)
    return ConstraintPolytope(poly.variables[:j] + poly.variables[j + 1:],
                              a[keep], poly.rhs[keep])


# ---------------------------------------------------------------------------
# bound tables and the one sweep
# ---------------------------------------------------------------------------

class Bound(namedtuple("Bound", ("name", "variables", "coeffs", "space", "rows",
                                 "step", "terms", "checks", "warn", "meta"),
                       defaults=(lambda ch, block: block, (), None,
                                 lambda ch: {}))):
    """One entry of a bound table: at every point p of its parameter
    space, the region {R >= 0 : coeffs @ R <= rows(terms(ch, p), ch)}.

    space  -- .cards: the auxiliary alphabet sizes a caller may set
              ("v_card", ...); .step_key: the step's meta key;
              .blocks(ch, step, cards) -> (point blocks, meta);
              .point(ch, p) -> one point as a block of one
    rows   -- rows(terms, ch) -> (N, m) right-hand sides of a block
    step   -- the default step
    terms  -- terms(ch, block): a block's information terms, computed
              once per block for all bounds swept together
    checks -- check(ch, who) raising InapplicableBoundError when the
              bound does not cover ch
    warn   -- warn(ch) for channels the bound may not be tight on
    meta   -- meta(ch): extra envelope meta
    """

    def admit(self, ch, warn=True):
        for check in self.checks:
            check(ch, "bound %r" % self.name)
        if warn and self.warn is not None:
            self.warn(ch)

    def polytope(self, ch, point, warn=True):
        """The region at one parameter point."""
        self.admit(ch, warn)
        rhs = self.rows(self.terms(ch, self.space.point(ch, point)), ch)[0]
        return ConstraintPolytope(self.variables, self.coeffs, rhs)

    def envelope(self, ch, step=None, directions=None, **cards):
        """Support record of the union over the whole parameter grid."""
        return sweep([(self, ch)], step, directions, **cards)[0]


def sweep(entries, step=None, directions=None, **cards):
    """Envelopes of (bound, channel) entries in one walk of one grid.

    The entries share the first one's space, terms stage, step (default:
    its bound's) and directions (default: the fan of its dimension);
    each block's terms come from the first channel, once.  cards
    (u_card=..., v_card=...) size the auxiliaries; one the space lacks
    raises InapplicableBoundError.

    Two distinct coefficient rows, a cap row <= a total row, make each
    region {cap.R <= a, total.R <= s} (a, s the row-wise mins), and as
    R >= 0, a may drop to min(a, s): such a bound keeps the Pareto
    frontier of its (s, min(a, s)) pairs and prices it once at the end.
    Any other bound is priced block by block with reduce_max.
    """
    bound, ch = entries[0]
    for b, c in entries:
        if b.space is not bound.space or b.terms is not bound.terms:
            raise ValueError("swept bounds must share a space and a terms stage")
        for key, val in cards.items():
            if val is not None and key not in b.space.cards:
                raise InapplicableBoundError(
                    "bound %r has no auxiliary to size with %s" % (b.name, key))
        b.admit(c)
    step = bound.step if step is None else step
    dirs = np.atleast_2d(directions) if directions is not None else \
        default_dirs_2d() if len(bound.variables) == 2 else default_dirs_3d()
    blocks, meta = bound.space.blocks(ch, step, cards)
    pairs = [_cap_total(b.coeffs) for b, _ in entries]
    acc = [np.full(dirs.shape[0], -np.inf) if p is None else None for p in pairs]
    for block in blocks:
        terms = bound.terms(ch, block)
        acc = [_fold(b.coeffs, b.rows(terms, c), pair, dirs, a)
               for (b, c), pair, a in zip(entries, pairs, acc)]
    return [RegionEnvelope(b.variables, dirs,
                           a if pair is None else
                           batch_support(pair, a, dirs, reduce_max=True),
                           meta={bound.space.step_key: step, **meta, **b.meta(c)})
            for (b, c), pair, a in zip(entries, pairs, acc)]


def _fold(coeffs, rhs, pair, dirs, acc):
    """One block's rows folded into an entry's running max of supports,
    or (with a cap/total pair) into its running frontier."""
    if pair is None:
        return np.maximum(acc, batch_support(coeffs, rhs, dirs, reduce_max=True))
    cap = np.all(coeffs == pair[0], axis=1)
    s = rhs[:, ~cap].min(axis=1)
    return _pareto_2d(s, np.minimum(rhs[:, cap].min(axis=1), s), acc)


def _cap_total(coeffs):
    """(cap, total) rows when coeffs has exactly two distinct rows and
    one is <= the other componentwise, else None."""
    rows = np.array(sorted(set(map(tuple, coeffs))))    # a cap sorts first
    return rows if rows.shape[0] == 2 and np.all(rows[0] <= rows[1]) else None


def _pareto_2d(s, a, acc):
    """Maximal points of {(s_i, a_i)} merged with an existing frontier,
    as (a, s) rhs rows sorted by decreasing s (so a comes out strictly
    increasing).  A support never decreases in any rhs entry (its dual
    multipliers are nonnegative), in every direction, so only these
    survivors can ever attain the envelope."""
    if acc is not None:
        a = np.concatenate([a, acc[:, 0]])
        s = np.concatenate([s, acc[:, 1]])
    order = np.lexsort((-a, -s))          # s desc, ties broken by a desc
    s, a = s[order], a[order]
    prev = np.concatenate([[-np.inf], np.maximum.accumulate(a)[:-1]])
    keep = a > prev
    return np.column_stack([a[keep], s[keep]])


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

def fm_eliminate(system, names, prune=True):
    """Project a LinearSystem onto the variables not listed in names.

    Classic positive/negative pairing with three pruning passes: exact
    tautology removal, proportional-row dedup (keep the tightest rhs),
    and -- once the dimension is small -- a vertex-activity sweep that
    is exact for bounded systems.

    Infinite right-hand sides never enter the pairing: before each
    step a -inf row makes the system empty, and a +inf (absent) row is
    dropped, as the system without it is the same one.

    An empty projection returns as soon as it shows: when a step meets
    a -inf row, or its dedup leaves a 0 <= negative witness, no later
    step can make the system satisfiable, so the result is that one
    witness row over the variables every name leaves.  Every name is
    checked first, so an unknown one raises even then.

    The vertex sweep's basis pass -- is any row zero, is the system
    bounded along every axis both ways (Farkas' lemma), which k-row
    bases are nonsingular -- depends on the matrix alone, not on the
    rhs, the same argument as batch_support's rhs-free dual vertices.
    It is memoised per matrix, so systems that differ only in their rhs
    (every appendix-B draw) share it.
    """
    variables, left = list(system.variables), list(system.variables)
    for name in names:
        if name not in left:
            raise ValueError("cannot eliminate unknown variable %r" % name)
        left.remove(name)
    mat, rhs = system.matrix, system.rhs
    for name in names:
        if np.any(rhs == -INF):
            return _witness(left, -INF)
        live = rhs != INF
        mat, rhs = mat[live], rhs[live]
        j = variables.index(name)
        col = mat[:, j]
        pos = np.nonzero(col > 1e-12)[0]
        neg = np.nonzero(col < -1e-12)[0]
        zero = np.nonzero(np.abs(col) <= 1e-12)[0]
        # every (pos, neg) pair, pos-major, scaled so column j cancels exactly
        combo = (mat[None, neg] * col[pos, None, None]
                 + mat[pos, None] * -col[None, neg, None]).reshape(-1, mat.shape[1])
        combo[:, j] = 0.0
        mat = np.delete(np.concatenate([mat[zero], combo]), j, axis=1)
        rhs = np.concatenate([rhs[zero], (rhs[None, neg] * col[pos, None]
                                          + rhs[pos, None] * -col[None, neg]).ravel()])
        variables.pop(j)
        mat, rhs = _dedup_rows(mat, rhs)
        if rhs.size and not np.any(mat[-1]):
            return _witness(left, rhs[-1])
    out = LinearSystem(tuple(variables), mat, rhs)
    if prune and len(variables) <= 3:
        out = _vertex_prune(out)
    return out


def _witness(variables, value):
    """The empty system over variables: the one row 0 <= value, with
    value negative."""
    return LinearSystem(variables, np.zeros((1, len(variables))), [value])


def _dedup_rows(mat, rhs):
    """Drop tautologies, collapse proportional rows to the tightest one,
    and keep at most one witness of infeasibility.

    Rows are scaled to a max-norm of 1 and grouped on their 9-digit
    rounding; each group keeps its first row, in first-occurrence
    order, with the group's least rhs.  The witness, the least rhs of
    the zero rows when that is negative, comes last as 0 <= rhs."""
    scale = np.abs(mat).max(axis=1, initial=0.0)
    zero = scale <= 1e-12
    bad = rhs[zero][rhs[zero] < -1e-12]
    live = np.nonzero(~zero)[0]
    rows = mat[live] / scale[live, None]
    vals = rhs[live] / scale[live]
    if live.size:
        key = np.round(rows, 9)
        # sorted by key, then rhs; the stable sort leaves equal rhs in row order
        order = np.lexsort(np.vstack([vals, key.T[::-1]]))
        key = key[order]
        starts = np.flatnonzero(np.concatenate(
            [[True], np.any(key[1:] != key[:-1], axis=1)]))
        first = np.minimum.reduceat(order, starts)
        by_row = np.argsort(first)
        rows, vals = rows[first[by_row]], vals[order[starts]][by_row]
    if bad.size:
        rows = np.vstack([rows, np.zeros(mat.shape[1])])
        vals = np.append(vals, bad.min())
    return rows, vals


def _vertex_prune(system):
    """Remove rows never active at a vertex.  Exact when the feasible
    set is bounded and nonempty; returned unchanged otherwise."""
    a, b = system.matrix, system.rhs
    if not np.all(np.isfinite(b)):
        return system
    idx = _prune_bases(a.shape, a.tobytes())
    if idx is None:
        return system
    verts = _feasible_vertices(a, b, idx, a[idx])
    if verts.shape[0] == 0:
        return system
    act = np.abs(verts @ a.T - b[None, :]) <= 1e-7 * (1.0 + np.abs(b[None, :]))
    active = np.any(act, axis=0)
    if not np.any(active):
        return system
    return LinearSystem(system.variables, a[active], b[active])


@functools.lru_cache(maxsize=4)
def _prune_bases(shape, data):
    """The rhs-free half of _vertex_prune, for the float matrix a with
    this shape and these bytes: None when a has a zero row or is
    unbounded along some axis, else the (T, k) row indices of a's
    nonsingular bases, as _bases picks them.  A matrix bounded along
    every axis has full rank, so those are the bases _bounded_along
    tries; a function of its own, so the pass's temporaries go when it
    returns."""
    a = np.frombuffer(data).reshape(shape)
    if np.any(np.all(np.abs(a) <= 1e-12, axis=1)) or _row_span(a) is not None:
        return None
    idx, mats = _bases(a, shape[1])
    axes = np.eye(shape[1])
    if not np.all(_in_cone(mats, np.vstack([axes, -axes]))):
        return None
    idx.flags.writeable = False         # shared by every call on this matrix
    return idx


# ---------------------------------------------------------------------------
# direction fans
# ---------------------------------------------------------------------------

CANONICAL_DIRS_3D = np.array([
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
    (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)], dtype=float)

CANONICAL_DIRS_2D = np.array([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)], dtype=float)


def fan_2d(n=181):
    """n unit directions sweeping the first quadrant, 0 to 90 degrees."""
    theta = np.linspace(0.0, math.pi / 2.0, n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def octant_fibonacci(n=512):
    """Deterministic well-spread unit directions in the closed positive
    octant (golden-angle azimuth against an even polar ladder)."""
    i = np.arange(n)
    z = (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    az = (i * golden % 1.0) * (math.pi / 2.0)
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


def default_dirs_3d(n=512):
    return np.vstack([CANONICAL_DIRS_3D, octant_fibonacci(n)])


def default_dirs_2d(n=181):
    return np.vstack([CANONICAL_DIRS_2D, fan_2d(n)])


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_support_csv(env, path):
    """dir0,dir1,dir2,support_bits rows; 2-d envelopes pad dir2 = 0."""
    dirs = env.directions
    if dirs.shape[1] == 2:
        dirs = np.column_stack([dirs, np.zeros(dirs.shape[0])])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dir0", "dir1", "dir2", "support_bits"])
        for d, s in zip(dirs, env.supports):
            w.writerow([_fmt(d[0]), _fmt(d[1]), _fmt(d[2]), _fmt(s)])


def write_boundary_csv(points, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["R0", "R1"])
        for r0, r1 in points:
            w.writerow([_fmt(r0), _fmt(r1)])


def _fmt(x):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.9g" % x


def envelope_boundary_2d(env):
    """Pareto frontier of the (convexified) 2-d region described by an
    envelope, as vertices sorted by increasing R0.  Intersects the
    supporting halfplanes pairwise, so the output is the outer convex
    shape the fan can see."""
    if len(env.variables) != 2:
        raise ValueError("boundary walk is for 2-d envelopes")
    keep = np.isfinite(env.supports)
    a = env.directions[keep]
    b = env.supports[keep]
    if a.shape[0] == 0 or np.any(b < -1e15):
        return np.empty((0, 2))
    verts = enumerate_vertices(a, b, nonneg=True)
    if verts.shape[0] == 0:
        return np.empty((0, 2))
    # keep the non-dominated ones (upper-right frontier): row i is
    # dominated when some vertex is no worse anywhere and better somewhere
    diff = verts[None, :, :] - verts[:, None, :]
    dominated = np.any(np.all(diff >= -1e-9, axis=2) & np.any(diff > 1e-9, axis=2),
                       axis=1)
    front = verts[~dominated]
    return front[np.lexsort((-front[:, 1], front[:, 0]))]
