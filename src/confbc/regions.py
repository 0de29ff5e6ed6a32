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

Every support comes from one kernel, the LP dual: the support of
{x : a @ x <= b} along d is the least lam . b over the vertices of
{lam >= 0 : a^T lam = d}, which depend on (a, d) but not on b.  So
_dual_vertices enumerates them once per matrix and direction list
(memoised, one candidate per vertex) and _dual_price prices every rhs
with one matrix product.  A rate region is the matrix [rows; -I],
R >= 0 being the rows -I with a zero rhs (batch_support).  A
general-sign system is taken in coordinates of its row span, so its
matrix has full column rank, and its emptiness is phase 1 on the same
kernel (support_of_system, _is_empty); the vertex prune of an
elimination asks it for the supports along the axes and the rows.
Primal vertex enumeration stays for a polytope's own vertices, the
2-d boundary walk and as the oracle the dual kernel is checked
against; an LP solver only appears in the test suite.

Fourier-Motzkin elimination splits the same way.  Which rows pair
(Chernikov's rule among them), how they scale and which proportional
rows merge depend on the matrix (and on which rows are absent), never
on the rhs values, so that plan (_fm_plan) is memoised next to the
dual vertices and each system replays only its rhs through it.  The
replay is exact: each paired rhs is a combination with nonnegative
weights, computed by the same products and sums as a fresh
elimination, and because the weights are nonnegative a merged group's
tightest row is its least rhs, which the replay picks as a fresh
elimination does.

Every bound the CLI evaluates is a Bound record in its module's BOUNDS
table: a fixed coefficient matrix and a row function of a parameter
point (an auxiliary pmf or a power split).  sweep walks the parameter
grid once for any number of them.  A swept bound is a union of regions
on one matrix, whose support is its largest member's, so only maximal
members need pricing.  Each rhs b is tightened onto its region in
closed form, t(b)_i the least b_j over the rows a_j >= a_i; then t(b)
<= t(b') implies that region(b) lies in region(b').  sweep carries a
superset of the maximal tightened rows across the blocks (_fold,
_maximal) and prices it once, and a superset is always safe: every
dropped member lies inside a kept one.
"""

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
    """The (variables, A, b) form both region classes store: a tuple of
    distinct names, an (m, k) float matrix and an (m,) float rhs, copied
    and read-only, as every reader shares them."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names in %s" % (variables,))
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
        if np.any(np.isnan(self.rhs)):
            raise ValueError("rhs must be numbers or +-inf, not NaN")
        self._verts = None

    def coeff_matrix(self):
        """(matrix, rhs), absent +inf rows included.  The package reads
        the attributes; the benchmark's primal oracle reads this."""
        return self.matrix, self.rhs

    def vertices(self):
        if self._verts is None:
            self._verts = enumerate_vertices(self.matrix, self.rhs)
        return self._verts

    def support(self, direction):
        return float(batch_support(self.matrix, self.rhs, direction)[0, 0])


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
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ChannelFormatError(
                "variables = %r: they must be distinct strings" % (names,))
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

_DUAL_TOL = 1e-12
# Candidate values priced per GEMM block: 2 MiB of float64, plus a
# same-sized +inf mask when a row is absent.  Whether malloc serves such
# a pair from the heap or from mmap depends on the allocation history,
# so a small pair keeps peak memory from depending on it; blocks below
# 1 << 18 start to cost GEMM time.
_PRICE_CELLS = 1 << 18


def enumerate_vertices(a, b):
    """Feasible basic solutions of the rate region a @ x <= b, x >= 0.

    Exact-ish for the 1-3 dimensional systems used here; returns an
    (n, k) array of distinct vertices (possibly empty).  A +inf row is
    absent and a -inf row leaves no vertex; a NaN one raises ValueError.
    Each basis is solved afresh, so this stays the oracle of the dual
    kernel.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    _reject_nan(rhs=b)
    k = a.shape[1]
    if np.any(b == -INF):
        return np.empty((0, k))
    a = np.vstack([a[b < INF], -np.eye(k)])
    b = np.concatenate([b[b < INF], np.zeros(k)])
    idx, mats = _bases(a, k)
    return _feasible_vertices(a, b, np.linalg.solve(mats, b[idx][..., None])[..., 0])


def _reject_nan(**arrays):
    """Raise ValueError naming the first array with a NaN entry: a NaN
    rhs would otherwise pass for an absent row, or for no row at all."""
    for name, arr in arrays.items():
        if np.any(np.isnan(arr)):
            raise ValueError("%s has a NaN entry" % name)


def _directions(dirs, k):
    """dirs as a (D, k) float array; ValueError on another width or a
    NaN entry."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[1] != k:
        raise ValueError("directions have %d components but the polytopes "
                         "have %d variables" % (dirs.shape[1], k))
    _reject_nan(dirs=dirs)
    return dirs


def _feasible_vertices(a, b, verts):
    """The distinct basic solutions verts (one per basis, in basis
    order) that satisfy a @ x <= b, with b finite.  The rows are checked
    a block of _PRICE_CELLS values at a time, for the memory reason
    batch_support prices in such blocks."""
    if verts.shape[0] == 0:
        return np.empty((0, a.shape[1]))
    limit = b + _FEAS_TOL * (1.0 + np.abs(b))
    step = max(1, _PRICE_CELLS // max(a.shape[0], 1))
    verts = verts[np.concatenate([np.all(verts[lo:lo + step] @ a.T <= limit, axis=1)
                                  for lo in range(0, verts.shape[0], step)])]
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

    Identical coefficient rows are first merged into one row carrying
    the row-wise min rhs; R >= 0 is the rows -I with a zero rhs.  The
    supports are then the dual prices (_dual_price) of [merged rows;
    -I], whose dual vertices are memoised on that matrix and the
    directions, so every block of a sweep on one matrix shares one
    enumeration.  A NaN anywhere in the input raises ValueError, as it
    would otherwise read as an absent row.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    dirs = _directions(dirs, coeffs.shape[1])
    _reject_nan(coeffs=coeffs, rhs=rhs)
    empty = np.any(rhs < -1e-12, axis=1)
    rows, copies = _distinct_rows(coeffs)
    rhs = np.column_stack([rhs[:, c].min(axis=1) for c in copies]) if copies \
        else np.zeros((rhs.shape[0], 0))
    stacked = np.vstack([rows, -np.eye(coeffs.shape[1])])
    return _dual_price(_dual(stacked, dirs), rhs, empty, reduce_max)


def _distinct_rows(coeffs):
    """The distinct rows of coeffs, in order of first occurrence, and
    for each one the list of its copies' row indices."""
    copies = {}
    for i, row in enumerate(coeffs):
        copies.setdefault(row.tobytes(), []).append(i)
    copies = list(copies.values())
    return coeffs[[c[0] for c in copies]], copies


def _dual_price(duals, rhs, empty=None, reduce_max=False):
    """Supports of {x : a @ x <= b} from the dual vertices (lam, has) of
    a and the directions (_dual_vertices), for every rhs b.

    rhs    -- (N, p) right-hand sides of a's first p rows; the rows
              after them carry a zero rhs.  +inf marks an absent row.
    empty  -- (N,) bool: the rhs rows whose region is empty, if any
    returns (N, D) supports, or their max over N when reduce_max is set.

    The support is the LP dual
        h(d; b) = min { lam . b : lam >= 0, a^T lam = d },
    and an optimal basis of the LP is dual feasible, so its vertex is
    among the candidates, and by weak duality no candidate undercuts
    the LP value: every rhs costs one GEMM against the candidates plus
    a min over each direction's vertices.  A candidate that puts weight
    on an absent row is dropped for that rhs (the dual of the system
    without the row is the face lam_row = 0), so +inf rows never enter
    the arithmetic; a direction left with no candidate is unbounded,
    +inf, and an empty region is -inf.
    """
    lam, has = duals
    n_cand, n_has, _ = lam.shape
    n_poly, p = rhs.shape
    lam = lam[..., :p].reshape(n_cand * n_has, p)
    absent = ~np.isfinite(rhs)
    rhs = np.where(absent, 0.0, rhs)
    n_dirs = has.shape[0]
    out = np.full(n_dirs, -np.inf) if reduce_max else np.empty((n_poly, n_dirs))
    step = max(1, _PRICE_CELLS // max(lam.shape[0], 1))
    for lo in range(0, n_poly, step):
        vals = lam @ rhs[lo:lo + step].T           # (n_cand * n_has, n)
        gone = absent[lo:lo + step]
        if np.any(gone):
            # lam >= 0, so a vertex weights an absent row exactly when
            # its weights on the absent rows sum above zero
            vals[lam @ gone.T.astype(float) > 0.0] = np.inf
        sup = np.full((vals.shape[1], n_dirs), np.inf)
        if n_cand:
            sup[:, has] = vals.reshape(n_cand, n_has, -1).min(axis=0).T
        if empty is not None:
            sup[empty[lo:lo + step]] = -np.inf
        if reduce_max:
            out = np.maximum(out, sup.max(axis=0))
        else:
            out[lo:lo + step] = sup
    return out


def _dual(a, dirs):
    """_dual_vertices of the float arrays a and dirs."""
    return _dual_vertices(a.shape, a.tobytes(), dirs.shape, dirs.tobytes())


@functools.lru_cache(maxsize=16)
def _dual_vertices(shape, data, dirs_shape, dirs_data):
    """Vertices of {lam >= 0 : a^T lam = d} for every direction d, for
    the float (n, k) matrix a of full column rank with this shape and
    these bytes and the float directions with theirs.

    Returns (lam, has).  has is a bool mask over dirs; a direction
    without any vertex has an infeasible dual, i.e. an unbounded LP.
    lam is (C, H, n): slot j of direction h (the h-th one in has) holds
    a vertex, and directions with fewer than C vertices repeat their
    last one, which leaves the min over slots unchanged.

    A vertex is a basic feasible solution: the multipliers y of a
    nonsingular k-row basis of a, y @ basis = d, with y >= 0.  It fills
    one slot, however many bases reach it: such a solution is the only
    one with its support (the rows of its support are independent, so
    they fix it), so two feasible bases reach the same vertex exactly
    when the rows their y put weight on (y > tol) are the same; each
    direction keeps the first basis of every such pattern, in basis
    order, and the multipliers its pattern leaves out, all within tol
    of zero, are zero in lam.  Memoised, as a sweep prices every block
    on one matrix and one direction list: the arrays are read-only, as
    every call shares them."""
    a = np.frombuffer(data).reshape(shape)
    dirs = np.frombuffer(dirs_data).reshape(dirs_shape)
    n, k = shape
    idx, mats = _bases(a, k)
    y, tol = _multipliers(np.linalg.inv(mats), dirs)
    feas = np.all(y >= -tol, axis=2)
    pos = y > tol
    # each (basis, direction)'s support over the rows of a is its row
    # indices, sorted, with n for the rows y puts no weight on.  A
    # stable sort on (direction, infeasible, support) leaves each
    # group's first basis at its head.
    support = np.sort(np.where(pos, idx[:, None, :], n), axis=2)
    key = np.vstack([np.broadcast_to(np.arange(dirs_shape[0]), feas.shape).ravel(),
                     ~feas.ravel(), support.reshape(feas.size, k).T])
    order = np.lexsort(key[::-1])
    key = key[:, order]
    head = np.ones(order.size, dtype=bool)
    head[1:] = np.any(key[:, 1:] != key[:, :-1], axis=0)
    keep = np.zeros(feas.size, dtype=bool)
    keep[order[head]] = True
    keep = keep.reshape(feas.shape) & feas
    count = keep.sum(axis=0)
    has = count > 0
    first = np.argsort(~keep[:, has], axis=0, kind="stable")   # vertices first
    slot = np.minimum(np.arange(count.max(initial=0))[:, None], count[has] - 1)
    pick = np.take_along_axis(first, slot, axis=0)             # (C, H)
    col = np.nonzero(has)[0][None, :]
    # scatter each slot's multipliers on its support onto the rows of a
    lam = np.zeros(pick.shape + (n,))
    np.put_along_axis(lam, idx[pick], np.where(pos[pick, col], y[pick, col], 0.0), axis=2)
    lam.flags.writeable = has.flags.writeable = False
    return lam, has


def _multipliers(inv, dirs):
    """Weights y with y @ basis = d for every basis (given by its (T, k,
    k) inverses) and direction, as a (T, D, k) array, and the rounding
    tolerance of each weight: a multiplier within it of zero is zero.
    The tolerance scales with the terms that make the multiplier up, so
    tiny direction components count, plus a floor for the rounding
    noise of the inverse: a weight that is zero in exact arithmetic can
    come out at eps |d|_1 max |inverse|, far above its terms."""
    largest = np.abs(inv).max(axis=(1, 2), initial=0.0)[:, None, None]
    noise = 1e-15 * np.abs(dirs).sum(axis=1)[:, None] * largest
    return dirs @ inv, _DUAL_TOL * (np.abs(dirs) @ np.abs(inv)) + noise


def _row_span(a):
    """A (k, r) orthonormal basis of the span of a's rows when their
    rank r is below the dimension k, else None."""
    _, sv, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(sv > sv.max(initial=0.0) * max(a.shape)
                                * np.finfo(float).eps))
    return vt[:rank].T if rank < a.shape[1] else None


def _is_empty(rows, b):
    """Phase 1: is {y : rows @ y <= b} empty, for rows of full column
    rank and a finite b?  The least s >= 0 with rows @ y - s <= b for
    some y is minus the support along -s of that lifted system, which is
    never empty and bounded that way, so the dual prices it; the set is
    empty when s exceeds _FEAS_TOL (1 + max |b|)."""
    m, r = rows.shape
    lifted = np.column_stack([np.vstack([rows, np.zeros((1, r))]), -np.ones(m + 1)])
    s = -_dual_price(_dual(lifted, -np.eye(r + 1)[-1:]), np.append(b, 0.0)[None, :])
    return s[0, 0] > _FEAS_TOL * (1.0 + np.abs(b).max(initial=0.0))


def support_of_system(system, directions):
    """Supports of a general-sign LinearSystem (no implicit nonnegativity;
    put explicit -x <= 0 rows in if you want them) in each of a (D, k)
    block of directions, as a (D,) array.

    -inf when the system is empty, which beats +inf when d leaves the
    cone of the rows, else the dual price of the rows (_dual_price).
    With r = rank a, a d off the row span is unbounded, and the dual
    vertices need r independent rows, so the rows and the directions
    are taken in coordinates of the row span, where the system is
    pointed.  Emptiness is phase 1 on the same kernel (_is_empty).  A
    NaN rhs or direction raises ValueError, as does a direction of
    another width.
    """
    a, b = system.matrix, system.rhs
    _reject_nan(rhs=b)
    dirs = _directions(directions, a.shape[1])
    zero_rows = np.all(np.abs(a) <= 1e-12, axis=1)
    if np.any(b[zero_rows] < -1e-9) or np.any(b == -INF):
        # carries an inconsistent 0 <= negative row or a -inf row
        return np.full(dirs.shape[0], -INF)
    keep = ~zero_rows & np.isfinite(b)
    a, b = a[keep], b[keep]
    span = _row_span(a)
    rows, on = (a, dirs) if span is None else (a @ span, dirs @ span)
    if _is_empty(rows, b):
        return np.full(dirs.shape[0], -INF)
    sup = _dual_price(_dual(rows, on), b[None, :])[0]
    if span is not None:
        sup[np.linalg.norm(dirs - on @ span.T, axis=1) > _FEAS_TOL] = INF
    return sup


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

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
              .point(ch, p) -> one point as a block of one.  A block is
              whatever the terms stage reads; sweep only passes it on
              (the dm grids hand over integer counts and their n)
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
    raises InapplicableBoundError, and one below 1 raises ValueError.

    A bound is a union of regions on one matrix, and a union's support
    is its largest members'.  Each rhs b is tightened in closed form
    (_tighten): with t(b)_i the least b_j over the rows a_j >= a_i
    componentwise, region(t(b)) = region(b), and t(b) <= t(b') implies
    region(b) lies in region(b').  The implication is one way (exact
    for a cap/total pair), so the order finds a superset of the maximal
    regions, which is safe: every dropped region lies inside a kept one.
    Each entry carries the maximal tightened rows of the blocks so far,
    its frontier, and folds every block into it (_fold, whose passes
    repeat until one drops nothing, _maximal); the frontier is priced
    once, at the end, on the distinct rows.
    """
    bound, ch = entries[0]
    for b, c in entries:
        if b.space is not bound.space or b.terms is not bound.terms:
            raise ValueError("swept bounds must share a space and a terms stage")
        for key, val in cards.items():
            if val is not None and key not in b.space.cards:
                raise InapplicableBoundError(
                    "bound %r has no auxiliary to size with %s" % (b.name, key))
            if val is not None and val < 1:
                raise ValueError(
                    "%s must be a positive integer, got %d" % (key, val))
        b.admit(c)
    step = bound.step if step is None else step
    dirs = np.atleast_2d(directions) if directions is not None else \
        default_dirs_2d() if len(bound.variables) == 2 else default_dirs_3d()
    blocks, meta = bound.space.blocks(ch, step, cards)
    rows = [_distinct_rows(b.coeffs)[0] for b, _ in entries]
    kept = [np.empty((r.shape[0], 0)) for r in rows]
    for block in blocks:
        terms = bound.terms(ch, block)
        kept = [_fold(b.coeffs, b.rows(terms, c), t) for (b, c), t in zip(entries, kept)]
    return [RegionEnvelope(b.variables, dirs, batch_support(r, t.T, dirs, reduce_max=True),
                           meta={bound.space.step_key: step, **meta, **b.meta(c)})
            for (b, c), r, t in zip(entries, rows, kept)]


# the most rows _maximal samples for its pivots
_PIVOT_SAMPLE = 64


def _fold(coeffs, rhs, kept):
    """One block's (N, m) rhs rows folded into an entry's frontier kept,
    the (p, K) tightened rows (_tighten) of the maximal regions so far:
    the maximal rows of both (_maximal).  A region inside another never
    sets the envelope, and every dropped region lies inside a kept one,
    so the frontier prices to the envelope of every row folded into
    it."""
    _reject_nan(rhs=rhs)
    t = np.concatenate([kept, _tighten(coeffs, rhs)], axis=1)
    return t[:, _maximal(t)]


def _tighten(coeffs, rhs):
    """The (N, m) rhs rows tightened in closed form onto the distinct
    rows a_i of coeffs, as a (p, N) array with a row per a_i:
    t(b)_i = min { b_j : a_j >= a_i componentwise }, a_i's copies
    included.  As R >= 0 gives a_i.R <= a_j.R <= b_j, region(t(b)) =
    region(b), so t(b) <= t(b') implies region(b) lies in region(b').
    An empty region (an entry below -1e-12) tightens to -inf throughout,
    below every row.

    The implication is one way: a region's support along a_i can lie
    below t(b)_i, so an order test on t finds a superset of the maximal
    regions.  It is exact for a cap row below a total row that equals
    it wherever the cap is nonzero, as in every cap/total bound: then
    t(b) = (min(a, s), s), with a and s the least cap and total
    entries, is the support along both rows of a nonempty region."""
    rows = _distinct_rows(coeffs)[0]
    t = np.empty((rows.shape[0], rhs.shape[0]))
    for out, row in zip(t, rows):
        first, *more = np.flatnonzero(np.all(coeffs >= row, axis=1))
        out[:] = rhs[:, first]
        for j in more:
            np.minimum(out, rhs[:, j], out=out)
    t[:, t.min(axis=0) < -1e-12] = -np.inf
    return t


def _maximal(t):
    """Ascending indices of columns of t, (p, N) tightened rows, that
    include a column of every maximal value.

    The pivots are the maximal columns of an evenly strided sample of at
    most _PIVOT_SAMPLE of the columns kept, ties to the lower index, so
    no pivot is >= another, and a column goes when some pivot is >= it.
    A pass that samples every column kept leaves one column of each
    maximal value and nothing else.  One that samples only some leaves
    whatever no pivot covers, so passes repeat, each on the columns the
    last one kept, until a pass drops nothing; a block of tens of
    thousands of rows (a t4 block) then prices a few, not thousands.
    The pivots meet the kept columns a group at a time, in (group,
    column) masks of at most _PRICE_CELLS entries (a single pivot
    excepted)."""
    kept = np.arange(t.shape[1])
    while True:
        size = kept.size
        sample = kept[::max(1, -(-size // _PIVOT_SAMPLE))]
        above = _at_least(t, sample, sample)
        # q beats j when t_q >= t_j and the two differ, or are equal and q < j
        beaten = above & (~above.T | np.triu(np.ones(above.shape, dtype=bool), 1))
        pivots = sample[~np.any(beaten, axis=0)]
        is_pivot = np.zeros(t.shape[1], dtype=bool)
        is_pivot[pivots] = True
        done = 0
        while done < pivots.size:
            group = pivots[done:done + max(1, _PRICE_CELLS // kept.size)]
            done += group.size
            # the only pivot that is >= a pivot is that pivot
            kept = kept[is_pivot[kept] | ~np.any(_at_least(t, group, kept), axis=0)]
        if kept.size == size:
            return kept


def _at_least(t, top, cols):
    """The (len(top), len(cols)) mask of t[:, top[q]] >= t[:, cols[j]]
    in every row of t, built one row at a time from 1-d gathers, so no
    (top, cols, row) array is formed."""
    above = np.ones((top.size, cols.size), dtype=bool)
    for row in t:
        above &= row[top, None] >= row[cols]
    return above


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

def fm_eliminate(system, names, prune=True):
    """Project a LinearSystem onto the variables not listed in names.

    Classic positive/negative pairing with four pruning passes: exact
    tautology removal, proportional-row dedup (keep the tightest rhs),
    Chernikov's rule, and -- once the dimension is small, unless prune
    is off -- a vertex-activity sweep that is exact for bounded
    systems.  The first three always run.

    Chernikov's rule (Imbert's first acceleration theorem) keeps a row
    count that would otherwise grow as a square per step: each row
    carries its history, the input rows its multipliers combine, and
    the step that leaves k names eliminated forms a (pos, neg) pair
    only when the union of their histories has at most k + 1 rows.
    Why nothing is lost: with E the k eliminated columns of the input
    rows A, every row is lam^T (A, b) for some lam in the cone
    C_k = {lam >= 0 : lam^T A_E = 0}, with the history as its support,
    and the projection is cut out by the rows of the extreme rays of
    C_k.  An extreme ray's support has at most rank(A_E) + 1 <= k + 1
    rows: on a larger support S, the mu supported on S with
    mu^T A_E = 0 span two dimensions or more, so lam can move both
    ways along one that is not lam's own and stay in C_k.  Each
    extreme ray of C_k is either one of C_{k-1} that is zero in the
    new column or a (pos, neg) combination of two of C_{k-1}, with the
    union of their supports, so by induction every extreme ray has a
    kept row with the same coefficients, a history inside its support
    and a rhs no greater; a dropped row is a nonnegative combination
    of such rows, so it is implied.  Two details keep this true as the plan runs:
    * Dedup groups.  The replay keeps a group's least rhs, which need
      not be the row on the extreme ray, so the group's history is the
      intersection of its members' histories: a subset of every
      member's, so a pair that the member on the ray would form, the
      survivor forms too, at a rhs no greater.
    * Zero rows.  A pair whose combined row is zero in every column is
      formed whatever its history, so the step's 0 <= negative check
      sees every such row the kept rows make.  An empty projection can
      still come back as rows with no common point, where the rule
      left their cancelling combination unformed; every support
      prices it -inf all the same.

    Infinite right-hand sides never enter the pairing: before each
    step a -inf row makes the system empty, and a +inf (absent) row is
    dropped, as the system without it is the same one.

    An empty projection returns as soon as it shows: when a step meets
    a -inf row, or its dedup leaves a 0 <= negative witness, no later
    step can make the system satisfiable, so the result is that one
    witness row over the variables every name leaves.  Every name is
    checked first, so an unknown one raises even then.

    Everything but the rhs arithmetic depends on the matrix alone: a
    step's pos/neg/zero split and pairing read the signs of one column,
    Chernikov's rule reads the histories, and the dedup's row scales,
    groups and surviving rows read the combined rows.  That plan
    (_fm_plan) is memoised per matrix, names and +inf pattern, so
    systems that differ only in their rhs (every appendix-B draw) share
    it, as they share the vertex sweep's dual vertices.
    A call replays its rhs through the plan, and the replay is exact.
    Each paired rhs is rhs[neg] * w_neg + rhs[pos] * w_pos, with
    (w_neg, w_pos) = (col[pos], -col[neg]) divided by their max, the
    same products and sum a fresh step forms, with both weights
    nonnegative.  A min commutes with nonnegative weights, so a merged
    group's tightest row is its least scaled rhs for every rhs, and the
    replay takes that least value without a sort, ties to the earliest
    row as the sort kept them, signed zeros included.  As both weights
    are at most 1, a pairing of finite rhs overflows to +-inf at worst,
    never to NaN; only such an overflow gives a later step a nonfinite
    rhs, and that step leaves the plan and eliminates the remaining
    names afresh.

    The vertex sweep (_vertex_prune) prices through the dual kernel:
    whether the system is bounded, empty, and how far each row reaches
    depend on the matrix alone up to one product per rhs.
    """
    names, left = tuple(names), list(system.variables)
    for name in names:
        if name not in left:
            raise ValueError("cannot eliminate unknown variable %r" % name)
        left.remove(name)
    variables, mat, rhs = system.variables, system.matrix, system.rhs
    if names:
        if np.any(rhs == -INF):
            return _witness(left, -INF)
        live = rhs != INF
        steps, variables, mat = _fm_plan(mat.shape, mat.tobytes(), variables, names,
                                         live.tobytes())
        rhs = rhs[live]
        for s, step in enumerate(steps):
            if s and not np.all(np.isfinite(rhs)):
                return fm_eliminate(LinearSystem(step.variables, step.matrix, rhs),
                                    names[s:], prune)
            rhs = np.concatenate([rhs[step.zero], rhs[step.neg] * step.at_neg
                                  + rhs[step.pos] * step.at_pos])
            nul = rhs[step.dedup.nul]
            bad = nul[nul < -1e-12]
            if bad.size:
                return _witness(left, bad.min())
            rhs = _dedup_values(step.dedup, rhs)
    out = LinearSystem(variables, mat, rhs)
    if prune and len(variables) <= 3:
        out = _vertex_prune(out)
    return out


def _witness(variables, value):
    """The empty system over variables: the one row 0 <= value, with
    value negative."""
    return LinearSystem(variables, np.zeros((1, len(variables))), [value])


# One step of an elimination plan, for the step's input rows (variables,
# matrix): rows zero in the eliminated column, then every (pos, neg)
# pair, pos-major, whose rhs is rhs[neg] * at_neg + rhs[pos] * at_pos;
# dedup groups the rows that makes.
_FmStep = namedtuple("_FmStep", ("variables", "matrix", "zero", "pos", "neg",
                                 "at_pos", "at_neg", "dedup"))
# The rhs-free half of a proportional-row dedup: the surviving rows, the
# zero rows (nul), and the live rows (with their max-norm scales) listed
# group by group, each group's rows in row order, groups in order of
# first occurrence; group is each listed row's group, starts each
# group's first slot.
_Dedup = namedtuple("_Dedup", ("rows", "nul", "live", "scale", "group", "starts"))


@functools.lru_cache(maxsize=4)
def _fm_plan(shape, data, variables, names, live):
    """The rhs-free half of fm_eliminate, for the float matrix with this
    shape and these bytes over variables, the rows flagged in the bool
    bytes live kept: (steps, variables left, projected matrix).  Steps
    after the first take every row as live.  The steps pair only what
    Chernikov's rule keeps, histories kept as a bool (rows, live input
    rows) array (see fm_eliminate).  Read-only, as every call on this
    matrix shares it."""
    mat = np.frombuffer(data).reshape(shape)[np.frombuffer(live, dtype=bool)]
    variables, steps = list(variables), []
    # each row's history: the input rows its multipliers combine
    history = np.eye(mat.shape[0], dtype=bool)
    for k, name in enumerate(names, 1):
        j = variables.index(name)
        col = mat[:, j]
        pos = np.nonzero(col > 1e-12)[0]
        neg = np.nonzero(col < -1e-12)[0]
        zero = np.nonzero(np.abs(col) <= 1e-12)[0]
        # every (pos, neg) pair, pos-major, scaled so column j cancels
        # exactly, that Chernikov's rule keeps: a history of at most
        # k + 1 rows, or a combined row that is zero.  Each pair's two
        # weights are divided by their max, so a sum of two finite
        # products overflows to +-inf at worst, never to NaN
        pos, neg = np.repeat(pos, neg.size), np.tile(neg, pos.size)
        at_neg, at_pos = col[pos], -col[neg]
        top = np.maximum(at_neg, at_pos)
        at_neg, at_pos = at_neg / top, at_pos / top
        combo = mat[neg] * at_neg[:, None] + mat[pos] * at_pos[:, None]
        combo[:, j] = 0.0
        union = history[pos] | history[neg]
        kept = ((np.count_nonzero(union, axis=1) <= k + 1)
                | (np.abs(combo).max(axis=1, initial=0.0) <= 1e-12))
        pos, neg, combo = pos[kept], neg[kept], combo[kept]
        step = (tuple(variables), mat, zero, pos, neg, at_pos[kept], at_neg[kept])
        variables.pop(j)
        dedup = _dedup_groups(np.delete(np.concatenate([mat[zero], combo]), j, axis=1))
        steps.append(_FmStep(*step, dedup))
        mat = dedup.rows
        # a dedup group's history is what all its members share
        history = np.concatenate([history[zero], union[kept]])[dedup.live]
        history = np.logical_and.reduceat(history, dedup.starts) if dedup.starts.size \
            else history[:0]
    for arr in chain.from_iterable(chain(st[1:7], st.dedup) for st in steps):
        arr.flags.writeable = False
    return tuple(steps), tuple(variables), mat


def _dedup_groups(mat):
    """The rhs-free half of the proportional-row dedup of mat, as a
    _Dedup: rows are scaled to a max-norm of 1 and grouped on their
    9-digit rounding, and each group keeps its first row, in
    first-occurrence order; rows whose scale is 1e-12 or less are the
    zero rows."""
    scale = np.abs(mat).max(axis=1, initial=0.0)
    zero = scale <= 1e-12
    live = np.nonzero(~zero)[0]
    rows = mat[live] / scale[live, None]
    group = starts = np.empty(0, dtype=np.intp)
    if live.size:
        key = np.round(rows, 9)
        order = np.lexsort(key.T[::-1])           # by key, then row order
        key = key[order]
        new = np.concatenate([[True], np.any(key[1:] != key[:-1], axis=1)])
        first = order[new]                        # each group's first row
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        by_key = rank[np.cumsum(new) - 1]
        slots = np.argsort(by_key, kind="stable")
        live, group = live[order[slots]], by_key[slots]
        starts = np.flatnonzero(np.concatenate([[True], group[1:] != group[:-1]]))
        rows = rows[np.sort(first)]
    return _Dedup(rows, np.nonzero(zero)[0], live, scale[live], group, starts)


def _dedup_values(dedup, rhs):
    """Each group's rhs, scaled as its rows: the least, the earliest row
    among equal least ones (so a -0.0 and a 0.0 keep whichever comes
    first), NaN only when the whole group is."""
    vals = rhs[dedup.live] / dedup.scale
    if not vals.size:
        return vals
    least = np.fmin.reduceat(vals, dedup.starts)
    hit = np.flatnonzero((vals <= least[dedup.group]) | np.isnan(least)[dedup.group])
    return vals[hit[np.searchsorted(hit, dedup.starts)]]


def _vertex_prune(system):
    """Remove rows never active at a vertex.  Exact when the feasible
    set is bounded and nonempty; returned unchanged otherwise, and when
    a row is zero.  The set is bounded when every axis both ways has a
    dual vertex, and row i is active at a vertex when the support along
    row i reaches b_i, within 1e-7 (1 + |b_i|); so a weakly redundant
    row through a vertex stays."""
    a, b = system.matrix, system.rhs
    if not np.all(np.isfinite(b)) or np.any(np.all(np.abs(a) <= 1e-12, axis=1)):
        return system
    axes = np.eye(a.shape[1])
    duals = _dual(a, np.vstack([axes, -axes, a]))
    if not np.all(duals[1][:2 * axes.shape[0]]) or _is_empty(a, b):
        return system
    reach = _dual_price(duals, b[None, :])[0, 2 * axes.shape[0]:]
    active = reach >= b - 1e-7 * (1.0 + np.abs(b))
    return LinearSystem(system.variables, a[active], b[active])


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
    """dir0,dir1,dir2,support_bits rows; 2-d envelopes pad dir2 = 0.
    Every value is %.9g and every line ends in \\r\\n (the csv
    module's dialect); the file is formatted as one string."""
    dirs = env.directions
    if dirs.shape[1] == 2:
        dirs = np.column_stack([dirs, np.zeros(dirs.shape[0])])
    cells = np.column_stack([dirs, env.supports]).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write("dir0,dir1,dir2,support_bits\r\n"
                 + "%.9g,%.9g,%.9g,%.9g\r\n" * dirs.shape[0] % tuple(cells))


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
    verts = enumerate_vertices(a, b)
    if verts.shape[0] == 0:
        return np.empty((0, 2))
    # keep the non-dominated ones (upper-right frontier): row i is
    # dominated when some vertex is no worse anywhere and better somewhere
    diff = verts[None, :, :] - verts[:, None, :]
    dominated = np.any(np.all(diff >= -1e-9, axis=2) & np.any(diff > 1e-9, axis=2),
                       axis=1)
    front = verts[~dominated]
    return front[np.lexsort((-front[:, 1], front[:, 0]))]
