"""Polytope support machinery, Fourier-Motzkin elimination, exports.

The elimination oracle is worked by hand below; support values are
cross-checked against scipy's LP solver on random instances.
"""

import csv
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import confbc.regions as regions
from confbc.regions import (
    CANONICAL_DIRS_2D,
    CANONICAL_DIRS_3D,
    Bound,
    ConstraintPolytope,
    LinearSystem,
    RegionEnvelope,
    batch_support,
    default_dirs_2d,
    default_dirs_3d,
    enumerate_vertices,
    envelope_boundary_2d,
    envelope_dominates,
    fan_2d,
    fm_eliminate,
    octant_fibonacci,
    support_of_system,
    vertex_supports,
    write_support_csv,
)

VARS3 = ("R0", "R1", "R2")


def _box(r0=1.0, r1=2.0, r2=3.0, extra=()):
    """R <= (r0, r1, r2) plus extra (coefficient row, rhs) pairs."""
    a = np.vstack([np.eye(3)] + [c for c, _ in extra])
    return ConstraintPolytope(VARS3, a, [r0, r1, r2] + [r for _, r in extra])


def _union(polys, dirs):
    """Support record of the union of polytopes sharing one matrix."""
    dirs = np.asarray(dirs, dtype=float)
    rhs = np.array([p.rhs for p in polys])
    return RegionEnvelope(polys[0].variables, dirs,
                          batch_support(polys[0].matrix, rhs, dirs, reduce_max=True))


# ---------------------------------------------------------------------------
# constraints and polytopes
# ---------------------------------------------------------------------------

def test_constraint_polytope_validation():
    p = ConstraintPolytope(VARS3, [[1, 0, 2]], [1.5])
    assert p.matrix.dtype == float and p.matrix.tolist() == [[1.0, 0.0, 2.0]]
    a, b = p.coeff_matrix()
    assert a is p.matrix and b is p.rhs
    with pytest.raises(ValueError, match="read-only"):
        p.rhs[0] = 0.0                                       # every reader shares it
    with pytest.raises(ValueError, match="nonnegative integers"):
        ConstraintPolytope(VARS3, [[-1, 0, 0]], [1.0])       # upper bounds only
    with pytest.raises(ValueError, match="nonnegative integers"):
        ConstraintPolytope(VARS3, [[1, 0.5, 0]], [1.0])      # small integer weights
    with pytest.raises(ValueError, match="nonzero"):
        ConstraintPolytope(VARS3, [[1, 0, 0], [0, 0, 0]], [1.0, 1.0])   # nothing left
    for cls in (ConstraintPolytope, LinearSystem):           # one shared shape check
        with pytest.raises(ValueError, match="shape"):
            cls(VARS3, [[1, 0]], [1.0])
        with pytest.raises(ValueError, match="shape"):
            cls(VARS3, [[1, 0, 0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="duplicate variable names"):
            cls(("R0", "R0", "R1"), [[1, 0, 1]], [1.0])     # a column no name reaches
    ConstraintPolytope(VARS3, [[1, 0, 0]], [math.inf])      # inf rhs = absent row, fine
    LinearSystem(VARS3, [[-1, 0.5, 0]], [1.0])               # general sign is the system's


def test_box_supports():
    p = _box()
    assert p.support((1, 0, 0)) == pytest.approx(1.0)
    assert p.support((1, 1, 1)) == pytest.approx(6.0)
    assert p.support((2, 1, 1)) == pytest.approx(7.0)
    # the far corner is a vertex, and nothing reaches past it along R0
    assert [1.0, 2.0, 3.0] in p.vertices().tolist()
    assert p.vertices()[:, 0].max() < 1.0 + 1e-6


def test_sum_row_cuts_corner():
    p = _box(extra=[((1, 1, 1), 4.0)])
    assert p.support((1, 1, 1)) == pytest.approx(4.0)
    assert p.support((1, 0, 0)) == pytest.approx(1.0)


def test_negative_rhs_means_empty():
    p = _box(extra=[((1, 0, 0), -0.5)])
    assert p.support((1, 1, 1)) == -math.inf
    assert p.support((0, 0, 0)) == -math.inf


def test_inf_rhs_means_unbounded():
    p = ConstraintPolytope(VARS3, np.eye(3), [math.inf, 1.0, 1.0])
    assert p.support((1, 0, 0)) == math.inf
    assert p.support((0, 1, 1)) == pytest.approx(2.0)


def test_enumerate_vertices_unit_square():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0])
    verts = enumerate_vertices(a, b)
    want = {(0, 0), (0, 1), (1, 0), (1, 1)}
    got = {tuple(np.round(v, 12)) for v in verts}
    assert got == want


def test_enumerate_vertices_drops_absent_rows():
    # x <= 1 alone: the strip's two vertices, none out at the +inf row
    verts = enumerate_vertices([[1.0, 0.0], [0.0, 1.0]], [1.0, math.inf])
    assert {tuple(np.round(v, 12)) for v in verts} == {(0, 0), (1, 0)}


def test_enumerate_vertices_rejects_nan_rhs():
    # a NaN row once read as no row: (1, 0) and (0, 0) came back
    with pytest.raises(ValueError, match="rhs has a NaN entry"):
        enumerate_vertices([[1.0, 0.0], [0.0, 1.0]], [1.0, math.nan])


def test_support_of_system_rejects_nan_rhs():
    # a NaN row once read as an absent one: +inf in direction (1, 1)
    system = LinearSystem(("x", "y"), [[1, 0], [0, 1], [-1, 0], [0, -1]],
                          [1.0, math.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="rhs has a NaN entry"):
        support_of_system(system, (1.0, 1.0))


def test_a_minus_inf_row_leaves_no_vertex():
    p = ConstraintPolytope(("R0", "R1"), [[1, 0], [1, 1]], [-math.inf, 1.0])
    assert p.support((1, 1)) == -math.inf
    assert p.vertices().shape == (0, 2)
    assert enumerate_vertices(p.matrix, p.rhs).shape == (0, 2)


def test_support_of_system_general_sign():
    # triangle: x + y <= 1, x >= -1, y >= -1  (lower bounds as negative rows),
    # with vertices (-1, -1), (-1, 2) and (2, -1)
    tri = LinearSystem(("x", "y"), [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 1.0])
    dirs = [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (-1.0, 0.0), (1.0, -2.0)]
    got = support_of_system(tri, dirs)
    assert got.shape == (6,)
    assert got.tolist() == pytest.approx([2.0, 2.0, 2.0, 1.0, 1.0, 4.0], abs=1e-12)


# ---------------------------------------------------------------------------
# batch support vs an LP oracle
# ---------------------------------------------------------------------------

def _lp_support(a, b, d):
    keep = np.isfinite(b)                 # +inf rows are absent
    res = linprog(-np.asarray(d, dtype=float),
                  A_ub=a[keep] if np.any(keep) else None,
                  b_ub=b[keep] if np.any(keep) else None,
                  bounds=[(0, None)] * a.shape[1], method="highs")
    if res.status == 3:
        return math.inf
    assert res.status == 0, res.message
    return -res.fun


# the dm converse's row pattern: repeated rows, each with its own rhs
_DUP_ROWS = np.array([(1, 1, 0), (0, 1, 0), (0, 1, 0), (1, 0, 1), (0, 0, 1),
                      (0, 0, 1)] + [(1, 1, 1)] * 5, dtype=float)


def test_batch_support_matches_linprog():
    rng = np.random.default_rng(42)
    systems = [_DUP_ROWS, np.zeros((0, 3))]
    for _ in range(25):
        n_rows = rng.integers(3, 7)
        a = rng.uniform(0.0, 1.0, size=(n_rows, 3))
        a[rng.integers(0, n_rows)] = [1.0, 1.0, 1.0]   # keep it bounded
        systems += [a, a[rng.integers(0, n_rows, size=n_rows + 2)]]
    for a in systems:
        m = a.shape[0]
        rhs = rng.uniform(0.5, 3.0, size=(4, m))
        rhs[1, rng.random(m) < 0.4] = np.inf           # absent rows among finite ones
        rhs[2, rng.random(m) < 0.4] = 0.0
        rhs[3, :] = 0.0
        dirs = rng.uniform(-0.5, 1.0, size=(8, 3))
        dirs[0] = (1.0, 1.0, 1.0)
        dirs[1] = (0.0, 0.0, 0.0)
        dirs[2] = (1.0, 0.0, -1.0)
        sups = batch_support(a, rhs, dirs)
        for b, row in zip(rhs, sups):
            for d, s in zip(dirs, row):
                want = _lp_support(a, b, d)
                if math.isinf(want):
                    assert s == want
                else:
                    assert s == pytest.approx(want, abs=1e-6)
        assert np.array_equal(batch_support(a, rhs, dirs, reduce_max=True),
                              sups.max(axis=0))


def test_batch_support_sampled_points_stay_inside():
    rng = np.random.default_rng(9)
    a = rng.uniform(0.1, 1.0, size=(5, 3))
    b = rng.uniform(1.0, 2.0, size=5)
    dirs = octant_fibonacci(64)
    sups = batch_support(a, b[None, :], dirs)[0]
    # rejection-sample feasible points, then test d @ x <= support
    pts = rng.uniform(0.0, 5.0, size=(20000, 3))
    feas = pts[np.all(pts @ a.T <= b[None, :] + 1e-12, axis=1)]
    assert feas.shape[0] > 100
    assert np.all(feas @ dirs.T <= sups[None, :] + 1e-9)


def test_batch_support_reduce_max():
    # two rhs rows = union of two boxes; reduce_max keeps the best
    a = np.eye(2)
    rhs = np.array([[1.0, 3.0], [2.0, 1.0]])
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sups = batch_support(a, rhs, dirs, reduce_max=True)
    assert sups.shape == (3,)
    assert np.allclose(sups, [2.0, 3.0, 4.0])
    per = batch_support(a, rhs, dirs, reduce_max=False)
    assert per.shape == (2, 3)
    assert np.allclose(per[0], [1.0, 3.0, 4.0])


def test_batch_support_block_size_keeps_supports(monkeypatch):
    # Pricing in blocks of one polytope must give what one block gives:
    # the same +-inf pattern, reduce_max equal to the max of the rows, and
    # finite supports equal up to the rounding of the candidate GEMM,
    # whose kernel (and so its last bit) BLAS picks by the block width.
    rng = np.random.default_rng(11)
    dirs = np.vstack([octant_fibonacci(40), rng.uniform(-1.0, 1.0, size=(12, 3)),
                      [(0.0, 0.0, 0.0), (1.0, 0.0, -1.0)]])
    systems = [_DUP_ROWS, np.zeros((0, 3))]
    systems += [rng.uniform(0.0, 1.0, size=(rng.integers(2, 7), 3)) for _ in range(6)]
    for a in systems:
        m = a.shape[0]
        rhs = rng.uniform(0.0, 3.0, size=(300, m))
        rhs[rng.random(rhs.shape) < 0.15] = np.inf     # absent rows
        rhs[::37] = np.inf                               # no row at all
        if m:
            rhs[5::41, rng.integers(0, m)] = -0.5        # empty polytopes
        want = [batch_support(a, rhs, dirs, reduce_max=r) for r in (False, True)]
        with monkeypatch.context() as mp:
            mp.setattr(regions, "_PRICE_CELLS", 64)
            got = [batch_support(a, rhs, dirs, reduce_max=r) for r in (False, True)]
        # each value is a min over sums of m nonnegative products
        rtol = 2 * max(m, 1) * np.finfo(float).eps
        for w, g in zip(want, got):
            assert np.array_equal(np.isposinf(w), np.isposinf(g))
            assert np.array_equal(np.isneginf(w), np.isneginf(g))
            np.testing.assert_allclose(g, w, rtol=rtol, atol=0.0)
        assert np.array_equal(got[1], got[0].max(axis=0))
        assert np.array_equal(want[1], want[0].max(axis=0))


def test_batch_support_unbounded_direction():
    # only R0 is capped; (0,1) escapes to +inf, and empty rhs -> -inf
    a = np.array([[1.0, 0.0]])
    sups = batch_support(a, np.array([[1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))[0]
    assert sups[0] == math.inf and sups[1] == pytest.approx(1.0)
    empty = batch_support(a, np.array([[-1.0]]), np.array([[1.0, 0.0]]))[0]
    assert empty[0] == -math.inf
    # no rows at all: bounded exactly where no direction component is positive
    dirs = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, 0.0], [-1.0, -2.0]])
    free = batch_support(np.zeros((0, 2)), np.zeros((1, 0)), dirs)[0]
    assert free.tolist() == [math.inf, 0.0, 0.0, 0.0]
    # an absent row uncaps its variable; a duplicate keeps the finite copy;
    # emptiness beats unboundedness
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    rhs = np.array([[1.0, np.inf, np.inf],
                    [np.inf, np.inf, 2.0],
                    [-1.0, np.inf, np.inf],
                    [np.inf, np.inf, np.inf]])
    sups = batch_support(a, rhs, np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]))
    assert sups[0].tolist() == [math.inf, 1.0, math.inf]
    assert sups[1].tolist() == [math.inf, math.inf, 2.0]
    assert sups[2].tolist() == [-math.inf] * 3
    assert sups[3].tolist() == [math.inf] * 3


def _dual_vertices_per_basis(a, dirs):
    """_dual_vertices of the whole matrix a as it enumerated before it
    kept one slot per vertex: one slot for every dual-feasible basis, in
    basis order, so a degenerate vertex reached from several bases fills
    several.  The oracle of the per-vertex slots."""
    n, k = a.shape
    idx, mats = regions._bases(a, k)
    y, tol = regions._multipliers(np.linalg.inv(mats), dirs)
    feas = np.all(y >= -tol, axis=2)
    spread = np.zeros((idx.shape[0], k, n))
    t, p = np.nonzero(idx < n)
    spread[t, p, idx[t, p]] = 1.0
    lam = np.where(y > tol, y, 0.0) @ spread
    count = feas.sum(axis=0)
    has = count > 0
    first = np.argsort(~feas[:, has], axis=0, kind="stable")
    slot = np.minimum(np.arange(count.max(initial=0))[:, None], count[has] - 1)
    pick = np.take_along_axis(first, slot, axis=0)
    col = np.nonzero(has)[0][None, :]
    return lam[pick, col], has


def _stacked(a):
    """The matrix batch_support hands the dual kernel: a's rows, then
    R >= 0 as the rows -I."""
    return np.vstack([a, -np.eye(a.shape[1])])


def _dual_vertices_of(a, dirs):
    return regions._dual(_stacked(a), dirs)


def _dual_cases():
    """(merged rows, directions) pairs: the dm converse's rows, random
    real and 0/1 systems of 2-7 rows (the 0/1 ones have degenerate
    vertices, as the bounds' rows do), no rows at all, against the fan
    plus zero, negative and mixed-sign directions."""
    rng = np.random.default_rng(17)
    dirs = np.vstack([default_dirs_3d(40), rng.uniform(-1.0, 1.0, size=(12, 3)),
                      [(0.0, 0.0, 0.0), (-1.0, -2.0, 0.0), (1.0, 0.0, -1.0)]])
    systems = [np.unique(_DUP_ROWS, axis=0), np.zeros((0, 3))]
    for _ in range(12):
        n = rng.integers(2, 8)
        systems.append(rng.uniform(0.0, 1.0, size=(n, 3)))
        rows = rng.integers(0, 2, size=(n, 3)).astype(float)
        rows[rows.sum(axis=1) == 0, rng.integers(0, 3)] = 1.0
        systems.append(np.unique(rows, axis=0))
    return [(a, dirs) for a in systems]


def _distinct_slots(lam, h):
    """Direction h's slots, each vertex once, in slot order (the first
    slot of a vertex kept): slots within 1e-9 of each other are one."""
    out = []
    for row in lam[:, h]:
        if not any(np.allclose(row, o, rtol=1e-9, atol=1e-9) for o in out):
            out.append(row)
    return out


@pytest.mark.parametrize("case", range(len(_dual_cases())))
def test_dual_vertices_keeps_one_slot_per_vertex(case):
    a, dirs = _dual_cases()[case]
    lam, has = _dual_vertices_of(a, dirs)
    ref_lam, ref_has = _dual_vertices_per_basis(_stacked(a), dirs)
    assert np.array_equal(has, ref_has)
    assert lam.shape[0] <= ref_lam.shape[0]
    # each vertex's slot is the reference's first slot on it, bytes and
    # all, the multipliers within rounding of zero being zero in both
    for h in range(lam.shape[1]):
        want = _distinct_slots(ref_lam, h)
        got = [row for j, row in enumerate(lam[:, h])
               if j == 0 or row.tobytes() != lam[j - 1, h].tobytes()]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (case, h)


@pytest.mark.parametrize("case", range(len(_dual_cases())))
def test_batch_support_matches_the_per_basis_kernel(case, monkeypatch):
    a, dirs = _dual_cases()[case]
    rng = np.random.default_rng(case)
    m = a.shape[0]
    rhs = rng.uniform(0.0, 3.0, size=(200, m))
    rhs[rng.random(rhs.shape) < 0.15] = np.inf           # absent rows
    rhs[::23] = np.inf                                     # no row at all
    rhs[::17] = np.round(rhs[::17])                        # ties between vertices
    if m:
        rhs[5::29, rng.integers(0, m)] = -0.5              # empty polytopes
    got = [batch_support(a, rhs, dirs, reduce_max=r) for r in (False, True)]
    with monkeypatch.context() as mp:
        mp.setattr(regions, "_dual_vertices", lambda shape, data, dshape, ddata:
                   _dual_vertices_per_basis(np.frombuffer(data).reshape(shape),
                                            np.frombuffer(ddata).reshape(dshape)))
        want = [batch_support(a, rhs, dirs, reduce_max=r) for r in (False, True)]
    rtol = 2 * max(m, 1) * np.finfo(float).eps
    for w, g in zip(want, got):
        assert np.array_equal(np.isposinf(w), np.isposinf(g))
        assert np.array_equal(np.isneginf(w), np.isneginf(g))
        np.testing.assert_allclose(g, w, rtol=rtol, atol=0.0)


def test_dual_vertices_memo_is_shared_and_read_only():
    a, dirs = np.unique(_DUP_ROWS, axis=0), default_dirs_3d()
    regions._dual_vertices.cache_clear()
    cold = _dual_vertices_of(a, dirs)
    snapshot = [arr.tobytes() for arr in cold]
    warm = _dual_vertices_of(a, dirs)
    info = regions._dual_vertices.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    regions._dual_vertices.cache_clear()
    again = _dual_vertices_of(a, dirs)
    for c, w, g, b in zip(cold, warm, again, snapshot):
        assert w is c and g.tobytes() == b == w.tobytes()
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c.flat[0] = c.flat[0]


@pytest.fixture
def dual_vertex_keys(monkeypatch):
    """Every key _dual_vertices is asked for from here on, the memo
    cleared; regions._dual_vertices.cache_info() still reads the memo."""
    cached, keys = regions._dual_vertices, []

    def counted(*key):
        keys.append(key)
        return cached(*key)

    counted.cache_info = cached.cache_info
    cached.cache_clear()
    monkeypatch.setattr(regions, "_dual_vertices", counted)
    return keys


def test_fm_equivalence_enumerates_once_per_matrix_and_directions(dual_vertex_keys):
    from confbc.suites import run_suite
    keys = dual_vertex_keys
    assert run_suite("fm-equivalence", seed=0, trials=10).passed
    assert len(keys) > len(set(keys))
    assert regions._dual_vertices.cache_info().misses == len(set(keys))


@pytest.mark.parametrize("where", ["coeffs", "rhs", "dirs"])
def test_batch_support_rejects_nan(where):
    args = {"coeffs": np.array([[1.0, 1.0], [1.0, 0.0]]),
            "rhs": np.array([[2.0, 1.0]]), "dirs": np.array([[1.0, 1.0], [0.0, 1.0]])}
    args[where] = args[where].copy()
    args[where][0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        batch_support(args["coeffs"], args["rhs"], args["dirs"])


def test_constraint_polytope_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ConstraintPolytope(("R1", "R2"), [[1, 1], [1, 0]], [math.nan, 1.0])
    p = ConstraintPolytope(("R1", "R2"), [[1, 1], [1, 0]], [2.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        p.support([math.nan, 1.0])


# ---------------------------------------------------------------------------
# the stacked primal oracle
# ---------------------------------------------------------------------------

def _vertex_max(a, b, dirs):
    """max of x . d over enumerate_vertices(a, b), -inf with no vertex."""
    verts = enumerate_vertices(a, b)
    return (verts @ dirs.T).max(axis=0) if verts.shape[0] \
        else np.full(dirs.shape[0], -math.inf)


@st.composite
def _region_stacks(draw):
    """(coeffs, rhs stack, dirs): small integer rows in 1-3 variables,
    zero and negative entries included, so vertices are often degenerate
    and some regions unbounded; rhs entries mix random floats, small
    integers, 0, negatives and +-inf; 0-6 regions."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 6))
    a = np.reshape(draw(st.lists(st.integers(-1, 3), min_size=m * k, max_size=m * k)),
                   (m, k)).astype(float)
    entry = st.one_of(st.floats(-1.0, 4.0), st.integers(-1, 3).map(float),
                      st.sampled_from([0.0, math.inf, -math.inf]))
    rhs = np.reshape(draw(st.lists(entry, min_size=n * m, max_size=n * m)),
                     (n, m)).astype(float)
    d = draw(st.integers(1, 8))
    dirs = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * k,
                                    max_size=d * k)), (d, k))
    return a, rhs, dirs


@given(case=_region_stacks())
@settings(max_examples=300, deadline=None)
def test_vertex_supports_equal_the_vertex_max_of_each_region(case):
    # bit for bit: each region's vertices are solved from the same bases
    # and priced in a product of the shape its own enumeration gives
    a, rhs, dirs = case
    got = vertex_supports(a, rhs, dirs)
    assert got.shape == (rhs.shape[0], dirs.shape[0])
    for b, row in zip(rhs, got):
        assert row.tobytes() == _vertex_max(a, b, dirs).tobytes(), b


def test_vertex_supports_absent_and_empty_rows():
    # the box x <= 1, y <= 2 with its y cap absent is the strip x <= 1,
    # priced from its own vertices; a -inf row empties a region
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    rhs = np.array([[1.0, 2.0, 2.5],
                    [1.0, math.inf, 2.5],
                    [1.0, math.inf, math.inf],
                    [1.0, -math.inf, 2.5],
                    [math.inf] * 3])
    got = vertex_supports(a, rhs, dirs)
    assert got[0].tolist() == [1.0, 2.0, 2.5, 0.0]
    assert np.array_equal(got[1], vertex_supports(a[[0, 2]], rhs[1, [0, 2]], dirs)[0])
    assert got[1].tolist() == [1.0, 2.5, 2.5, 0.0]
    # unbounded along +y: the max over the strip's vertices (0, 0) and
    # (1, 0), not +inf, which is what batch_support answers
    assert got[2].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert batch_support(a, rhs[2:3], dirs)[0, 1] == math.inf
    assert got[3].tolist() == [-math.inf] * 4
    # no finite row: the origin is the one vertex of the quadrant
    assert got[4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert vertex_supports(a, np.zeros((0, 3)), dirs).shape == (0, 4)


@pytest.mark.parametrize("where", ["rhs", "dirs"])
def test_vertex_supports_rejects_nan(where):
    args = {"rhs": np.array([[2.0, 1.0], [1.0, 1.0]]),
            "dirs": np.array([[1.0, 1.0], [0.0, 1.0]])}
    args[where][1, 1] = np.nan
    with pytest.raises(ValueError, match="%s has a NaN entry" % where):
        vertex_supports(np.array([[1.0, 1.0], [1.0, 0.0]]), args["rhs"], args["dirs"])


def test_vertex_supports_match_batch_support_on_bounded_regions():
    # regions capped by a finite all-ones row are bounded, so the primal
    # and dual supports agree to the 1e-9 of the other primal oracles;
    # a negative rhs empties a region in both
    rng = np.random.default_rng(5)
    dirs = np.vstack([default_dirs_3d(64), rng.uniform(-1.0, 1.0, size=(8, 3))])
    for a in [_DUP_ROWS] + [rng.integers(0, 3, size=(rng.integers(2, 7), 3)).astype(float)
                            for _ in range(8)]:
        a = np.vstack([a, np.ones((1, 3))])
        a = a[np.any(a > 0, axis=1)]
        rhs = rng.uniform(0.0, 3.0, size=(60, a.shape[0]))
        rhs[:, :-1][rng.random((60, a.shape[0] - 1)) < 0.2] = np.inf
        rhs[::7] = np.round(rhs[::7])                      # degenerate vertices
        rhs[3::11, 0] = -0.5
        got, want = vertex_supports(a, rhs, dirs), batch_support(a, rhs, dirs)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert np.all(np.isfinite(want[~np.isneginf(want)]))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


@given(r=st.tuples(st.floats(0.1, 5), st.floats(0.1, 5), st.floats(0.1, 5)),
       d=st.tuples(st.floats(0, 2), st.floats(0, 2), st.floats(0, 2)))
@example(r=(1.0, 1.0, 5.0), d=(0.0, 1.0, 1e-12))   # a component near rounding
@settings(max_examples=80, deadline=None)
def test_box_support_is_corner_dot_property(r, d):
    p = _box(*r)
    want = float(np.dot(d, r))
    assert p.support(d) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Fourier-Motzkin
# ---------------------------------------------------------------------------

def _fm_toy(c, d, e):
    """max R s.t. exists B1, B2 >= 0 with B1+B2 >= c, R+B1 <= d, R+B2 <= e.

    Eliminating B1 then B2 by hand gives {R <= d, R <= e, 2R <= d+e-c},
    so the max is min(d, e, (d+e-c)/2).
    """
    sys = LinearSystem.from_rows(
        ("R", "B1", "B2"),
        [({"B1": -1, "B2": -1}, -c),
         ({"R": 1, "B1": 1}, d),
         ({"R": 1, "B2": 1}, e),
         ({"B1": -1}, 0.0),
         ({"B2": -1}, 0.0)])
    return fm_eliminate(sys, ("B1", "B2"))


def test_fm_toy_oracle():
    out = _fm_toy(1.0, 2.0, 2.5)
    assert out.variables == ("R",)
    assert support_of_system(out, (1.0,)) == pytest.approx(1.75, abs=1e-12)
    out2 = _fm_toy(1.0, 0.5, 2.5)
    assert support_of_system(out2, (1.0,)) == pytest.approx(0.5, abs=1e-12)
    out3 = _fm_toy(4.0, 2.0, 2.5)      # link demand dominates: (d+e-c)/2
    assert support_of_system(out3, (1.0,)) == pytest.approx(0.25, abs=1e-12)


def test_fm_keeps_unrelated_rows():
    sys = LinearSystem.from_rows(
        ("R", "S", "B"),
        [({"R": 1, "B": 1}, 2.0),
         ({"B": -1}, 0.0),
         ({"S": 1}, 1.0)])
    out = fm_eliminate(sys, ("B",))
    assert out.variables == ("R", "S")
    assert support_of_system(out, (1.0, 0.0)) == pytest.approx(2.0)
    assert support_of_system(out, (0.0, 1.0)) == pytest.approx(1.0)


def test_fm_unknown_variable():
    sys = LinearSystem.from_rows(("R",), [({"R": 1}, 1.0)])
    with pytest.raises(ValueError):
        fm_eliminate(sys, ("Q",))


def test_fm_dedup_keeps_tightest():
    sys = LinearSystem.from_rows(
        ("R", "B"),
        [({"R": 1}, 3.0), ({"R": 2}, 4.0), ({"B": 1}, 1.0), ({"B": -1}, 0.0)])
    out = fm_eliminate(sys, ("B",), prune=False)
    # R <= 3 and R <= 2 are proportional rows; only the tighter survives
    assert support_of_system(out, (1.0,)) == pytest.approx(2.0)
    assert out.matrix.shape[0] == 1


def _empty_at_step_one():
    """B1 <= -1 against B1 >= 0: empty, and the first step shows it."""
    return LinearSystem.from_rows(
        ("R", "S", "B1", "B2"),
        [({"B1": 1}, -1.0), ({"B1": -1}, 0.0), ({"R": 1}, 1.0), ({"S": 1}, 2.0),
         ({"R": 1, "B2": 1}, 3.0), ({"B2": -1}, 0.0)])


@pytest.mark.parametrize("prune", [True, False])
def test_fm_empty_projection_is_one_witness_row(prune):
    out = fm_eliminate(_empty_at_step_one(), ("B1", "B2"), prune=prune)
    assert out.variables == ("R", "S")
    assert out.matrix.tolist() == [[0.0, 0.0]] and out.rhs[0] < 0.0
    assert support_of_system(out, (1.0, 0.0)) == -math.inf


def test_fm_unknown_name_raises_before_the_witness():
    with pytest.raises(ValueError, match="'Q'"):
        fm_eliminate(_empty_at_step_one(), ("B1", "Q"))


def test_fm_inf_rows_never_pair():
    # pairing the absent R + B <= inf with the unsatisfiable -B <= -inf
    # once gave inf - inf = NaN, and the NaN row then let R <= 1 survive
    sys = LinearSystem.from_rows(
        ("R", "B"), [({"R": 1, "B": 1}, math.inf), ({"B": -1}, -math.inf), ({"R": 1}, 1.0)])
    out = fm_eliminate(sys, ("B",))
    assert support_of_system(out, (1.0,)) == -math.inf
    assert support_of_system(sys, (1.0, 0.0)) == -math.inf
    # an absent row alone is dropped: B stays free below, so R is bounded by 1
    absent = LinearSystem.from_rows(
        ("R", "B"), [({"R": 1, "B": 1}, math.inf), ({"B": -1}, 0.0), ({"R": 1}, 1.0)])
    assert support_of_system(fm_eliminate(absent, ("B",)), (1.0,)) == 1.0


def test_vertex_prune_memo_keys_on_the_matrix_alone():
    # the unit cube plus x + y + z <= s: the cut is active at s = 2 and
    # pruned at s = 5, from one shared pair of dual enumerations (the
    # directions, and phase 1's lifted matrix)
    a = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
    cut, loose = (LinearSystem(VARS3, a, [1, 1, 1, 0, 0, 0, s]) for s in (2.0, 5.0))
    regions._dual_vertices.cache_clear()
    warm = [regions._vertex_prune(s) for s in (cut, loose)]
    info = regions._dual_vertices.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    for s, got in zip((cut, loose), warm):
        regions._dual_vertices.cache_clear()
        cold = regions._vertex_prune(s)
        assert got.matrix.tobytes() == cold.matrix.tobytes()
        assert got.rhs.tobytes() == cold.rhs.tobytes()
    assert [w.matrix.shape[0] for w in warm] == [7, 6]
    # a block of directions on one matrix costs one enumeration, and
    # phase 1 on that matrix is the prune's
    dirs = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
    sups = [support_of_system(s, dirs) for s in (cut, loose)]
    info = regions._dual_vertices.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    assert sups[0].tolist() == pytest.approx([1, 1, 1, 0, 0, 0, 2], abs=1e-12)
    assert sups[1].tolist() == pytest.approx([1, 1, 1, 0, 0, 0, 3], abs=1e-12)


def _dedup_rows_loop(mat, rhs):
    """The row-at-a-time dedup the vectorised _dedup_rows replaced,
    kept as its oracle."""
    keep_mat, keep_rhs = [], []
    seen = {}
    worst_zero = None
    for i in range(mat.shape[0]):
        row = mat[i]
        scale = np.max(np.abs(row))
        if scale <= 1e-12:
            if rhs[i] < -1e-12:
                worst_zero = min(worst_zero, rhs[i]) if worst_zero is not None else rhs[i]
            continue
        key = tuple(np.round(row / scale, 9))
        val = rhs[i] / scale
        if key in seen:
            slot = seen[key]
            keep_rhs[slot] = min(keep_rhs[slot], val)
        else:
            seen[key] = len(keep_mat)
            keep_mat.append(row / scale)
            keep_rhs.append(val)
    if worst_zero is not None:
        keep_mat.append(np.zeros(mat.shape[1]))
        keep_rhs.append(worst_zero)
    if not keep_mat:
        return np.empty((0, mat.shape[1])), np.empty(0)
    return np.array(keep_mat), np.array(keep_rhs)


def _dedup_rows_sorted(mat, rhs):
    """The one-sort dedup fm_eliminate ran per step before its plan was
    memoised, kept for the reference stepper below."""
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


def _dedup_rows_planned(mat, rhs):
    """The dedup as an elimination plan replays it: the rhs-free groups
    of mat, then rhs through them, and the witness last."""
    dedup = regions._dedup_groups(mat)
    rows, vals = dedup.rows, regions._dedup_values(dedup, rhs)
    nul = rhs[dedup.nul]
    bad = nul[nul < -1e-12]
    if bad.size:
        rows = np.vstack([rows, np.zeros(mat.shape[1])])
        vals = np.append(vals, bad.min())
    return rows, vals


@pytest.mark.parametrize("seed", range(40))
def test_dedup_rows_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    base = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), k)) * rng.choice([1.0, 0.1])
    pick = rng.integers(0, base.shape[0], size=int(rng.integers(0, 25)))
    # proportional copies, zero rows, rhs ties (-0.0 against 0.0 among them)
    mat = base[pick] * rng.choice([0.5, 1.0, 2.0, 3.0], size=(pick.size, 1))
    mat[rng.random(pick.size) < 0.15] = 0.0
    rhs = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0], size=pick.size)
    rhs = rhs * np.abs(mat).max(axis=1, initial=1.0) if seed % 2 else rhs
    want = _dedup_rows_loop(mat, rhs)
    for got in (_dedup_rows_planned(mat, rhs), _dedup_rows_sorted(mat, rhs)):
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def _fm_reference(system, names, prune=True, rule=True):
    """fm_eliminate as it stepped before its plan was memoised: every
    step pairs, dedups and checks the rhs afresh.  The oracle of the
    plan's replay; the vertex prune is shared.  Each row's history is a
    frozenset of input rows, a dedup group's the intersection of its
    members'; with rule set, the step that leaves k names eliminated
    forms a pair only when its history has at most k + 1 rows or its
    row is zero (Chernikov's rule).  Like the plan, a later step that
    meets a nonfinite rhs starts afresh, histories included."""
    variables, left = list(system.variables), list(system.variables)
    for name in names:
        if name not in left:
            raise ValueError("cannot eliminate unknown variable %r" % name)
        left.remove(name)
    mat, rhs = system.matrix, system.rhs
    for k, name in enumerate(names, 1):
        if k > 1 and not np.all(np.isfinite(rhs)):
            return _fm_reference(LinearSystem(tuple(variables), mat, rhs), names[k - 1:],
                                 prune, rule)
        if np.any(rhs == -math.inf):
            return regions._witness(left, -math.inf)
        if k == 1:
            live = rhs != math.inf
            mat, rhs = mat[live], rhs[live]
            history = [frozenset([i]) for i in range(rhs.size)]
        j = variables.index(name)
        col = mat[:, j]
        zero = [i for i in range(rhs.size) if abs(col[i]) <= 1e-12]
        rows = [mat[i] for i in zero]
        vals = [rhs[i] for i in zero]
        hists = [history[i] for i in zero]
        for p in np.nonzero(col > 1e-12)[0]:
            for n in np.nonzero(col < -1e-12)[0]:
                # weights scaled to a max of 1, so no pairing overflows to NaN
                top = max(col[p], -col[n])
                at_n, at_p = col[p] / top, -col[n] / top
                row = mat[n] * at_n + mat[p] * at_p
                row[j] = 0.0
                union = history[p] | history[n]
                if rule and len(union) > k + 1 and np.abs(row).max() > 1e-12:
                    continue
                rows.append(row)
                vals.append(rhs[n] * at_n + rhs[p] * at_p)
                hists.append(union)
        mat = np.delete(np.array(rows).reshape(len(rows), mat.shape[1]), j, axis=1)
        rhs = np.array(vals, dtype=float)
        variables.pop(j)
        # a group's history, in the groups' first-occurrence order
        groups = {}
        for row, h in zip(mat, hists):
            scale = np.abs(row).max(initial=0.0)
            if scale > 1e-12:
                key = tuple(np.round(row / scale, 9))
                groups[key] = groups[key] & h if key in groups else h
        history = list(groups.values())
        mat, rhs = _dedup_rows_sorted(mat, rhs)
        if rhs.size and not np.any(mat[-1]):
            return regions._witness(left, rhs[-1])
    out = LinearSystem(tuple(variables), mat, rhs)
    if prune and len(variables) <= 3:
        out = regions._vertex_prune(out)
    return out


def _same_system(got, want):
    return (got.variables == want.variables
            and got.matrix.shape == want.matrix.shape
            and got.matrix.tobytes() == want.matrix.tobytes()
            and got.rhs.tobytes() == want.rhs.tobytes())


def _planned_cold_and_warm(system, names, prune=True):
    """fm_eliminate with its plan cache cleared, then again warm; both
    must be the same bytes, and the warm call must build no plan."""
    regions._fm_plan.cache_clear()
    cold = fm_eliminate(system, names, prune=prune)
    warm = fm_eliminate(system, names, prune=prune)
    info = regions._fm_plan.cache_info()
    assert info.hits == info.misses
    assert _same_system(cold, warm)
    return cold


_APPENDIX_B_NAMES = ("R10", "R11", "R20", "R22", "B1", "B2")


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_fm_plan_replays_appendix_b_draws(seed, prune):
    from confbc import dm_bounds as dmb
    from confbc.channels import example_channel
    ch = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        f = dmb.random_factorization(rng, ch)
        for alpha in (0.0, 0.5, 1.0):
            system = dmb.appendixB_system(ch, f, alpha)
            got = _planned_cold_and_warm(system, _APPENDIX_B_NAMES, prune)
            assert _same_system(got, _fm_reference(system, _APPENDIX_B_NAMES, prune))


def test_fm_plan_replays_random_integer_systems():
    rng = np.random.default_rng(2024)
    values = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf, -math.inf]
    for i in range(400):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 9))
        a = rng.integers(-2, 3, size=(m, k)) * rng.choice([1.0, 0.5, 3.0], size=(m, 1))
        b = rng.choice(values, size=m, p=[.1, .1, .1, .1, .15, .15, .15, .1, .05])
        names = ("x0", "x1", "x2", "x3")[:k]
        gone = [names[j] for j in rng.permutation(k)[:int(rng.integers(1, k))]]
        system = LinearSystem(names, a, b)
        prune = bool(i % 2)
        got = _planned_cold_and_warm(system, gone, prune)
        assert _same_system(got, _fm_reference(system, gone, prune)), (a, b, gone)


def test_fm_plan_witness_at_step_two():
    # B1 pairs into the tautology 0 <= 1; only eliminating B2 shows the
    # system empty: 2 B2 <= -3, scaled to B2 <= -1.5 by the first step's
    # dedup, against -B2 <= 0.5 gives 0 <= -1
    system = LinearSystem.from_rows(
        ("R", "B1", "B2"),
        [({"B1": 1}, 1.0), ({"B1": -1}, 0.0), ({"R": 1}, 1.0),
         ({"B2": 2}, -3.0), ({"B2": -1}, 0.5)])
    want = _fm_reference(system, ("B1", "B2"))
    assert want.variables == ("R",) and want.rhs.tolist() == [-1.0]
    for prune in (True, False):
        got = _planned_cold_and_warm(system, ("B1", "B2"), prune)
        assert _same_system(got, want)
        assert regions._fm_plan.cache_info().misses == 1
        assert got.variables == ("R",) and got.rhs.tolist() == [-1.0]


def test_fm_plan_keys_on_the_inf_pattern():
    a = [[1, 1, 0], [1, 0, -1], [0, -1, 0], [0, 1, 1], [0, 0, -1], [1, 0, 0]]
    names = ("B", "C")
    absent = LinearSystem(("R", "B", "C"), a, [math.inf, 1.0, 0.0, 2.0, 0.0, 3.0])
    present = LinearSystem(("R", "B", "C"), a, [1.0, 1.0, 0.0, 2.0, 0.0, 3.0])
    regions._fm_plan.cache_clear()
    got = [fm_eliminate(s, names, prune=False) for s in (absent, present, absent)]
    info = regions._fm_plan.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    for g, s in zip(got, (absent, present, absent)):
        assert _same_system(g, _fm_reference(s, names, prune=False))
    assert support_of_system(got[0], (1.0,)).tolist() == [3.0]
    assert support_of_system(got[1], (1.0,)).tolist() == [1.0]


@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_fm_plan_signed_zero_tie_keeps_the_earlier_row(first):
    # R <= first and 2 R <= -first are one dedup group with equal rhs
    system = LinearSystem.from_rows(
        ("R", "B"), [({"R": 1}, first), ({"R": 2}, -first), ({"B": 1}, 1.0),
                     ({"B": -1}, 0.0)])
    got = _planned_cold_and_warm(system, ("B",), prune=False)
    assert _same_system(got, _fm_reference(system, ("B",), prune=False))
    assert got.rhs.shape == (1,) and math.copysign(1.0, got.rhs[0]) == math.copysign(1.0, first)


def test_fm_plan_leaves_the_plan_when_a_pairing_overflows():
    # the first step pairs 1e308 + 1e308 into R + C <= +inf, an absent
    # row the second step drops; the replay hands that step to a plan of
    # its own, so two plans are built
    system = LinearSystem.from_rows(
        ("R", "B", "C"),
        [({"R": 1, "B": 1, "C": 1}, 1e308), ({"B": -1}, 1e308), ({"R": 1, "C": -1}, 1.0),
         ({"C": 1}, 2.0), ({"B": 1}, 1.0), ({"R": -1}, 0.0)])
    with np.errstate(over="ignore"):
        want = _fm_reference(system, ("B", "C"), prune=False)
        got = _planned_cold_and_warm(system, ("B", "C"), prune=False)
    assert _same_system(got, want)
    assert regions._fm_plan.cache_info().misses == 2
    assert support_of_system(got, (1.0,)).tolist() == [3.0]


def test_fm_pairing_near_the_float_limit_stays_finite():
    # 1e308 * 3 + -1e308 * 3 once overflowed to inf - inf = NaN, R <= nan;
    # with each pair's weights scaled to a max of 1 it is R <= 0
    system = LinearSystem(("R", "B"), [[1, 3], [1, -3]], [1e308, -1e308])
    for prune in (True, False):
        got = _planned_cold_and_warm(system, ("B",), prune)
        assert _same_system(got, _fm_reference(system, ("B",), prune))
        assert got.matrix.tolist() == [[1.0]] and got.rhs.tolist() == [0.0]
        assert support_of_system(got, (1.0,)).tolist() == [0.0]


def test_fm_chernikov_rule_forms_every_zero_row():
    # eliminating y then z, the pair that cancels every column combines
    # four input rows (all but the fourth), one more than the rule lets
    # the second step keep; formed anyway, it is the witness, where the
    # rows left without it, x >= 2 and x <= 1, have no common point but
    # no 0 <= negative row either
    system = LinearSystem(("x", "y", "z"),
                          [[0, 1, -1], [1, -1, -1], [-1, -1, 1], [-1, 1, -1], [0, 1, 1]],
                          [-1.0, 0.0, -1.0, 2.0, 1.0])
    for prune in (True, False):
        got = _planned_cold_and_warm(system, ("y", "z"), prune)
        assert _same_system(got, _fm_reference(system, ("y", "z"), prune))
        assert got.matrix.tolist() == [[0.0]] and got.rhs.tolist() == [-0.5]


def _fm_system_lp_supports(system, names, dirs):
    """Supports of the projection of system off names, from HiGHS on
    the system before elimination: each direction padded with zeros on
    the eliminated variables."""
    a, b = system.matrix, system.rhs
    if np.any(b == -math.inf):
        return np.full(dirs.shape[0], -math.inf)
    a, b = a[b < math.inf], b[b < math.inf]
    keep = [j for j, v in enumerate(system.variables) if v not in names]
    padded = np.zeros((dirs.shape[0], a.shape[1]))
    padded[:, keep] = dirs
    return np.array([_lp_system_support(a, b, d) for d in padded])


def _assert_same_supports(got, want, tol):
    """The same +-inf pattern, and finite supports within tol."""
    fin = np.isfinite(want)
    assert np.array_equal(got[~fin], want[~fin]) and np.all(np.isfinite(got[fin]))
    assert got[fin] == pytest.approx(want[fin], abs=tol)


def _fm_rule_cases():
    """Seeded random integer systems in 2-5 variables, some rhs absent
    or unsatisfiable, then appendix-B draws: (system, names, directions
    on the variables left)."""
    rng = np.random.default_rng(11)
    values = [-2.0, -1.0, 0.0, 0.5, 1.0, 3.0, math.inf, -math.inf]
    for _ in range(60):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 11))
        a = rng.integers(-2, 3, size=(m, k)) * rng.choice([1.0, 0.5, 3.0], size=(m, 1))
        b = rng.choice(values, size=m, p=[.1, .1, .15, .15, .15, .2, .1, .05])
        names = ("x0", "x1", "x2", "x3", "x4")[:k]
        gone = tuple(names[j] for j in rng.permutation(k)[:int(rng.integers(1, k))])
        r = k - len(gone)
        dirs = np.vstack([np.eye(r), -np.eye(r), rng.integers(-2, 3, size=(4, r))])
        yield LinearSystem(names, a, b), gone, dirs
    from confbc import dm_bounds as dmb
    from confbc.channels import example_channel
    ch = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5)
    dirs = np.vstack([CANONICAL_DIRS_3D, -np.eye(3), rng.random((4, 3)) - 0.5])
    for _ in range(4):
        f = dmb.random_factorization(rng, ch)
        for alpha in (0.0, 0.5, 1.0):
            yield dmb.appendixB_system(ch, f, alpha), _APPENDIX_B_NAMES, dirs


def test_fm_chernikov_rule_keeps_every_support():
    # the rule only drops implied rows: the projection's supports match
    # an elimination without it and an LP on the unprojected system
    for system, names, dirs in _fm_rule_cases():
        for prune in (True, False):
            got = support_of_system(fm_eliminate(system, names, prune=prune), dirs)
            plain = _fm_reference(system, names, prune, rule=False)
            _assert_same_supports(got, support_of_system(plain, dirs), 1e-9)
        _assert_same_supports(got, _fm_system_lp_supports(system, names, dirs), 1e-7)


def test_fm_chernikov_rule_pins_the_appendix_b_row_count():
    # the projected matrix, before the vertex prune: 50 rows without the rule
    from confbc import dm_bounds as dmb
    from confbc.channels import example_channel
    ch = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5)
    f = dmb.random_factorization(np.random.default_rng(0), ch)
    system = dmb.appendixB_system(ch, f, 0.5)
    a, live = system.matrix, np.ones(system.matrix.shape[0], dtype=bool)
    _, variables, mat = regions._fm_plan(a.shape, a.tobytes(), system.variables,
                                         _APPENDIX_B_NAMES, live.tobytes())
    assert variables == VARS3 and mat.shape[0] <= 12


@st.composite
def _fm_systems(draw):
    """Integer systems in 2-4 variables, some rhs absent (+inf) or
    unsatisfiable (-inf), the names to eliminate and a direction on the
    rest."""
    k = draw(st.integers(2, 4))
    m = draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.integers(-2, 3).map(float),
                                st.sampled_from([math.inf, -math.inf])),
                      min_size=m, max_size=m))
    gone = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k - 1, unique=True))
    d = draw(st.lists(st.integers(-2, 2).map(float), min_size=k - len(gone),
                      max_size=k - len(gone)))
    return a, b, gone, d


@given(case=_fm_systems(), prune=st.booleans())
@example(case=([[1, 1], [0, -1], [1, 0]], [math.inf, -math.inf, 1.0], [1], [1.0]),
         prune=True)                                        # the inf - inf pairing
@settings(max_examples=200, deadline=None)
def test_fm_projection_keeps_supports(case, prune):
    a, b, gone, d = case
    names = ("x0", "x1", "x2", "x3")[:len(a[0])]
    sys = LinearSystem(names, a, b)
    out = fm_eliminate(sys, [names[j] for j in gone], prune=prune)
    padded = np.zeros(len(names))
    padded[[j for j in range(len(names)) if j not in gone]] = d
    d = np.asarray(d)
    # d and -d in one call, each held to the unprojected system's support
    got = support_of_system(out, [d, -d])
    want = support_of_system(sys, [padded, -padded])
    assert got.shape == want.shape == (2,)
    assert got == pytest.approx(want, abs=1e-9)       # +-inf must match exactly


@st.composite
def _bounded_systems(draw):
    """Integer rows in 2-3 variables plus the box |x_i| <= c, so every
    system is bounded (and full rank); the rhs may still leave it
    empty."""
    k = draw(st.integers(2, 3))
    m = draw(st.integers(0, 6))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-2, 4).map(float), min_size=m, max_size=m))
    box = float(draw(st.integers(0, 3)))
    return (np.vstack([np.reshape(a, (m, k)), np.eye(k), -np.eye(k)]),
            np.concatenate([b, np.full(2 * k, box)]))


@given(system=_bounded_systems())
@settings(max_examples=200, deadline=None)
def test_vertex_prune_keeps_the_rows_active_at_the_solved_vertices(system):
    a, b = system
    if np.any(np.all(a == 0.0, axis=1)):
        return                              # the prune leaves such systems alone
    sys = LinearSystem(("x", "y", "z")[:a.shape[1]], a, b)
    # the oracle solves every basis afresh; an empty system stays whole
    idx, mats = regions._bases(a, a.shape[1])
    sols = np.linalg.solve(mats, b[idx][..., None])[..., 0]
    live = np.ones((1, sols.shape[0]), dtype=bool)
    verts = sols[regions._vertex_mask(a, b[None, :], sols[None], live)[0]]
    active = np.any(np.abs(verts @ a.T - b) <= 1e-7 * (1.0 + np.abs(b)), axis=0)
    keep = active if verts.shape[0] else np.ones(a.shape[0], dtype=bool)
    pruned = regions._vertex_prune(sys)
    assert pruned.matrix.tobytes() == a[keep].tobytes()
    assert pruned.rhs.tobytes() == b[keep].tobytes()


def test_system_json_round_trip():
    sys = LinearSystem.from_rows(
        ("R0", "R1"),
        [({"R0": 1.0, "R1": 2.0}, 1.5), ({"R1": 1.0}, math.inf),
         ({"R0": 1.0}, -math.inf)])
    doc = sys.to_json_dict()
    assert doc["rows"][1]["rhs"] == "inf"
    assert doc["rows"][2]["rhs"] == "-inf"      # empty stays empty, not absent
    back = LinearSystem.from_json_dict(json.loads(json.dumps(doc)))
    assert back.variables == sys.variables
    assert np.allclose(back.matrix, sys.matrix)
    assert back.rhs[1] == math.inf and back.rhs[0] == 1.5
    assert back.rhs[2] == -math.inf
    assert support_of_system(back, (1.0, 1.0)) == -math.inf


def test_support_of_system_unbounded():
    # R - B <= 0 with B free: max R unbounded
    sys = LinearSystem.from_rows(("R", "B"), [({"R": 1, "B": -1}, 0.0)])
    assert support_of_system(sys, (1.0, 0.0)) == math.inf
    # a -inf row is unsatisfiable: the system is empty, and empty beats
    # unbounded, as for an inconsistent 0 <= negative row
    assert support_of_system(LinearSystem(("R",), [[1.0]], [-math.inf]), (1.0,)) == -math.inf
    with_empty_row = LinearSystem(("R", "B"), [[1.0, -1.0], [0.0, 1.0]], [0.0, -math.inf])
    assert support_of_system(with_empty_row, (1.0, 0.0)) == -math.inf


def _lp_system_support(a, b, d):
    """max d.x s.t. a @ x <= b, x free, from HiGHS.  A zero-objective
    feasibility solve comes first: on a feasible system with an unbounded
    objective HiGHS may answer "infeasible or unbounded" (status 2)."""
    k = a.shape[1]
    rows = {"A_ub": a, "b_ub": b} if a.shape[0] else {}
    free = [(None, None)] * k
    res = linprog(np.zeros(k), bounds=free, method="highs", **rows)
    if res.status == 2:
        return -math.inf
    assert res.status == 0, res.message
    res = linprog(-np.asarray(d, dtype=float), bounds=free, method="highs", **rows)
    if res.status in (2, 3):
        return math.inf
    assert res.status == 0, res.message
    return -res.fun


@st.composite
def _small_systems(draw):
    """Integer systems in 1-3 free variables: unbounded, empty, and
    non-pointed (rank-deficient) ones all come up."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-2, 3), min_size=m, max_size=m))
    d = draw(st.lists(st.integers(-4, 4).map(lambda v: v / 2.0), min_size=k, max_size=k))
    return a, b, d


@given(system=_small_systems())
@example(system=([[1, 1, 1]], [1], (1, 1, 0.9)))               # off the row cone
@example(system=([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
                 [1, 1, 1, 1], (1, 1, 0)))                      # box in x, y; z free
@example(system=([[1, 1, 1], [-1, -1, -1]], [1, -2], (1, 0, 0)))  # empty slab
@example(system=([[0, -2, 1], [-1, -1, -1], [1, 2, -1]], [0, 0, 0],
                 (0.5, 0, 0)))        # d = (row 1 + row 3) / 2: rounding-zero weight
@example(system=([[1 / 3, -1, -1 / 3], [0, 1, 1], [-3 / 4, 1, 5 / 12], [-1 / 2, 1, 1 / 2]],
                 [-2 / 3, 5, 7 / 12, 1 / 4], (0, -1, 0)))
# a degenerate optimal dual vertex whose zero weight is the inverse's
# rounding noise, -2.2e-16, far above its term-scaled tolerance
@settings(max_examples=200, deadline=None)
def test_support_of_system_matches_linprog(system):
    a, b, d = (np.asarray(v, dtype=float) for v in system)
    a = np.atleast_2d(a)
    got = support_of_system(LinearSystem(("x", "y", "z")[:a.shape[1]], a, b), [d, -d])
    assert got.shape == (2,)
    for g, w in zip(got, (_lp_system_support(a, b, d), _lp_system_support(a, b, -d))):
        if math.isinf(w):
            assert g == w
        else:
            assert g == pytest.approx(w, abs=1e-7)


def test_support_of_system_rejects_a_direction_of_another_width():
    # the row-span product once raised numpy's matmul mismatch instead
    square = LinearSystem(("x", "y"), [[1, 0], [0, 1]], [1.0, 1.0])
    slab = LinearSystem(("x", "y"), [[1, 1]], [1.0])
    for system in (square, slab):
        with pytest.raises(ValueError, match="directions have 3 components but "
                                             "the polytopes have 2 variables"):
            support_of_system(system, (1.0, 1.0, 1.0))


def test_support_of_system_fewer_rows_than_variables():
    # one row in three variables has no vertex: priced along its row
    # span, bounded only along the row itself
    slab = LinearSystem(("x", "y", "z"), [[1.0, 1.0, 1.0]], [1.0])
    assert support_of_system(slab, [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0)]).tolist() == \
        [1.0, math.inf]


# ---------------------------------------------------------------------------
# envelopes and projections
# ---------------------------------------------------------------------------

class _Blocks:
    """A parameter space that hands over the given rhs blocks, for toy
    bounds whose rows are the block itself."""

    cards = ()
    step_key = "step"

    def __init__(self, blocks):
        self.parts = blocks

    def blocks(self, ch, step, cards):
        return self.parts, {}


@given(seed=st.integers(0, 2 ** 31), sizes=st.lists(st.integers(0, 40), min_size=1,
                                                    max_size=5),
       coeffs=st.sampled_from([[(1, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)]]))
@settings(max_examples=200, deadline=None)
def test_a_sweep_envelope_does_not_depend_on_its_blocks(seed, sizes, coeffs):
    # the same rows as one block or as several give the same bytes: the
    # frontier carried across blocks ends on the same maximal rows.  Few
    # distinct values, so ties are common; +-inf and both signed zeros
    # among them
    rng = np.random.default_rng(seed)
    values = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf])
    coeffs = np.array(coeffs, dtype=float)
    parts = [rng.choice(values, (n, coeffs.shape[0])) for n in sizes]

    def supports(blocks):
        bound = Bound("toy", ("R0", "R1"), coeffs, _Blocks(blocks),
                      lambda block, ch: block, 1.0)
        return bound.envelope(None).supports

    assert supports([np.concatenate(parts)]).tobytes() == supports(parts).tobytes()


@st.composite
def _repeated_row_regions(draw, k_min=2):
    """A nonnegative integer matrix with repeated rows and its distinct
    rows, and rhs rows on a coarse lattice, so that equal and nested
    regions are common; +inf (absent) and negative (empty) entries
    among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    k = draw(st.integers(k_min, 3))
    a = rng.integers(0, 3, size=(draw(st.integers(1, 4)), k)).astype(float)
    a[np.all(a == 0, axis=1), rng.integers(0, k)] = 1.0
    a = a[rng.integers(0, a.shape[0], size=a.shape[0] + draw(st.integers(1, 3)))]
    n = draw(st.integers(1, 60) | st.just(700))   # 700: a strided pivot sample
    rhs = rng.integers(0, 9, size=(n, a.shape[0])) / 4.0
    rhs[rng.random(rhs.shape) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = np.inf
    rhs[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0])), 0] = -0.5
    rhs[rng.integers(0, n, size=n // 3)] = rhs[rng.integers(0, n, size=n // 3)]
    return a, regions._distinct_rows(a)[0], rhs


@given(case=_repeated_row_regions())
@settings(max_examples=150, deadline=None)
def test_tightened_rhs_order_is_containment(case):
    # region(b) lies in region(b') exactly when t(b) <= t(b'), with
    # t(b)_i the support of region(b) along its own row i.  The oracle:
    # region(b) is empty, or its vertices satisfy a @ x <= b' and it
    # runs off only along axes that region(b') leaves free too (the
    # recession cone is the axes no finite row touches)
    a, rows, rhs = case
    t = batch_support(a, rhs, rows)
    assert t.shape == (rhs.shape[0], rows.shape[0])
    free = [~np.any(a[np.isfinite(b)] > 0, axis=0) for b in rhs]
    for i, j in combinations(range(min(rhs.shape[0], 12)), 2):
        for x, y in ((i, j), (j, i)):
            verts = enumerate_vertices(a, rhs[x])
            inside = verts.shape[0] == 0 or (
                np.all(verts @ a.T <= rhs[y] + 1e-9)
                and not np.any(free[x] & ~free[y]))
            assert bool(np.all(t[x] <= t[y] + 1e-9)) == inside, (rhs[x], rhs[y])


@given(case=_repeated_row_regions())
@settings(max_examples=150, deadline=None)
def test_chain_tightening_keeps_the_region_and_orders_containment(case):
    # t(b)_i = min { b_j : a_j >= a_i } prices as b does, is never below
    # the LP tightening (the support along row i), and t(b) <= t(b')
    # implies that region(b) lies in region(b'), by the oracle of
    # test_tightened_rhs_order_is_containment
    a, rows, rhs = case
    t = regions._tighten(a, rhs)
    assert t.shape == (rows.shape[0], rhs.shape[0])
    dirs = default_dirs_3d(64) if a.shape[1] == 3 else default_dirs_2d(32)
    got, want = batch_support(rows, t.T, dirs), batch_support(a, rhs, dirs)
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    np.testing.assert_allclose(got, want, atol=0.0,
                               rtol=2 * a.shape[0] * np.finfo(float).eps)
    lp = batch_support(a, rhs, rows).T
    assert not np.any(np.isposinf(lp) & ~np.isposinf(t))
    assert np.array_equal(np.isneginf(t), np.isneginf(lp))
    finite = np.isfinite(lp) & np.isfinite(t)
    assert np.all(t[finite] >= lp[finite] - 2 * a.shape[0] * np.finfo(float).eps
                  * np.abs(lp[finite]))
    free = [~np.any(a[np.isfinite(b)] > 0, axis=0) for b in rhs]
    for i, j in combinations(range(min(rhs.shape[0], 12)), 2):
        for x, y in ((i, j), (j, i)):
            if np.all(t[:, x] <= t[:, y]):
                verts = enumerate_vertices(a, rhs[x])
                assert verts.shape[0] == 0 or (
                    np.all(verts @ a.T <= rhs[y] + 1e-9)
                    and not np.any(free[x] & ~free[y])), (rhs[x], rhs[y])


@given(case=_repeated_row_regions(k_min=3), n_dirs=st.sampled_from([3, 8, 520]))
@settings(max_examples=100, deadline=None)
def test_maximal_rows_keep_the_envelope(case, n_dirs):
    # the envelope of a block's frontier is the envelope of all of its
    # rows: the same +-inf pattern, and finite values equal up to the
    # candidate GEMM's rounding, which moves with the block width
    a, rows, rhs = case
    dirs = default_dirs_3d(512) if n_dirs == 520 else \
        np.vstack([np.eye(3), np.random.default_rng(0).uniform(-0.5, 1.0, (5, 3))])[:n_dirs]
    t = regions._tighten(a, rhs)
    kept = regions._maximal(t)
    front = regions._fold(a, rhs, np.empty((rows.shape[0], 0)))
    assert np.array_equal(kept, np.unique(kept))
    assert front.tobytes() == t[:, kept].tobytes()
    got = batch_support(rows, front.T, dirs, reduce_max=True)
    want = batch_support(a, rhs, dirs, reduce_max=True)
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    np.testing.assert_allclose(got, want, atol=0.0,
                               rtol=2 * a.shape[0] * np.finfo(float).eps)
    # an all-empty block keeps its first row, and its envelope is -inf
    empty = np.where(np.isfinite(rhs), -rhs - 1.0, rhs)
    empty[:, 0] = -1.0
    assert regions._maximal(regions._tighten(a, empty)).tolist() == [0]
    front = regions._fold(a, empty, np.empty((rows.shape[0], 0)))
    assert np.all(batch_support(rows, front.T, dirs, reduce_max=True) == -np.inf)


def test_maximal_rows_drop_nested_regions():
    # boxes R <= b in 3-d: a box inside another, or equal to an earlier
    # one, goes; the largest boxes, and boxes no other one holds, stay
    a = np.vstack([np.eye(3), np.eye(3)])
    rhs = np.array([[1, 1, 1, 9, 9, 9],            # inside row 1
                    [2, 2, 2, 1, 9, 9],            # the box (1, 2, 2)
                    [1, 2, 1, 9, 9, 9],            # inside row 1
                    [3, 0, 1, 9, 9, 9],
                    [3, 5, 1, 9, 0, 9],            # equal to row 3
                    [np.inf, 0, 0, np.inf, 9, 9],  # runs off along R0
                    [-1, 0, 0, 9, 9, 9]],          # empty
                   dtype=float)
    assert regions._maximal(regions._tighten(a, rhs)).tolist() == [1, 3, 5]


def _skyline(t):
    """Brute force: the columns of t that no other column beats, where q
    beats j when t_q >= t_j and the two differ, or are equal and q < j."""
    above = np.all(t[:, :, None] >= t[:, None, :], axis=0)
    beaten = above & (~above.T | np.triu(np.ones(above.shape, dtype=bool), 1))
    return np.flatnonzero(~beaten.any(axis=0))


def test_maximal_passes_repeat_down_to_the_skyline():
    # 2,000 tightened cap/total rows, far more than one pivot sample: one
    # pass leaves rows that no sampled pivot covers, and the passes
    # repeat (or, with two rows, a sort finishes) until one row of each
    # maximal value stays; a constant third row keeps the skyline
    rng = np.random.default_rng(7)
    s = rng.integers(0, 60, 2000) / 4.0
    t3 = np.vstack([np.minimum(rng.integers(0, 60, 2000) / 4.0, s), s, np.zeros(2000)])
    for t in (t3[:2], t3):
        kept, want = t[:, regions._maximal(t)], t[:, _skyline(t)]
        assert kept.shape == want.shape
        assert np.array_equal(kept[:, np.lexsort(kept)], want[:, np.lexsort(want)])


@pytest.mark.parametrize("rows", [2, 3], ids=["sorted", "passes"])
def test_maximal_samples_every_column_it_keeps(rows):
    # 101 anti-diagonal columns (i, 100 - i), all maximal, so a pivot
    # sample covers nothing of them, and column 101 lies under column 99;
    # the first sample takes every other column, neither 99 nor 101, and
    # a pass drops nothing.  Sampling the columns never sampled before
    # (or a sort, with two rows) reaches the skyline, where stopping
    # there would keep column 101; a constant third row keeps it
    t = np.vstack([np.arange(102.0), 100.0 - np.arange(102.0), np.ones(102)])[:rows]
    t[:2, 101] = (99.0, 0.5)
    assert regions._maximal(t).tolist() == _skyline(t).tolist() == list(range(101))


@pytest.mark.parametrize("kind, name, channel, step", [
    ("dm", "outer", "dm-ex1", 1 / 3), ("gaussian", "outer", "g-mirror", 0.01),
    ("dm", "t4", "dm-ex1", 0.1), ("gaussian", "t8", "g-mirror", 1e-3)],
    ids=["dm-outer", "gaussian-outer", "t4", "t8"])
def test_a_sweep_enumerates_only_its_fan(kind, name, channel, step, dual_vertex_keys):
    # one envelope on the default fan: the tightening needs no LP, so
    # the fan is the one matrix and direction list enumerated
    from confbc import dm_bounds, example_channel, gaussian_bounds
    bound = {"dm": dm_bounds.BOUNDS, "gaussian": gaussian_bounds.BOUNDS}[kind][name]
    env = bound.envelope(example_channel(channel), step)
    assert regions._dual_vertices.cache_info().misses == 1
    assert [key[2] for key in set(dual_vertex_keys)] == [env.directions.shape]


def test_gauss_t8_suite_fits_the_dual_vertex_memo(dual_vertex_keys):
    # every key the suite asks for is enumerated once: nothing is evicted
    from confbc.suites import run_suite
    assert run_suite("gauss-t8", seed=0).passed
    info = regions._dual_vertices.cache_info()
    assert len(set(dual_vertex_keys)) <= info.maxsize == 16
    assert info.misses == len(set(dual_vertex_keys))


@pytest.mark.parametrize("coeffs", [[(1, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)]],
                         ids=["cap-total-frontier", "batch-support"])
def test_a_nan_row_raises_one_error_on_both_sweep_paths(coeffs):
    # a cap/total pair and a three-row matrix take the one path alike:
    # a NaN raises before any row is tightened
    def rows(block, ch):
        rhs = np.ones((block.shape[0], len(coeffs)))
        rhs[1, 0] = math.nan
        return rhs

    bound = Bound("toy", ("R0", "R1"), np.array(coeffs, dtype=float),
                  _Blocks([np.arange(3.0)[:, None]]), rows, 1.0)
    with pytest.raises(ValueError, match="rhs has a NaN entry"):
        bound.envelope(None, directions=CANONICAL_DIRS_2D)


def test_union_envelope_is_pointwise_max():
    p1 = _box(1.0, 3.0, 0.5)
    p2 = _box(2.0, 1.0, 0.5)
    dirs = CANONICAL_DIRS_3D
    env = _union([p1, p2], dirs)
    for d, s in zip(env.directions, env.supports):
        assert s == pytest.approx(max(p1.support(d), p2.support(d)), abs=1e-12)


def test_envelope_dominates_and_slack():
    dirs = CANONICAL_DIRS_3D
    cover = _union([_box(2.0, 2.0, 2.0)], dirs)
    inner = _union([_box(1.0, 1.0, 1.0)], dirs)
    ok, rep = envelope_dominates(cover, inner)
    assert ok and rep["max_violation_bits"] <= 0.0
    flipped, rep2 = envelope_dominates(inner, cover)
    assert not flipped
    assert rep2["max_violation_bits"] == pytest.approx(4.0)  # at (2,1,1)
    ok3, _ = envelope_dominates(inner, cover, slack=4.0)
    assert ok3


def test_envelope_dominates_needs_matching_dirs():
    cover = _union([_box()], CANONICAL_DIRS_3D)
    inner = _union([_box()], CANONICAL_DIRS_3D[:4])
    with pytest.raises(ValueError):
        envelope_dominates(cover, inner)


def test_support_at_exact_lookup():
    env = _union([_box()], CANONICAL_DIRS_3D)
    assert env.support_at((1, 1, 1)) == pytest.approx(6.0)
    with pytest.raises(KeyError):
        env.support_at((3, 1, 4))


def test_project_r2_zero():
    # a rate region is downward closed, so eliminating R2 (with R >= 0
    # explicit) gives the R2 = 0 slice: the rows keep their rhs, the R2
    # column goes, and with it the row on R2 alone
    p = _box(1.0, 2.0, 3.0, extra=[((1, 0, 1), 1.5)])
    system = LinearSystem(VARS3, np.vstack([p.matrix, -np.eye(3)]),
                          np.concatenate([p.rhs, np.zeros(3)]))
    q = fm_eliminate(system, ["R2"])
    assert q.variables == ("R0", "R1")
    sliced = ConstraintPolytope(("R0", "R1"), [[1, 0], [0, 1], [1, 0]], [1.0, 2.0, 1.5])
    dirs = np.vstack([default_dirs_2d(16), [(-1, 0), (0, -1)]])
    assert np.allclose(support_of_system(q, dirs),
                       batch_support(sliced.matrix, sliced.rhs, dirs)[0], atol=1e-12)
    assert sliced.support((1, 0)) == pytest.approx(1.0)   # R0+R2 row becomes R0 <= 1.5
    assert sliced.support((0, 1)) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# direction fans
# ---------------------------------------------------------------------------

def test_direction_fans_shapes():
    f = fan_2d(7)
    assert f.shape == (7, 2)
    assert np.allclose(np.linalg.norm(f, axis=1), 1.0)
    assert np.allclose(f[0], (1, 0), atol=1e-12)
    assert np.allclose(f[-1], (0, 1), atol=1e-12)
    o = octant_fibonacci(100)
    assert o.shape == (100, 3)
    assert np.all(o >= -1e-12)
    assert np.allclose(np.linalg.norm(o, axis=1), 1.0)
    assert default_dirs_3d(16).shape == (8 + 16, 3)
    assert default_dirs_2d(16).shape == (5 + 16, 2)
    assert np.allclose(default_dirs_2d()[: len(CANONICAL_DIRS_2D)], CANONICAL_DIRS_2D)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_write_support_csv_format(tmp_path):
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-0.0, 2.0]])
    env = RegionEnvelope(("R0", "R1"), dirs,
                         np.array([1.0 / 3.0, math.inf, -math.inf, -0.0]))
    path = tmp_path / "sup.csv"
    write_support_csv(env, path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["dir0", "dir1", "dir2", "support_bits"]
    assert rows[1] == ["1", "0", "0", "0.333333333"]   # %.9g, padded dir2
    assert rows[2][3] == "inf"
    assert rows[3][3] == "-inf"
    # the bytes csv.writer wrote: \r\n line ends, and a signed zero
    assert path.read_bytes() == (b"dir0,dir1,dir2,support_bits\r\n"
                                 b"1,0,0,0.333333333\r\n"
                                 b"0,1,0,inf\r\n"
                                 b"1,1,0,-inf\r\n"
                                 b"-0,2,0,-0\r\n")
    # 3-d directions are written as they are, and no direction leaves
    # the header alone
    env3 = RegionEnvelope(VARS3, [[0.5, 1e-10, 2.0]], [1234567891.0])
    write_support_csv(env3, path)
    assert path.read_bytes() == (b"dir0,dir1,dir2,support_bits\r\n"
                                 b"0.5,1e-10,2,1.23456789e+09\r\n")
    write_support_csv(RegionEnvelope(VARS3, np.empty((0, 3)), np.empty(0)), path)
    assert path.read_bytes() == b"dir0,dir1,dir2,support_bits\r\n"


def test_boundary_walk_square():
    dirs = fan_2d(91)
    sups = batch_support(np.eye(2), np.array([[1.0, 2.0]]), dirs)[0]
    env = RegionEnvelope(("R0", "R1"), dirs, sups)
    pts = envelope_boundary_2d(env)
    assert pts.shape[1] == 2
    assert pts[:, 0].max() == pytest.approx(1.0, abs=1e-9)
    assert pts[:, 1].max() == pytest.approx(2.0, abs=1e-9)
    # the upper-right corner must be one of the frontier vertices
    assert np.min(np.abs(pts - [1.0, 2.0]).sum(axis=1)) <= 1e-9
    # R0 strictly increasing along the walk
    assert np.all(np.diff(pts[:, 0]) >= -1e-12)


def test_boundary_walk_needs_2d():
    env = _union([_box()], CANONICAL_DIRS_3D)
    with pytest.raises(ValueError):
        envelope_boundary_2d(env)
