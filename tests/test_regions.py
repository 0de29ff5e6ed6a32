"""Polytope support machinery, Fourier-Motzkin elimination, exports.

The elimination oracle is worked by hand below; support values are
cross-checked against scipy's LP solver on random instances.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import confbc.regions as regions
from confbc.regions import (
    CANONICAL_DIRS_2D,
    CANONICAL_DIRS_3D,
    ConstraintPolytope,
    LinearSystem,
    RegionEnvelope,
    batch_support,
    default_dirs_2d,
    default_dirs_3d,
    enumerate_vertices,
    envelope_boundary_2d,
    envelope_dominates,
    envelope_of_union,
    fan_2d,
    fm_eliminate,
    octant_fibonacci,
    project_r2_zero,
    support_of_system,
    write_boundary_csv,
    write_support_csv,
)

VARS3 = ("R0", "R1", "R2")


def _box(r0=1.0, r1=2.0, r2=3.0, extra=()):
    """R <= (r0, r1, r2) plus extra (coefficient row, rhs) pairs."""
    a = np.vstack([np.eye(3)] + [c for c, _ in extra])
    return ConstraintPolytope(VARS3, a, [r0, r1, r2] + [r for _, r in extra])


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
    ConstraintPolytope(VARS3, [[1, 0, 0]], [math.inf])      # inf rhs = absent row, fine
    LinearSystem(VARS3, [[-1, 0.5, 0]], [1.0])               # general sign is the system's


def test_box_supports():
    p = _box()
    assert p.support((1, 0, 0)) == pytest.approx(1.0)
    assert p.support((1, 1, 1)) == pytest.approx(6.0)
    assert p.support((2, 1, 1)) == pytest.approx(7.0)
    assert p.contains((1.0, 2.0, 3.0))
    assert not p.contains((1.0 + 1e-6, 2.0, 3.0))


def test_sum_row_cuts_corner():
    p = _box(extra=[((1, 1, 1), 4.0)])
    assert p.support((1, 1, 1)) == pytest.approx(4.0)
    assert p.support((1, 0, 0)) == pytest.approx(1.0)


def test_negative_rhs_means_empty():
    p = _box(extra=[((1, 0, 0), -0.5)])
    assert p.is_empty
    assert p.support((1, 1, 1)) == -math.inf


def test_inf_rhs_means_unbounded():
    p = ConstraintPolytope(VARS3, np.eye(3), [math.inf, 1.0, 1.0])
    assert p.support((1, 0, 0)) == math.inf
    assert p.support((0, 1, 1)) == pytest.approx(2.0)


def test_enumerate_vertices_unit_square():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0])
    verts = enumerate_vertices(a, b, nonneg=True)
    want = {(0, 0), (0, 1), (1, 0), (1, 1)}
    got = {tuple(np.round(v, 12)) for v in verts}
    assert got == want


def test_enumerate_vertices_general_sign():
    # triangle: x + y <= 1, x >= -1, y >= -1  (lower bounds as negative rows)
    a = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 1.0])
    verts = enumerate_vertices(a, b, nonneg=False)
    got = {tuple(np.round(v, 12)) for v in verts}
    assert got == {(-1.0, -1.0), (-1.0, 2.0), (2.0, -1.0)}


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
    # pruned at s = 5, from one shared basis pass
    a = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
    cut, loose = (LinearSystem(VARS3, a, [1, 1, 1, 0, 0, 0, s]) for s in (2.0, 5.0))
    regions._prune_bases.cache_clear()
    warm = [regions._vertex_prune(s) for s in (cut, loose)]
    assert regions._prune_bases.cache_info().hits == 1
    for s, got in zip((cut, loose), warm):
        regions._prune_bases.cache_clear()
        cold = regions._vertex_prune(s)
        assert got.matrix.tobytes() == cold.matrix.tobytes()
        assert got.rhs.tobytes() == cold.rhs.tobytes()
    assert [w.matrix.shape[0] for w in warm] == [7, 6]


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
    got, want = regions._dedup_rows(mat, rhs), _dedup_rows_loop(mat, rhs)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


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
    got, want = support_of_system(out, d), support_of_system(sys, padded)
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, abs=1e-9)


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
@settings(max_examples=200, deadline=None)
def test_support_of_system_matches_linprog(system):
    a, b, d = (np.asarray(v, dtype=float) for v in system)
    a = np.atleast_2d(a)
    got = support_of_system(LinearSystem(("x", "y", "z")[:a.shape[1]], a, b), d)
    want = _lp_system_support(a, b, d)
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, abs=1e-7)


def test_enumerate_vertices_fewer_rows_than_variables():
    verts = enumerate_vertices(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]),
                               nonneg=False)
    assert verts.shape == (0, 3)


# ---------------------------------------------------------------------------
# envelopes and projections
# ---------------------------------------------------------------------------

def test_envelope_of_union_is_pointwise_max():
    p1 = _box(1.0, 3.0, 0.5)
    p2 = _box(2.0, 1.0, 0.5)
    dirs = CANONICAL_DIRS_3D
    env = envelope_of_union([p1, p2], dirs)
    for d, s in zip(env.directions, env.supports):
        assert s == pytest.approx(max(p1.support(d), p2.support(d)), abs=1e-12)


def test_envelope_dominates_and_slack():
    dirs = CANONICAL_DIRS_3D
    cover = envelope_of_union([_box(2.0, 2.0, 2.0)], dirs)
    inner = envelope_of_union([_box(1.0, 1.0, 1.0)], dirs)
    ok, rep = envelope_dominates(cover, inner)
    assert ok and rep["max_violation_bits"] <= 0.0
    flipped, rep2 = envelope_dominates(inner, cover)
    assert not flipped
    assert rep2["max_violation_bits"] == pytest.approx(4.0)  # at (2,1,1)
    ok3, _ = envelope_dominates(inner, cover, slack=4.0)
    assert ok3


def test_envelope_dominates_needs_matching_dirs():
    cover = envelope_of_union([_box()], CANONICAL_DIRS_3D)
    inner = envelope_of_union([_box()], CANONICAL_DIRS_3D[:4])
    with pytest.raises(ValueError):
        envelope_dominates(cover, inner)


def test_support_at_exact_lookup():
    env = envelope_of_union([_box()], CANONICAL_DIRS_3D)
    assert env.support_at((1, 1, 1)) == pytest.approx(6.0)
    with pytest.raises(KeyError):
        env.support_at((3, 1, 4))


def test_project_r2_zero():
    p = _box(1.0, 2.0, 3.0, extra=[((1, 0, 1), 1.5)])
    q = project_r2_zero(p)
    assert q.variables == ("R0", "R1")
    # the R2 column goes, and with it the row on R2 alone
    assert q.matrix.tolist() == [[1, 0], [0, 1], [1, 0]]
    assert q.rhs.tolist() == [1.0, 2.0, 1.5]
    assert q.support((1, 0)) == pytest.approx(1.0)   # R0+R2 row becomes R0 <= 1.5
    assert q.support((0, 1)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        project_r2_zero(q)


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
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    env = RegionEnvelope(("R0", "R1"), dirs,
                         np.array([1.0 / 3.0, math.inf, -math.inf]))
    path = tmp_path / "sup.csv"
    write_support_csv(env, path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["dir0", "dir1", "dir2", "support_bits"]
    assert rows[1] == ["1", "0", "0", "0.333333333"]   # %.9g, padded dir2
    assert rows[2][3] == "inf"
    assert rows[3][3] == "-inf"


def test_boundary_walk_square(tmp_path):
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
    path = tmp_path / "bd.csv"
    write_boundary_csv(pts, path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["R0", "R1"]
    assert len(rows) == pts.shape[0] + 1


def test_boundary_walk_needs_2d():
    env = envelope_of_union([_box()], CANONICAL_DIRS_3D)
    with pytest.raises(ValueError):
        envelope_boundary_2d(env)
