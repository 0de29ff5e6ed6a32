"""Discrete-channel bounds: hand-worked oracles plus cheap consistency
checks (the heavier randomized audits live in the verification suites).

Oracle notes for the xor example with noise at receiver 2
(Y1 = X^Z, Y2 = Z, Z ~ Bern(0.2), c12 = 0.3, c21 = 0.5):

  * V independent of X, both uniform:
      I(V;Y2)=0, I(X;Y1)=1-h(0.2), I(X;Y1|V)=1-h(0.2),
      I(X;Y1,Y2|V)=I(X;Y1,Y2)=H(X)=1   (X = Y1 ^ Y2)
    so the exact evaluator rows are
      R0 <= 0.3,  R0+R1 <= [1-h+0.5, 1-h+0.8, 1.3, 1.0]
  * V = X uniform: I(X;Y1|V)=0 pushes the layered rows down to 0.8 / 0.3.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confbc.channels import DmBroadcastChannel, GaussianBc, example_channel
from confbc.errors import GridTooLargeError, InapplicableBoundError
from confbc.gridding import (EVAL_BUDGET, simplex_grid, simplex_grid_chunks,
                             sorted_grid_size)
from confbc.info_core import (JointPmf, binary_entropy, conditional_entropy,
                              mutual_information)
from confbc.regions import (
    CANONICAL_DIRS_3D,
    batch_support,
    envelope_dominates,
    fm_eliminate,
    support_of_system,
)
import confbc.dm_bounds as dmb
import confbc.gaussian_bounds as gb

MI_BSC = 1.0 - binary_entropy(0.2)          # 0.2780719051126377


def _ex1(c12=0.3, c21=0.5):
    return example_channel("dm-ex1", p=0.2, c12=c12, c21=c21)


def _noisy():
    return DmBroadcastChannel(np.full((2, 2, 2), 0.25), c12=0.1, c21=0.1)


# ---------------------------------------------------------------------------
# exact evaluator for the degraded-message-set region
# ---------------------------------------------------------------------------

def test_t4_rows_independent_aux():
    poly = dmb.theorem4_polytope(_ex1(), np.full((2, 2), 0.25))
    _, rhs = poly.coeff_matrix()
    want = sorted([0.3, MI_BSC + 0.5, MI_BSC + 0.8, 1.3, 1.0])
    assert np.allclose(sorted(rhs), want, atol=1e-12)
    assert poly.support((1, 0)) == pytest.approx(0.3, abs=1e-12)
    assert poly.support((1, 1)) == pytest.approx(MI_BSC + 0.5, abs=1e-12)


def test_t4_rows_aux_equals_input():
    poly = dmb.theorem4_polytope(_ex1(), np.eye(2) * 0.5)
    _, rhs = poly.coeff_matrix()
    want = sorted([0.3, MI_BSC + 0.5, 0.8, 0.3, 1.0])
    assert np.allclose(sorted(rhs), want, atol=1e-12)
    # the joint row pins the whole region at the common-rate cap
    assert poly.support((1, 1)) == pytest.approx(0.3, abs=1e-12)


def test_t4_envelope_frozen_supports():
    env = dmb.theorem4_envelope(_ex1(), grid_step=0.05,
                                directions=[(1, 0), (1, 1)])
    assert env.supports[0] == pytest.approx(0.3, abs=1e-9)
    assert env.supports[1] == pytest.approx(MI_BSC + 0.5, abs=1e-9)


def test_t4_envelope_covers_single_evaluations():
    env = dmb.theorem4_envelope(_ex1(), grid_step=0.1,
                                directions=[(1, 0), (1, 1), (0, 1)])
    for pvx in (np.full((2, 2), 0.25), np.eye(2) * 0.5):
        poly = dmb.theorem4_polytope(_ex1(), pvx)
        for d, s in zip(env.directions, env.supports):
            assert poly.support(d) <= s + 1e-9


def test_t4_needs_semi_deterministic():
    with pytest.raises(InapplicableBoundError):
        dmb.theorem4_polytope(_noisy(), np.full((2, 2), 0.25))
    with pytest.raises(InapplicableBoundError):
        dmb.theorem4_envelope(_noisy())


def _primal_support(poly, dirs):
    """Support by vertex enumeration: -inf when a row is negative (the
    region is empty), +inf along a direction with weight on a rate that
    no finite row bounds."""
    a, b = poly.coeff_matrix()
    if np.any(b < -1e-12):
        return np.full(dirs.shape[0], -np.inf)
    sup = (poly.vertices() @ dirs.T).max(axis=0)
    covered = np.any(a[np.isfinite(b)] > 0, axis=0)
    sup[np.any(dirs[:, ~covered] > 0, axis=1)] = np.inf
    return sup


def _pvx_grid(shape, step):
    return simplex_grid(int(np.prod(shape)), step).reshape(-1, *shape)


def _substitution_w(ch, pvx):
    """t4_substitution with receiver 2's identity quantizer read as
    conditioned on (W, Y2), the form family 2 takes."""
    f = dmb.t4_substitution(ch, pvx)
    q2 = np.broadcast_to(f.q2, (pvx.shape[0],) + f.q2.shape)
    return dmb.AuxFactorization(f.aux, q2=q2, q2_on_w=True)


def _ticks(n):
    return np.linspace(0.0, 1.0, n + 1)


_G_SEP = GaussianBc(1.0, 0.5, 1.0, 4.0, c12=0.2, c21=0.7)
_G_PART = GaussianBc(1.0, 0.5, 0.3, 2.0, c12=0.2, c21=0.9)

# table entry -> (channel, step, cards, every grid point, its polytope
# from the single-point evaluator or, for the inner bounds, from the
# independent factorization path)
_TABLE_CASES = {
    "dm-outer": (_ex1(), 1 / 3, {"u_card": 2, "v_card": 2},
                 _pvx_grid((2, 2, 2), 1 / 3),
                 lambda ch, p: dmb.outer_polytope(ch, dmb.OuterAux(p))),
    "dm-inner1": (_ex1(c21=0.9), 0.25, {"v_card": 2}, _pvx_grid((2, 2), 0.25),
                  lambda ch, p: dmb.inner1_polytope(ch, dmb.t4_substitution(ch, p))),
    "dm-inner2": (_ex1(), 0.25, {"v_card": 2}, _pvx_grid((2, 2), 0.25),
                  lambda ch, p: dmb.inner2_polytope(ch, _substitution_w(ch, p))),
    "dm-t4": (_ex1(), 0.25, {}, _pvx_grid((4, 2), 0.25),
              dmb.theorem4_polytope),
    "dm-cutset-fig3": (_ex1(), 0.25, {}, _pvx_grid((4, 2), 0.25),
                       lambda ch, p: dmb.theorem4_polytope(
                           ch, p, include_joint_row=False)),
    "dm-t5": (_ex1(c12=0.0), 0.25, {}, _pvx_grid((4, 2), 0.25),
              lambda ch, p: dmb.theorem5_polytope(ch, p, warn_checks=False)),
    "g-outer": (GaussianBc(1.0, 0.5, 0.2, 2.0, c12=0.1, c21=0.3), 0.25, {},
                [(a, b) for a in _ticks(4) for b in _ticks(4)],
                lambda ch, p: gb.outer_polytope_g(ch, *p)),
    "g-t7": (_G_SEP, 0.125, {}, _ticks(8), gb.capacity_t7_polytope),
    "g-t8": (GaussianBc(1.0, 0.5, 1.0, 4.0, c21=0.3), 0.125, {}, _ticks(8),
             gb.capacity_t8_polytope),
    "g-t9": (_G_PART, 0.125, {}, _ticks(8), gb.approx_t9_polytope),
    "g-t10": (GaussianBc(1.0, 0.5, 0.3, 2.0, c21=0.9), 0.125, {}, _ticks(8),
              gb.approx_t10_polytope),
    "g-df": (_G_PART, 0.125, {}, _ticks(8), gb.df_inner_polytope),
}
# the same entries where the +-inf conventions show: every inner region
# of a useless receiver 1 is empty, the mirror channel's combined-output
# rows are absent, and a weaker receiver 1 collapses t7 onto beta = 0
_EDGE_CASES = {
    "dm-inner1-empty": ("dm-inner1", _noisy()),
    "dm-inner2-empty": ("dm-inner2", _noisy()),
    "g-outer-absent-rows": ("g-outer", example_channel(
        "g-mirror", power=2.0, c12=0.5, c21=0.5)),
    "g-t7-weak-receiver-1": ("g-t7", GaussianBc(0.5, 1.0, 1.0, 4.0,
                                                 c12=0.2, c21=0.7)),
}


@pytest.mark.parametrize("case", ["dm-" + n for n in dmb.BOUNDS]
                         + ["g-" + n for n in gb.BOUNDS] + list(_EDGE_CASES))
def test_table_envelopes_match_primal_vertices(case):
    # every table entry's sweep, frontier-priced or not, equals the max
    # of its single-point polytopes' vertex supports over the whole grid,
    # in directions with negative components too, +-inf included
    entry, ch = _EDGE_CASES.get(case, (case, None))
    ch0, step, cards, points, polytope = _TABLE_CASES[entry]
    ch = ch or ch0
    kind, name = entry.split("-", 1)
    bound = (dmb.BOUNDS if kind == "dm" else gb.BOUNDS)[name]
    dirs = np.array([(1, -1), (-1, 1), (0.3, -2), (-1, -1), (1, 1), (1, 0)]
                    if len(bound.variables) == 2 else
                    [(1, -0.5, 0.3), (-0.2, 1, -1), (0.5, -1, 1), (-1, -1, -1),
                     (1, 1, 1), (0, 0, 1)], dtype=float)
    env = bound.envelope(ch, step, dirs, **cards)
    for p in points:
        # the single-point polytope stores the record's arrays as they are
        a, b = bound.polytope(ch, p, warn=False).coeff_matrix()
        rows = bound.rows(bound.terms(ch, bound.space.point(ch, p)), ch)[0]
        assert a.dtype == b.dtype == rows.dtype == bound.coeffs.dtype
        assert a.tobytes() == bound.coeffs.tobytes() and b.tobytes() == rows.tobytes()
    want = np.max([_primal_support(polytope(ch, p), dirs) for p in points], axis=0)
    assert np.array_equal(np.isposinf(env.supports), np.isposinf(want))
    assert np.array_equal(np.isneginf(env.supports), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.allclose(env.supports[fin], want[fin], rtol=0.0, atol=1e-9)


def test_t4_grid_budget_guard():
    with pytest.raises(GridTooLargeError):
        dmb.theorem4_envelope(_ex1(), grid_step=1e-6)


def _semi_det(seed):
    """A random semi-deterministic channel: P(y1|x) Dirichlet on three
    letters, Y2 a random function of (X, Y1)."""
    rng = np.random.default_rng(seed)
    t = np.zeros((2, 3, 2))
    y2 = rng.integers(0, 2, size=(2, 3))
    for x in range(2):
        t[x, np.arange(3), y2[x]] = rng.dirichlet(np.ones(3))
    return DmBroadcastChannel(t, *rng.uniform(0.0, 0.6, size=2))


_ORACLE_CHANNELS = {"dm-ex1": _ex1(), "dm-ex2": example_channel(
    "dm-ex2", p=0.15, c12=0.4, c21=0.2), **{
    "semi-det-%d" % s: _semi_det(s) for s in (1, 2, 3)}}


@pytest.mark.parametrize("name,chan", [
    *((n, c) for n in dmb.BOUNDS for c in _ORACLE_CHANNELS),
    # every inner region of a useless receiver 1 is empty
    ("inner1", "noisy"), ("inner2", "noisy"), ("outer", "noisy")])
def test_sorted_grid_envelope_equals_full_grid(name, chan):
    # the sweep reads only the points whose first-auxiliary marginal is
    # sorted; the envelope over the whole grid is the same, +-inf and all
    bound = dmb.BOUNDS[name]
    ch = _noisy() if chan == "noisy" else _ORACLE_CHANNELS[chan]
    step, cards = ((1 / 8, {"u_card": 3, "v_card": 2}) if name == "outer"
                   else (1 / 10, {}))
    shape = tuple(cards.get(c) or ch.x_card + 2 for c in bound.space.cards)
    dirs = np.array([(1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (1, -1),
                     (-1, 2), (-1, -1)] if len(bound.variables) == 2 else
                    [*CANONICAL_DIRS_3D, (1, -0.5, 0.3), (-0.2, 1, -1),
                     (0.5, -1, 1), (-1, -1, -1)], dtype=float)
    want = np.full(dirs.shape[0], -np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        env = bound.envelope(ch, step, dirs, **cards)
        for g in simplex_grid_chunks(int(np.prod(shape)) * ch.x_card, step,
                                     chunk=20_000):
            rows = bound.rows(bound.terms(ch, g.reshape(-1, *shape, ch.x_card)), ch)
            want = np.maximum(want, batch_support(bound.coeffs, rows, dirs,
                                                  reduce_max=True))
    assert np.array_equal(np.isposinf(env.supports), np.isposinf(want))
    assert np.array_equal(np.isneginf(env.supports), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.allclose(env.supports[fin], want[fin], rtol=0.0, atol=1e-12)


def test_default_grids_fit_the_budget():
    # on a binary-input channel every dm bound's default step and |X| + 2
    # letters per auxiliary are within the budget once sorted
    for bound in dmb.BOUNDS.values():
        parts, cells = 4, 4 ** (len(bound.space.cards) - 1) * 2
        assert sorted_grid_size(parts, cells, bound.step) <= EVAL_BUDGET, bound.name


def test_t4_multi_shares_grid():
    cfgs = [{"c12": 0.3, "c21": 0.5}, {"c12": 0.0, "c21": 0.0}]
    envs = dmb.theorem4_envelope_multi(_ex1(), cfgs, grid_step=0.1,
                                       directions=[(1, 0), (1, 1)])
    assert len(envs) == 2
    # no conferencing: R0 cap is I(V;Y2) = 0 on this channel
    assert envs[1].supports[0] == pytest.approx(0.0, abs=1e-9)
    assert envs[0].supports[0] == pytest.approx(0.3, abs=1e-9)


# ---------------------------------------------------------------------------
# one-sided three-rate evaluator
# ---------------------------------------------------------------------------

def test_t5_rows_independent_aux():
    ch = _ex1(c12=0.0)          # avoid the ignored-link warning
    poly = dmb.theorem5_polytope(ch, np.full((2, 2), 0.25))
    _, rhs = poly.coeff_matrix()
    want = sorted([0.0, MI_BSC + 0.5, MI_BSC + 0.5, 1.0, 1.0])
    assert np.allclose(sorted(rhs), want, atol=1e-12)
    assert poly.support((1, 0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert poly.support((0, 1, 0)) == pytest.approx(MI_BSC + 0.5, abs=1e-12)


def test_t5_warnings():
    with pytest.warns(UserWarning, match="c12 is ignored"):
        dmb.theorem5_polytope(_ex1(c12=0.3), np.full((2, 2), 0.25))
    ch_flip = example_channel("dm-ex2", p=0.2, c21=0.5)
    with pytest.warns(UserWarning, match="not more capable"):
        dmb.theorem5_polytope(ch_flip, np.full((2, 2), 0.25))


def test_t5_envelope_matches_pointwise():
    ch = _ex1(c12=0.0)
    dirs = CANONICAL_DIRS_3D
    env = dmb.theorem5_envelope(ch, grid_step=0.25, directions=dirs)
    # the envelope must dominate the uniform-aux evaluation everywhere
    poly = dmb.theorem5_polytope(ch, np.full((2, 2), 0.25))
    for d, s in zip(env.directions, env.supports):
        assert poly.support(d) <= s + 1e-9


# ---------------------------------------------------------------------------
# two-family inner bounds
# ---------------------------------------------------------------------------

def _factorization(seed=7):
    rng = np.random.default_rng(seed)
    return dmb.random_factorization(rng, _ex1())


def test_alpha_star_range_and_zero_link():
    f = _factorization()
    a1 = dmb.alpha1_star(_ex1(), f)
    assert 0.0 <= a1 <= 1.0
    assert dmb.alpha1_star(_ex1(c12=0.0), f) == 0.0


def test_inner1_resolved_matches_star_split():
    ch = _ex1()
    f = _factorization()
    star = dmb.inner1_alpha_polytope(ch, f, dmb.alpha1_star(ch, f),
                                     variant="tilde")
    resolved = dmb.inner1_polytope(ch, f)
    for d in CANONICAL_DIRS_3D:
        assert resolved.support(d) == pytest.approx(star.support(d), abs=1e-9)


def test_inner1_alpha_validation():
    f = _factorization()
    with pytest.raises(ValueError):
        dmb.inner1_alpha_polytope(_ex1(), f, 1.5)
    with pytest.raises(ValueError):
        dmb.inner1_alpha_polytope(_ex1(), f, 0.5, variant="banana")


def test_builders_take_precomputed_terms(monkeypatch):
    # the polytope and split-system builders reuse the caller's terms
    # and give exactly what they build when left to compute them
    ch = _ex1()
    f1 = _factorization()
    f2 = dmb.random_factorization(np.random.default_rng(3), ch, q2_on_w=True)
    t1, t2 = dmb.factorization_terms(ch, f1), dmb.factorization_terms(ch, f2)
    built = [dmb.inner1_alpha_polytope(ch, f1, 0.4).coeff_matrix(),
             dmb.inner2_alpha_polytope(ch, f2, 0.4, variant="tilde").coeff_matrix(),
             dmb.appendixB_system(ch, f1, 0.4)]
    monkeypatch.setattr(dmb, "factorization_terms", None)   # must not be called
    reused = [dmb.inner1_alpha_polytope(ch, f1, 0.4, terms=t1).coeff_matrix(),
              dmb.inner2_alpha_polytope(ch, f2, 0.4, variant="tilde",
                                        terms=t2).coeff_matrix(),
              dmb.appendixB_system(ch, f1, 0.4, terms=t1)]
    for (a, b), (a2, b2) in zip(built[:2], reused[:2]):
        assert np.array_equal(a, a2) and np.array_equal(b, b2)
    assert np.array_equal(built[2].matrix, reused[2].matrix)
    assert np.array_equal(built[2].rhs, reused[2].rhs)


def test_inner2_wants_w_conditioned_quantizer():
    rng = np.random.default_rng(0)
    f = dmb.random_factorization(rng, _ex1())          # q2 on Y2 alone
    assert f.q2 is not None and not f.q2_on_w
    with pytest.raises(ValueError):
        dmb.inner2_polytope(_ex1(), f)
    with pytest.raises(ValueError):
        dmb.inner2_alpha_polytope(_ex1(), f, 0.5)
    f2 = dmb.random_factorization(rng, _ex1(), q2_on_w=True)
    poly = dmb.inner2_polytope(_ex1(), f2)             # evaluates fine
    _, rhs = poly.coeff_matrix()
    assert rhs.shape == (5,)
    # a bad draw may price the scheme empty; that must show up as the
    # emptiness flag, never as an exception
    assert (poly.support((1, 1, 1)) == -math.inf) == bool(np.min(rhs) < -1e-12)


def test_t4_substitution_is_exact_inner_point():
    # on a semi-deterministic channel the substitution factorization
    # prices the family-1 region at the exact-region rows
    ch = _ex1()
    pvx = np.full((2, 2), 0.25)
    f = dmb.t4_substitution(ch, pvx)
    inner = dmb.inner1_polytope(ch, f)
    exact = dmb.theorem4_polytope(ch, pvx)
    for d in ((1, 0), (0, 1), (1, 1), (2, 1)):
        d3 = (d[0], d[1], 0.0)
        assert inner.support(d3) == pytest.approx(exact.support(d), abs=1e-9)


def test_inner_envelopes_run_small():
    ch = _ex1()
    dirs = CANONICAL_DIRS_3D
    e1 = dmb.inner1_envelope(ch, grid_step=0.25, v_card=2, directions=dirs)
    e2 = dmb.inner2_envelope(ch, grid_step=0.25, v_card=2, directions=dirs)
    assert np.all(np.isfinite(e1.supports))
    assert np.all(np.isfinite(e2.supports))
    assert np.all(e1.supports >= -1e-12)


# ---------------------------------------------------------------------------
# the split-rate system and its projection
# ---------------------------------------------------------------------------

def _projection_supports(system, dirs):
    keep = ("R0", "R1", "R2")
    out = fm_eliminate(system, [v for v in system.variables if v not in keep])
    assert out.variables == keep
    return support_of_system(out, dirs)


def test_appendixB_projection_feasible_draw():
    ch = _ex1()
    f = _factorization(seed=7)            # bin budget covers the price here
    dirs = CANONICAL_DIRS_3D
    for alpha in (0.0, 1.0):
        sys = dmb.appendixB_system(ch, f, alpha)
        got = _projection_supports(sys, dirs)
        assert np.all(np.isfinite(got))
        poly = dmb.inner1_alpha_polytope(ch, f, alpha)
        a, b = poly.coeff_matrix()
        want = batch_support(a, b[None, :], dirs)[0]
        assert np.max(np.abs(got - want)) <= 1e-9


def test_appendixB_projection_infeasible_draw_is_empty():
    # when the bin budget m1+m3 cannot cover the joint-coding price the
    # whole split system is infeasible, so the projection must come out
    # empty -- the closed-form rows deliberately over-promise there
    ch = _ex1()
    f = _factorization(seed=1)            # bin budget falls short here
    sys = dmb.appendixB_system(ch, f, 0.5)
    assert np.all(_projection_supports(sys, CANONICAL_DIRS_3D) == -math.inf)
    poly = dmb.inner1_alpha_polytope(ch, f, 0.5)
    assert poly.support((1, 1, 1)) > -math.inf    # rows alone would claim points


# ---------------------------------------------------------------------------
# converse side
# ---------------------------------------------------------------------------

def test_outer_polytope_contains_inner():
    ch = _ex1()
    dirs = CANONICAL_DIRS_3D
    outer = dmb.outer_envelope(ch, grid_step=0.25, u_card=2, v_card=2,
                               directions=dirs)
    inner = dmb.inner1_envelope(ch, grid_step=0.25, v_card=2, directions=dirs)
    ok, rep = envelope_dominates(outer, inner, slack=1e-9)
    assert ok, rep


def test_outer_aux_card_guard():
    ch = _ex1()
    with pytest.raises(ValueError):
        dmb.outer_envelope(ch, grid_step=0.5, u_card=7)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        dmb.OuterAux(rng.dirichlet(np.ones(50)).reshape(5, 5, 2))


def test_outer_grid_budget_guard():
    with pytest.raises(GridTooLargeError):
        dmb.outer_envelope(_ex1(), grid_step=0.01)


# ---------------------------------------------------------------------------
# the batch information-term kernel against JointPmf
# ---------------------------------------------------------------------------

def _sparse_pmf(rng, shape, size=None):
    """Dirichlet draws over shape with about a third of the cells zeroed
    (each draw keeps at least one)."""
    k = int(np.prod(shape))
    p = rng.dirichlet(np.ones(k), size=size)
    p = np.where(rng.random(p.shape) < 0.35, 0.0, p)
    p[..., rng.integers(0, k)] += 0.1
    p /= p.sum(axis=-1, keepdims=True)
    return p.reshape(shape if size is None else (size,) + tuple(shape))


def _random_dm(rng, nx, ny1, ny2):
    t = np.stack([_sparse_pmf(rng, (ny1, ny2)) for _ in range(nx)])
    return DmBroadcastChannel(t, c12=rng.uniform(0, 1), c21=rng.uniform(0, 1))


_CARDS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


@given(seed=st.integers(0, 2 ** 31), cards=_CARDS, nv=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_t4_terms_match_joint_pmf(seed, cards, nv):
    rng = np.random.default_rng(seed)
    ch = _random_dm(rng, *cards)
    pvx = _sparse_pmf(rng, (nv, cards[0]), size=4)
    got = dmb._t4_mi_batch(ch, pvx)
    mi = mutual_information
    for i, p in enumerate(pvx):
        j = JointPmf(("V", "X", "Y1", "Y2"), p[:, :, None, None] * ch.transition)
        want = {
            "v_y2": mi(j, ("V",), ("Y2",)),
            "x_y1": mi(j, ("X",), ("Y1",)),
            "x_y1_v": mi(j, ("X",), ("Y1",), ("V",)),
            "xj_v": mi(j, ("X",), ("Y1", "Y2"), ("V",)),
            "x_j": mi(j, ("X",), ("Y1", "Y2")),
            "y2_xy1": conditional_entropy(j, ("Y2",), ("X", "Y1")),
        }
        assert set(got) == set(want)
        for k, v in want.items():
            assert got[k][i] == pytest.approx(v, abs=1e-12), k


@given(seed=st.integers(0, 2 ** 31), cards=_CARDS,
       nu=st.integers(1, 3), nv=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_outer_rows_match_joint_pmf(seed, cards, nu, nv):
    rng = np.random.default_rng(seed)
    ch = _random_dm(rng, *cards)
    puvx = _sparse_pmf(rng, (nu, nv, cards[0]), size=4)
    outer = dmb.BOUNDS["outer"]
    got = outer.rows(outer.terms(ch, puvx), ch)
    c12, c21 = ch.c12, ch.c21
    for i, p in enumerate(puvx):
        j = JointPmf(("U", "V", "X", "Y1", "Y2"),
                     p[:, :, :, None, None] * ch.transition)

        def mi(a, b, g=()):
            return mutual_information(j, tuple(a), tuple(b), tuple(g))

        want = [
            mi("U", ["Y1"]) + c21,
            mi("X", ["Y1"], ["Y2", "V"]) + mi("X", ["Y2"]),
            mi("X", ["Y2"], ["Y1", "V"]) + mi("X", ["Y1"]),
            mi("V", ["Y2"]) + c12,
            mi("X", ["Y2"], ["Y1", "U"]) + mi("X", ["Y1"]),
            mi("X", ["Y1"], ["Y2", "U"]) + mi("X", ["Y2"]),
            mi("X", ["Y1"], "V") + mi("V", ["Y2"]) + c12 + c21,
            mi("X", ["Y2"], "U") + mi("U", ["Y1"]) + c12 + c21,
            mi("X", ["Y1"], ["Y2", "V"]) + mi("X", ["Y2"]) + c12,
            mi("X", ["Y2"], ["Y1", "U"]) + mi("X", ["Y1"]) + c21,
            mi("X", ["Y1", "Y2"]),
        ]
        assert np.allclose(got[i], want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# relay-style single-message rate
# ---------------------------------------------------------------------------

def test_relay_rate_oracles():
    ch = example_channel("dm-ex2", p=0.2, c12=0.3)
    pwx = np.array([[0.5, 0.5]])
    trivial = np.ones((1, 2, 1))
    assert dmb.primitive_relay_rate(ch, pwx, trivial) == pytest.approx(
        MI_BSC, abs=1e-12)
    # passing the relay output through intact is worth exactly the link
    identity = np.eye(2)[None, :, :]
    assert dmb.primitive_relay_rate(ch, pwx, identity) == pytest.approx(
        MI_BSC + 0.3, abs=1e-12)
    # a noisy quantizer can't beat that
    soft = np.array([[[0.9, 0.1], [0.1, 0.9]]])
    assert dmb.primitive_relay_rate(ch, pwx, soft) <= MI_BSC + 0.3 + 1e-12
