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
from hypothesis import example, given, settings, strategies as st

from confbc.channels import DmBroadcastChannel, GaussianBc, example_channel, load_channel
from confbc.errors import GridTooLargeError, InapplicableBoundError
from confbc.gridding import (EVAL_BUDGET, simplex_grid, sorted_grid_blocks,
                             sorted_grid_size)
from confbc.info_core import (JointPmf, binary_entropy, compose_joint, entropy,
                              mutual_information, xlog2x)
from confbc.regions import (
    CANONICAL_DIRS_3D,
    ConstraintPolytope,
    batch_support,
    envelope_dominates,
    fm_eliminate,
    support_of_system,
    sweep,
)
import confbc.dm_bounds as dmb
import confbc.info_core as info_core
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
    env = dmb.BOUNDS["t4"].envelope(_ex1(), 0.05, [(1, 0), (1, 1)])
    assert env.supports[0] == pytest.approx(0.3, abs=1e-9)
    assert env.supports[1] == pytest.approx(MI_BSC + 0.5, abs=1e-9)


def test_t4_envelope_covers_single_evaluations():
    env = dmb.BOUNDS["t4"].envelope(_ex1(), 0.1, [(1, 0), (1, 1), (0, 1)])
    for pvx in (np.full((2, 2), 0.25), np.eye(2) * 0.5):
        poly = dmb.theorem4_polytope(_ex1(), pvx)
        for d, s in zip(env.directions, env.supports):
            assert poly.support(d) <= s + 1e-9


def test_t4_needs_semi_deterministic():
    with pytest.raises(InapplicableBoundError):
        dmb.theorem4_polytope(_noisy(), np.full((2, 2), 0.25))
    with pytest.raises(InapplicableBoundError):
        dmb.BOUNDS["t4"].envelope(_noisy())


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
        dmb.BOUNDS["t4"].envelope(_ex1(), 1e-6)


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
        full = simplex_grid(int(np.prod(shape)) * ch.x_card, step)
        for lo in range(0, len(full), 20_000):
            g = full[lo:lo + 20_000].reshape(-1, *shape, ch.x_card)
            rows = bound.rows(bound.terms(ch, g), ch)
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
    t4 = dmb.BOUNDS["t4"]
    envs = sweep([(t4, _ex1()), (t4, _ex1(c12=0.0, c21=0.0))], 0.1,
                 [(1, 0), (1, 1)])
    assert len(envs) == 2
    # no conferencing: R0 cap is I(V;Y2) = 0 on this channel
    assert envs[1].supports[0] == pytest.approx(0.0, abs=1e-9)
    assert envs[0].supports[0] == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("bound,first,other", [
    (dmb.BOUNDS["t4"], example_channel("dm-ex1", p=0.2), example_channel("dm-ex1", p=0.4)),
    (gb.BOUNDS["t9"], GaussianBc(1.0, 0.5, 0.2, 4.0), GaussianBc(1.0, 0.5, 0.2, 1.0)),
])
def test_a_sweep_shares_terms_only_across_links(bound, first, other):
    # every block's terms come from the first channel: a second channel
    # that differs in a field but c12 and c21 is refused, and one that
    # differs only in them gets its own envelope
    with pytest.raises(ValueError, match="c12 and c21"):
        sweep([(bound, first), (bound, other)], 0.05)
    linked = load_channel({**first.to_json_dict(), "c12": 0.4, "c21": 0.7})
    envs = sweep([(bound, first), (bound, linked)], 0.05)
    assert envs[1].supports.tobytes() == bound.envelope(linked, 0.05).supports.tobytes()


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


def test_t5_reads_the_channel_at_c12_zero():
    # the one-sided bound is t4's rows at c12 = 0: a forward link leaves
    # its envelope byte for byte, and is still warned about
    dirs = CANONICAL_DIRS_3D
    env0 = dmb.BOUNDS["t5"].envelope(_ex1(c12=0.0), 0.1, dirs)
    with pytest.warns(UserWarning, match="c12 is ignored"):
        env = dmb.BOUNDS["t5"].envelope(_ex1(c12=0.3), 0.1, dirs)
    assert env.supports.tobytes() == env0.supports.tobytes()


def test_t5_envelope_matches_pointwise():
    ch = _ex1(c12=0.0)
    dirs = CANONICAL_DIRS_3D
    env = dmb.BOUNDS["t5"].envelope(ch, 0.25, dirs)
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


def _alpha_polytope(ch, f, alpha, family=1, **kw):
    """The inner region of one factorization at one explicit link split:
    _INNER_COEFFS at the family's split rhs."""
    rhs = (dmb._inner1_alpha_rhs if family == 1 else dmb._inner2_alpha_rhs)(
        ch, dmb.factorization_terms(ch, f), alpha, **kw)
    return ConstraintPolytope(("R0", "R1", "R2"), dmb._INNER_COEFFS, rhs)


def test_alpha_star_range_and_zero_link():
    t = dmb.factorization_terms(_ex1(), _factorization())
    a1 = dmb.alpha1_star(_ex1(), t)
    assert 0.0 <= a1 <= 1.0
    assert dmb.alpha1_star(_ex1(c12=0.0), t) == 0.0


def _resolved1(t, ch):
    """Family 1's rows at alpha1_star, resolved by hand: with Yh1 a
    function of (U, W, Y1) every min of the split's caps has a closed
    form."""
    c12, c21 = ch.c12, ch.c21
    row1 = np.minimum(t["uw_y1"] + c21 - t["h2_y2_uwy1"], t["uw_y1h2"])
    row2 = t["vw_y2"] + c12 - t["h1_uy1_vwy2"]
    mid3 = np.minimum(t["u_y1_w"] + c21 - t["h2_y2_uwy1"], t["u_y1h2_w"])
    mid4 = np.minimum(t["v_y2_w"] + c12 - t["h1_uy1_vwy2"], t["v_h1y2_w"])
    return dmb._inner_rhs(row1, row2, mid3, mid4, t["u_v_w"])


def _resolved2(t, ch):
    """Family 2's mirror of _resolved1, with Yh2 a function of (W, Y2)."""
    c12, c21 = ch.c12, ch.c21
    row1 = t["uw_y1"] + c21 - t["h2_y2_uwy1"]
    mid3 = np.minimum(t["u_y1_w"] + c21 - t["h2_y2_uwy1"], t["u_y1h2_w"])
    mid4 = np.minimum(t["v_y2_w"] + c12 - t["h1_uy1_vwy2"], t["v_h1y2_w"])
    return dmb._inner_rhs(row1, t["vw_y2"], mid3, mid4, t["u_v_w"])


_LINKS = st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0])


@given(seed=st.integers(0, 2 ** 31), nx=st.integers(1, 3), ny1=st.integers(1, 3),
       ny2=st.integers(1, 3), cards=st.tuples(*[st.integers(1, 3)] * 3),
       nh1=st.integers(1, 3), nh2=st.integers(1, 3), q1_none=st.booleans(),
       q2=st.sampled_from([None, "y2", "wy2"]), c12=_LINKS, c21=_LINKS)
@example(seed=0, nx=2, ny1=2, ny2=2, cards=(2, 2, 2), nh1=2, nh2=2, q1_none=False,
         q2="wy2", c12=0.0, c21=0.0)
@settings(max_examples=80, deadline=None)
def test_star_split_rows_match_the_resolved_formulas(seed, nx, ny1, ny2, cards, nh1, nh2,
                                                     q1_none, q2, c12, c21):
    # each family's rows are its split rows at the dominant split: on
    # random factorizations and on the inner sweeps' plug-in terms they
    # are the hand-resolved closed forms
    ch, draws = _random_stack(seed, nx, ny1, ny2, cards, nh1, nh2, q1_none, q2 == "wy2", 3)
    ch = DmBroadcastChannel(ch.transition, c12, c21)
    if q2 is None:
        draws = [dmb.AuxFactorization(f.aux, f.q1) for f in draws]
    pvx = _sparse_pmf(np.random.default_rng(seed), (cards[0], nx), size=3)
    for t in (dmb.factorization_terms(ch, draws), dmb._plug_in_terms(dmb._t4_mi_batch(ch, pvx))):
        for rows, resolved in ((dmb._inner1_rows, _resolved1), (dmb._inner2_rows, _resolved2)):
            want = np.broadcast_to(resolved(t, ch), (3, 5))
            assert np.allclose(rows(t, ch), want, rtol=0.0, atol=1e-12)


def test_inner1_alpha_validation():
    f = _factorization()
    with pytest.raises(ValueError):
        _alpha_polytope(_ex1(), f, 1.5)
    with pytest.raises(ValueError):
        _alpha_polytope(_ex1(), f, 0.5, variant="banana")


# ---------------------------------------------------------------------------
# stacked factorization terms
# ---------------------------------------------------------------------------

_ORACLE_TERMS = {      # I(A; B | G) for each term, as compose_joint's names
    "uw_y1": (("U", "W"), ("Y1",), ()),
    "uw_y1h2": (("U", "W"), ("Y1", "Yh2"), ()),
    "u_y1_w": (("U",), ("Y1",), ("W",)),
    "u_y1h2_w": (("U",), ("Y1", "Yh2"), ("W",)),
    "vw_y2": (("V", "W"), ("Y2",), ()),
    "vw_h1y2": (("V", "W"), ("Yh1", "Y2"), ()),
    "v_y2_w": (("V",), ("Y2",), ("W",)),
    "v_h1y2_w": (("V",), ("Yh1", "Y2"), ("W",)),
    "h1_uy1_vwy2": (("Yh1",), ("U", "Y1"), ("V", "W", "Y2")),
    "h1_uy1_wy2": (("Yh1",), ("U", "Y1"), ("W", "Y2")),
    "h2_y2_uwy1": (("Yh2",), ("Y2",), ("U", "W", "Y1")),
    "h2_y2_wy1": (("Yh2",), ("Y2",), ("W", "Y1")),
    "u_v_w": (("U",), ("V",), ("W",)),
}


def _random_stack(seed, nx, ny1, ny2, cards, nh1, nh2, q1_none, q2_on_w, r):
    """A random channel and r draws sharing alphabets and quantizer layout."""
    rng = np.random.default_rng(seed)
    ch = DmBroadcastChannel(rng.dirichlet(np.ones(ny1 * ny2), size=nx).reshape(nx, ny1, ny2))
    nu, nv, nw = cards
    draws = []
    for _ in range(r):
        aux = rng.dirichlet(np.ones(nu * nv * nw * nx)).reshape(nu, nv, nw, nx)
        q1 = None if q1_none else rng.dirichlet(np.ones(nh1), size=(nu, nw, ny1))
        q2 = rng.dirichlet(np.ones(nh2), size=(nw, ny2) if q2_on_w else ny2)
        draws.append(dmb.AuxFactorization(aux, q1=q1, q2=q2, q2_on_w=q2_on_w))
    return ch, draws


_STACKS = dict(seed=st.integers(0, 2 ** 31), nx=st.integers(1, 4),
               ny1=st.integers(1, 3), ny2=st.integers(1, 3),
               cards=st.tuples(*[st.integers(1, 3)] * 3),
               nh1=st.integers(1, 3), nh2=st.integers(1, 3),
               q1_none=st.booleans(), q2_on_w=st.booleans(), r=st.integers(1, 6))


@given(**_STACKS)
@settings(max_examples=60, deadline=None)
def test_stacked_terms_match_the_joint_oracle(seed, nx, ny1, ny2, cards, nh1, nh2,
                                              q1_none, q2_on_w, r):
    # every term of every draw against compose_joint + mutual_information
    ch, draws = _random_stack(seed, nx, ny1, ny2, cards, nh1, nh2, q1_none, q2_on_w, r)
    terms = dmb.factorization_terms(ch, draws)
    assert set(terms) == set(_ORACLE_TERMS)
    for i, f in enumerate(draws):
        p = compose_joint(JointPmf(("U", "V", "W", "X"), f.aux), ch,
                          q1=f.q1, q2=f.q2, q2_on_w=f.q2_on_w)
        for name, (a, b, g) in _ORACLE_TERMS.items():
            assert terms[name].shape == (r,)
            assert terms[name][i] == pytest.approx(mutual_information(p, a, b, g),
                                                   abs=1e-12)


@given(**_STACKS)
@settings(max_examples=40, deadline=None)
def test_stacked_terms_do_not_depend_on_the_other_draws(seed, nx, ny1, ny2, cards, nh1,
                                                        nh2, q1_none, q2_on_w, r):
    # draw i of a stack gives the bytes of a stack of one, and a bare draw
    # the same value as a scalar
    ch, draws = _random_stack(seed, nx, ny1, ny2, cards, nh1, nh2, q1_none, q2_on_w, r)
    terms = dmb.factorization_terms(ch, draws)
    for i, f in enumerate(draws):
        one = dmb.factorization_terms(ch, [f])
        bare = dmb.factorization_terms(ch, f)
        for name, v in terms.items():
            assert one[name].tobytes() == v[i:i + 1].tobytes()
            assert np.ndim(bare[name]) == 0 and bare[name].tobytes() == v[i].tobytes()


def test_t4_substitution_terms_treat_no_quantizer_as_constant():
    # q1 = None forwards nothing from receiver 1: every term with Yh1 in
    # it reads as the same term without it
    ch = _ex1()
    f = dmb.t4_substitution(ch, np.array([[0.1, 0.2], [0.3, 0.4]]))
    t = dmb.factorization_terms(ch, [f, f])
    assert np.array_equal(t["h1_uy1_vwy2"], [0.0, 0.0])
    assert np.array_equal(t["h1_uy1_wy2"], [0.0, 0.0])
    assert np.array_equal(t["vw_h1y2"], t["vw_y2"])


def test_stack_rejects_mixed_layouts():
    ch = _ex1()
    rng = np.random.default_rng(0)
    f = dmb.random_factorization(rng, ch)
    mixed = {
        "aux alphabets": dmb.AuxFactorization(
            rng.dirichlet(np.ones(24)).reshape(2, 3, 2, 2), q1=f.q1, q2=f.q2),
        "q2_on_w": dmb.AuxFactorization(f.aux, q1=f.q1,
                                        q2=np.stack([f.q2, f.q2]), q2_on_w=True),
        "q1 shape": dmb.AuxFactorization(f.aux, q2=f.q2),
    }
    for what, g in mixed.items():
        with pytest.raises(ValueError, match="mixes %s: draw 0 has .*, draw 2 has" % what):
            dmb.factorization_terms(ch, [f, f, g])
    with pytest.raises(ValueError, match="at least one draw"):
        dmb.factorization_terms(ch, [])


def test_a_bad_draw_anywhere_in_a_stack_raises_its_own_message():
    # the message compose_joint gives that draw alone
    ch = _ex1()
    rng = np.random.default_rng(1)
    good = [dmb.random_factorization(rng, ch) for _ in range(3)]
    f = good[0]
    heavy = f.aux * (1 + 1e-6)
    negative = f.aux.copy()
    negative[0, 0, 0, :] += (-negative[0, 0, 0, 0] - 1e-3, negative[0, 0, 0, 0] + 1e-3)
    bad_q1 = f.q1.copy()
    bad_q1[0, 0, 0] = (1.2, -0.2)
    bad_q2 = f.q2 * 1.1
    for bad in (dmb.AuxFactorization(heavy, q1=f.q1, q2=f.q2),
                dmb.AuxFactorization(negative, q1=f.q1, q2=f.q2),
                dmb.AuxFactorization(f.aux, q1=bad_q1, q2=f.q2),
                dmb.AuxFactorization(f.aux, q1=f.q1, q2=bad_q2)):
        with pytest.raises(ValueError) as per_draw:
            compose_joint(JointPmf(("U", "V", "W", "X"), bad.aux), ch,
                          q1=bad.q1, q2=bad.q2, q2_on_w=bad.q2_on_w)
        for at in range(4):
            with pytest.raises(ValueError) as stacked:
                dmb.factorization_terms(ch, good[:at] + [bad] + good[at:])
            assert str(stacked.value) == str(per_draw.value)


def test_inner2_wants_w_conditioned_quantizer():
    rng = np.random.default_rng(0)
    f = dmb.random_factorization(rng, _ex1())          # q2 on Y2 alone
    assert f.q2 is not None and not f.q2_on_w
    with pytest.raises(ValueError):
        dmb.inner2_polytope(_ex1(), f)
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
    e1 = dmb.BOUNDS["inner1"].envelope(ch, 0.25, dirs, v_card=2)
    e2 = dmb.BOUNDS["inner2"].envelope(ch, 0.25, dirs, v_card=2)
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
        sys = dmb.appendixB_system(ch, dmb.factorization_terms(ch, f), alpha)
        got = _projection_supports(sys, dirs)
        assert np.all(np.isfinite(got))
        poly = _alpha_polytope(ch, f, alpha)
        a, b = poly.coeff_matrix()
        want = batch_support(a, b[None, :], dirs)[0]
        assert np.max(np.abs(got - want)) <= 1e-9


def test_appendixB_projection_infeasible_draw_is_empty():
    # when the bin budget m1+m3 cannot cover the joint-coding price the
    # whole split system is infeasible, so the projection must come out
    # empty -- the closed-form rows deliberately over-promise there
    ch = _ex1()
    f = _factorization(seed=1)            # bin budget falls short here
    sys = dmb.appendixB_system(ch, dmb.factorization_terms(ch, f), 0.5)
    assert np.all(_projection_supports(sys, CANONICAL_DIRS_3D) == -math.inf)
    poly = _alpha_polytope(ch, f, 0.5)
    assert poly.support((1, 1, 1)) > -math.inf    # rows alone would claim points


# ---------------------------------------------------------------------------
# converse side
# ---------------------------------------------------------------------------

def test_outer_polytope_contains_inner():
    ch = _ex1()
    dirs = CANONICAL_DIRS_3D
    outer = dmb.BOUNDS["outer"].envelope(ch, 0.25, dirs, u_card=2, v_card=2)
    inner = dmb.BOUNDS["inner1"].envelope(ch, 0.25, dirs, v_card=2)
    ok, rep = envelope_dominates(outer, inner, slack=1e-9)
    assert ok, rep


def test_outer_aux_card_guard():
    # |U| and |V| past |X| + 2 = 4 are refused by the sweep and by a
    # single point alike, through the table or its wrapper
    ch = _ex1()
    with pytest.raises(ValueError, match="never needed"):
        dmb.BOUNDS["outer"].envelope(ch, 0.5, u_card=7)
    rng = np.random.default_rng(1)
    for shape in ((5, 5, 2), (5, 1, 2), (1, 5, 2)):
        p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        with pytest.raises(ValueError, match="never needed"):
            dmb.BOUNDS["outer"].polytope(ch, p)
        with pytest.raises(ValueError, match="never needed"):
            dmb.outer_polytope(ch, dmb.OuterAux(p))
    # at the cap a point prices
    p = rng.dirichlet(np.ones(32)).reshape(4, 4, 2)
    assert dmb.BOUNDS["outer"].polytope(ch, p).rhs.shape == (11,)


def test_outer_grid_budget_guard():
    with pytest.raises(GridTooLargeError):
        dmb.BOUNDS["outer"].envelope(_ex1(), 0.01)


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


_CARDS = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))


@given(seed=st.integers(0, 2 ** 31), cards=_CARDS, nu=st.integers(1, 3),
       nv=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_kernel_prices_conditional_output_entropies_only(seed, cards, nu, nv):
    # six rows, H(Y | A) and H(Y | X) per output set Y, and nothing of
    # H(A), H(X) or an entropy of X together with an output
    rng = np.random.default_rng(seed)
    ch = _random_dm(rng, *cards)
    rows = _sparse_pmf(rng, (cards[0],), size=5)
    assert info_core._price_rows(ch.transition, rows).shape == (6, len(rows))
    h = dmb._entropies(ch, _sparse_pmf(rng, (nu, nv, cards[0]), size=2), ("U", "V"))
    outs = ("Y1", "Y2", "Y1Y2")
    assert set(h) == {y + c for y in outs for c in ("", "|X", "|U", "|V")}


@given(seed=st.integers(0, 2 ** 31), cards=_CARDS, nv=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_t4_terms_match_joint_pmf(seed, cards, nv):
    rng = np.random.default_rng(seed)
    ch = _random_dm(rng, *cards)
    pvx = _sparse_pmf(rng, (nv, cards[0]), size=4)
    got = dmb._t4_mi_batch(ch, pvx)
    for i, p in enumerate(pvx):
        want = _t4_terms_oracle(ch, p)
        assert set(got) == set(want)
        for k, v in want.items():
            assert got[k][i] == pytest.approx(v, abs=1e-12), k


def _t4_terms_oracle(ch, pvx):
    """_t4_mi_batch's terms at one P(v, x), from the dense joint pmf."""
    j = JointPmf(("V", "X", "Y1", "Y2"), pvx[:, :, None, None] * ch.transition)
    mi = mutual_information
    return {
        "v_y2": mi(j, ("V",), ("Y2",)),
        "x_y1": mi(j, ("X",), ("Y1",)),
        "x_y1_v": mi(j, ("X",), ("Y1",), ("V",)),
        "xj_v": mi(j, ("X",), ("Y1", "Y2"), ("V",)),
        "x_j": mi(j, ("X",), ("Y1", "Y2")),
        "y2_xy1": entropy(j, ("X", "Y1", "Y2")) - entropy(j, ("X", "Y1")),
    }


@given(seed=st.integers(0, 2 ** 31), cards=_CARDS, nv=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_plug_in_terms_match_the_substitution_factorization(seed, cards, nv):
    # the inner sweeps' terms: _t4_mi_batch's, mapped onto the
    # t4_substitution plug-in, are the full factorization's terms
    rng = np.random.default_rng(seed)
    ch = _random_dm(rng, *cards)
    pvx = _sparse_pmf(rng, (nv, cards[0]), size=4)
    got = dmb._plug_in_terms(dmb._t4_mi_batch(ch, pvx))
    for i, p in enumerate(pvx):
        want = dmb.factorization_terms(ch, dmb.t4_substitution(ch, p))
        for k, v in got.items():
            assert np.broadcast_to(v, (len(pvx),))[i] == pytest.approx(want[k], abs=1e-12), k


@given(seed=st.integers(0, 2 ** 31), cards=_CARDS,
       nu=st.integers(1, 3), nv=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_outer_rows_match_joint_pmf(seed, cards, nu, nv):
    rng = np.random.default_rng(seed)
    ch = _random_dm(rng, *cards)
    puvx = _sparse_pmf(rng, (nu, nv, cards[0]), size=4)
    outer = dmb.BOUNDS["outer"]
    got = outer.rows(outer.terms(ch, puvx), ch)
    for i, p in enumerate(puvx):
        assert np.allclose(got[i], _outer_rows_oracle(ch, p), rtol=0.0, atol=1e-12)


def _outer_rows_oracle(ch, puvx):
    """The 11 converse rows at one P(u, v, x), from the dense joint pmf."""
    j = JointPmf(("U", "V", "X", "Y1", "Y2"),
                 puvx[:, :, :, None, None] * ch.transition)
    c12, c21 = ch.c12, ch.c21

    def mi(a, b, g=()):
        return mutual_information(j, tuple(a), tuple(b), tuple(g))

    return [
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


@given(seed=st.integers(0, 2 ** 31), cards=_CARDS, nu=st.integers(1, 4),
       nv=st.integers(1, 4), n=st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_lattice_terms_match_joint_pmf(seed, cards, nu, nv, n):
    # the sorted grids' points as lattice codes, priced from the lattice
    # table, at the finest step up to 1/n whose grid has at most 3,000
    # points
    rng = np.random.default_rng(seed)
    ch = _random_dm(rng, *cards)
    nx = cards[0]

    def blocks(parts, letters):
        m = max(m for m in range(1, n + 1)
                if sorted_grid_size(parts, letters * nx, 1 / m) <= 3000)
        for counts in sorted_grid_blocks(parts, letters * nx, 1 / m, chunk=701):
            counts = counts.reshape(parts, letters, nx, -1)
            codes = np.tensordot((m + 1) ** np.arange(nx), counts, axes=(0, 2))
            yield (np.moveaxis(counts, -1, 0) / m,
                   dmb._Codes(codes.astype(np.int32), m))

    dmb._lattice_table.cache_clear()
    for points, codes in blocks(nv, 1):
        got = dmb._t4_mi_batch(ch, dmb._Codes(codes.codes[:, 0], codes.n))
        for i in rng.choice(len(points), min(2, len(points)), replace=False):
            for k, v in _t4_terms_oracle(ch, points[i, :, 0]).items():
                assert got[k][i] == pytest.approx(v, abs=1e-12), k
    outer = dmb.BOUNDS["outer"]
    for points, codes in blocks(nu, nv):
        got = outer.rows(outer.terms(ch, codes), ch)
        for i in rng.choice(len(points), min(2, len(points)), replace=False):
            assert np.allclose(got[i], _outer_rows_oracle(ch, points[i]),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("nx,n", [(1, 5), (2, 30), (3, 7), (4, 6)])
def test_lattice_rank_is_one_to_one(nx, n):
    # the count rows over X with sum <= n, i.e. the compositions of n
    # into |X| + 1 cells less the last, take C(n + |X|, |X|) distinct
    # codes inside the lattice table, and the table decodes each code
    # back to its row
    rows = np.concatenate([b[0].T for b in sorted_grid_blocks(1, nx + 1, 1 / n)])[:, :nx]
    assert rows.shape[0] == math.comb(n + nx, nx)
    code = rows @ (n + 1) ** np.arange(nx)
    assert np.unique(code).size == rows.shape[0]
    assert code.min() >= 0 and code.max() < (n + 1) ** nx
    back = np.stack(np.unravel_index(code, (n + 1,) * nx)[::-1], axis=1)
    assert np.array_equal(back, rows)


@given(seed=st.integers(0, 2 ** 31), nx=st.integers(1, 4), n=st.integers(1, 30))
@example(seed=0, nx=4, n=30)
@example(seed=1, nx=1, n=1)
@settings(max_examples=30, deadline=None)
def test_lattice_code_is_one_to_one_additive_and_priced(seed, nx, n):
    # c(r) = sum_j r_j (n + 1)^j: one to one on the rows with entries in
    # 0 .. n, additive on rows whose sum stays <= n, and the lattice
    # table's column at a valid row's code is that row's pricing
    rng = np.random.default_rng(seed)
    radix = (n + 1) ** np.arange(nx)
    every = np.indices((n + 1,) * nx).reshape(nx, -1).T
    assert np.array_equal(np.sort(every @ radix), np.arange((n + 1) ** nx))
    # three cells of nx entries, and the slack, summing to n
    cells = rng.multinomial(n, np.ones(3 * nx + 1) / (3 * nx + 1), size=4)
    cells = cells[:, :-1].reshape(4, 3, nx)
    marginal = cells.sum(axis=1)
    assert np.array_equal((cells @ radix).sum(axis=1), marginal @ radix)
    ch = _random_dm(rng, nx, 2, 3)
    t = ch.transition
    dmb._lattice_table.cache_clear()
    table = dmb._lattice_table(t.shape, t.tobytes(), n)
    assert table.shape[1] == (n + 1) ** nx
    want = info_core._price_rows(t, marginal / n)
    assert np.allclose(table[:, marginal @ radix], want, rtol=0.0, atol=1e-12)
    dmb._lattice_table.cache_clear()


def test_t4_sweep_prices_the_lattice_not_the_grid(monkeypatch):
    # the xlog2x cells of a sweep are the lattice table's: the same at
    # |V| = 2 and 3, and far below the 54,857 points of the |V| = 3 grid
    cells = []

    def counted(p):
        cells.append(np.size(p))
        return xlog2x(p)

    monkeypatch.setattr(info_core, "xlog2x", counted)
    per_card = {}
    for v in (2, 3):
        dmb._lattice_table.cache_clear()
        cells.clear()
        dmb.BOUNDS["t4"].envelope(_ex1(), 1 / 30, v_card=v)
        per_card[v] = sum(cells)
    width = 1 + 2 + 2 + 4            # a row's mass, then its Y1, Y2, Y1Y2 marginals
    assert sorted_grid_size(3, 2, 1 / 30) == 54_857
    assert 0 < per_card[2] == per_card[3] <= width * (31 ** 2 + 2) < 54_857


def _table_rows(monkeypatch):
    """Record the row count of every lattice table a sweep builds."""
    built, real = [], dmb._lattice_table

    def recorded(shape, data, n):
        built.append((n + 1) ** shape[0])
        return real(shape, data, n)

    dmb._lattice_table.cache_clear()
    monkeypatch.setattr(dmb, "_lattice_table", recorded)
    return built


@pytest.mark.parametrize("bound,point", [
    ("t4", [[0.7, 0.7]]), ("t4", [[1.5, -0.5]]), ("t5", [[0.5, 0.25]]),
    ("outer", np.full((2, 2, 2), 0.3)), ("t4", [[0.25, 0.25, 0.5]]),
    ("t4", [0.5, 0.5]), ("outer", np.full((2, 2), 0.25))],
    ids=["mass-1.4", "negative", "mass-0.75", "outer-mass-2.4", "wrong-x", "no-aux-axis",
         "outer-one-aux-axis"])
def test_single_points_must_be_pmfs_of_the_bounds_shape(bound, point):
    # such tables once priced into polytopes whose rows mean nothing
    with pytest.raises(ValueError, match="negative probability|probability mass|"
                                          "a point needs axes"):
        dmb.BOUNDS[bound].polytope(_ex1(), point, warn=False)


def test_one_letter_aux_prices_its_own_rows(monkeypatch):
    # with |V| = 1 every row is a whole point and the lattice outgrows
    # the grid, (n + 1)^4 against C(n + 3, 3) rows at |X| = 4: at the
    # finest step the budget admits the blocks price their own rows
    built = _table_rows(monkeypatch)
    rng = np.random.default_rng(4)
    ch = _random_dm(rng, 4, 2, 2)
    t4 = dmb.BOUNDS["t4"]
    n = max(m for m in range(1, 2000) if math.comb(m + 3, 3) <= EVAL_BUDGET)
    blocks, _ = t4.space.blocks(ch, 1 / n, {"v_card": 1})
    block = next(blocks)
    assert not isinstance(block, dmb._Codes)
    terms = t4.terms(ch, block)
    assert terms["x_j"].shape == (block.shape[0],)
    assert built == []


@pytest.mark.parametrize("cards,step", [({}, 1 / 2), ({"u_card": 2, "v_card": 1}, 1 / 4),
                                        ({"u_card": 1, "v_card": 1}, 1 / 6)])
def test_outer_table_never_outgrows_the_grid(monkeypatch, cards, step):
    built = _table_rows(monkeypatch)
    ch = _random_dm(np.random.default_rng(3), 3, 2, 2)
    env = dmb.BOUNDS["outer"].envelope(ch, step, CANONICAL_DIRS_3D, **cards)
    u, v = (cards.get(c) or 5 for c in ("u_card", "v_card"))
    aux_rows = sorted_grid_size(u, v * 3, step) * (u + v)
    assert all(rows <= aux_rows for rows in built)
    # the lattice is used exactly when it is no larger
    assert (built != []) == ((round(1 / step) + 1) ** 3 <= aux_rows)
    assert np.all(np.isfinite(env.supports))


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
