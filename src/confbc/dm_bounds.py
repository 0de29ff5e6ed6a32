"""Inner and outer bounds for the discrete memoryless broadcast channel
with bidirectional conferencing decoders.

The evaluators here turn one choice of auxiliary distribution into a
ConstraintPolytope over (R0, R1, R2) (or (R0, R1) for the
degraded-message-set results): the bound's fixed coefficient matrix and
one row of right-hand sides, stored as arrays.  The *_envelope
functions sweep a simplex grid of auxiliaries and return the
pointwise-max support record, i.e. the computable face of the union
region.  appendixB_system is the one general-sign LinearSystem.

BOUNDS is the table of the swept bounds (outer, inner1, inner2, t4,
cutset-fig3, t5), one regions.Bound each: a coefficient matrix, a grid
of P(aux..., x), the batch information terms of a grid block, a row
function of those terms, a default step and the applicability check.
*_polytope and *_envelope are thin calls into it.  inner1_polytope and
inner2_polytope price full factorizations instead and stay the
independent oracle for the substitution sweeps.

Two cooperation orders appear throughout:
  * inner1_*: receiver 2 quantizes first, receiver 1 then splits its
    link between decode-and-forward and quantize-bin-and-forward
    (split fraction alpha1, quantizer q2 = P(yh2|y2)).
  * inner2_*: the mirror order; receiver 2's quantizer may also depend
    on the common layer (q2 = P(yh2|w,y2), split fraction alpha2).

variant="clipped" keeps the {.}^+ on the binning surpluses; "tilde"
drops it, which never enlarges the region for the optimal split and is
what the optimality checks use (a clipped row at alpha=0 can otherwise
poke above the optimized region).

The grid sweeps take their information terms from one batch kernel,
_entropies.  Given X the outputs do not depend on the auxiliaries, so
every entropy with X and an output splits as
    H(A, X, Y) = H(A, X) + sum_x p(x) H(Y | X=x)
for any auxiliary set A and output set Y, and the broadcast joint
p(a, x, y1, y2) is never formed.
"""

import warnings
from functools import partial

import numpy as np

from .channels import (DmBroadcastChannel, is_semi_deterministic,
                       more_capable_evidence)
from .errors import InapplicableBoundError
from .gridding import _budgeted_chunks, _units
from .info_core import JointPmf, compose_joint, mutual_information, xlog2x
from .regions import Bound, ConstraintPolytope, LinearSystem, sweep


# ---------------------------------------------------------------------------
# auxiliary-distribution containers
# ---------------------------------------------------------------------------

class AuxFactorization:
    """One point of the inner-bound search space.

    aux   -- P(u, v, w, x), a 4-axis array summing to 1
    q1    -- P(yh1 | u, w, y1), axes (U, W, Y1, Yh1); None = no quantizer
    q2    -- P(yh2 | y2) axes (Y2, Yh2), or P(yh2 | w, y2) axes
             (W, Y2, Yh2) when q2_on_w is set; None = no quantizer
    """

    def __init__(self, aux, q1=None, q2=None, q2_on_w=False):
        self.aux = np.asarray(aux, dtype=float)
        if self.aux.ndim != 4:
            raise ValueError("aux needs axes (U, V, W, X)")
        self.q1 = None if q1 is None else np.asarray(q1, dtype=float)
        self.q2 = None if q2 is None else np.asarray(q2, dtype=float)
        self.q2_on_w = bool(q2_on_w)

    @property
    def cards(self):
        return self.aux.shape


class OuterAux:
    """P(u, v, x) for the converse side; the two auxiliary alphabets
    never need to exceed |X| + 2, and the evaluator holds callers to
    that so sweeps stay honest."""

    def __init__(self, puvx):
        self.puvx = np.asarray(puvx, dtype=float)
        if self.puvx.ndim != 3:
            raise ValueError("outer auxiliary needs axes (U, V, X)")
        nu, nv, nx = self.puvx.shape
        if nu > nx + 2 or nv > nx + 2:
            raise ValueError("auxiliary alphabets larger than |X|+2 are never needed")


def t4_substitution(ch, pvx):
    """The capacity-achieving plug-in for semi-deterministic channels:
    private layer = X itself, common layer = V, no quantizer at
    receiver 1, receiver 2 forwards its output unquantized."""
    pvx = np.asarray(pvx, dtype=float)
    nv, nx = pvx.shape
    aux = np.zeros((nx, 1, nv, nx))
    for x in range(nx):
        aux[x, 0, :, x] = pvx[:, x]
    q2 = np.eye(ch.y2_card)
    return AuxFactorization(aux, q1=None, q2=q2)


def random_factorization(rng, ch, cards=(2, 2, 2), yh1_card=None, yh2_card=None,
                         q2_on_w=False):
    """Dirichlet(1) draw of a full factorization.  Quantizer alphabets
    default to the channel output sizes and are capped at |Y|+1, past
    which extra quantizer letters stop paying for themselves."""
    nu, nv, nw = cards
    nx = ch.x_card
    yh1 = min(yh1_card or ch.y1_card, ch.y1_card + 1)
    yh2 = min(yh2_card or ch.y2_card, ch.y2_card + 1)
    aux = rng.dirichlet(np.ones(nu * nv * nw * nx)).reshape(nu, nv, nw, nx)
    q1 = rng.dirichlet(np.ones(yh1), size=(nu, nw, ch.y1_card))
    if q2_on_w:
        q2 = rng.dirichlet(np.ones(yh2), size=(nw, ch.y2_card))
    else:
        q2 = rng.dirichlet(np.ones(yh2), size=ch.y2_card)
    return AuxFactorization(aux, q1=q1, q2=q2, q2_on_w=q2_on_w)


# ---------------------------------------------------------------------------
# mutual-information bookkeeping for one factorization
# ---------------------------------------------------------------------------

def factorization_terms(ch, f):
    """All the mutual informations the inner-bound rows draw on, as a
    plain dict.  Computed once per factorization and shared by the
    polytope builders, the split optimizers, and the pre-elimination
    system so they can never drift apart numerically."""
    p = compose_joint(JointPmf(("U", "V", "W", "X"), f.aux), ch,
                      q1=f.q1, q2=f.q2, q2_on_w=f.q2_on_w)
    mi = mutual_information
    return {
        "uw_y1": mi(p, ("U", "W"), ("Y1",)),
        "uw_y1h2": mi(p, ("U", "W"), ("Y1", "Yh2")),
        "u_y1_w": mi(p, ("U",), ("Y1",), ("W",)),
        "u_y1h2_w": mi(p, ("U",), ("Y1", "Yh2"), ("W",)),
        "vw_y2": mi(p, ("V", "W"), ("Y2",)),
        "vw_h1y2": mi(p, ("V", "W"), ("Yh1", "Y2")),
        "v_y2_w": mi(p, ("V",), ("Y2",), ("W",)),
        "v_h1y2_w": mi(p, ("V",), ("Yh1", "Y2"), ("W",)),
        "h1_uy1_vwy2": mi(p, ("Yh1",), ("U", "Y1"), ("V", "W", "Y2")),
        "h1_uy1_wy2": mi(p, ("Yh1",), ("U", "Y1"), ("W", "Y2")),
        "h2_y2_uwy1": mi(p, ("Yh2",), ("Y2",), ("U", "W", "Y1")),
        "h2_y2_wy1": mi(p, ("Yh2",), ("Y2",), ("W", "Y1")),
        "u_v_w": mi(p, ("U",), ("V",), ("W",)),
    }


def _caps1(t, c12, c21, alpha1, variant):
    """The four min-caps and the common-layer price for the
    quantize-first-at-2 scheme at link split alpha1."""
    z1 = alpha1 * c12 - t["h1_uy1_vwy2"]
    z2 = c21 - t["h2_y2_uwy1"]
    if variant == "clipped":
        z1, z2 = max(z1, 0.0), max(z2, 0.0)
    elif variant != "tilde":
        raise ValueError("variant must be 'clipped' or 'tilde'")
    df = (1.0 - alpha1) * c12
    m1 = min(t["u_y1_w"] + z2, t["u_y1h2_w"])
    m2 = min(t["uw_y1"] + z2, t["uw_y1h2"])
    m3 = min(t["v_y2_w"] + z1, t["v_h1y2_w"])
    m4 = min(t["vw_y2"] + z1, t["vw_h1y2"]) + df
    return m1, m2, m3, m4, t["u_v_w"]


def _caps2(t, c12, c21, alpha2, variant):
    """Mirror bookkeeping for the decode-split-first-at-2 scheme."""
    e1 = c12 - t["h1_uy1_vwy2"]
    e2 = alpha2 * c21 - t["h2_y2_uwy1"]
    if variant == "clipped":
        e1, e2 = max(e1, 0.0), max(e2, 0.0)
    elif variant != "tilde":
        raise ValueError("variant must be 'clipped' or 'tilde'")
    df = (1.0 - alpha2) * c21
    n1 = min(t["uw_y1"] + e2, t["uw_y1h2"]) + df
    n2 = t["vw_y2"]
    n3 = min(t["u_y1_w"] + e2, t["u_y1h2_w"])
    n4 = min(t["v_y2_w"] + e1, t["v_h1y2_w"])
    return n1, n2, n3, n4, t["u_v_w"]


_RATE_VARS = ("R0", "R1", "R2")

# The rows of every inner-bound region, family 1 or 2, split or resolved.
_INNER_COEFFS = np.array([
    (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 1, 1), (2, 1, 1)], dtype=float)


def _inner_polytope(row1, row2, sum1, sum2, i0):
    """The inner region with caps row1 (R0+R1), row2 (R0+R2), and the
    two sum-row partners, less the Marton price i0."""
    return ConstraintPolytope(_RATE_VARS, _INNER_COEFFS, [
        row1, row2, sum1 + row2 - i0, row1 + sum2 - i0, row1 + row2 - i0])


# ---------------------------------------------------------------------------
# inner bounds, family 1  (quantize-bin-forward at receiver 2 first)
# ---------------------------------------------------------------------------

def inner1_alpha_polytope(ch, f, alpha1, variant="clipped", terms=None):
    """Achievable (R0,R1,R2) polytope for one factorization and one
    explicit link split alpha1 in [0,1].  terms: factorization_terms(ch,
    f) when the caller already has them."""
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError("alpha1 must lie in [0, 1]")
    t = terms or factorization_terms(ch, f)
    m1, m2, m3, m4, i0 = _caps1(t, ch.c12, ch.c21, alpha1, variant)
    return _inner_polytope(m2, m4, m1, m3, i0)


def alpha1_star(ch, f, terms=None):
    """The link split that dominates every other choice (all of the
    forward link once the quantizer description fits, else all of it
    to quantization).  Zero when there is no forward link at all."""
    if ch.c12 == 0.0:
        return 0.0
    t = terms or factorization_terms(ch, f)
    return min(t["h1_uy1_wy2"] / ch.c12, 1.0)


def inner1_polytope(ch, f):
    """The family-1 region with the link split already optimized out;
    right-hand sides are resolved to plain numbers."""
    t = factorization_terms(ch, f)
    c12, c21 = ch.c12, ch.c21
    row1 = min(t["uw_y1"] + c21 - t["h2_y2_uwy1"], t["uw_y1h2"])
    row2 = t["vw_y2"] + c12 - t["h1_uy1_vwy2"]
    mid3 = min(t["u_y1_w"] + c21 - t["h2_y2_uwy1"], t["u_y1h2_w"])
    mid4 = min(t["v_y2_w"] + c12 - t["h1_uy1_vwy2"], t["v_h1y2_w"])
    return _inner_polytope(row1, row2, mid3, mid4, t["u_v_w"])


# ---------------------------------------------------------------------------
# inner bounds, family 2  (decode-and-forward share at receiver 2 first)
# ---------------------------------------------------------------------------

def inner2_alpha_polytope(ch, f, alpha2, variant="clipped", terms=None):
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError("alpha2 must lie in [0, 1]")
    if not f.q2_on_w and f.q2 is not None:
        raise ValueError("family 2 wants q2 conditioned on (W, Y2)")
    t = terms or factorization_terms(ch, f)
    n1, n2, n3, n4, i0 = _caps2(t, ch.c12, ch.c21, alpha2, variant)
    return _inner_polytope(n1, n2, n3, n4, i0)


def alpha2_star(ch, f, terms=None):
    if ch.c21 == 0.0:
        return 0.0
    t = terms or factorization_terms(ch, f)
    return min(t["h2_y2_wy1"] / ch.c21, 1.0)


def inner2_polytope(ch, f):
    if not f.q2_on_w and f.q2 is not None:
        raise ValueError("family 2 wants q2 conditioned on (W, Y2)")
    t = factorization_terms(ch, f)
    c12, c21 = ch.c12, ch.c21
    row1 = t["uw_y1"] + c21 - t["h2_y2_uwy1"]
    row2 = t["vw_y2"]
    mid3 = min(t["u_y1_w"] + c21 - t["h2_y2_uwy1"], t["u_y1h2_w"])
    mid4 = min(t["v_y2_w"] + c12 - t["h1_uy1_vwy2"], t["v_h1y2_w"])
    return _inner_polytope(row1, row2, mid3, mid4, t["u_v_w"])


# ---------------------------------------------------------------------------
# the pre-elimination rate-splitting system
# ---------------------------------------------------------------------------

_SPLIT_VARS = ("R0", "R1", "R2", "R10", "R11", "R20", "R22", "B1", "B2")


def appendixB_system(ch, f, alpha1, variant="clipped", terms=None):
    """The family-1 scheme before projection: split rates (private
    parts R11/R22, reassigned parts R10/R20), bin indices B1/B2, the
    four decoding caps, and the Marton price as a lower bound on
    B1+B2.  Eliminating everything but (R0,R1,R2) must land exactly on
    inner1_alpha_polytope whenever the bin budget m1+m3 covers the
    common-layer price."""
    t = terms or factorization_terms(ch, f)
    m1, m2, m3, m4, i0 = _caps1(t, ch.c12, ch.c21, alpha1, variant)
    rows = [
        ({"R1": 1, "R10": -1, "R11": -1}, 0.0),
        ({"R1": -1, "R10": 1, "R11": 1}, 0.0),
        ({"R2": 1, "R20": -1, "R22": -1}, 0.0),
        ({"R2": -1, "R20": 1, "R22": 1}, 0.0),
        ({"R11": 1, "B1": 1}, m1),
        ({"R0": 1, "R10": 1, "R20": 1, "R11": 1, "B1": 1}, m2),
        ({"R22": 1, "B2": 1}, m3),
        ({"R0": 1, "R10": 1, "R20": 1, "R22": 1, "B2": 1}, m4),
        ({"B1": -1, "B2": -1}, -i0),
    ]
    rows += [({v: -1}, 0.0) for v in _SPLIT_VARS]
    return LinearSystem.from_rows(_SPLIT_VARS, rows)


# ---------------------------------------------------------------------------
# batch information terms for the grid sweeps
# ---------------------------------------------------------------------------

def _entropies(ch, p, names):
    """Marginal entropies (bits) of p(aux, x) T(y1, y2 | x) for a batch.

    p     -- (N, *aux_cards, X), one auxiliary axis per entry of names
    returns a dict of (N,) arrays keyed by an aux name ("" for none)
    followed by the outputs, for the aux subsets {none, each single
    name} and the output sets X, Y1, Y2, Y1Y2, XY1, XY2, XY1Y2 (and none
    for a named aux): "V", "UXY1", "Y1Y2", ...  It also holds the
    channel-only terms "Y1|X", "Y2|X", "Y1Y2|X" = sum_x p(x) H(Y | X=x).

    One GEMM of p against kron(aux marginalizer, channel block) yields
    every X-free marginal p(a), p(a,x), p(a,y1), p(a,y2), p(a,y1,y2);
    one xlog2x over that block and one GEMM against a -1 segment matrix
    turn them into entropies.  The terms with X and an output use
    H(A,X,Y) = H(A,X) + H(Y|X).
    """
    t = ch.transition
    nx = t.shape[0]
    cards = p.shape[1:-1]
    outs = {"": np.ones((nx, 1)), "X": np.eye(nx), "Y1": t.sum(axis=2),
            "Y2": t.sum(axis=1), "Y1Y2": t.reshape(nx, -1)}
    sels = {"": np.ones((int(np.prod(cards)), 1))}
    for i, name in enumerate(names):
        sel = np.ones((1, 1))
        for j, c in enumerate(cards):
            sel = np.kron(sel, np.eye(c) if j == i else np.ones((c, 1)))
        sels[name] = sel
    specs, blocks = [], []
    for a, sel in sels.items():
        for y, blk in outs.items():
            if a + y:
                specs.append(a + y)
                blocks.append(np.kron(sel, blk))
    widths = [b.shape[1] for b in blocks]
    seg = np.zeros((sum(widths), len(specs)))
    seg[np.arange(seg.shape[0]), np.repeat(np.arange(len(specs)), widths)] = -1.0
    marg = p.reshape(p.shape[0], -1) @ np.hstack(blocks)
    h = dict(zip(specs, seg.T @ xlog2x(marg).T))
    # the first block is p(x); given X the outputs ignore the aux
    ys = ("Y1", "Y2", "Y1Y2")
    rows = -np.stack([xlog2x(outs[y]).sum(axis=1) for y in ys], axis=1)
    for y, hy in zip(ys, (marg[:, :nx] @ rows).T):
        h[y + "|X"] = hy
        for a in sels:
            h[a + "X" + y] = h[a + "X"] + hy
    return h


# ---------------------------------------------------------------------------
# the bound table
# ---------------------------------------------------------------------------

class _AuxGrid:
    """Grid of P(aux..., x), one axis per auxiliary, each alphabet
    |X| + 2 unless the caller sizes it.  capped refuses larger alphabets
    (the converse never needs them).

    Only the points whose marginal on the first auxiliary is
    non-increasing are swept (gridding.sorted_grid_chunks, one part per
    letter of that auxiliary).  That loses nothing: every row priced is
    a sum of entropies of marginals of p(aux..., x, y1, y2), relabelling
    the first auxiliary only permutes the terms inside each of those
    entropies, and sorting its marginal maps every point of the full
    grid to a grid point with the same rows.  Each orbit keeps at least
    one point, so the envelope is the full grid's up to the order in
    which a point's entropies are summed."""

    step_key = "grid_step"

    def __init__(self, *aux, capped=False):
        self.cards = tuple(a + "_card" for a in aux)
        self.capped = capped

    def blocks(self, ch, step, cards):
        shape = tuple(cards.get(c) or ch.x_card + 2 for c in self.cards)
        if self.capped and max(shape) > ch.x_card + 2:
            raise ValueError("auxiliary alphabets larger than |X|+2 are never needed")
        n = _units(step)
        chunks = _budgeted_chunks(shape[0], int(np.prod(shape[1:])) * ch.x_card, step)
        return ((c.reshape(-1, *shape, ch.x_card) / n for c in chunks),
                dict(zip(self.cards, shape)))

    def point(self, ch, p):
        return np.asarray(p, dtype=float)[None, ...]


_OUTER_COEFFS = np.array([
    (1, 1, 0),
    (0, 1, 0), (0, 1, 0),
    (1, 0, 1),
    (0, 0, 1), (0, 0, 1),
    (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1),
], dtype=float)


def _outer_rows(h, ch):
    """Entropies of an (N, U, V, X) block -> (N, 11) converse rows."""
    c12, c21 = ch.c12, ch.c21
    iU_Y1 = h["U"] + h["Y1"] - h["UY1"]
    iV_Y2 = h["V"] + h["Y2"] - h["VY2"]
    iX_Y1 = h["X"] + h["Y1"] - h["XY1"]
    iX_Y2 = h["X"] + h["Y2"] - h["XY2"]
    iX_Y1_given_Y2V = h["VXY2"] + h["VY1Y2"] - h["VXY1Y2"] - h["VY2"]
    iX_Y2_given_Y1V = h["VXY1"] + h["VY1Y2"] - h["VXY1Y2"] - h["VY1"]
    iX_Y2_given_Y1U = h["UXY1"] + h["UY1Y2"] - h["UXY1Y2"] - h["UY1"]
    iX_Y1_given_Y2U = h["UXY2"] + h["UY1Y2"] - h["UXY1Y2"] - h["UY2"]
    iX_Y1_given_V = h["VX"] + h["VY1"] - h["VXY1"] - h["V"]
    iX_Y2_given_U = h["UX"] + h["UY2"] - h["UXY2"] - h["U"]
    iX_Y1Y2 = h["X"] + h["Y1Y2"] - h["XY1Y2"]
    return np.stack([
        iU_Y1 + c21,
        iX_Y1_given_Y2V + iX_Y2,
        iX_Y2_given_Y1V + iX_Y1,
        iV_Y2 + c12,
        iX_Y2_given_Y1U + iX_Y1,
        iX_Y1_given_Y2U + iX_Y2,
        iX_Y1_given_V + iV_Y2 + c12 + c21,
        iX_Y2_given_U + iU_Y1 + c12 + c21,
        iX_Y1_given_Y2V + iX_Y2 + c12,
        iX_Y2_given_Y1U + iX_Y1 + c21,
        iX_Y1Y2,
    ], axis=-1)


def _require_semi_det(ch, who):
    if not is_semi_deterministic(ch)[0]:
        raise InapplicableBoundError(
            "%s needs Y2 to be a function of (X, Y1) for this channel" % who)


def _t4_mi_batch(ch, pvx):
    """Batch MI terms for the degraded-message-set rows, plus
    H(Y2 | X, Y1) for the substitution sweeps.
    pvx: (N, V, X) -> dict of (N,) arrays."""
    h = _entropies(ch, pvx, ("V",))
    return {
        "v_y2": h["V"] + h["Y2"] - h["VY2"],
        "x_y1": h["X"] + h["Y1"] - h["XY1"],
        "x_y1_v": h["VX"] + h["VY1"] - h["VXY1"] - h["V"],
        "xj_v": h["VX"] + h["VY1Y2"] - h["VXY1Y2"] - h["V"],
        "x_j": h["X"] + h["Y1Y2"] - h["XY1Y2"],
        "y2_xy1": h["Y1Y2|X"] - h["Y1|X"],
    }


_T4_COEFFS = np.array([(1, 0)] + [(1, 1)] * 4, dtype=float)


def _t4_rows(joint_row):
    """Theorem 4's rows, with or without the joint-outputs row."""
    def rows(m, ch):
        c12, c21 = ch.c12, ch.c21
        out = [m["v_y2"] + c12,
               m["x_y1"] + c21,
               m["x_y1_v"] + m["v_y2"] + c12 + c21]
        if joint_row:
            out.append(m["xj_v"] + m["v_y2"] + c12)
        out.append(m["x_j"])
        return np.stack(out, axis=-1)
    return rows


def _t4_meta(joint_row):
    return lambda ch: {"c12": ch.c12, "c21": ch.c21, "include_joint_row": joint_row}


_T5_COEFFS = np.array([(1, 0, 1)] + [(1, 1, 1)] * 4, dtype=float)


def _t5_rows(m, ch):
    """Theorem 5's rows; the one-sided bound ignores c12."""
    return np.stack([m["v_y2"],
                     m["x_y1"] + ch.c21,
                     m["x_y1_v"] + m["v_y2"] + ch.c21,
                     m["xj_v"] + m["v_y2"],
                     m["x_j"]], axis=-1)


def _warn_theorem5(ch):
    if ch.c12 > 0:
        warnings.warn("one-sided bound: the channel's c12 is ignored")
    ev = more_capable_evidence(ch, grid_step=0.05)
    if ev["min_gap"] < -1e-9:
        warnings.warn("receiver 1 is not more capable near P(x)=%s "
                      "(gap %.3g); bound may not be the capacity region"
                      % (ev["argmin_px"], ev["min_gap"]))


def _inner_rows(family):
    """The t4_substitution plug-in (exact in the semi-deterministic
    case) priced by the family's region."""
    def rows(m, ch):
        pen2 = m["y2_xy1"]
        r1 = m["x_y1"] + ch.c21 - pen2
        if family == 1:
            r1 = np.minimum(r1, m["x_j"])
        r2 = m["v_y2"] + (ch.c12 if family == 1 else 0.0)
        r3 = np.minimum(m["x_y1_v"] + ch.c21 - pen2, m["xj_v"]) + r2
        return np.stack([r1, r2, r3, r1, r1 + r2], axis=-1)
    return rows


_PVX = _AuxGrid("v")

BOUNDS = {b.name: b for b in (
    Bound("outer", _RATE_VARS, _OUTER_COEFFS, _AuxGrid("u", "v", capped=True),
          _outer_rows, 0.25, terms=partial(_entropies, names=("U", "V"))),
    Bound("inner1", _RATE_VARS, _INNER_COEFFS, _PVX, _inner_rows(1), 0.1,
          terms=_t4_mi_batch, meta=lambda ch: {"family": 1}),
    Bound("inner2", _RATE_VARS, _INNER_COEFFS, _PVX, _inner_rows(2), 0.1,
          terms=_t4_mi_batch, meta=lambda ch: {"family": 2}),
    Bound("t4", ("R0", "R1"), _T4_COEFFS, _PVX, _t4_rows(True), 0.02,
          terms=_t4_mi_batch, checks=(_require_semi_det,), meta=_t4_meta(True)),
    Bound("cutset-fig3", ("R0", "R1"), _T4_COEFFS[:-1], _PVX, _t4_rows(False),
          0.02, terms=_t4_mi_batch, checks=(_require_semi_det,),
          meta=_t4_meta(False)),
    Bound("t5", _RATE_VARS, _T5_COEFFS, _PVX, _t5_rows, 0.05,
          terms=_t4_mi_batch, checks=(_require_semi_det,), warn=_warn_theorem5),
)}


# ---------------------------------------------------------------------------
# single-point evaluators and grid sweeps
# ---------------------------------------------------------------------------

def outer_polytope(ch, outer_aux):
    """Converse polytope for one P(u,v,x)."""
    return BOUNDS["outer"].polytope(ch, outer_aux.puvx)


def outer_envelope(ch, grid_step=None, u_card=None, v_card=None,
                   directions=None):
    """Support record of the converse region over the simplex grid of
    P(u,v,x), one point or more per relabelling of U (see _AuxGrid).
    Grid size explodes fast; the evaluation budget guard throws rather
    than letting a sweep run for days."""
    return BOUNDS["outer"].envelope(ch, grid_step, directions,
                                    u_card=u_card, v_card=v_card)


def theorem4_polytope(ch, pvx, include_joint_row=True):
    """Exact (R0, R1) region evaluator for semi-deterministic channels
    where only receiver 1 has a private message.  include_joint_row
    drops the one constraint that sees the two outputs jointly; what is
    left is the cut-set comparator that the region plots are judged
    against."""
    return BOUNDS["t4" if include_joint_row else "cutset-fig3"].polytope(ch, pvx)


def theorem4_envelope(ch, grid_step=None, v_card=None, include_joint_row=True,
                      directions=None):
    return BOUNDS["t4" if include_joint_row else "cutset-fig3"].envelope(
        ch, grid_step, directions, v_card=v_card)


def theorem4_envelope_multi(ch, configs, grid_step=None, v_card=None,
                            directions=None):
    """Sweep the P(v,x) grid once and price several (c12, c21,
    include_joint_row) configurations off the same mutual-information
    arrays.  This is what makes the side-by-side region plots cheap:
    the grid walk dominates and is shared."""
    return sweep([(BOUNDS["t4" if cfg.get("include_joint_row", True)
                         else "cutset-fig3"],
                   DmBroadcastChannel(ch.transition, cfg["c12"], cfg["c21"]))
                  for cfg in configs], grid_step, directions, v_card=v_card)


def theorem5_polytope(ch, pvx, warn_checks=True):
    """Exact (R0,R1,R2) evaluator for one-sided cooperation (link to
    receiver 1 only) on semi-deterministic channels whose first output
    is the stronger one.  Any c12 on the channel is ignored."""
    return BOUNDS["t5"].polytope(ch, pvx, warn=warn_checks)


def theorem5_envelope(ch, grid_step=None, v_card=None, directions=None):
    return BOUNDS["t5"].envelope(ch, grid_step, directions, v_card=v_card)


def inner1_envelope(ch, grid_step=None, v_card=None, directions=None):
    """Default search space for the family-1 inner bound: the
    substitution that is exact in the semi-deterministic case, swept
    over a P(v,x) grid.  Works (as a plain inner bound) for any
    discrete channel."""
    return BOUNDS["inner1"].envelope(ch, grid_step, directions, v_card=v_card)


def inner2_envelope(ch, grid_step=None, v_card=None, directions=None):
    return BOUNDS["inner2"].envelope(ch, grid_step, directions, v_card=v_card)


# ---------------------------------------------------------------------------
# primitive relay specialization
# ---------------------------------------------------------------------------

def primitive_relay_rate(ch, pwx, q1):
    """Largest known single-message rate when receiver 1 acts as a
    relay for receiver 2 over the forward link only: quantize the
    relay's observation (q1 = P(yh1|w,y1)) on top of a decoded layer W.
    c21 plays no role and is ignored."""
    pwx = np.asarray(pwx, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    j = np.einsum("wx,xab,wac->wxabc", pwx, ch.transition, q1, optimize=True)
    p = JointPmf(("W", "X", "Y1", "Y2", "Yh1"), j)
    mi = mutual_information
    pen = mi(p, ("Yh1",), ("Y1",), ("X", "W", "Y2"))
    t1 = mi(p, ("X",), ("Y2",)) + ch.c12 - pen
    t2 = mi(p, ("W",), ("Y1",)) + mi(p, ("X",), ("Yh1", "Y2"), ("W",))
    t3 = (mi(p, ("W",), ("Y1",)) + mi(p, ("X",), ("Y2",), ("W",))
          + ch.c12 - pen)
    return min(t1, t2, t3)
