"""Inner and outer bounds for the discrete memoryless broadcast channel
with bidirectional conferencing decoders.

The evaluators here turn one choice of auxiliary distribution into a
ConstraintPolytope over (R0, R1, R2) (or (R0, R1) for the
degraded-message-set results): the bound's fixed coefficient matrix and
one row of right-hand sides, stored as arrays.  appendixB_system is
the one general-sign LinearSystem.

BOUNDS is the table of the swept bounds (outer, inner1, inner2, t4,
cutset-fig3, t5), one regions.Bound each: a coefficient matrix, a grid
of P(aux..., x), the batch information terms of a grid block, a row
function of those terms, a default step and the applicability check.
BOUNDS[name].envelope(ch, step, directions, **cards) sweeps a bound's
simplex grid of auxiliaries and returns the pointwise-max support
record, i.e. the computable face of the union region; regions.sweep
walks one grid for several (bound, channel) entries at once, and
BOUNDS[name].polytope(ch, point) prices one grid point.
outer_polytope, theorem4_polytope and theorem5_polytope are thin calls
into the table, kept as the single-point API the benchmark's primal
oracle calls.  Each region's rows are written once: t5's are t4's at
c12 = 0, and each inner family's region is its split rows at the split
that dominates every other (_inner1_rows, _inner2_rows: _inner*_alpha_rhs
at alpha*_star), read off the terms below, a full factorization's in
inner1_polytope/inner2_polytope and the t4_substitution plug-in's
(_plug_in_terms) in the sweeps.  So the polytopes are the independent
oracle of the sweeps' terms, not of their rows.

A full factorization's rows read 13 mutual informations of its joint
p(u, v, w, x, y1, y2, yh1, yh2), and factorization_terms prices them for
a stack of R draws that share their alphabets at once.  One einsum forms
the (R, U, V, W, X, Y1, Y2, Yh1, Yh2) joints, letters uvwxabcd (a = Y1,
b = Y2, c = Yh1, d = Yh2).  Each of the 23 entropies the terms read
(_ENTROPIES), named by the letters of its marginal, is one axis sum, one
xlog2x and one row sum, and each term of _TERMS is four of them,
I(A; B | G) = H(AG) + H(BG) - H(ABG) - H(G).
Each entropy sums the joint's cells in the order info_core.entropy does
on compose_joint's table, so a draw's terms have matched
mutual_information's bit for bit on every draw tried; those two stay the
test oracle, held to 1e-12.  The split helpers (_caps1, _caps2, the _rhs
builders, alpha*_star) work elementwise, so a stack's rhs rows come out
as one (R, 5) array that batch_support prices in one call.

Two cooperation orders appear throughout:
  * inner1_*: receiver 2 quantizes first, receiver 1 then splits its
    link between decode-and-forward and quantize-bin-and-forward
    (split fraction alpha1, quantizer q2 = P(yh2|y2)).
  * inner2_*: the mirror order; receiver 2's quantizer may also depend
    on the common layer (q2 = P(yh2|w,y2), split fraction alpha2).

variant="clipped" keeps the {.}^+ on family 1's binning surpluses;
"tilde" drops it, which never enlarges the region for the optimal split
and is what the optimality checks use (a clipped row at alpha=0 can
otherwise poke above the optimized region); family 2's are "tilde".
Each family's region is its "tilde" rows at alpha*_star, where every
min of _caps1/_caps2 has a closed form, as Yh1 depends only on (U, W,
Y1) and Yh2 only on (W, Y2); tests/test_dm_bounds.py keeps it as oracle.

The grid sweeps take their information terms from one batch kernel,
_entropies.  Given X the outputs do not depend on the auxiliaries, so
H(Y | A, X) = H(Y | X) for any auxiliary A and output set Y, and
    I(X; Y | A) = H(Y | A) - H(Y | X),    I(A; Y) = H(Y) - H(Y | A),
with I(X; Y1 | Y2, A) = I(X; Y1Y2 | A) - I(X; Y2 | A) by the chain rule.
So the rows need only H(Y | A), H(Y) and H(Y | X) = sum_x p(x) H(Y | X=x)
for Y in {Y1, Y2, Y1Y2}: never H(A), H(X) or the joint p(a, x, y1, y2).
As p(a, y) = sum_x p(a, x) T_Y(y | x) involves only the row p(a, .) of
P(a, x), H(Y | A) = sum_a g_Y(p(a, .)) with g_Y(r) = f_Y(r) - f(r),
f_Y(r) = -sum_y xlog2x((r T_Y)_y) and f(r) = -xlog2x(sum_x r_x), and
H(Y) = g_Y(p(.)).  On a grid of step 1/n every such row -- a row
of P(v, x), of P(u, x) = sum_v P(u, v, x), or P(x) itself -- is a count
vector r over X with entries in 0 .. n, divided by n.  A sweep keys it
by its code c(r) = sum_j r_j (n + 1)^j, which is one to one on those
rows, and as no entry of a marginal exceeds n no digit carries, so a
marginal's code is the sum of its cells' codes.  The lattice table
prices all (n + 1)^|X| codes once, whatever the auxiliary alphabets are
(961 at n = 30 with binary X, against 54,857 points of the t4 grid with
|V| = 3), and a grid block reads its entropies by summing codes over
auxiliary axes and gathering and adding table columns.
"""

import functools
import warnings
from collections import namedtuple
from functools import partial
from types import SimpleNamespace

import numpy as np

from .channels import is_semi_deterministic, more_capable_evidence
from .gridding import _SWEEP_CHUNK, _count, _fit_budget, _units, sorted_grid_blocks
from .info_core import (MASS_TOL, MAX_CELLS, NEG_TOL, OUTPUTS, ROWS, JointPmf,
                        _check_mass, _check_rows, _price_rows, mutual_information,
                        xlog2x)
from .regions import Bound, Check, ConstraintPolytope, LinearSystem


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
    """P(u, v, x) for the converse side: a plain holder for
    outer_polytope's argument, kept because the benchmark's primal
    oracle builds it.  BOUNDS["outer"] checks the axes and the |X| + 2
    cap on the auxiliary alphabets."""

    def __init__(self, puvx):
        self.puvx = np.asarray(puvx, dtype=float)


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


def random_factorization(rng, ch, q2_on_w=False):
    """Dirichlet(1) draw of a full factorization with binary U, V and W.
    The quantizer alphabets are the channel's output alphabets, |Yh1| =
    |Y1| and |Yh2| = |Y2|."""
    aux = rng.dirichlet(np.ones(8 * ch.x_card)).reshape(2, 2, 2, ch.x_card)
    q1 = rng.dirichlet(np.ones(ch.y1_card), size=(2, 2, ch.y1_card))
    q2 = rng.dirichlet(np.ones(ch.y2_card), size=(2, ch.y2_card) if q2_on_w else ch.y2_card)
    return AuxFactorization(aux, q1=q1, q2=q2, q2_on_w=q2_on_w)


# ---------------------------------------------------------------------------
# mutual-information bookkeeping for a stack of factorizations
# ---------------------------------------------------------------------------

# The factorization joint's axes after the stack axis, one letter each as
# in compose_joint: u, v, w, x, then a = Y1, b = Y2, c = Yh1, d = Yh2.
_JOINT_AXES = "uvwxabcd"

# Each term I(A; B | G) = H(AG) + H(BG) - H(ABG) - H(G), as those four
# entropies (no H(G) when G is empty).
_TERMS = {
    "uw_y1": ("uw", "a", "uwa", None),                  # I(UW; Y1)
    "uw_y1h2": ("uw", "ad", "uwad", None),              # I(UW; Y1 Yh2)
    "u_y1_w": ("uw", "wa", "uwa", "w"),                 # I(U; Y1 | W)
    "u_y1h2_w": ("uw", "wad", "uwad", "w"),             # I(U; Y1 Yh2 | W)
    "vw_y2": ("vw", "b", "vwb", None),                  # I(VW; Y2)
    "vw_h1y2": ("vw", "bc", "vwbc", None),              # I(VW; Yh1 Y2)
    "v_y2_w": ("vw", "wb", "vwb", "w"),                 # I(V; Y2 | W)
    "v_h1y2_w": ("vw", "wbc", "vwbc", "w"),             # I(V; Yh1 Y2 | W)
    "h1_uy1_vwy2": ("vwbc", "uvwab", "uvwabc", "vwb"),  # I(Yh1; U Y1 | V W Y2)
    "h1_uy1_wy2": ("wbc", "uwab", "uwabc", "wb"),       # I(Yh1; U Y1 | W Y2)
    "h2_y2_uwy1": ("uwad", "uwab", "uwabd", "uwa"),     # I(Yh2; Y2 | U W Y1)
    "h2_y2_wy1": ("wad", "wab", "wabd", "wa"),          # I(Yh2; Y2 | W Y1)
    "u_v_w": ("uw", "vw", "uvw", "w"),                  # I(U; V | W)
}

# The entropies the terms read, each named by the letters of its marginal.
_ENTROPIES = tuple(dict.fromkeys(h for hs in _TERMS.values() for h in hs if h))


def _draws(fs):
    """The draws of fs: one AuxFactorization, or a sequence of them."""
    return [fs] if isinstance(fs, AuxFactorization) else list(fs)


def _check_stack(draws):
    """A stack's draws must share their alphabets and quantizer layout."""
    if not draws:
        raise ValueError("a stack needs at least one draw")
    layout = (("aux alphabets", lambda f: f.aux.shape),
              ("q2_on_w", lambda f: f.q2_on_w),
              ("q1 shape", lambda f: None if f.q1 is None else f.q1.shape),
              ("q2 shape", lambda f: None if f.q2 is None else f.q2.shape))
    for i, f in enumerate(draws[1:], 1):
        for what, get in layout:
            if get(f) != get(draws[0]):
                raise ValueError("a stack mixes %s: draw 0 has %s, draw %d has %s"
                                 % (what, get(draws[0]), i, get(f)))


def _check_masses(tables):
    """_check_mass on each (R, ...) table of a stack: the first draw that
    fails raises its own message."""
    flat = tables.reshape(len(tables), -1)
    bad = np.any(flat < -NEG_TOL, axis=1) | (np.abs(flat.sum(axis=1) - 1.0) > MASS_TOL)
    for table in tables[bad]:
        _check_mass(table)


def _joint_stack(ch, draws):
    """The (R, U, V, W, X, Y1, Y2, Yh1, Yh2) joints of a stack of draws:
    compose_joint's checks and product, draw by draw, with a stack axis.
    A None quantizer is constant."""
    _check_stack(draws)
    f = draws[0]
    r = len(draws)
    nu, nv, nw, nx = f.cards
    t = np.asarray(ch.transition, dtype=float)
    if t.shape[0] != nx:
        raise ValueError("channel input alphabet disagrees with aux X axis")
    ny1, ny2 = t.shape[1:]
    aux = np.stack([d.aux for d in draws])
    _check_masses(aux)
    q1 = (np.ones((r, nu, nw, ny1, 1)) if f.q1 is None
          else np.stack([d.q1 for d in draws]))
    q2 = (np.ones((r, nw, ny2, 1) if f.q2_on_w else (r, ny2, 1)) if f.q2 is None
          else np.stack([d.q2 for d in draws]))
    _check_rows(q1, "q1")
    _check_rows(q2, "q2")
    if not f.q2_on_w:
        q2 = np.broadcast_to(q2[:, None], (r, nw) + q2.shape[1:])
    cells = aux[0].size * ny1 * ny2 * q1.shape[-1] * q2.shape[-1]
    if cells > MAX_CELLS:
        raise ValueError("joint alphabet has %d cells, over the %d cap" % (cells, MAX_CELLS))
    # the operands in the order compose_joint's contraction multiplies
    # them, so a draw's joint is compose_joint's to the bit
    joint = np.einsum("rwbd,ruwac,xab,ruvwx->ruvwxabcd", q2, q1, t, aux)
    _check_masses(joint)
    return joint


def _snap(v):
    """v with its entries in (-NEG_TOL, 0), rounding's, snapped to 0."""
    return np.where((v > -NEG_TOL) & (v < 0.0), 0.0, v)


def factorization_terms(ch, fs):
    """All the mutual informations the inner-bound rows draw on, as a
    dict of the _TERMS names.  Computed once per factorization and shared
    by the polytope builders, the split optimizers, and the
    pre-elimination system so they can never drift apart numerically.

    fs -- one AuxFactorization, or a stack: a sequence of them sharing
          their alphabets and quantizer layout.  A stack of R draws gives
          each term as an (R,) array, and draw i's terms never depend on
          the other draws; one draw is priced as a stack of one and its
          terms come back as scalars.

    Each of the _ENTROPIES is one axis sum of the stacked joint, one
    xlog2x and one row sum, and each term a difference of them, snapped
    to 0 where rounding leaves it in (-NEG_TOL, 0)."""
    draws = _draws(fs)
    joint = _joint_stack(ch, draws)
    h = {}
    for key in _ENTROPIES:
        drop = tuple(1 + i for i, a in enumerate(_JOINT_AXES) if a not in key)
        marginal = joint.sum(axis=drop)
        h[key] = -xlog2x(marginal).reshape(len(draws), -1).sum(axis=1)
    terms = {}
    for name, (ag, bg, abg, g) in _TERMS.items():
        v = h[ag] + h[bg] - h[abg]
        if g:
            v -= h[g]
        terms[name] = _snap(v)
    if isinstance(fs, AuxFactorization):
        return {name: v[0] for name, v in terms.items()}
    return terms


def _caps1(t, c12, c21, alpha1, variant):
    """The four min-caps and the common-layer price for the
    quantize-first-at-2 scheme at link split alpha1, elementwise over
    stacked terms and splits."""
    z1 = alpha1 * c12 - t["h1_uy1_vwy2"]
    z2 = c21 - t["h2_y2_uwy1"]
    if variant == "clipped":
        z1, z2 = np.maximum(z1, 0.0), np.maximum(z2, 0.0)
    elif variant != "tilde":
        raise ValueError("variant must be 'clipped' or 'tilde'")
    df = (1.0 - alpha1) * c12
    m1 = np.minimum(t["u_y1_w"] + z2, t["u_y1h2_w"])
    m2 = np.minimum(t["uw_y1"] + z2, t["uw_y1h2"])
    m3 = np.minimum(t["v_y2_w"] + z1, t["v_h1y2_w"])
    m4 = np.minimum(t["vw_y2"] + z1, t["vw_h1y2"]) + df
    return m1, m2, m3, m4, t["u_v_w"]


def _caps2(t, c12, c21, alpha2):
    """Mirror bookkeeping for the decode-split-first-at-2 scheme, "tilde"."""
    e1 = c12 - t["h1_uy1_vwy2"]
    e2 = alpha2 * c21 - t["h2_y2_uwy1"]
    df = (1.0 - alpha2) * c21
    n1 = np.minimum(t["uw_y1"] + e2, t["uw_y1h2"]) + df
    n2 = t["vw_y2"]
    n3 = np.minimum(t["u_y1_w"] + e2, t["u_y1h2_w"])
    n4 = np.minimum(t["v_y2_w"] + e1, t["v_h1y2_w"])
    return n1, n2, n3, n4, t["u_v_w"]


_RATE_VARS = ("R0", "R1", "R2")

# The rows of every inner-bound region, family 1 or 2, split or resolved.
_INNER_COEFFS = np.array([
    (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 1, 1), (2, 1, 1)], dtype=float)


def _inner_rhs(row1, row2, sum1, sum2, i0):
    """The rhs of the inner region's _INNER_COEFFS rows: caps row1
    (R0+R1), row2 (R0+R2), and the two sum-row partners, less the
    Marton price i0.  (5,) for one draw's caps, (R, 5) for a stack's."""
    return np.stack([row1, row2, sum1 + row2 - i0, row1 + sum2 - i0, row1 + row2 - i0],
                    axis=-1)


def _check_split(alpha, name):
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError("%s must lie in [0, 1]" % name)


# ---------------------------------------------------------------------------
# inner bounds, family 1  (quantize-bin-forward at receiver 2 first)
# ---------------------------------------------------------------------------

def _inner1_alpha_rhs(ch, terms, alpha1, variant="clipped"):
    """The rhs of the _INNER_COEFFS rows of the achievable (R0,R1,R2)
    region for one factorization's terms, or a stack's, and one explicit
    link split alpha1 in [0,1] (or one per draw)."""
    _check_split(alpha1, "alpha1")
    m1, m2, m3, m4, i0 = _caps1(terms, ch.c12, ch.c21, alpha1, variant)
    return _inner_rhs(m2, m4, m1, m3, i0)


def alpha1_star(ch, terms):
    """The link split that dominates every other choice (all of the
    forward link once the quantizer description fits, else all of it
    to quantization).  Zero when there is no forward link at all.
    Elementwise over a stack's terms."""
    if ch.c12 == 0.0:
        return 0.0
    return np.minimum(terms["h1_uy1_wy2"] / ch.c12, 1.0)


def _inner1_rows(t, ch):
    """The family-1 "tilde" rhs at alpha1_star, of one draw's terms or a stack's."""
    return _inner1_alpha_rhs(ch, t, alpha1_star(ch, t), "tilde")


def inner1_polytope(ch, f):
    """The family-1 region of one factorization: its rows at alpha1_star."""
    return ConstraintPolytope(_RATE_VARS, _INNER_COEFFS,
                              _inner1_rows(factorization_terms(ch, f), ch))


# ---------------------------------------------------------------------------
# inner bounds, family 2  (decode-and-forward share at receiver 2 first)
# ---------------------------------------------------------------------------

def _inner2_alpha_rhs(ch, terms, alpha2):
    """The family-2 mirror of _inner1_alpha_rhs at split alpha2, "tilde"."""
    _check_split(alpha2, "alpha2")
    return _inner_rhs(*_caps2(terms, ch.c12, ch.c21, alpha2))


def alpha2_star(ch, terms):
    """The family-2 mirror of alpha1_star, over the backward link."""
    if ch.c21 == 0.0:
        return 0.0
    return np.minimum(terms["h2_y2_wy1"] / ch.c21, 1.0)


def _inner2_rows(t, ch):
    """The family-2 rhs at the dominant split alpha2_star."""
    return _inner2_alpha_rhs(ch, t, alpha2_star(ch, t))


def inner2_polytope(ch, f):
    """The family-2 region of one factorization, q2 on (W, Y2): its rows at alpha2_star."""
    if any(not d.q2_on_w and d.q2 is not None for d in _draws(f)):
        raise ValueError("family 2 wants q2 conditioned on (W, Y2)")
    return ConstraintPolytope(_RATE_VARS, _INNER_COEFFS,
                              _inner2_rows(factorization_terms(ch, f), ch))


# ---------------------------------------------------------------------------
# the pre-elimination rate-splitting system
# ---------------------------------------------------------------------------

_SPLIT_VARS = ("R0", "R1", "R2", "R10", "R11", "R20", "R22", "B1", "B2")


def appendixB_system(ch, terms, alpha1):
    """The family-1 scheme of one draw's terms before projection: split
    rates (private parts R11/R22, reassigned parts R10/R20), bin indices
    B1/B2, the four clipped decoding caps, and the Marton price as a
    lower bound on B1+B2.  Eliminating everything but (R0,R1,R2) must
    land exactly on the _INNER_COEFFS region at _inner1_alpha_rhs
    whenever the bin budget m1+m3 covers the common-layer price."""
    m1, m2, m3, m4, i0 = _caps1(terms, ch.c12, ch.c21, alpha1, "clipped")
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

class _Codes(namedtuple("_Codes", ("codes", "n"))):
    """A grid block as lattice codes: (*aux_cards, N) int32, the code of
    each row p(a, .) of its point times n.  _entropies prices them from
    the lattice table."""


def _gather(table, idx):
    """sum_j table[:, idx[j]]: the table rows' sums over the (k, N) index
    block idx, one column per point."""
    out = np.empty((table.shape[0], idx.shape[1]))
    for col, row in zip(out, table):
        np.take(row, idx[0], out=col)
        for i in idx[1:]:
            col += row[i]
    return out


def _marginals(q, k):
    """The marginals of the k auxiliaries of a (*aux_cards, N, ...) block,
    (a, N, ...) each, then P(x)'s as a one-letter marginal of the first,
    (1, N, ...).  Each sums whole leading axes, so a letter's cells are
    added in order."""
    others = [tuple(j for j in range(k) if j != i) for i in range(k)]
    margs = [q.sum(axis=axes) if axes else q for axes in others]
    return margs + [margs[0].sum(axis=0, keepdims=True)]


@functools.lru_cache(maxsize=4)
def _lattice_table(shape, data, n):
    """The row table (info_core._price_rows) of every row over X with
    entries in 0 .. n, divided by n, in the column of its code, for the
    transition with this shape and these bytes; the rows summing past n
    are priced but never read.  Read-only: every sweep at n shares it."""
    t = np.frombuffer(data).reshape(shape)
    nx = shape[0]
    size = (n + 1) ** nx
    table = np.empty((len(ROWS), size))
    for lo in range(0, size, _SWEEP_CHUNK):
        codes = np.arange(lo, min(lo + _SWEEP_CHUNK, size))
        rows = np.stack(np.unravel_index(codes, (n + 1,) * nx)[::-1], axis=1)
        table[:, codes] = _price_rows(t, rows / n)
    table.flags.writeable = False
    return table


def _entropies(ch, block, names):
    """Conditional output entropies (bits) of p(aux, x) T(y1, y2 | x)
    for a batch.

    block -- a float (N, *aux_cards, X) array, one auxiliary axis per
             entry of names, or a _Codes block of those points
    returns a dict of (N,) arrays, for each output set Y in OUTPUTS:
    "Y|A" = H(Y | A) for each auxiliary name A ("Y1|V", "Y1Y2|U", ...),
    "Y" = H(Y) and "Y|X" = H(Y | X) = sum_x p(x) H(Y | X=x).

    Every term is a sum of row-table entries (see the module docstring):
    for each name the rows p(a, .) of its marginal, then the one row
    p(x).  Both kinds of block take them by the same axis sums: a
    _Codes block sums codes and reads the lattice table at the sums; a
    float block sums rows, prices them letter by letter and reads them
    in order.
    """
    if isinstance(block, _Codes):
        t = ch.transition
        table = _lattice_table(t.shape, t.tobytes(), block.n)
        idx = _marginals(block.codes.astype(np.intp), len(names))   # 2x faster gathers
    else:
        rows = _marginals(np.moveaxis(np.asarray(block, float), 0, -2), len(names))
        table = _price_rows(ch.transition, np.concatenate(rows).reshape(-1, ch.x_card))
        idx = np.split(np.arange(table.shape[1]).reshape(-1, len(block)),
                       np.cumsum([len(r) for r in rows[:-1]]))
    h = dict(zip(ROWS, _gather(table, idx[-1])))      # H(Y), then H(Y | X)
    for a, i in zip(names, idx):
        h.update(zip((y + "|" + a for y in OUTPUTS), _gather(table[:len(OUTPUTS)], i)))
    return h


# ---------------------------------------------------------------------------
# the bound table
# ---------------------------------------------------------------------------

class _AuxGrid:
    """Grid of P(aux..., x), one axis per auxiliary, each alphabet
    |X| + 2 unless the caller sizes it.  capped refuses larger alphabets
    (the converse never needs them), in a grid and in a single point
    alike.

    One point per relabelling of the first auxiliary is swept
    (gridding.sorted_grid_blocks, one part per letter of it, whose cells
    are its rows over the other auxiliaries and X).  That loses nothing:
    every row priced is a sum of entropies of marginals of p(aux..., x,
    y1, y2), relabelling the first auxiliary only permutes the terms
    inside each of those entropies, so an orbit's points share their
    rows, and the sorted grid holds exactly one point of every orbit.
    The envelope is the full grid's up to the order in which a point's
    entropies are summed.  meta["points"] is the exact count swept.

    Blocks are _Codes, each part's rows over X gathered as lattice codes
    from its composition list and priced from the module docstring's
    lattice table, when its (n + 1)^|X| columns are no more than the
    sweep's auxiliary rows (points times the alphabets, summed); else (a
    one-letter auxiliary, a short sweep) the same lists' counts over n,
    as floats.  A single point must be a pmf with these axes."""

    step_key = "grid_step"

    def __init__(self, *aux, capped=False):
        self.cards = tuple(a + "_card" for a in aux)
        self.capped = capped

    def _check_cap(self, ch, shape):
        """The alphabets shape of a grid or a point against the cap."""
        if self.capped and max(shape) > ch.x_card + 2:
            raise ValueError("auxiliary alphabets larger than |X|+2 are never needed")

    def blocks(self, ch, step, cards):
        shape = tuple(cards.get(c) or ch.x_card + 2 for c in self.cards)
        self._check_cap(ch, shape)
        n, nx, cells = _units(step), ch.x_card, int(np.prod(shape[1:])) * ch.x_card
        size = _fit_budget(n, lambda m: _count(shape[0], cells, m))
        radix = (n + 1) ** np.arange(nx)        # a composition's rows over X -> codes
        if (n + 1) ** nx <= min(size * sum(shape), np.iinfo(np.int32).max):
            codes = lambda c: (c.reshape(len(c), -1, nx) @ radix).astype(np.int32)
            blocks = (_Codes(b.reshape(*shape, -1), n)
                      for b in sorted_grid_blocks(shape[0], cells, step, codes))
        else:
            blocks = (np.ascontiguousarray(np.moveaxis(b, -1, 0)).reshape(-1, *shape, nx) / n
                      for b in sorted_grid_blocks(shape[0], cells, step))
        return blocks, {**dict(zip(self.cards, shape)), "points": size}

    def point(self, ch, p):
        p = np.asarray(p, dtype=float)
        if p.ndim != len(self.cards) + 1 or p.shape[-1] != ch.x_card:
            raise ValueError("a point needs axes (%s, X) with |X| = %d, got shape %s"
                             % (", ".join(c[0].upper() for c in self.cards),
                                ch.x_card, p.shape))
        self._check_cap(ch, p.shape[:-1])
        _check_mass(p)
        return p[None, ...]


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
    iU_Y1 = h["Y1"] - h["Y1|U"]
    iV_Y2 = h["Y2"] - h["Y2|V"]
    iX_Y1 = h["Y1"] - h["Y1|X"]
    iX_Y2 = h["Y2"] - h["Y2|X"]
    iX_Y1_given_Y2V = h["Y1Y2|V"] - h["Y2|V"] - (h["Y1Y2|X"] - h["Y2|X"])
    iX_Y2_given_Y1V = h["Y1Y2|V"] - h["Y1|V"] - (h["Y1Y2|X"] - h["Y1|X"])
    iX_Y2_given_Y1U = h["Y1Y2|U"] - h["Y1|U"] - (h["Y1Y2|X"] - h["Y1|X"])
    iX_Y1_given_Y2U = h["Y1Y2|U"] - h["Y2|U"] - (h["Y1Y2|X"] - h["Y2|X"])
    iX_Y1_given_V = h["Y1|V"] - h["Y1|X"]
    iX_Y2_given_U = h["Y2|U"] - h["Y2|X"]
    iX_Y1Y2 = h["Y1Y2"] - h["Y1Y2|X"]
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


_SEMI_DET = Check(lambda ch: is_semi_deterministic(ch)[0],
                  "%s needs Y2 to be a function of (X, Y1) for this channel")


def _t4_mi_batch(ch, pvx):
    """Batch MI terms for the degraded-message-set rows, plus
    H(Y2 | X, Y1) for the substitution sweeps.
    pvx: (N, V, X) -> dict of (N,) arrays."""
    h = _entropies(ch, pvx, ("V",))
    return {
        "v_y2": h["Y2"] - h["Y2|V"],
        "x_y1": h["Y1"] - h["Y1|X"],
        "x_y1_v": h["Y1|V"] - h["Y1|X"],
        "xj_v": h["Y1Y2|V"] - h["Y1Y2|X"],
        "x_j": h["Y1Y2"] - h["Y1Y2|X"],
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
    """Theorem 4's rows at c12 = 0, which the one-sided bound ignores."""
    return _t4_rows(True)(m, SimpleNamespace(c12=0.0, c21=ch.c21))


def _warn_theorem5(ch):
    if ch.c12 > 0:
        warnings.warn("one-sided bound: the channel's c12 is ignored")
    ev = more_capable_evidence(ch)
    if ev["min_gap"] < -1e-9:
        warnings.warn("receiver 1 is not more capable near P(x)=%s "
                      "(gap %.3g); bound may not be the capacity region"
                      % (ev["argmin_px"], ev["min_gap"]))


def _plug_in_terms(m):
    """_t4_mi_batch's terms as the inner rows' terms at the t4_substitution
    plug-in (U = X, W = V, V and Yh1 constant, Yh2 = Y2; exact in the
    semi-deterministic case): eight survive, with h2_y2_wy1 = H(Y2 | V, Y1)
    snapped as factorization_terms snaps its terms, and the rest are 0."""
    return {"uw_y1": m["x_y1"], "uw_y1h2": m["x_j"], "u_y1_w": m["x_y1_v"],
            "u_y1h2_w": m["xj_v"], "vw_y2": m["v_y2"], "vw_h1y2": m["v_y2"],
            "h2_y2_uwy1": m["y2_xy1"], "u_v_w": 0.0,
            "h2_y2_wy1": _snap(m["xj_v"] - m["x_y1_v"] + m["y2_xy1"]),
            "v_y2_w": 0.0, "v_h1y2_w": 0.0, "h1_uy1_vwy2": 0.0, "h1_uy1_wy2": 0.0}


_PVX = _AuxGrid("v")

BOUNDS = {b.name: b for b in (
    Bound("outer", _RATE_VARS, _OUTER_COEFFS, _AuxGrid("u", "v", capped=True),
          _outer_rows, 0.25, terms=partial(_entropies, names=("U", "V"))),
    Bound("inner1", _RATE_VARS, _INNER_COEFFS, _PVX,
          lambda m, ch: _inner1_rows(_plug_in_terms(m), ch), 0.1,
          terms=_t4_mi_batch, meta=lambda ch: {"family": 1}),
    Bound("inner2", _RATE_VARS, _INNER_COEFFS, _PVX,
          lambda m, ch: _inner2_rows(_plug_in_terms(m), ch), 0.1,
          terms=_t4_mi_batch, meta=lambda ch: {"family": 2}),
    Bound("t4", ("R0", "R1"), _T4_COEFFS, _PVX, _t4_rows(True), 0.02,
          terms=_t4_mi_batch, checks=(_SEMI_DET,), meta=_t4_meta(True)),
    Bound("cutset-fig3", ("R0", "R1"), _T4_COEFFS[:-1], _PVX, _t4_rows(False),
          0.02, terms=_t4_mi_batch, checks=(_SEMI_DET,),
          meta=_t4_meta(False)),
    Bound("t5", _RATE_VARS, _T5_COEFFS, _PVX, _t5_rows, 0.05,
          terms=_t4_mi_batch, checks=(_SEMI_DET,), warn=_warn_theorem5),
)}


# ---------------------------------------------------------------------------
# single-point evaluators: thin calls into BOUNDS[name].polytope, which
# the package calls directly; kept as the benchmark oracle's API
# ---------------------------------------------------------------------------

def outer_polytope(ch, outer_aux):
    """Converse polytope for one P(u,v,x)."""
    return BOUNDS["outer"].polytope(ch, outer_aux.puvx)


def theorem4_polytope(ch, pvx, include_joint_row=True):
    """Exact (R0, R1) region evaluator for semi-deterministic channels
    where only receiver 1 has a private message.  include_joint_row
    drops the one constraint that sees the two outputs jointly; what is
    left is the cut-set comparator that the region plots are judged
    against."""
    return BOUNDS["t4" if include_joint_row else "cutset-fig3"].polytope(ch, pvx)


def theorem5_polytope(ch, pvx, warn_checks=True):
    """Exact (R0,R1,R2) evaluator for one-sided cooperation (link to
    receiver 1 only) on semi-deterministic channels whose first output
    is the stronger one.  Any c12 on the channel is ignored."""
    return BOUNDS["t5"].polytope(ch, pvx, warn=warn_checks)


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
