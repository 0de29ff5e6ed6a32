"""Bounds for the scalar Gaussian broadcast channel with conferencing
decoders: Y1 = aX + Z1, Y2 = bX + Z2, unit-variance noises with
correlation lam, input power P, receiver links c12/c21.

BOUNDS is the table of the swept bounds.  Each entry is a
regions.Bound: a coefficient matrix, a vectorised row function of the
power splits (alpha for receiver 1's side split, beta for the
superposition split) on a grid of split ticks 0, 1/n, ..., 1, a default
step and its applicability checks.  BOUNDS[name].polytope(ch, split)
prices one split and BOUNDS[name].envelope(ch, step, directions) sweeps
the ticks through regions.sweep; the *_polytope functions are thin
calls into the first, kept as the single-point API the benchmark's
primal oracle calls.  The standing labeling convention is |a| >= |b|
(receiver 1 is the stronger one); evaluators raise
InapplicableBoundError and tell you to swap the receivers when it fails
rather than silently relabeling.  A region that is another at a zero
link reads that one's rows: t8 and t10 are t7 and t9 less their R0 + R1
cap at c12 = 0 (their own check), and df is t7 at c21 = 0.

kappa(a, b, lam) is the combined-output SNR slope; at |lam| = 1 and
misaligned gains it is infinite, and every row that prices the combined
output goes absent (rhs = +inf) rather than pretending the genie sees
noise.
"""

import functools
import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from .channels import kappa
from .errors import InapplicableBoundError
from .gridding import _SWEEP_CHUNK, _fit_budget, _units
from .regions import Bound, Check

_RATE3 = ("R0", "R1", "R2")
_RATE2 = ("R0", "R1")


def psi(x):
    """One-shot Gaussian rate: 0.5 * log2(1 + x), elementwise, with
    psi(inf) = inf."""
    return 0.5 * np.log2(1.0 + np.asarray(x, dtype=float))


def _residual(snr_slope, power, frac):
    """psi of the leftover-layer SNR: (1-frac)*g*P / (frac*g*P + 1)."""
    g = snr_slope * power
    return psi((1.0 - frac) * g / (frac * g + 1.0))


_ORDERED = Check(lambda ch: np.abs(ch.a) >= np.abs(ch.b),
                 "%s assumes |a| >= |b|; swap the receiver labels and retry")
_NO_FORWARD_LINK = Check(lambda ch: ch.c12 == 0.0, "%s needs c12 = 0")


def _stack_rows(*rows):
    """Per-split row values (arrays or split-free scalars) -> (N, m)."""
    out = np.empty(np.broadcast(*rows).shape + (len(rows),))
    for j, row in enumerate(rows):
        out[..., j] = row
    return out


def _kappa_psi(k, frac, power):
    """psi(frac * k * P) with the absent-row convention: +inf wherever
    the combined-output slope k is infinite, for every frac.
    Elementwise; an infinite k never meets a zero frac, so no NaN is
    formed."""
    absent = np.isinf(k)
    return np.where(absent, math.inf, psi(frac * np.where(absent, 0.0, k) * power))


class _Splits:
    """Every combination of ticks 0, 1/n, ..., 1 of the named splits, the
    last name fastest, in (<= _SWEEP_CHUNK, len(names)) blocks gathered
    from the ticks; meta["points"] is their count.  weak_at_zero: when
    |a| < |b| the region is its beta = 0 slice, so the grid is that one
    point.  A single point is one value in [0, 1] per name."""

    cards = ()

    def __init__(self, *names, step_key="beta_step", weak_at_zero=False):
        self.names = names
        self.step_key = step_key
        self.weak_at_zero = weak_at_zero

    def blocks(self, ch, step, cards):
        if self.weak_at_zero and abs(ch.a) < abs(ch.b):
            return [np.zeros((1, 1))], {"points": 1}
        k, n = len(self.names), _units(step)
        size = _fit_budget(n, lambda m: ((m + 1) ** k, True))
        ticks = _ticks(step)        # built only once the budget admits the grid
        return (ticks[np.column_stack(np.unravel_index(
                    np.arange(lo, min(lo + _SWEEP_CHUNK, size)), (n + 1,) * k))]
                for lo in range(0, size, _SWEEP_CHUNK)), {"points": size}

    def point(self, ch, p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.shape != (len(self.names),):
            raise ValueError("a point needs one value per split (%s), got shape %s"
                             % (", ".join(self.names), p.shape))
        for name, v in zip(self.names, p):
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must lie in [0, 1]" % name)
        if self.weak_at_zero and abs(ch.a) < abs(ch.b):
            return np.zeros((1, 1))
        return p[None, :]


def _ticks(step):
    return np.linspace(0.0, 1.0, _units(step) + 1)


# ---------------------------------------------------------------------------
# converse region
# ---------------------------------------------------------------------------

_OUTER_COEFFS_G = np.array([
    (1, 1, 0),   # common + private-1, side-split alpha
    (0, 1, 0),   # private-1, combined-output assisted
    (1, 0, 1),   # common + private-2, split beta
    (0, 0, 1),   # private-2, combined-output assisted
    (1, 1, 1),   # sum, direct outputs at split beta
    (1, 1, 1),   # sum, combined output at split beta
    (1, 1, 1),   # sum, combined output at split alpha
    (1, 1, 1),   # sum, full cooperation cut
], dtype=float)


def _outer_rows_g(split, ch):
    """(N, 2) (alpha, beta) splits -> (N, 8) right-hand sides."""
    a2, b2, p = ch.a * ch.a, ch.b * ch.b, ch.power
    c12, c21 = ch.c12, ch.c21
    alpha, beta = split[:, 0], split[:, 1]
    k = kappa(ch.a, ch.b, ch.lam)
    kpsi_a, kpsi_b = _kappa_psi(k, alpha, p), _kappa_psi(k, beta, p)
    res1_a = _residual(a2, p, alpha)
    res2_a, res2_b = _residual(b2, p, alpha), _residual(b2, p, beta)
    return _stack_rows(
        res1_a + c21,
        kpsi_b + res2_b,
        res2_b + c12,
        kpsi_a + res2_a,
        psi(beta * a2 * p) + res2_b + c12 + c21,
        kpsi_b + res2_b + c12,
        kpsi_a + res1_a + c21,
        _kappa_psi(k, 1.0, p))


# ---------------------------------------------------------------------------
# exact capacity regions at perfectly correlated noises
# ---------------------------------------------------------------------------

# The exact results need |lam| = 1 with misaligned gains (so the two
# outputs together reveal X): they do not cover the aligned (physically
# degraded) case.
_SEPARABLE = (
    Check(lambda ch: np.abs(ch.lam) == 1.0, "%s needs |lam| = 1"),
    Check(lambda ch: np.abs(ch.b - ch.lam * ch.a) > 1e-12 * np.maximum(1.0, np.abs(ch.a)),
          "%s does not apply when b = lam * a (one output degrades the other)"))


def _beta_terms(ch, split):
    """The terms of an (N, 1) block of superposition splits beta that
    every single-split bound prices: the weaker receiver's residual
    layer, receiver 1's direct rate and its rate for the top layer."""
    a2, p, beta = ch.a * ch.a, ch.power, split[:, 0]
    return {"beta": beta, "resid": _residual(ch.b * ch.b, p, beta),
            "direct": psi(a2 * p), "layered": psi(beta * a2 * p)}


_T7_COEFFS = np.array([(1, 0), (1, 1), (1, 1)], dtype=float)


def _t7_rows(t, ch):
    return _stack_rows(t["resid"] + ch.c12,
                       t["direct"] + ch.c21,
                       t["layered"] + t["resid"] + ch.c12 + ch.c21)


_T8_COEFFS = np.array([(1, 0, 1), (1, 1, 1)], dtype=float)


def _t8_rows(t, ch):
    """t7's rows less its R0 + R1 cap, at c12 = 0 (t8's only case)."""
    return _t7_rows(t, ch)[:, [0, 2]]


# ---------------------------------------------------------------------------
# approximate capacity at partially correlated noises
# ---------------------------------------------------------------------------

def _q_slope(ch):
    return 0.5 * (kappa(ch.a, ch.b, ch.lam) + ch.a * ch.a)


_PARTIAL = Check(lambda ch: np.abs(ch.lam) < 1.0, "%s needs |lam| < 1")


_T9_COEFFS = np.array([(1, 0), (1, 1), (1, 1), (1, 1), (1, 1)], dtype=float)


def _t9_rows(t, ch):
    qp = _q_slope(ch) * ch.power
    c21_eff = np.maximum(ch.c21 - 0.5, 0.0)
    return _stack_rows(t["resid"] + ch.c12,
                       t["direct"] + c21_eff,
                       psi(qp),
                       t["layered"] + t["resid"] + c21_eff + ch.c12,
                       psi(t["beta"] * qp) + t["resid"] + ch.c12)


_T10_COEFFS = np.array([(1, 0, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)], dtype=float)


def _t10_rows(t, ch):
    """t9's rows less its R0 + R1 cap, at c12 = 0 (t10's only case)."""
    return _t9_rows(t, ch)[:, [0, 2, 3, 4]]


# ---------------------------------------------------------------------------
# decode-and-forward inner bound
# ---------------------------------------------------------------------------

_DF_COEFFS = np.array([(1, 0, 1), (1, 1, 1), (1, 1, 1)], dtype=float)


def _df_rows(t, ch):
    """t7's rows at c21 = 0."""
    return _t7_rows(t, SimpleNamespace(c12=ch.c12, c21=0.0))


_BETA = _Splits("beta")

BOUNDS = {b.name: b for b in (
    Bound("outer", _RATE3, _OUTER_COEFFS_G,
          _Splits("alpha", "beta", step_key="param_step"), _outer_rows_g, 0.01,
          checks=(_ORDERED,)),
    Bound("t7", _RATE2, _T7_COEFFS, _Splits("beta", weak_at_zero=True),
          _t7_rows, 1e-3, terms=_beta_terms, checks=_SEPARABLE),
    Bound("t8", _RATE3, _T8_COEFFS, _BETA, _t8_rows, 1e-3, terms=_beta_terms,
          checks=_SEPARABLE + (_ORDERED, _NO_FORWARD_LINK)),
    Bound("t9", _RATE2, _T9_COEFFS, _BETA, _t9_rows, 1e-3, terms=_beta_terms,
          checks=(_PARTIAL, _ORDERED)),
    Bound("t10", _RATE3, _T10_COEFFS, _BETA, _t10_rows, 1e-3, terms=_beta_terms,
          checks=(_PARTIAL, _ORDERED, _NO_FORWARD_LINK)),
    Bound("df", _RATE3, _DF_COEFFS, _BETA, _df_rows, 1e-2, terms=_beta_terms,
          checks=(_ORDERED,)),
)}


# ---------------------------------------------------------------------------
# single-split polytopes: thin calls into BOUNDS[name].polytope, which
# the package calls directly; kept as the benchmark oracle's API
# ---------------------------------------------------------------------------

def outer_polytope_g(ch, alpha, beta):
    """Converse polytope at one (alpha, beta) split pair."""
    return BOUNDS["outer"].polytope(ch, (alpha, beta))


def capacity_t7_polytope(ch, beta):
    """Exact (R0, R1) region slice at one superposition split, for the
    degraded-message-set channel with perfectly correlated noises.  The
    weaker-first-receiver case collapses to the beta = 0 slice (the
    cut-set shape), and the evaluator does that for you."""
    return BOUNDS["t7"].polytope(ch, beta)


def capacity_t8_polytope(ch, beta):
    """Exact (R0, R1, R2) region slice for one-sided cooperation toward
    the stronger receiver (c12 must be zero) at perfectly correlated
    noises."""
    return BOUNDS["t8"].polytope(ch, beta)


def approx_t9_polytope(ch, beta):
    """(R0, R1) region achievable within half a bit per row of the
    converse when the noises are only partially correlated.  The
    backhaul toward the weaker receiver pays a half-bit quantization
    toll: c21 enters as {c21 - 1/2}^+."""
    return BOUNDS["t9"].polytope(ch, beta)


def approx_t10_polytope(ch, beta):
    """Triple-rate analogue of the half-bit result for one-sided
    cooperation (c12 must be zero)."""
    return BOUNDS["t10"].polytope(ch, beta)


def df_inner_polytope(ch, beta):
    """Plain decode-and-forward superposition region at one split: the
    stronger receiver decodes everything, so no combined-output term
    ever appears.  Valid for every noise correlation."""
    return BOUNDS["df"].polytope(ch, beta)


# ---------------------------------------------------------------------------
# distance between decode-and-forward and the converse
# ---------------------------------------------------------------------------


def gap_bound_t11(lam):
    """Worst-case converse-to-decode-and-forward distance per row, in
    bits, at noise correlation lam: half a log of 2/(1 - |lam|).
    Infinite at |lam| = 1 (the combined output becomes noiseless and
    decode-and-forward cannot chase it)."""
    if abs(lam) >= 1.0:
        return math.inf
    return 0.5 * math.log2(2.0 / (1.0 - abs(lam)))


def _df_gap_bits(ch):
    """The decode-and-forward claim: gap_bound_t11, at lam^2 in place of
    |lam| (never larger) when lam * a * b >= 0."""
    return gap_bound_t11(ch.lam ** 2 if ch.lam * ch.a * ch.b >= 0.0 else ch.lam)


# The paper's three gap claims: (section, inner bound, required bits,
# pairs), each pair (inner label, inner row, outer label, outer row) with
# row indices into BOUNDS[inner].rows and BOUNDS["outer"].rows.
_GAP_PAIRS = (
    ("half-bit-two-sided", "t9", lambda ch: 0.5, (
        ("r0-split", 0, "common-private2-split", 2),
        ("sum-direct-cap", 1, "common-private1-side", 0),
        ("sum-combined-cap", 2, "full-cooperation-cut", 7),
        ("sum-direct-split", 3, "sum-direct-split", 4),
        ("sum-combined-split", 4, "sum-combined-split", 5))),
    ("half-bit-one-sided", "t10", lambda ch: 0.5, (
        ("common-private2-split", 0, "common-private2-split", 2),
        ("sum-combined-cap", 1, "full-cooperation-cut", 7),
        ("sum-direct-split", 2, "sum-direct-split", 4),
        ("sum-combined-split", 3, "sum-combined-split", 5))),
    ("decode-forward-vs-converse", "df", _df_gap_bits, (
        ("common-private2-split", 0, "common-private2-split", 2),
        ("sum-direct-cap", 1, "full-cooperation-cut", 7),
        ("sum-direct-split", 2, "sum-combined-split", 5))),
)


# Channel x tick rows priced per block of gap_certificates: a row
# function keeps a dozen row-long temporaries alive, so this bounds the
# block's memory near half a MiB of rows (about 40 channels at the default
# step) while leaving few enough blocks that numpy's per-call cost stays
# small.
_GAP_BLOCK_ROWS = 1 << 12


def gap_certificate(ch, beta_step=0.01):
    """Row-by-row distance certificates between the converse and each
    approximate/inner region, maximized over the split grid: the
    one-channel case of gap_certificates, which documents the result."""
    return gap_certificates([ch], beta_step)[0]


def gap_certificates(channels, beta_step=0.01):
    """gap_certificate of every channel in a list, priced together.

    Each section of _GAP_PAIRS whose inner bound (t9, t10 or df) admits
    the channel pairs its rows at split beta with BOUNDS["outer"] rows at
    (alpha, beta) = (0, beta): gap = outer - inner, maximized over the
    ticks of beta_step; worst_beta is the first tick attaining it (for a
    gap constant in beta, where rounding peaks).  The gaps, slacks and
    verdicts are those of gap_table, which documents how they are priced.

    Returns one dict per channel, in order: {"channel", "beta_step",
    "sections": [{name, required_bits, pairs: [{inner_row, outer_row,
    gap_bits, worst_beta, required_bits, slack_bits}], pass}], "pass"}.
    slack = required - gap, so every slack >= 0 means the advertised
    approximation factors really hold for that channel.
    """
    channels = list(channels)
    labels = {name: (tuple(p[0] for p in pairs), tuple(p[2] for p in pairs))
              for name, _, _, pairs in _GAP_PAIRS}
    sections = [[] for _ in channels]
    for blk in gap_table(channels, beta_step):
        labels_in, labels_out = labels[blk.name]
        for i, req, gaps, worst, slack, ok in zip(
                blk.members.tolist(), blk.required.tolist(), blk.gaps.tolist(),
                blk.worst.tolist(), blk.slack.tolist(), blk.passed.tolist()):
            pairs = [{"inner_row": li, "outer_row": lo, "gap_bits": g, "worst_beta": w,
                      "required_bits": req, "slack_bits": sl}
                     for li, lo, g, w, sl in zip(labels_in, labels_out, gaps, worst, slack)]
            sections[i].append({"name": blk.name, "required_bits": req, "pairs": pairs,
                                "pass": ok})
    return [{"channel": ch.to_json_dict(), "beta_step": beta_step, "sections": secs,
             "pass": all(s["pass"] for s in secs)}
            for ch, secs in zip(channels, sections)]


_GapBlock = namedtuple("_GapBlock", ("name", "members", "required", "gaps", "worst",
                                     "slack", "passed"))

# the least slack a pair passes with: rounding in the rows, not a gap
_SLACK_TOL = -1e-9


def gap_table(channels, beta_step=0.01):
    """The gaps of gap_certificates as arrays: one _GapBlock per priced
    block and section, in order, with

    name     -- the section's name in _GAP_PAIRS
    members  -- (M,) indices into channels of the block's channels that
                the section's inner bound admits
    required -- (M,) the section's required bits for each of them
    gaps     -- (M, P) outer - inner row of each of the section's P pairs,
                maximized over the beta ticks
    worst    -- (M, P) the first tick attaining each maximum
    slack    -- (M, P) required - gaps, +inf where required is +inf
    passed   -- (M,) whether every slack of the channel is >= _SLACK_TOL

    The checks read one stand-in of every channel (_channel_stack),
    elementwise: all must have |a| >= |b| before anything is priced,
    and a section admits the channels where all its inner bound's
    Bound.checks hold.  The stand-in has c12 = 0, and so do the rows:
    that is exact, as both rows of every t9 and df pair carry c12 alike,
    and t10 needs c12 = 0.  The channels are grouped by the sections
    they admit, and each group is priced in blocks of channel x tick
    rows (_GAP_BLOCK_ROWS, or one channel's ticks if more): the BOUNDS
    row functions run once per block on a stand-in whose fields are
    per-row arrays, so the arithmetic of every row is the one a single
    channel gets, and the gaps are the same values as one channel at a
    time.  Each channel sits in one block, so its sections come in
    _GAP_PAIRS order.
    """
    channels = list(channels)
    every = _channel_stack(channels, 1)
    if not np.all(_ORDERED.holds(every)):
        raise InapplicableBoundError(_ORDERED.why % "gap_certificate")
    admitted = np.column_stack([
        functools.reduce(np.logical_and, [c.holds(every) for c in BOUNDS[inner].checks])
        for _, inner, _, _ in _GAP_PAIRS])
    groups = {}
    for i, key in enumerate(map(tuple, admitted.tolist())):
        groups.setdefault(key, []).append(i)
    betas = _ticks(beta_step)
    per_block = max(1, _GAP_BLOCK_ROWS // betas.size)
    table = []
    for admits, group in groups.items():
        for lo in range(0, len(group), per_block):
            members = group[lo:lo + per_block]
            stack = _channel_stack([channels[i] for i in members], betas.size)
            split = np.tile(betas, len(members))[:, None]
            terms = _beta_terms(stack, split)
            outer = BOUNDS["outer"].rows(np.column_stack([np.zeros_like(split), split]),
                                         stack)
            for (name, inner, required, pairs), ok in zip(_GAP_PAIRS, admits):
                if not ok:
                    continue
                _, rows_in, _, rows_out = zip(*pairs)
                gaps = (outer[:, list(rows_out)]
                        - BOUNDS[inner].rows(terms, stack)[:, list(rows_in)]).reshape(
                            len(members), betas.size, len(pairs))
                req = np.array([required(channels[i]) for i in members])
                top = gaps.max(axis=1)
                unbounded = np.isinf(req)[:, None]
                slack = np.where(unbounded, math.inf,
                                 req[:, None] - np.where(unbounded, 0.0, top))
                table.append(_GapBlock(name, np.array(members), req, top,
                                       betas[gaps.argmax(axis=1)], slack,
                                       np.all(slack >= _SLACK_TOL, axis=1)))
    return table


def _channel_stack(channels, ticks):
    """A stand-in channel for the checks and the row functions: each
    field an array holding every channel's value ticks times in a row,
    channel-major; c12 is 0, as in every row gap_table prices."""
    def field(name):
        return np.repeat([getattr(ch, name) for ch in channels], ticks)
    return SimpleNamespace(a=field("a"), b=field("b"), lam=field("lam"),
                           power=field("power"), c12=0.0, c21=field("c21"))
