"""Bounds for the scalar Gaussian broadcast channel with conferencing
decoders: Y1 = aX + Z1, Y2 = bX + Z2, unit-variance noises with
correlation lam, input power P, receiver links c12/c21.

BOUNDS is the table of the swept bounds.  Each entry is a
regions.Bound: a coefficient matrix, a vectorised row function of the
power splits (alpha for receiver 1's side split, beta for the
superposition split) on a grid of split ticks 0, 1/n, ..., 1, a default
step and its applicability checks.  *_polytope prices one split and
*_envelope sweeps the ticks through regions.sweep.  The standing
labeling convention is |a| >= |b| (receiver 1 is the stronger one);
evaluators raise InapplicableBoundError and tell you to swap the
receivers when it fails rather than silently relabeling.

kappa(a, b, lam) is the combined-output SNR slope; at |lam| = 1 and
misaligned gains it is infinite, and every row that prices the combined
output goes absent (rhs = +inf) rather than pretending the genie sees
noise.
"""

import math

import numpy as np

from .channels import kappa
from .errors import InapplicableBoundError
from .gridding import _units
from .regions import Bound

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


def _require_ordered(ch, who):
    if abs(ch.a) < abs(ch.b):
        raise InapplicableBoundError(
            "%s assumes |a| >= |b|; swap the receiver labels and retry" % who)


def _require_no_forward_link(ch, who):
    if ch.c12 != 0.0:
        raise InapplicableBoundError("%s needs c12 = 0" % who)


def _stack_rows(*rows):
    """Per-split row values (arrays or split-free scalars) -> (N, m)."""
    return np.stack(np.broadcast_arrays(*rows), axis=-1)


def _kappa_psi(ch, frac, power):
    """psi(frac * kappa * P) with the absent-row convention: +inf for
    every frac whenever kappa is infinite."""
    k = kappa(ch.a, ch.b, ch.lam)
    if math.isinf(k):
        return np.full(np.shape(frac) or (), np.inf) if np.ndim(frac) else math.inf
    return psi(np.asarray(frac) * k * power)


class _Splits:
    """Every combination of ticks 0, 1/n, ..., 1 of the named splits, as
    (N, len(names)) blocks.  weak_at_zero: when |a| < |b| the region is
    its beta = 0 slice, so the grid is that one point."""

    cards = ()

    def __init__(self, *names, step_key="beta_step", weak_at_zero=False):
        self.names = names
        self.step_key = step_key
        self.weak_at_zero = weak_at_zero

    def blocks(self, ch, step, cards):
        if self.weak_at_zero and abs(ch.a) < abs(ch.b):
            return [np.zeros((1, 1))], {}
        grid = np.meshgrid(*[_ticks(step)] * len(self.names), indexing="ij")
        return [np.column_stack([g.ravel() for g in grid])], {}

    def point(self, ch, p):
        if self.weak_at_zero and abs(ch.a) < abs(ch.b):
            return np.zeros((1, 1))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        for name, v in zip(self.names, p):
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must lie in [0, 1]" % name)
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
    kpsi_a = _kappa_psi(ch, alpha, p)
    kpsi_b = _kappa_psi(ch, beta, p)
    kcut = math.inf if math.isinf(k) else float(psi(k * p))
    return np.stack([
        _residual(a2, p, alpha) + c21,
        kpsi_b + _residual(b2, p, beta),
        _residual(b2, p, beta) + c12,
        kpsi_a + _residual(b2, p, alpha),
        psi(beta * a2 * p) + _residual(b2, p, beta) + c12 + c21,
        kpsi_b + _residual(b2, p, beta) + c12,
        kpsi_a + _residual(a2, p, alpha) + c21,
        np.full(alpha.shape, kcut),
    ], axis=-1)


# ---------------------------------------------------------------------------
# exact capacity regions at perfectly correlated noises
# ---------------------------------------------------------------------------

def _require_separable(ch, who):
    """The exact results need |lam| = 1 with misaligned gains (so the
    two outputs together reveal X): they do not cover the aligned
    (physically degraded) case."""
    if abs(ch.lam) != 1.0:
        raise InapplicableBoundError("%s needs |lam| = 1" % who)
    if abs(ch.b - ch.lam * ch.a) <= 1e-12 * max(1.0, abs(ch.a)):
        raise InapplicableBoundError(
            "%s does not apply when b = lam * a (one output degrades the other)" % who)


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
    return _stack_rows(t["resid"], t["layered"] + t["resid"] + ch.c21)


# ---------------------------------------------------------------------------
# approximate capacity at partially correlated noises
# ---------------------------------------------------------------------------

def _q_slope(ch):
    return 0.5 * (kappa(ch.a, ch.b, ch.lam) + ch.a * ch.a)


def _require_partial(ch, who):
    if abs(ch.lam) >= 1.0:
        raise InapplicableBoundError("%s needs |lam| < 1" % who)


_T9_COEFFS = np.array([(1, 0), (1, 1), (1, 1), (1, 1), (1, 1)], dtype=float)


def _t9_rows(t, ch):
    qp = _q_slope(ch) * ch.power
    c21_eff = max(ch.c21 - 0.5, 0.0)
    return _stack_rows(t["resid"] + ch.c12,
                       t["direct"] + c21_eff,
                       psi(qp),
                       t["layered"] + t["resid"] + c21_eff + ch.c12,
                       psi(t["beta"] * qp) + t["resid"] + ch.c12)


_T10_COEFFS = np.array([(1, 0, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)], dtype=float)


def _t10_rows(t, ch):
    qp = _q_slope(ch) * ch.power
    c21_eff = max(ch.c21 - 0.5, 0.0)
    return _stack_rows(t["resid"],
                       psi(qp),
                       t["layered"] + t["resid"] + c21_eff,
                       psi(t["beta"] * qp) + t["resid"])


# ---------------------------------------------------------------------------
# decode-and-forward inner bound
# ---------------------------------------------------------------------------

_DF_COEFFS = np.array([(1, 0, 1), (1, 1, 1), (1, 1, 1)], dtype=float)


def _df_rows(t, ch):
    return _stack_rows(t["resid"] + ch.c12,
                       t["direct"],
                       t["layered"] + t["resid"] + ch.c12)


_BETA = _Splits("beta")

BOUNDS = {b.name: b for b in (
    Bound("outer", _RATE3, _OUTER_COEFFS_G,
          _Splits("alpha", "beta", step_key="param_step"), _outer_rows_g, 0.01,
          checks=(_require_ordered,)),
    Bound("t7", _RATE2, _T7_COEFFS, _Splits("beta", weak_at_zero=True),
          _t7_rows, 1e-3, terms=_beta_terms, checks=(_require_separable,)),
    Bound("t8", _RATE3, _T8_COEFFS, _BETA, _t8_rows, 1e-3, terms=_beta_terms,
          checks=(_require_separable, _require_ordered, _require_no_forward_link)),
    Bound("t9", _RATE2, _T9_COEFFS, _BETA, _t9_rows, 1e-3, terms=_beta_terms,
          checks=(_require_partial, _require_ordered)),
    Bound("t10", _RATE3, _T10_COEFFS, _BETA, _t10_rows, 1e-3, terms=_beta_terms,
          checks=(_require_partial, _require_ordered, _require_no_forward_link)),
    Bound("df", _RATE3, _DF_COEFFS, _BETA, _df_rows, 1e-2, terms=_beta_terms,
          checks=(_require_ordered,)),
)}


# ---------------------------------------------------------------------------
# single-split polytopes and swept envelopes
# ---------------------------------------------------------------------------

def outer_polytope_g(ch, alpha, beta):
    """Converse polytope at one (alpha, beta) split pair."""
    return BOUNDS["outer"].polytope(ch, (alpha, beta))


def outer_envelope_g(ch, param_step=None, directions=None):
    """Support record of the converse over the full (alpha, beta) grid."""
    return BOUNDS["outer"].envelope(ch, param_step, directions)


def capacity_t7_polytope(ch, beta):
    """Exact (R0, R1) region slice at one superposition split, for the
    degraded-message-set channel with perfectly correlated noises.  The
    weaker-first-receiver case collapses to the beta = 0 slice (the
    cut-set shape), and the evaluator does that for you."""
    return BOUNDS["t7"].polytope(ch, beta)


def capacity_t7_envelope(ch, beta_step=None, directions=None):
    return BOUNDS["t7"].envelope(ch, beta_step, directions)


def capacity_t8_polytope(ch, beta):
    """Exact (R0, R1, R2) region slice for one-sided cooperation toward
    the stronger receiver (c12 must be zero) at perfectly correlated
    noises."""
    return BOUNDS["t8"].polytope(ch, beta)


def capacity_t8_envelope(ch, beta_step=None, directions=None):
    return BOUNDS["t8"].envelope(ch, beta_step, directions)


def approx_t9_polytope(ch, beta):
    """(R0, R1) region achievable within half a bit per row of the
    converse when the noises are only partially correlated.  The
    backhaul toward the weaker receiver pays a half-bit quantization
    toll: c21 enters as {c21 - 1/2}^+."""
    return BOUNDS["t9"].polytope(ch, beta)


def approx_t9_envelope(ch, beta_step=None, directions=None):
    return BOUNDS["t9"].envelope(ch, beta_step, directions)


def approx_t10_polytope(ch, beta):
    """Triple-rate analogue of the half-bit result for one-sided
    cooperation (c12 must be zero)."""
    return BOUNDS["t10"].polytope(ch, beta)


def approx_t10_envelope(ch, beta_step=None, directions=None):
    return BOUNDS["t10"].envelope(ch, beta_step, directions)


def df_inner_polytope(ch, beta):
    """Plain decode-and-forward superposition region at one split: the
    stronger receiver decodes everything, so no combined-output term
    ever appears.  Valid for every noise correlation."""
    return BOUNDS["df"].polytope(ch, beta)


def df_envelope(ch, beta_step=None, directions=None):
    return BOUNDS["df"].envelope(ch, beta_step, directions)


# ---------------------------------------------------------------------------
# distance between decode-and-forward and the converse
# ---------------------------------------------------------------------------


def gap_bound_t11(ch_or_lam):
    """Worst-case converse-to-decode-and-forward distance per row, in
    bits: half a log of 2/(1 - |lam|).  Infinite at |lam| = 1 (the
    combined output becomes noiseless and decode-and-forward cannot
    chase it)."""
    lam = getattr(ch_or_lam, "lam", ch_or_lam)
    if abs(lam) >= 1.0:
        return math.inf
    return 0.5 * math.log2(2.0 / (1.0 - abs(lam)))


def gap_certificate(ch, beta_step=0.01):
    """Row-by-row distance certificates between the converse and each
    approximate/inner region, maximized over the split grid.

    Returns {"channel", "sections": [{name, required_bits, pairs: [
    {inner_row, outer_row, gap_bits, worst_beta, slack_bits}], pass}]}.
    slack = required - gap, so every slack >= 0 means the advertised
    approximation factors really hold for this channel.
    """
    _require_ordered(ch, "gap_certificate")
    betas = _ticks(beta_step)
    a2, p = ch.a ** 2, ch.power
    k = kappa(ch.a, ch.b, ch.lam)
    sections = []

    def pair(name_in, name_out, gaps):
        gaps = np.atleast_1d(np.asarray(gaps, dtype=float))
        i = int(np.argmax(gaps))
        worst = float(betas[i]) if gaps.shape == betas.shape else None
        return {"inner_row": name_in, "outer_row": name_out,
                "gap_bits": float(gaps[i]), "worst_beta": worst}

    if abs(ch.lam) < 1.0:
        qp = _q_slope(ch) * p
        toll = min(ch.c21, 0.5)
        pairs9 = [
            pair("r0-split", "common-private2-split", 0.0),
            pair("sum-direct-cap", "common-private1-side", toll),
            pair("sum-combined-cap", "full-cooperation-cut",
                 psi(k * p) - psi(qp)),
            pair("sum-direct-split", "sum-direct-split", toll),
            pair("sum-combined-split", "sum-combined-split",
                 psi(betas * k * p) - psi(betas * qp)),
        ]
        sections.append(_close_section("half-bit-two-sided", 0.5, pairs9))
        pairs10 = [
            pair("common-private2-split", "common-private2-split", 0.0),
            pair("sum-combined-cap", "full-cooperation-cut",
                 psi(k * p) - psi(qp)),
            pair("sum-direct-split", "sum-direct-split", toll),
            pair("sum-combined-split", "sum-combined-split",
                 psi(betas * k * p) - psi(betas * qp)),
        ]
        sections.append(_close_section("half-bit-one-sided", 0.5, pairs10))

    required = gap_bound_t11(ch)
    if ch.lam * ch.a * ch.b >= 0.0:
        required = min(required, 0.5 * math.log2(2.0 / (1.0 - ch.lam ** 2))
                       if abs(ch.lam) < 1.0 else math.inf)
    if math.isinf(k):
        gaps_cap = math.inf
        gaps_split = np.full(betas.shape, math.inf)
        gaps_split[0] = 0.0          # beta = 0: both rows price zero layers
    else:
        gaps_cap = float(psi(k * p) - psi(a2 * p))
        gaps_split = psi(betas * k * p) - psi(betas * a2 * p)
    pairs11 = [
        pair("common-private2-split", "common-private2-split", 0.0),
        pair("sum-direct-cap", "full-cooperation-cut", gaps_cap),
        pair("sum-direct-split", "sum-combined-split", gaps_split),
    ]
    sections.append(_close_section("decode-forward-vs-converse", required, pairs11))
    return {"channel": ch.to_json_dict(), "beta_step": beta_step,
            "sections": sections,
            "pass": all(s["pass"] for s in sections)}


def _close_section(name, required, pairs):
    for q in pairs:
        gap = q["gap_bits"]
        q["required_bits"] = required if not math.isinf(required) else math.inf
        q["slack_bits"] = (math.inf if math.isinf(required)
                           else required - gap)
    ok = all(q["slack_bits"] >= -1e-9 for q in pairs)
    return {"name": name, "required_bits": required, "pairs": pairs, "pass": ok}
