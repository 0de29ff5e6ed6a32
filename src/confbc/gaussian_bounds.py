"""Bounds for the scalar Gaussian broadcast channel with conferencing
decoders: Y1 = aX + Z1, Y2 = bX + Z2, unit-variance noises with
correlation lam, input power P, receiver links c12/c21.

Each bound is one coefficient matrix plus one vectorised row function
of the power-split parameters (alpha for receiver 1's side split, beta
for the superposition split): *_polytope takes one row of its table and
*_envelope prices the whole split grid with batch_support.  The
standing labeling convention is |a| >= |b| (receiver 1 is the stronger
one); evaluators raise InapplicableBoundError and tell you to swap the
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
from .regions import (ConstraintPolytope, LinearConstraint, RegionEnvelope,
                      batch_support, default_dirs_2d, default_dirs_3d)

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


def _stack_rows(*rows):
    """Per-split row values (arrays or split-free scalars) -> (N, m)."""
    return np.stack(np.broadcast_arrays(*rows), axis=-1)


def _slice(variables, coeffs, rhs):
    """The polytope of one rhs row of a bound's table: one split."""
    return ConstraintPolytope(variables, [
        LinearConstraint(dict(zip(variables, c)), r) for c, r in zip(coeffs, rhs)])


def _kappa_psi(ch, frac, power):
    """psi(frac * kappa * P) with the absent-row convention: +inf for
    every frac whenever kappa is infinite."""
    k = kappa(ch.a, ch.b, ch.lam)
    if math.isinf(k):
        return np.full(np.shape(frac) or (), np.inf) if np.ndim(frac) else math.inf
    return psi(np.asarray(frac) * k * power)


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


def _outer_rhs_g(ch, alpha, beta):
    """(len(alpha),) grids -> (N, 8) right-hand sides."""
    a2, b2, p = ch.a * ch.a, ch.b * ch.b, ch.power
    c12, c21 = ch.c12, ch.c21
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    k = kappa(ch.a, ch.b, ch.lam)
    kpsi_a = _kappa_psi(ch, alpha, p)
    kpsi_b = _kappa_psi(ch, beta, p)
    kcut = math.inf if math.isinf(k) else float(psi(k * p))
    rows = [
        _residual(a2, p, alpha) + c21,
        kpsi_b + _residual(b2, p, beta),
        _residual(b2, p, beta) + c12,
        kpsi_a + _residual(b2, p, alpha),
        psi(beta * a2 * p) + _residual(b2, p, beta) + c12 + c21,
        kpsi_b + _residual(b2, p, beta) + c12,
        kpsi_a + _residual(a2, p, alpha) + c21,
        np.full(alpha.shape, kcut),
    ]
    return np.stack(rows, axis=-1)


def outer_polytope_g(ch, alpha, beta):
    """Converse polytope at one (alpha, beta) split pair."""
    _require_ordered(ch, "outer_polytope_g")
    for nm, v in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= v <= 1.0:
            raise ValueError("%s must lie in [0, 1]" % nm)
    rhs = _outer_rhs_g(ch, np.array([alpha]), np.array([beta]))[0]
    return _slice(_RATE3, _OUTER_COEFFS_G, rhs)


def outer_envelope_g(ch, param_step=0.01, directions=None):
    """Support record of the converse over the full (alpha, beta) grid."""
    _require_ordered(ch, "outer_envelope_g")
    dirs = default_dirs_3d() if directions is None else np.atleast_2d(directions)
    ticks = _ticks(param_step)
    al, be = np.meshgrid(ticks, ticks, indexing="ij")
    rhs = _outer_rhs_g(ch, al.ravel(), be.ravel())
    sup = batch_support(_OUTER_COEFFS_G, rhs, dirs, reduce_max=True)
    return RegionEnvelope(_RATE3, dirs, sup, meta={"param_step": param_step})


def _ticks(step):
    n = int(round(1.0 / step))
    if n < 1 or abs(n * step - 1.0) > 1e-9 * n:
        raise ValueError("step must be 1/n for a positive integer n")
    return np.linspace(0.0, 1.0, n + 1)


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


_T7_COEFFS = np.array([(1, 0), (1, 1), (1, 1)], dtype=float)


def _t7_rhs(ch, betas):
    a2, b2, p = ch.a * ch.a, ch.b * ch.b, ch.power
    resid = _residual(b2, p, betas)
    return _stack_rows(resid + ch.c12,
                       psi(a2 * p) + ch.c21,
                       psi(betas * a2 * p) + resid + ch.c12 + ch.c21)


def capacity_t7_polytope(ch, beta):
    """Exact (R0, R1) region slice at one superposition split, for the
    degraded-message-set channel with perfectly correlated noises.  The
    weaker-first-receiver case collapses to the beta = 0 slice (the
    cut-set shape), and the evaluator does that for you."""
    _require_separable(ch, "capacity_t7_polytope")
    if abs(ch.a) < abs(ch.b):
        beta = 0.0
    elif not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return _slice(_RATE2, _T7_COEFFS, _t7_rhs(ch, np.array([beta]))[0])


def capacity_t7_envelope(ch, beta_step=1e-3, directions=None):
    _require_separable(ch, "capacity_t7_envelope")
    dirs = default_dirs_2d() if directions is None else np.atleast_2d(directions)
    betas = np.array([0.0]) if abs(ch.a) < abs(ch.b) else _ticks(beta_step)
    sup = batch_support(_T7_COEFFS, _t7_rhs(ch, betas), dirs, reduce_max=True)
    return RegionEnvelope(_RATE2, dirs, sup, meta={"beta_step": beta_step})


_T8_COEFFS = np.array([(1, 0, 1), (1, 1, 1)], dtype=float)


def _t8_rhs(ch, betas):
    a2, b2, p = ch.a * ch.a, ch.b * ch.b, ch.power
    resid = _residual(b2, p, betas)
    return _stack_rows(resid, psi(betas * a2 * p) + resid + ch.c21)


def capacity_t8_polytope(ch, beta):
    """Exact (R0, R1, R2) region slice for one-sided cooperation toward
    the stronger receiver (c12 must be zero) at perfectly correlated
    noises."""
    _require_separable(ch, "capacity_t8_polytope")
    _require_ordered(ch, "capacity_t8_polytope")
    if ch.c12 != 0.0:
        raise InapplicableBoundError("capacity_t8_polytope needs c12 = 0")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return _slice(_RATE3, _T8_COEFFS, _t8_rhs(ch, np.array([beta]))[0])


def capacity_t8_envelope(ch, beta_step=1e-3, directions=None):
    _require_separable(ch, "capacity_t8_envelope")
    _require_ordered(ch, "capacity_t8_envelope")
    if ch.c12 != 0.0:
        raise InapplicableBoundError("capacity_t8_envelope needs c12 = 0")
    dirs = default_dirs_3d() if directions is None else np.atleast_2d(directions)
    sup = batch_support(_T8_COEFFS, _t8_rhs(ch, _ticks(beta_step)), dirs,
                        reduce_max=True)
    return RegionEnvelope(_RATE3, dirs, sup, meta={"beta_step": beta_step})


# ---------------------------------------------------------------------------
# approximate capacity at partially correlated noises
# ---------------------------------------------------------------------------

def _q_slope(ch):
    return 0.5 * (kappa(ch.a, ch.b, ch.lam) + ch.a * ch.a)


def _require_partial(ch, who):
    if abs(ch.lam) >= 1.0:
        raise InapplicableBoundError("%s needs |lam| < 1" % who)


_T9_COEFFS = np.array([(1, 0), (1, 1), (1, 1), (1, 1), (1, 1)], dtype=float)


def _t9_rhs(ch, betas):
    a2, b2, p = ch.a * ch.a, ch.b * ch.b, ch.power
    qp = _q_slope(ch) * p
    c21_eff = max(ch.c21 - 0.5, 0.0)
    resid = _residual(b2, p, betas)
    return _stack_rows(resid + ch.c12,
                       psi(a2 * p) + c21_eff,
                       psi(qp),
                       psi(betas * a2 * p) + resid + c21_eff + ch.c12,
                       psi(betas * qp) + resid + ch.c12)


def approx_t9_polytope(ch, beta):
    """(R0, R1) region achievable within half a bit per row of the
    converse when the noises are only partially correlated.  The
    backhaul toward the weaker receiver pays a half-bit quantization
    toll: c21 enters as {c21 - 1/2}^+."""
    _require_partial(ch, "approx_t9_polytope")
    _require_ordered(ch, "approx_t9_polytope")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return _slice(_RATE2, _T9_COEFFS, _t9_rhs(ch, np.array([beta]))[0])


def approx_t9_envelope(ch, beta_step=1e-3, directions=None):
    _require_partial(ch, "approx_t9_envelope")
    _require_ordered(ch, "approx_t9_envelope")
    dirs = default_dirs_2d() if directions is None else np.atleast_2d(directions)
    sup = batch_support(_T9_COEFFS, _t9_rhs(ch, _ticks(beta_step)), dirs,
                        reduce_max=True)
    return RegionEnvelope(_RATE2, dirs, sup, meta={"beta_step": beta_step})


_T10_COEFFS = np.array([(1, 0, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)], dtype=float)


def _t10_rhs(ch, betas):
    a2, b2, p = ch.a * ch.a, ch.b * ch.b, ch.power
    qp = _q_slope(ch) * p
    c21_eff = max(ch.c21 - 0.5, 0.0)
    resid = _residual(b2, p, betas)
    return _stack_rows(resid,
                       psi(qp),
                       psi(betas * a2 * p) + resid + c21_eff,
                       psi(betas * qp) + resid)


def approx_t10_polytope(ch, beta):
    """Triple-rate analogue of the half-bit result for one-sided
    cooperation (c12 must be zero)."""
    _require_partial(ch, "approx_t10_polytope")
    _require_ordered(ch, "approx_t10_polytope")
    if ch.c12 != 0.0:
        raise InapplicableBoundError("approx_t10_polytope needs c12 = 0")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return _slice(_RATE3, _T10_COEFFS, _t10_rhs(ch, np.array([beta]))[0])


def approx_t10_envelope(ch, beta_step=1e-3, directions=None):
    _require_partial(ch, "approx_t10_envelope")
    _require_ordered(ch, "approx_t10_envelope")
    if ch.c12 != 0.0:
        raise InapplicableBoundError("approx_t10_envelope needs c12 = 0")
    dirs = default_dirs_3d() if directions is None else np.atleast_2d(directions)
    sup = batch_support(_T10_COEFFS, _t10_rhs(ch, _ticks(beta_step)), dirs,
                        reduce_max=True)
    return RegionEnvelope(_RATE3, dirs, sup, meta={"beta_step": beta_step})


# ---------------------------------------------------------------------------
# decode-and-forward inner bound and its distance to the converse
# ---------------------------------------------------------------------------

_DF_COEFFS = np.array([(1, 0, 1), (1, 1, 1), (1, 1, 1)], dtype=float)


def _df_rhs(ch, betas):
    a2, b2, p = ch.a * ch.a, ch.b * ch.b, ch.power
    resid = _residual(b2, p, betas)
    return _stack_rows(resid + ch.c12,
                       psi(a2 * p),
                       psi(betas * a2 * p) + resid + ch.c12)


def df_inner_polytope(ch, beta):
    """Plain decode-and-forward superposition region at one split: the
    stronger receiver decodes everything, so no combined-output term
    ever appears.  Valid for every noise correlation."""
    _require_ordered(ch, "df_inner_polytope")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return _slice(_RATE3, _DF_COEFFS, _df_rhs(ch, np.array([beta]))[0])


def df_envelope(ch, beta_step=1e-2, directions=None):
    _require_ordered(ch, "df_envelope")
    dirs = default_dirs_3d() if directions is None else np.atleast_2d(directions)
    sup = batch_support(_DF_COEFFS, _df_rhs(ch, _ticks(beta_step)), dirs,
                        reduce_max=True)
    return RegionEnvelope(_RATE3, dirs, sup, meta={"beta_step": beta_step})


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
