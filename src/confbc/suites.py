"""Named, seeded verification suites.

Each suite re-derives a handful of claims from scratch (analytic
oracles, brute-force sweeps, or cross-checks between two independent
code paths) and reports one dict per check.  `confbc verify --suite
NAME` is a thin wrapper over run_suite; everything here is also reused
by the acceptance tests, so the suite bodies are the single source of
truth for what "verified" means.

All randomness flows through numpy's default_rng(seed): same seed, same
verdicts, bit for bit.
"""

import math

import numpy as np

from . import dm_bounds as dmb
from . import gaussian_bounds as gb
from .channels import DmBroadcastChannel, GaussianBc, example_channel
from .errors import ConfbcError
from .info_core import (JointPmf, binary_entropy, compose_joint,
                        mutual_information)
from .regions import (CANONICAL_DIRS_3D, batch_support, default_dirs_2d,
                      default_dirs_3d, envelope_dominates, fm_eliminate,
                      support_of_system, sweep)


class SuiteReport:
    def __init__(self, suite, seed, checks):
        self.suite = suite
        self.seed = seed
        self.checks = list(checks)

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def to_json_dict(self):
        return _finite_json({"suite": self.suite, "seed": self.seed,
                             "checks": self.checks, "pass": self.passed})

    def summary_lines(self):
        out = []
        for c in self.checks:
            extras = {k: v for k, v in c.items() if k not in ("name", "pass")}
            tail = " ".join("%s=%s" % (k, _short(v)) for k, v in sorted(extras.items()))
            out.append("%s %s%s" % ("PASS" if c["pass"] else "FAIL",
                                    c["name"], (" " + tail) if tail else ""))
        return out


def _short(v):
    if isinstance(v, float):
        return "%.6g" % v
    if isinstance(v, (list, tuple)) and len(v) > 4:
        return "[...%d items]" % len(v)
    return str(v)


def _finite_json(x):
    """Strict-JSON copy: non-finite floats become strings, and arrays
    nested lists (a finite float array in one tolist())."""
    if isinstance(x, np.ndarray):
        return x.tolist() if x.dtype.kind == "f" and np.all(np.isfinite(x)) \
            else _finite_json(x.tolist())
    if isinstance(x, dict):
        return {k: _finite_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_json(v) for v in x]
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (np.integer, np.bool_)):
        return x.item()
    return x


def _check(name, ok, **details):
    return {"name": name, "pass": bool(ok), **details}


# ---------------------------------------------------------------------------
# information-measure sanity
# ---------------------------------------------------------------------------

def _suite_info_properties(seed, trials=1000):
    rng = np.random.default_rng(seed)
    worst_chain = 0.0
    worst_neg = 0.0
    for _ in range(trials):
        na, nb, nc = rng.integers(2, 4, size=3)
        table = rng.dirichlet(np.ones(na * nb * nc)).reshape(na, nb, nc)
        p = JointPmf(("A", "B", "C"), table)
        i_joint = mutual_information(p, ("A",), ("B", "C"))
        i_b = mutual_information(p, ("A",), ("B",))
        i_c_given_b = mutual_information(p, ("A",), ("C",), ("B",))
        worst_chain = max(worst_chain, abs(i_joint - i_b - i_c_given_b))
        worst_neg = min(worst_neg, i_joint, i_b, i_c_given_b)

    worst_dpi = -math.inf
    for _ in range(trials):
        na, nb, nc = rng.integers(2, 4, size=3)
        pab = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
        pc_b = rng.dirichlet(np.ones(nc), size=nb)
        p = JointPmf(("A", "B", "C"), pab[:, :, None] * pc_b[None, :, :])
        worst_dpi = max(worst_dpi,
                        mutual_information(p, ("A",), ("C",))
                        - mutual_information(p, ("A",), ("B",)))

    worst_marg = 0.0
    for _ in range(200):
        t = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
        ch = DmBroadcastChannel(t)
        aux = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        q1 = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        q2 = rng.dirichlet(np.ones(2), size=2)
        joint = compose_joint(JointPmf(("U", "V", "W", "X"), aux), ch,
                              q1=q1, q2=q2)
        back = joint.marginal(("U", "V", "W", "X")).table
        worst_marg = max(worst_marg, np.abs(back - aux).max())
        px = aux.sum(axis=(0, 1, 2))
        chan = joint.marginal(("X", "Y1", "Y2")).table
        worst_marg = max(worst_marg,
                         np.abs(chan - px[:, None, None] * t).max())

    return [
        _check("mi-chain-rule", worst_chain <= 1e-10, max_abs_dev=worst_chain,
               trials=trials),
        _check("mi-nonnegative", worst_neg >= -1e-10, min_value=worst_neg),
        _check("data-processing", worst_dpi <= 1e-10, max_violation=worst_dpi,
               trials=trials),
        _check("compose-marginalize", worst_marg <= 1e-12,
               max_abs_dev=worst_marg, trials=200),
    ]


# ---------------------------------------------------------------------------
# pre-elimination system vs the published rows
# ---------------------------------------------------------------------------

def _suite_fm_equivalence(seed, trials=100, n_dirs=50):
    ch = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5)
    rng = np.random.default_rng(seed)
    dirs = np.vstack([CANONICAL_DIRS_3D, rng.random((n_dirs, 3))])
    eliminate = ("R10", "R11", "R20", "R22", "B1", "B2")
    worst = 0.0
    feasible = 0
    infeasible = 0
    shrink_ok = True
    pairs = 0
    for _ in range(trials):
        f = dmb.random_factorization(rng, ch)
        t = dmb.factorization_terms(ch, f)
        for alpha in (0.0, 0.5, 1.0):
            m1, _, m3, _, i0 = dmb._caps1(t, ch.c12, ch.c21, alpha, "clipped")
            rows = dmb._inner1_alpha_rhs(ch, f, alpha, terms=t)
            sup_rows = batch_support(dmb._INNER_COEFFS, [rows], dirs)[0]
            proj = fm_eliminate(dmb.appendixB_system(ch, f, alpha, terms=t),
                                eliminate)
            sup_proj = support_of_system(proj, dirs)
            pairs += dirs.shape[0]
            if m1 + m3 - i0 >= -1e-12:
                feasible += 1
                dev = np.abs(sup_proj - sup_rows)
                dev = dev[np.isfinite(dev)]
                worst = max(worst, float(dev.max()) if dev.size else 0.0)
                if np.any(np.isinf(sup_proj) != np.isinf(sup_rows)):
                    worst = math.inf
            else:
                infeasible += 1
                if np.any(sup_proj > sup_rows + 1e-9):
                    shrink_ok = False
    return [
        _check("projection-matches-rows", worst <= 1e-9, max_abs_dev=worst,
               support_pairs=pairs, feasible_draws=feasible),
        _check("binning-infeasible-only-shrinks", shrink_ok,
               infeasible_draws=infeasible),
    ]


# ---------------------------------------------------------------------------
# the dominant link split
# ---------------------------------------------------------------------------

def _suite_alpha_star(seed, trials=100, n_alpha=21):
    ch = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5)
    rng = np.random.default_rng(seed)
    alphas = np.linspace(0.0, 1.0, n_alpha)
    dirs = CANONICAL_DIRS_3D
    worst = -math.inf
    star_in_range = True

    def excess(split_rhs, star):
        # the star split and the swept ones share a matrix: one pricing
        sup = batch_support(dmb._INNER_COEFFS, [split_rhs(al) for al in (star, *alphas)],
                            dirs)
        with np.errstate(invalid="ignore"):
            gain = sup[1:] - sup[0]
        return float(np.max(np.where(np.isnan(gain), -np.inf, gain)))

    for _ in range(trials):
        f1 = dmb.random_factorization(rng, ch)
        t1 = dmb.factorization_terms(ch, f1)
        star1 = dmb.alpha1_star(ch, f1, terms=t1)
        star_in_range &= 0.0 <= star1 <= 1.0
        worst = max(worst, excess(lambda al: dmb._inner1_alpha_rhs(
            ch, f1, al, variant="tilde", terms=t1), star1))
        f2 = dmb.random_factorization(rng, ch, q2_on_w=True)
        t2 = dmb.factorization_terms(ch, f2)
        star2 = dmb.alpha2_star(ch, f2, terms=t2)
        star_in_range &= 0.0 <= star2 <= 1.0
        worst = max(worst, excess(lambda al: dmb._inner2_alpha_rhs(
            ch, f2, al, variant="tilde", terms=t2), star2))
    return [
        _check("star-split-dominates", worst <= 1e-9, max_excess_bits=worst,
               trials=trials, alphas_per_trial=n_alpha),
        _check("star-split-in-unit-interval", star_in_range),
    ]


# ---------------------------------------------------------------------------
# worked binary examples
# ---------------------------------------------------------------------------

def _suite_dm_example1(seed, grid_step=1e-3):
    del seed        # fully deterministic
    ch = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.5)
    dirs = np.array([(1.0, 0.0), (1.0, 1.0)])
    t4 = dmb.BOUNDS["t4"]
    env = t4.envelope(ch, grid_step, dirs, v_card=1)
    r0 = env.support_at((1, 0))
    r01 = env.support_at((1, 1))
    want_r01 = 1.0 - binary_entropy(0.2) + 0.5
    ch_hot = example_channel("dm-ex1", p=0.2, c12=0.3, c21=0.9)
    env_hot = t4.envelope(ch_hot, grid_step, dirs, v_card=1)
    r01_hot = env_hot.support_at((1, 1))
    poly = t4.polytope(ch, np.array([[0.5, 0.5]]))
    rhs = sorted(poly.rhs.tolist())
    mi = 1.0 - binary_entropy(0.2)
    want_rows = sorted([0.3, mi + 0.5, mi + 0.8, 1.0 + 0.3, 1.0])
    return [
        _check("common-rate-cap-is-forward-link", abs(r0 - 0.3) <= 1e-9,
               got=r0, expected=0.3),
        _check("best-sum-rate", abs(r01 - want_r01) <= 2e-3,
               got=r01, expected=want_r01),
        _check("entropy-cap-binds-at-large-backlink",
               abs(r01_hot - 1.0) <= 2e-3, got=r01_hot, expected=1.0),
        _check("uniform-input-rows-analytic",
               max(abs(a - b) for a, b in zip(rhs, want_rows)) <= 1e-12,
               rows=rhs),
    ]


def _suite_dm_fig3(seed, grid_step=0.02, v_card=3):
    del seed
    ch = example_channel("dm-ex2", p=0.2, c12=0.0, c21=0.9)
    ch_fwd = DmBroadcastChannel(ch.transition, 0.1, 0.9)
    dirs = default_dirs_2d()
    norms = np.linalg.norm(dirs, axis=1)
    # one walk of the P(v, x) grid prices all three regions
    t4 = dmb.BOUNDS["t4"]
    cap, cut, cap_fwd = sweep(
        [(t4, ch), (dmb.BOUNDS["cutset-fig3"], ch), (t4, ch_fwd)],
        grid_step, dirs, v_card=v_card)
    inside, rep_in = envelope_dominates(cut, cap, slack=1e-9)
    margin = float(((cut.supports - cap.supports) / norms).max())
    grows, rep_gr = envelope_dominates(cap_fwd, cap, slack=1e-9)
    gain = float(((cap_fwd.supports - cap.supports) / norms).max())
    return [
        _check("joint-row-stays-inside-cutset", inside, **rep_in),
        _check("joint-row-strictly-tighter-somewhere", margin >= 0.01,
               max_margin_bits=margin),
        _check("forward-link-never-hurts", grows, **rep_gr),
        _check("forward-link-strictly-helps-somewhere", gain >= 0.01,
               max_gain_bits=gain),
    ]


# ---------------------------------------------------------------------------
# relay specialization
# ---------------------------------------------------------------------------

def _suite_relay_largest_rate(seed, trials=20):
    rng = np.random.default_rng(seed)
    pwx = np.array([[0.5, 0.5]])
    q_triv = np.ones((1, 2, 1))
    q_id = np.eye(2)[None, :, :]

    ch1 = example_channel("dm-ex1", p=0.2, c12=0.3)
    r_triv1 = dmb.primitive_relay_rate(ch1, pwx, q_triv)
    r_id1 = dmb.primitive_relay_rate(ch1, pwx, q_id)

    ch2 = example_channel("dm-ex2", p=0.2, c12=0.3)
    base2 = 1.0 - binary_entropy(0.2)
    r_triv2 = dmb.primitive_relay_rate(ch2, pwx, q_triv)
    r_id2 = dmb.primitive_relay_rate(ch2, pwx, q_id)

    cap_ok = True
    best = max(r_triv2, r_id2)
    for _ in range(trials):
        q = rng.dirichlet(np.ones(3), size=(1, 2))
        r = dmb.primitive_relay_rate(ch2, pwx, q)
        cap_ok &= r <= base2 + ch2.c12 + 1e-9
        best = max(best, r)
    return [
        _check("no-quantizer-falls-back-to-direct-path",
               abs(r_triv1 - 0.0) <= 1e-12 and abs(r_triv2 - base2) <= 1e-12,
               got=[r_triv1, r_triv2], expected=[0.0, base2]),
        _check("lossless-forwarding-buys-the-full-link",
               abs(r_id1 - 0.3) <= 1e-12
               and abs(r_id2 - (base2 + 0.3)) <= 1e-12,
               got=[r_id1, r_id2]),
        _check("rate-never-exceeds-direct-plus-link", cap_ok, trials=trials),
        _check("search-attains-the-direct-plus-link-limit",
               abs(best - (base2 + 0.3)) <= 1e-9, best=best,
               limit=base2 + 0.3),
    ]


# ---------------------------------------------------------------------------
# Gaussian suites
# ---------------------------------------------------------------------------

def _suite_gauss_t7(seed, beta_step=1e-3, param_step=1e-2,
                    powers=(0.5, 1.0, 4.0)):
    del seed
    ch = GaussianBc(1.0, 0.5, 1.0, 4.0, c12=0.2, c21=0.7)
    row_dev = 0.0
    for beta in (0.0, 0.25, 0.5, 1.0):
        t7 = gb.BOUNDS["t7"].polytope(ch, beta)
        out = gb.BOUNDS["outer"].polytope(ch, (0.0, beta))
        orhs = out.rhs.tolist()
        trhs = t7.rhs.tolist()
        row_dev = max(row_dev,
                      abs(trhs[0] - orhs[2]),     # common cap
                      abs(trhs[1] - orhs[0]),     # direct sum row at full side split
                      abs(trhs[2] - orhs[4]))     # layered sum row
    checks = [_check("slice-rows-equal-exact-region-rows", row_dev <= 1e-12,
                     max_abs_dev=row_dev)]
    dirs2 = default_dirs_2d()
    dirs3 = np.hstack([dirs2, np.zeros((dirs2.shape[0], 1))])
    norms = np.linalg.norm(dirs2, axis=1)
    for power in powers:
        chp = GaussianBc(1.0, 0.5, 1.0, power, c12=0.2, c21=0.7)
        env7 = gb.BOUNDS["t7"].envelope(chp, beta_step, dirs2)
        env_out = gb.BOUNDS["outer"].envelope(chp, param_step, dirs3)
        diff = env7.supports - env_out.supports
        checks.append(_check(
            "exact-region-contains-converse-grid-P%g" % power,
            bool(np.all(diff >= -1e-9)), min_diff=float(diff.min())))
        checks.append(_check(
            "converse-grid-reaches-exact-region-P%g" % power,
            float((diff / norms).max()) <= 3e-3,
            max_gap_bits=float((diff / norms).max()),
            beta_step=beta_step, param_step=param_step))
    return checks


def _suite_gauss_t8(seed, beta_step=1e-2):
    del seed
    ch = GaussianBc(1.0, 0.5, 1.0, 4.0, c12=0.0, c21=0.3)
    dirs = default_dirs_3d()[:72]      # canonical eight + a fibonacci slice
    env = gb.BOUNDS["t8"].envelope(ch, beta_step, dirs)
    betas = np.linspace(0.0, 1.0, int(round(1 / beta_step)) + 1)
    # primal vertices, so the oracle shares no code with batch_support
    oracle = np.max([(gb.BOUNDS["t8"].polytope(ch, b).vertices() @ dirs.T)
                     .max(axis=0) for b in betas], axis=0)
    dev = float(np.abs(env.supports - oracle).max())
    env_df = gb.BOUNDS["df"].envelope(ch, beta_step, dirs)
    inner_ok, rep_in = envelope_dominates(env, env_df, slack=1e-12)
    env_out = gb.BOUNDS["outer"].envelope(ch, beta_step, dirs)
    out_dev = float(np.abs(env.supports - env_out.supports).max())
    return [
        _check("closed-form-vs-vertex-oracle", dev <= 1e-9, max_abs_dev=dev,
               directions=dirs.shape[0]),
        _check("decode-forward-achieves-a-subset", inner_ok, **rep_in),
        _check("converse-collapses-onto-region", out_dev <= 1e-9,
               max_abs_dev=out_dev),
    ]


def _suite_gauss_gaps(seed, trials=500, beta_step=0.01):
    rng = np.random.default_rng(seed)
    channels = []
    for _ in range(trials):
        a = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        b = a * rng.uniform(0.0, 1.0) * rng.choice([-1.0, 1.0])
        channels.append(GaussianBc(a, b, rng.uniform(-0.99, 0.99),
                                   rng.uniform(0.01, 100.0),
                                   c12=rng.uniform(0.0, 2.0), c21=rng.uniform(0.0, 2.0)))
    min_slack = {}
    failures = 0
    for cert in gb.gap_certificates(channels, beta_step=beta_step):
        if not cert["pass"]:
            failures += 1
        for sec in cert["sections"]:
            slack = min(q["slack_bits"] for q in sec["pairs"])
            cur = min_slack.get(sec["name"], math.inf)
            min_slack[sec["name"]] = min(cur, slack)
    checks = [_check("all-certificates-pass", failures == 0,
                     failures=failures, trials=trials)]
    for name, slack in sorted(min_slack.items()):
        checks.append(_check("slack-" + name, slack >= -1e-9,
                             min_slack_bits=slack))
    return checks


def _suite_gauss_degraded(seed, param_step=1e-2):
    del seed
    checks = []
    for a, b, lam, power, c21 in ((2.0, 1.0, 0.5, 2.0, 0.7),
                                  (1.0, -0.5, -0.5, 1.0, 0.6)):
        ch = GaussianBc(a, b, lam, power, c12=0.0, c21=c21)
        env_out = gb.BOUNDS["outer"].envelope(ch, param_step, CANONICAL_DIRS_3D)
        env_df = gb.BOUNDS["df"].envelope(ch, param_step, CANONICAL_DIRS_3D)
        dev = float(np.abs(env_out.supports - env_df.supports).max())
        checks.append(_check("aligned-noise-converse-meets-decode-forward"
                             "-a%g-b%g" % (a, b), dev <= 1e-6,
                             max_abs_dev=dev, lam=lam))
    return checks


def _suite_gauss_vanishing_power(seed, beta_step=1e-3, param_step=1e-2):
    del seed
    dirs3 = np.array([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
    dirs2 = np.array([(1.0, 0.0), (1.0, 1.0)])
    ch = example_channel("g-mirror", power=1.0, c12=1.0, c21=1.0)
    outer, t7 = gb.BOUNDS["outer"], gb.BOUNDS["t7"]
    env_out = outer.envelope(ch, param_step, dirs3)
    env7 = t7.envelope(ch, beta_step, dirs2)
    vals = [env_out.support_at((1, 0, 0)), env_out.support_at((1, 1, 0)),
            env7.support_at((1, 0)), env7.support_at((1, 1))]
    dev = max(abs(v - 1.5) for v in vals)

    ch_low = example_channel("g-mirror", power=1e-6, c12=1.0, c21=1.0)
    lo = outer.envelope(ch_low, param_step, dirs3).support_at((1, 0, 0))
    lo7 = t7.envelope(ch_low, beta_step, dirs2).support_at((1, 0))
    in_range = all(0.999 <= v <= 1.0 + 1e-6 for v in (lo, lo7))
    return [
        _check("unit-power-supports-exact", dev <= 1e-9, max_abs_dev=dev,
               expected=1.5),
        _check("links-alone-carry-no-rate", in_range,
               converse=lo, exact=lo7, window=[0.999, 1.0 + 1e-6]),
    ]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES = {
    "info-properties": _suite_info_properties,
    "fm-equivalence": _suite_fm_equivalence,
    "alpha-star": _suite_alpha_star,
    "dm-example1": _suite_dm_example1,
    "dm-fig3": _suite_dm_fig3,
    "relay-largest-rate": _suite_relay_largest_rate,
    "gauss-t7": _suite_gauss_t7,
    "gauss-t8": _suite_gauss_t8,
    "gauss-gaps": _suite_gauss_gaps,
    "gauss-degraded": _suite_gauss_degraded,
    "gauss-vanishing-power": _suite_gauss_vanishing_power,
}


def suite_names():
    return sorted(_SUITES)


def run_suite(name, seed=0, **overrides):
    """Run one named suite and return its SuiteReport."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ConfbcError("unknown suite %r; available: %s"
                          % (name, ", ".join(suite_names()))) from None
    return SuiteReport(name, seed, fn(seed, **overrides))
