"""Gaussian-channel bounds.  Oracles:

  * psi(x) = log2(1+x)/2, so psi(1) = 0.5, psi(3) = 1.
  * independent noises, a = b = 1, P = 1: the combined-output slope is
    kappa = a^2 + b^2 = 2 and the hardest converse row prices the sum
    rate at psi(2) = 0.7924812503605781 bits regardless of the splits.
  * noise-only second output (b = 0, lam = 1): the common stream rides
    entirely on the feedback link, so R0 caps at c12 and the sum at
    psi(a^2 P) + c21 against psi(beta a^2 P) + c12 + c21.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from confbc.channels import GaussianBc, example_channel, kappa
from confbc.errors import GridTooLargeError, InapplicableBoundError
from confbc.regions import batch_support, default_dirs_2d, default_dirs_3d
import confbc.gaussian_bounds as gb
import confbc.gridding as gridding

PSI2 = 0.7924812503605781          # psi(2), frozen by hand


def test_psi_values():
    assert gb.psi(0.0) == 0.0
    assert gb.psi(1.0) == pytest.approx(0.5, abs=1e-15)
    assert gb.psi(3.0) == pytest.approx(1.0, abs=1e-15)
    assert gb.psi(math.inf) == math.inf
    out = gb.psi([0.0, 1.0, 3.0])
    assert np.allclose(out, [0.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# converse region
# ---------------------------------------------------------------------------

def test_outer_polytope_row_anatomy():
    ch = GaussianBc(1.0, 0.5, 0.2, 2.0, c12=0.1, c21=0.3)
    poly = gb.outer_polytope_g(ch, 0.5, 0.25)
    a, b = poly.coeff_matrix()
    assert a.shape == (8, 3)
    assert np.all(np.isfinite(b))
    k = kappa(ch.a, ch.b, ch.lam)
    # the split-free sum row is psi(kappa * P)
    assert b[-1] == pytest.approx(gb.psi(k * ch.power), abs=1e-12)
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        gb.outer_polytope_g(ch, 1.5, 0.0)
    # a point is one value per split name: no fewer, no more
    sep = GaussianBc(1.0, 0.5, 1.0, 4.0, c12=0.2, c21=0.7)
    for name, c, point in (("outer", ch, 0.5), ("outer", ch, (0.5, 0.25, 0.1)),
                           ("t7", sep, (0.5, 0.9)), ("t7", sep, ())):
        with pytest.raises(ValueError, match="one value per split"):
            gb.BOUNDS[name].polytope(c, point)


def test_outer_rows_go_infinite_at_misaligned_unit_correlation():
    # mirrored outputs: kappa blows up, so every row that prices the
    # combined output must drop out (rhs = inf), even at split 0
    ch = example_channel("g-mirror", power=1.0, c12=1.0, c21=1.0)
    for alpha, beta in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)):
        _, b = gb.outer_polytope_g(ch, alpha, beta).coeff_matrix()
        assert np.isinf(b).sum() == 5
        assert np.all(np.isfinite(np.sort(b)[:3]))


def test_outer_envelope_frozen_sum_rate():
    ch = GaussianBc(1.0, 1.0, 0.0, 1.0, c12=0.5, c21=0.5)
    env = gb.BOUNDS["outer"].envelope(ch, 0.25, [(1.0, 1.0, 1.0)])
    assert env.supports[0] == pytest.approx(PSI2, abs=1e-9)


def test_outer_envelope_step_validation():
    ch = GaussianBc(1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        gb.BOUNDS["outer"].envelope(ch, 0.3)    # not 1/n


def test_split_grid_budget_guard(monkeypatch):
    # the (alpha, beta) grid at step 1/10 is 11^2 points: a budget of
    # exactly that passes, one less fails before any grid is built
    ch = GaussianBc(1.0, 0.5, 0.0, 1.0)
    space = gb.BOUNDS["outer"].space
    monkeypatch.setattr(gridding, "EVAL_BUDGET", 121)
    blocks, _ = space.blocks(ch, 0.1, {})
    assert sum(len(b) for b in blocks) == 121
    monkeypatch.setattr(gridding, "EVAL_BUDGET", 120)
    with pytest.raises(GridTooLargeError, match="finest step"):
        space.blocks(ch, 0.1, {})


# ---------------------------------------------------------------------------
# exact regions at perfectly correlated noises
# ---------------------------------------------------------------------------

def test_t7_rows_noise_only_second_output():
    ch = example_channel("g-noise-at-2", power=3.0, c12=0.25, c21=0.5)
    poly = gb.capacity_t7_polytope(ch, 1.0)
    _, b = poly.coeff_matrix()
    assert b[0] == pytest.approx(0.25, abs=1e-12)          # R0 <= c12
    assert b[1] == pytest.approx(1.0 + 0.5, abs=1e-12)     # psi(3) + c21
    assert b[2] == pytest.approx(1.0 + 0.75, abs=1e-12)    # psi(3) + c12 + c21
    assert poly.support((1, 0)) == pytest.approx(0.25, abs=1e-12)
    assert poly.support((1, 1)) == pytest.approx(1.5, abs=1e-12)


def test_t7_envelope_attains_best_split():
    ch = example_channel("g-noise-at-2", power=3.0, c12=0.25, c21=0.5)
    env = gb.BOUNDS["t7"].envelope(ch, 0.125, [(1, 0), (0, 1), (1, 1)])
    assert env.supports[0] == pytest.approx(0.25, abs=1e-12)
    assert env.supports[1] == pytest.approx(1.5, abs=1e-12)
    assert env.supports[2] == pytest.approx(1.5, abs=1e-12)


def test_t7_weak_first_receiver_pins_beta():
    # |a| < |b|: only the beta = 0 slice is valid and the evaluator
    # substitutes it silently
    ch = example_channel("g-noise-at-1", power=3.0, c12=0.25, c21=0.5)
    poly = gb.capacity_t7_polytope(ch, 0.7)
    _, b = poly.coeff_matrix()
    # beta forced to 0: the layered sum row is residual-only
    assert b[2] == pytest.approx(gb.psi(3.0) + 0.75, abs=1e-12)


def test_t7_needs_unit_correlation():
    ch = GaussianBc(1.0, 0.5, 0.5, 1.0)
    with pytest.raises(InapplicableBoundError):
        gb.capacity_t7_polytope(ch, 0.5)
    aligned = GaussianBc(1.0, 1.0, 1.0, 1.0)       # b = lam a: not separable
    with pytest.raises(InapplicableBoundError):
        gb.BOUNDS["t7"].envelope(aligned)


def test_t8_rows_and_preconditions():
    ch = example_channel("g-noise-at-2", power=3.0, c21=0.5)
    poly = gb.capacity_t8_polytope(ch, 1.0)
    _, b = poly.coeff_matrix()
    assert b[0] == pytest.approx(0.0, abs=1e-12)           # R0 + R2 dead
    assert b[1] == pytest.approx(1.5, abs=1e-12)
    assert poly.support((1, 0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert poly.support((0, 1, 0)) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(InapplicableBoundError):
        gb.capacity_t8_polytope(
            example_channel("g-noise-at-2", power=3.0, c12=0.2), 0.5)
    with pytest.raises(InapplicableBoundError):
        gb.BOUNDS["t8"].envelope(example_channel("g-noise-at-1", power=3.0))


def test_relabel_hint_for_swapped_receivers():
    ch = example_channel("g-noise-at-1", power=1.0)    # |a| < |b|
    with pytest.raises(InapplicableBoundError, match="receiver labels"):
        gb.BOUNDS["t8"].envelope(ch)


def test_t8_envelope_equals_union_of_slices():
    ch = GaussianBc(1.0, 0.5, 1.0, 4.0, c21=0.3)
    dirs = np.array([(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0), (1.0, 1, 1)])
    env = gb.BOUNDS["t8"].envelope(ch, 0.25, dirs)
    betas = np.linspace(0, 1, 5)
    # primal vertices, so the oracle shares no code with batch_support
    want = np.max([(gb.capacity_t8_polytope(ch, b).vertices() @ dirs.T).max(axis=0)
                   for b in betas], axis=0)
    assert np.allclose(env.supports, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# approximate regions at partial correlation
# ---------------------------------------------------------------------------

def test_t9_needs_partial_correlation():
    with pytest.raises(InapplicableBoundError):
        gb.approx_t9_polytope(GaussianBc(1.0, 0.5, 1.0, 1.0), 0.5)
    with pytest.raises(InapplicableBoundError):
        gb.BOUNDS["t10"].envelope(GaussianBc(1.0, 0.5, -1.0, 1.0))


def test_t10_needs_no_forward_link():
    with pytest.raises(InapplicableBoundError):
        gb.approx_t10_polytope(GaussianBc(1.0, 0.5, 0.0, 1.0, c12=0.1), 0.5)


def test_t9_halves_the_relay_link():
    # with c21 = 0.4 < 1/2 the achievable rows spend nothing on the
    # relay round; with c21 = 1.4 they keep c21 - 1/2
    lo = GaussianBc(1.0, 0.5, 0.0, 1.0, c21=0.4)
    hi = GaussianBc(1.0, 0.5, 0.0, 1.0, c21=1.4)
    _, b_lo = gb.approx_t9_polytope(lo, 1.0).coeff_matrix()
    _, b_hi = gb.approx_t9_polytope(hi, 1.0).coeff_matrix()
    # the hinge swallows the first half bit: (1.4-0.5) - (0.4-0.5)^+ = 0.9
    assert b_hi[1] - b_lo[1] == pytest.approx(0.9, abs=1e-12)
    # the quantization-slope row does not see the link at all
    assert b_hi[2] == pytest.approx(b_lo[2], abs=1e-12)
    q = gb._q_slope(lo)
    assert q == pytest.approx((kappa(1.0, 0.5, 0.0) + 1.0) / 2.0, abs=1e-15)
    assert b_lo[2] == pytest.approx(gb.psi(q * 1.0), abs=1e-12)


def test_inner_envelopes_sit_inside_outer():
    ch = GaussianBc(1.2, 0.7, 0.3, 2.0, c12=0.2, c21=0.6)
    dirs = np.array([(1.0, 0, 0), (0, 1.0, 0), (1.0, 1, 1), (2.0, 1, 1)])
    outer = gb.BOUNDS["outer"].envelope(ch, 0.05, dirs)
    # t9 is a two-rate region: its R2 = 0 embedding is priced by the
    # (d0, d1) part of each direction, since every d2 >= 0
    t9 = gb.BOUNDS["t9"].envelope(ch, 0.05, dirs[:, :2])
    df = gb.BOUNDS["df"].envelope(ch, 0.05, dirs)
    assert np.all(t9.supports <= outer.supports + 1e-9)
    assert np.all(df.supports <= outer.supports + 1e-9)


def test_envelope_rejects_direction_width_mismatch():
    sep = example_channel("g-noise-at-2", power=3.0, c12=0.25, c21=0.5)
    part = GaussianBc(1.2, 0.7, 0.3, 2.0, c12=0.2, c21=0.6)
    with pytest.raises(ValueError, match="3 components .* 2 variables"):
        gb.BOUNDS["t7"].envelope(sep, 0.25, [(1.0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="3 components .* 2 variables"):
        gb.BOUNDS["t9"].envelope(part, 0.25, [(1.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match="2 components .* 3 variables"):
        gb.BOUNDS["df"].envelope(part, 0.25, [(1.0, 1.0)])


def test_df_rows():
    ch = GaussianBc(2.0, 1.0, 0.5, 2.0, c12=0.15, c21=0.7)
    _, b = gb.df_inner_polytope(ch, 0.5).coeff_matrix()
    resid = gb._residual(1.0, 2.0, 0.5)                  # weaker branch
    assert b[0] == pytest.approx(resid + 0.15, abs=1e-12)
    assert b[1] == pytest.approx(gb.psi(8.0), abs=1e-12)  # psi(a^2 P)
    assert b[2] == pytest.approx(gb.psi(0.5 * 8.0) + resid + 0.15, abs=1e-12)


# ---------------------------------------------------------------------------
# gap certificates
# ---------------------------------------------------------------------------

def test_gap_bound_values():
    assert gb.gap_bound_t11(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gb.gap_bound_t11(0.5) == pytest.approx(1.0, abs=1e-15)
    assert gb.gap_bound_t11(-0.5) == pytest.approx(1.0, abs=1e-15)
    assert gb.gap_bound_t11(1.0) == math.inf
    ch = GaussianBc(1.0, 0.5, 0.5, 1.0)
    assert gb.gap_bound_t11(ch) == pytest.approx(1.0, abs=1e-15)


def test_gap_certificate_structure_and_pass():
    ch = GaussianBc(1.5, 0.8, 0.4, 5.0, c12=0.3, c21=0.9)
    cert = gb.gap_certificate(ch, beta_step=0.05)
    assert cert["pass"] is True
    names = [sec["name"] for sec in cert["sections"]]
    assert names == ["half-bit-two-sided", "half-bit-one-sided",
                     "decode-forward-vs-converse"]
    for sec in cert["sections"]:
        assert sec["pass"] is True
        for pair in sec["pairs"]:
            assert pair["slack_bits"] >= -1e-9
            assert pair["gap_bits"] <= pair["required_bits"] + 1e-9
    # two-sided section promises half a bit per row
    assert cert["sections"][0]["required_bits"] == 0.5
    # converse section promises the correlation-dependent bound
    assert cert["sections"][2]["required_bits"] == pytest.approx(
        min(gb.gap_bound_t11(ch), 0.5 * math.log2(2.0 / (1 - ch.lam ** 2))))


def _certificate_from_rows(ch, beta_step):
    """One certificate assembled channel by channel from the scalar
    BOUNDS rows of ch's c12 = 0 copy: what gap_certificates stacks."""
    ch0 = GaussianBc(ch.a, ch.b, ch.lam, ch.power, c21=ch.c21)
    betas = gb._ticks(beta_step)
    terms = gb._beta_terms(ch0, betas[:, None])
    outer = gb.BOUNDS["outer"].rows(np.column_stack([np.zeros_like(betas), betas]), ch0)
    sections = []
    for name, inner, required, pairs in gb._GAP_PAIRS:
        try:
            gb.BOUNDS[inner].admit(ch0, warn=False)
        except InapplicableBoundError:
            continue
        rows, req, found = gb.BOUNDS[inner].rows(terms, ch0), required(ch), []
        for label_in, row_in, label_out, row_out in pairs:
            gap = outer[:, row_out] - rows[:, row_in]
            found.append({"inner_row": label_in, "outer_row": label_out,
                          "gap_bits": float(gap.max()),
                          "worst_beta": float(betas[gap.argmax()]), "required_bits": req,
                          "slack_bits": math.inf if math.isinf(req) else req - gap.max()})
        sections.append({"name": name, "required_bits": req, "pairs": found,
                         "pass": all(q["slack_bits"] >= -1e-9 for q in found)})
    return {"channel": ch.to_json_dict(), "beta_step": beta_step, "sections": sections,
            "pass": all(sec["pass"] for sec in sections)}


def _mixed_channels():
    """|lam| < 1, lam = +-1 with misaligned gains, lam = 0, b = 0, c12 > 0,
    |a| = |b|, then random partial ones, enough for several blocks."""
    chs = [GaussianBc(1.5, 0.8, 0.4, 5.0, c12=0.3, c21=0.9),
           GaussianBc(2.0, -1.0, 1.0, 3.0, c21=0.2),
           example_channel("g-mirror", power=2.0, c12=0.5, c21=0.4),
           GaussianBc(1.2, 0.5, 0.0, 1.0),
           GaussianBc(1.0, 0.0, 0.5, 2.0, c21=0.7),
           GaussianBc(0.9, -0.9, 0.3, 10.0, c12=1.5, c21=0.1)]
    rng = np.random.default_rng(7)
    for _ in range(90):
        a = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        chs.append(GaussianBc(a, a * rng.uniform(-1.0, 1.0), rng.uniform(-0.99, 0.99),
                              rng.uniform(0.01, 100.0), c12=rng.uniform(0.0, 2.0),
                              c21=rng.uniform(0.0, 2.0)))
    return chs


@pytest.mark.parametrize("block_rows", [1, None])
def test_gap_certificates_equal_the_scalar_rows(block_rows, monkeypatch):
    if block_rows is not None:                 # one channel per block
        monkeypatch.setattr(gb, "_GAP_BLOCK_ROWS", block_rows)
    chs = _mixed_channels()
    for step in (0.01, 0.25):
        want = [_certificate_from_rows(ch, step) for ch in chs]
        assert gb.gap_certificates(chs, beta_step=step) == want
    assert gb.gap_certificate(chs[1], beta_step=0.25) == _certificate_from_rows(chs[1], 0.25)
    assert [s["name"] for s in want[1]["sections"]] == ["decode-forward-vs-converse"]
    assert gb.gap_certificates([], beta_step=0.01) == []


def test_gap_certificates_check_order_before_pricing(monkeypatch):
    def priced(*args):
        raise AssertionError("priced before every channel was checked")
    monkeypatch.setattr(gb, "_beta_terms", priced)
    for name, bound in gb.BOUNDS.items():
        monkeypatch.setitem(gb.BOUNDS, name, bound._replace(rows=priced))
    chs = _mixed_channels()[:4]
    chs.insert(2, GaussianBc(0.5, 1.0, 0.2, 1.0))          # |a| < |b|
    with pytest.raises(InapplicableBoundError, match="gap_certificate"):
        gb.gap_certificates(chs)


def test_checks_agree_elementwise_with_admit():
    # every Gaussian bound's checks, read once on a stand-in whose fields
    # are arrays over many channels, admit exactly where Bound.admit
    # does, and the first check failing for a channel carries admit's
    # message for it
    chs = _mixed_channels() + [
        GaussianBc(1.0, 1.0, 1.0, 2.0),              # |lam| = 1, aligned gains
        GaussianBc(1.5, -1.5, -1.0, 2.0, c21=0.3),   # aligned at lam = -1
        GaussianBc(1.5, 0.5, -1.0, 2.0, c21=0.3),    # |lam| = 1, misaligned
        GaussianBc(1.5, 0.5, 1.0, 2.0, c12=0.4),     # misaligned, c12 > 0
        GaussianBc(1.5, 0.5, 0.5, 2.0, c12=0.4),     # partial, c12 > 0
        GaussianBc(0.5, 1.5, 0.5, 2.0),              # |a| < |b|
        GaussianBc(0.5, 1.5, 1.0, 2.0),              # |a| < |b|, misaligned
        GaussianBc(1.2, -1.2, 0.3, 2.0),             # |a| = |b|
        GaussianBc(1.2, 1.2, -1.0, 2.0)]             # |a| = |b|, misaligned
    stand_in = SimpleNamespace(**{f: np.array([getattr(ch, f) for ch in chs])
                                  for f in ("a", "b", "lam", "power", "c12", "c21")})
    failed = set()
    for name, bound in gb.BOUNDS.items():
        holds = np.array([np.broadcast_to(c.holds(stand_in), len(chs))
                          for c in bound.checks])
        for ch, col in zip(chs, holds.T):
            try:
                bound.admit(ch, warn=False)
                got = None
            except InapplicableBoundError as exc:
                got = str(exc)
            first = np.flatnonzero(~col)
            want = bound.checks[first[0]].why % ("bound %r" % name) if first.size else None
            assert got == want, (name, ch.to_json_dict())
            failed.update(c.why for c, ok in zip(bound.checks, col) if not ok)
    # each check fails on some channel, so none goes untested
    assert failed == {c.why for b in gb.BOUNDS.values() for c in b.checks}


def test_gap_certificate_separable_edge():
    # mirrored outputs: the half-bit sections need partial correlation,
    # so only the converse comparison survives -- with an infinite
    # allowance, since the kappa rows vanish from the converse
    ch = example_channel("g-mirror", power=2.0, c21=0.4)
    cert = gb.gap_certificate(ch, beta_step=0.25)
    assert cert["pass"] is True
    names = [sec["name"] for sec in cert["sections"]]
    assert names == ["decode-forward-vs-converse"]
    assert math.isinf(cert["sections"][0]["required_bits"])


def test_gap_pairs_carry_c12_alike():
    # gap_certificate prices every pair on the c12 = 0 copy of the
    # channel.  That is exact only while both rows of each pair carry c12
    # with the same weight; t10 is defined at c12 = 0 alone.
    zero, one = (GaussianBc(1.4, -0.6, 0.3, 3.0, c12=c12, c21=0.8)
                 for c12 in (0.0, 1.0))
    betas = np.linspace(0.0, 1.0, 11)
    split = np.column_stack([np.zeros_like(betas), betas])
    outer = gb.BOUNDS["outer"]
    shift_out = outer.rows(split, one) - outer.rows(split, zero)
    for _, inner, _, pairs in gb._GAP_PAIRS:
        bound = gb.BOUNDS[inner]
        if inner == "t10":
            with pytest.raises(InapplicableBoundError):
                bound.admit(one)
            continue
        shift_in = (bound.rows(bound.terms(one, betas[:, None]), one)
                    - bound.rows(bound.terms(zero, betas[:, None]), zero))
        for _, row_in, _, row_out in pairs:
            assert np.allclose(shift_in[:, row_in], shift_out[:, row_out],
                               rtol=0.0, atol=1e-12), (inner, row_in, row_out)
    assert (gb.gap_certificate(one, beta_step=0.1)["sections"]
            == gb.gap_certificate(zero, beta_step=0.1)["sections"])


def test_gap_claims_hold_direction_wise():
    # independent of the row pairing: on the default fans (every w >= 0)
    # the converse's support exceeds the inner region's by at most
    # g * |w|_1, with g = 1/2 for t9 (against the converse's R2 = 0
    # slice) and for t10 (on the c12 = 0 channel), and the certificate's
    # decode-and-forward allowance for df
    dirs2, dirs3 = default_dirs_2d(), default_dirs_3d()
    step = 0.05
    ticks = np.linspace(0.0, 1.0, 21)
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), -1).reshape(-1, 2)
    outer = gb.BOUNDS["outer"]
    in_slice = outer.coeffs[:, :2].any(axis=1)   # R2 <= rhs is void at R2 = 0
    rng = np.random.default_rng(0)
    for _ in range(6):
        a = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        b = a * rng.uniform(0.0, 1.0) * rng.choice([-1.0, 1.0])
        ch = GaussianBc(a, b, rng.uniform(-0.95, 0.95), 10 ** rng.uniform(-1, 2),
                        c12=rng.uniform(0.0, 2.0), c21=rng.uniform(0.0, 2.0))
        ch0 = GaussianBc(ch.a, ch.b, ch.lam, ch.power, c21=ch.c21)
        g_df = gb.gap_certificate(ch, beta_step=step)["sections"][-1]["required_bits"]
        r2_slice = batch_support(outer.coeffs[in_slice][:, :2],
                                 outer.rows(grid, ch)[:, in_slice], dirs2,
                                 reduce_max=True)
        for h_out, inner, dirs, g in (
                (r2_slice, gb.BOUNDS["t9"].envelope(ch, step, dirs2), dirs2, 0.5),
                (outer.envelope(ch0, step, dirs3).supports,
                 gb.BOUNDS["t10"].envelope(ch0, step, dirs3), dirs3, 0.5),
                (outer.envelope(ch, step, dirs3).supports,
                 gb.BOUNDS["df"].envelope(ch, step, dirs3), dirs3, g_df)):
            excess = h_out - inner.supports - g * dirs.sum(axis=1)
            assert excess.max() <= 1e-9, (ch.to_json_dict(), excess.max())
