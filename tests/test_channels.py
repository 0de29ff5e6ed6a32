"""Channel containers, JSON round-trips, and the structural probes."""

import json
import math

import numpy as np
import pytest

from confbc.channels import (
    DmBroadcastChannel,
    GaussianBc,
    dump_channel,
    example_channel,
    is_semi_deterministic,
    kappa,
    load_channel,
    more_capable_evidence,
)
from confbc.errors import ChannelFormatError
from confbc.gridding import simplex_grid
from confbc.info_core import JointPmf, mutual_information


def test_dm_validation():
    good = np.full((2, 2, 2), 0.25)
    DmBroadcastChannel(good)  # fine
    with pytest.raises(ChannelFormatError):
        DmBroadcastChannel(np.full((2, 2), 0.5))      # wrong rank
    bad = good.copy()
    bad[0, 0, 0] = 0.5                                 # row sums to 1.25
    with pytest.raises(ChannelFormatError):
        DmBroadcastChannel(bad)
    with pytest.raises(ChannelFormatError):
        DmBroadcastChannel(good, c12=-0.1)


def test_gaussian_validation():
    GaussianBc(1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ChannelFormatError):
        GaussianBc(1.0, 0.5, 0.0, 0.0)                # power must be > 0
    with pytest.raises(ChannelFormatError):
        GaussianBc(1.0, 0.5, 1.5, 1.0)                # |lam| <= 1
    with pytest.raises(ChannelFormatError):
        GaussianBc(1.0, 0.5, 0.0, 1.0, c21=-1.0)


def test_dm_json_round_trip(tmp_path):
    ch = example_channel("dm-ex1", p=0.3, c12=0.25, c21=0.75)
    path = tmp_path / "ch.json"
    dump_channel(ch, path)
    back = load_channel(str(path))
    assert isinstance(back, DmBroadcastChannel)
    assert np.max(np.abs(back.transition - ch.transition)) == 0.0
    assert back.c12 == ch.c12 and back.c21 == ch.c21


def test_gaussian_json_round_trip(tmp_path):
    ch = GaussianBc(1.25, -0.5, 0.3, 4.0, c12=0.1, c21=0.2)
    path = tmp_path / "g.json"
    dump_channel(ch, path)
    back = load_channel(str(path))
    assert isinstance(back, GaussianBc)
    for field in ("a", "b", "lam", "power", "c12", "c21"):
        assert getattr(back, field) == getattr(ch, field)


def test_load_channel_accepts_dict_and_string():
    doc = GaussianBc(1.0, 0.5, 0.0, 2.0).to_json_dict()
    assert isinstance(load_channel(doc), GaussianBc)
    assert isinstance(load_channel(json.dumps(doc)), GaussianBc)


def test_load_channel_errors():
    with pytest.raises(ChannelFormatError):
        load_channel('{"type": "sideways"}')
    with pytest.raises(ChannelFormatError):
        load_channel('{"type": "gaussian", "a": 1.0}')   # missing fields
    with pytest.raises(ChannelFormatError):
        load_channel("{not json")
    with pytest.raises(ChannelFormatError):
        load_channel('[1, 2, 3]')
    # dm with a transition matrix whose flat shape disagrees with the cards
    with pytest.raises(ChannelFormatError):
        load_channel({"type": "dm", "x_card": 2, "y1_card": 2, "y2_card": 2,
                      "transition": [[0.5, 0.5], [0.5, 0.5]]})


def test_dm_flat_layout_is_y2_fastest():
    ch = example_channel("dm-ex1", p=0.2)
    doc = ch.to_json_dict()
    flat = np.asarray(doc["transition"])
    assert flat.shape == (2, 4)
    back = flat.reshape(2, 2, 2)
    assert np.max(np.abs(back - ch.transition)) == 0.0


# ---------------------------------------------------------------------------
# structural probes
# ---------------------------------------------------------------------------

def test_semi_deterministic_detection():
    # dm-ex1: Y2 = Z = Y1 xor X, a function of (X, Y1)
    flag, f = is_semi_deterministic(example_channel("dm-ex1"))
    assert flag
    for x in range(2):
        for y1 in range(2):
            assert f[x, y1] == (x ^ y1)
    # dm-ex2: Y2 = X xor Y1 as well (Y1 = Z there)
    flag2, f2 = is_semi_deterministic(example_channel("dm-ex2"))
    assert flag2
    # a noisy channel is not semi-deterministic
    t = np.full((2, 2, 2), 0.25)
    flag3, f3 = is_semi_deterministic(DmBroadcastChannel(t))
    assert not flag3 and f3 is None
    # (x, y1) = (0, 1) and (1, 0) never occur, so f is 0 there; elsewhere
    # f is the one y2 above the tolerance, as int64
    t = np.zeros((2, 2, 3))
    t[0, 0] = (1e-13, 0.0, 1.0 - 1e-13)
    t[1, 1, 1] = 1.0
    flag, f = is_semi_deterministic(DmBroadcastChannel(t))
    assert flag and f.dtype == np.int64
    assert f.tolist() == [[2, 0], [0, 1]]
    t[1, 1] = (0.0, 0.5, 0.5)
    assert is_semi_deterministic(DmBroadcastChannel(t)) == (False, None)


def test_more_capable_evidence_signs():
    # dm-ex2 sends the clean xor to receiver 2, so receiver 1 (pure noise)
    # is *not* more capable: the gap is negative.
    ev = more_capable_evidence(example_channel("dm-ex2", p=0.2), grid_step=0.1)
    assert ev["min_gap"] < -0.1
    # flipping the roles makes receiver 1 strictly better at every input
    ev1 = more_capable_evidence(example_channel("dm-ex1", p=0.2), grid_step=0.1)
    assert ev1["min_gap"] >= -1e-12
    assert len(ev1["argmin_px"]) == 2
    assert ev1["grid_step"] == 0.1
    # the gaps come from info_core's row table; the oracle prices each
    # grid point's mutual informations on the dense joint
    rng = np.random.default_rng(2)
    for nx, n1, n2 in ((2, 2, 2), (3, 2, 3), (4, 3, 2)):
        t = rng.dirichlet(np.ones(n1 * n2), size=nx).reshape(nx, n1, n2)
        ev = more_capable_evidence(DmBroadcastChannel(t), grid_step=0.1)
        gap = {}
        for px in simplex_grid(nx, 0.1):
            p = JointPmf(("X", "Y1", "Y2"), px[:, None, None] * t)
            gap[tuple(px)] = (mutual_information(p, ("X",), ("Y1",))
                              - mutual_information(p, ("X",), ("Y2",)))
        assert ev["min_gap"] == pytest.approx(min(gap.values()), abs=1e-12)
        assert gap[tuple(ev["argmin_px"])] == pytest.approx(ev["min_gap"], abs=1e-12)


def test_kappa_cases():
    # independent noises: plain sum of squares
    assert kappa(1.0, 0.5, 0.0) == pytest.approx(1.25, abs=1e-15)
    # generic correlated case, checked against the quadratic-form formula
    a, b, lam = 1.5, -0.7, 0.4
    want = (a * a + b * b - 2 * lam * a * b) / (1 - lam * lam)
    assert kappa(a, b, lam) == pytest.approx(want, rel=1e-15)
    # aligned perfectly-correlated case stays finite at a^2
    assert kappa(2.0, 2.0, 1.0) == pytest.approx(4.0, abs=1e-15)
    assert kappa(2.0, -2.0, -1.0) == pytest.approx(4.0, abs=1e-15)
    # misaligned |lam| = 1 blows up
    assert math.isinf(kappa(1.0, 0.5, 1.0))
    assert math.isinf(kappa(0.0, 1.0, 1.0))
    # mirror pair: b != lam * a at lam = -1
    assert math.isinf(kappa(1.0, 1.0, -1.0))


def test_example_channels():
    g = example_channel("g-mirror", power=2.0, c21=0.3)
    assert (g.a, g.b, g.lam, g.power, g.c21) == (1.0, 1.0, -1.0, 2.0, 0.3)
    g2 = example_channel("g-noise-at-2")
    assert (g2.a, g2.b, g2.lam) == (1.0, 0.0, 1.0)
    g3 = example_channel("g-noise-at-1")
    assert (g3.a, g3.b, g3.lam) == (0.0, 1.0, 1.0)
    ch = example_channel("dm-ex1", p=0.25)
    # row for x=0: (y1,y2) = (0,0) w.p. 0.75 and (1,1) w.p. 0.25
    assert ch.transition[0, 0, 0] == 0.75
    assert ch.transition[0, 1, 1] == 0.25
    assert ch.transition[1, 1, 0] == 0.75
    with pytest.raises(ChannelFormatError):
        example_channel("dm-ex99")
