"""Channel models: discrete memoryless and scalar Gaussian broadcast
channels with a rate-limited conferencing link between the two decoders
in each direction (c12 = decoder 1 -> decoder 2 bits/use, c21 the other
way).

JSON schemas
------------
discrete:  {"type": "dm", "x_card": 2, "y1_card": 2, "y2_card": 2,
            "transition": [[...], ...],   # one row per x, y2-fastest
            "c12": 0.1, "c21": 0.9}
gaussian:  {"type": "gaussian", "a": 1.0, "b": 0.5, "lambda": 1.0,
            "power": 4.0, "c12": 0.2, "c21": 0.7}
"""

import json
import math

import numpy as np

from .errors import ChannelFormatError
from .gridding import simplex_grid
from . import info_core


class DmBroadcastChannel:
    """P(y1, y2 | x) as a dense (|X|, |Y1|, |Y2|) array plus link rates."""

    kind = "dm"

    def __init__(self, transition, c12=0.0, c21=0.0):
        transition = np.asarray(transition, dtype=float)
        if transition.ndim != 3:
            raise ChannelFormatError("transition must be (x, y1, y2) shaped")
        if not np.all(np.isfinite(transition)):
            raise ChannelFormatError("transition entries must be finite")
        rows = transition.sum(axis=(1, 2))
        if np.any(np.abs(rows - 1.0) > 1e-9) or np.any(transition < -1e-12):
            raise ChannelFormatError("each P(.,.|x) must be a distribution")
        if not (math.isfinite(c12) and math.isfinite(c21)):
            raise ChannelFormatError("conference rates must be finite")
        if c12 < 0 or c21 < 0:
            raise ChannelFormatError("conference rates must be nonnegative")
        self.transition = transition
        self.x_card, self.y1_card, self.y2_card = transition.shape
        self.c12 = float(c12)
        self.c21 = float(c21)

    def to_json_dict(self):
        flat = self.transition.reshape(self.x_card, self.y1_card * self.y2_card)
        return {"type": "dm", "x_card": self.x_card, "y1_card": self.y1_card,
                "y2_card": self.y2_card, "transition": flat.tolist(),
                "c12": self.c12, "c21": self.c21}


class GaussianBc:
    """Y1 = a X + Z1, Y2 = b X + Z2; unit-variance noises with
    correlation lam; input power limit E X^2 <= power."""

    kind = "gaussian"

    def __init__(self, a, b, lam, power, c12=0.0, c21=0.0):
        fields = {"a": a, "b": b, "lambda": lam, "power": power, "c12": c12, "c21": c21}
        bad = [name for name, v in fields.items() if not math.isfinite(v)]
        if bad:
            raise ChannelFormatError("%s must be finite" % ", ".join(bad))
        if power <= 0:
            raise ChannelFormatError("power must be positive")
        if abs(lam) > 1:
            raise ChannelFormatError("noise correlation must be in [-1, 1]")
        if c12 < 0 or c21 < 0:
            raise ChannelFormatError("conference rates must be nonnegative")
        self.a = float(a)
        self.b = float(b)
        self.lam = float(lam)
        self.power = float(power)
        self.c12 = float(c12)
        self.c21 = float(c21)

    def to_json_dict(self):
        return {"type": "gaussian", "a": self.a, "b": self.b,
                "lambda": self.lam, "power": self.power,
                "c12": self.c12, "c21": self.c21}


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def load_channel(source):
    """Build a channel from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if str(source).lstrip()[:1] not in ("{", "["):
            with open(source) as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChannelFormatError("bad JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ChannelFormatError("channel JSON must be an object")
    kind = doc.get("type")
    try:
        if kind == "dm":
            if any(isinstance(v, bool) for v in
                   np.asarray(doc["transition"], dtype=object).ravel()):
                raise ChannelFormatError("transition entries must be numbers, not booleans")
            flat = np.asarray(doc["transition"], dtype=float)
            shape = tuple(_card(doc, key) for key in ("x_card", "y1_card", "y2_card"))
            if flat.shape != (shape[0], shape[1] * shape[2]):
                raise ChannelFormatError(
                    "transition must be %d rows of %d entries" % (shape[0], shape[1] * shape[2]))
            return DmBroadcastChannel(flat.reshape(shape), _number(doc, "c12", 0.0),
                                      _number(doc, "c21", 0.0))
        if kind == "gaussian":
            return GaussianBc(*(_number(doc, key) for key in ("a", "b", "lambda", "power")),
                              _number(doc, "c12", 0.0), _number(doc, "c21", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelFormatError("channel JSON missing/invalid field: %s" % exc) from exc
    raise ChannelFormatError("unknown channel type %r" % kind)


def _number(doc, key, default=None):
    """doc[key] (default when absent and given), refusing a boolean: JSON
    true and false are not numbers, though Python reads them as 1 and 0."""
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, bool):
        raise ChannelFormatError("%s must be a number, not a boolean" % key)
    return value


def _card(doc, key):
    """doc[key] as an alphabet size: a whole number, never truncated."""
    value = _number(doc, key)
    if not float(value).is_integer():
        raise ChannelFormatError("%s must be a whole number, got %r" % (key, value))
    return int(value)


def dump_channel(ch, path):
    with open(path, "w") as fh:
        json.dump(ch.to_json_dict(), fh, indent=1)


# ---------------------------------------------------------------------------
# structural probes
# ---------------------------------------------------------------------------

def is_semi_deterministic(ch):
    """Whether Y2 is a function of (X, Y1) wherever (x, y1) has positive
    channel probability (above 1e-12).  Returns (flag, f) with f[x, y1] =
    that y2 (zero-filled on impossible pairs), or (False, None).
    """
    live = ch.transition > 1e-12
    if np.any(live.sum(axis=2) > 1):
        return False, None
    return True, live.argmax(axis=2).astype(np.int64)


def more_capable_evidence(ch):
    """Sweep input pmfs at step 0.05 and report the minimum of I(X;Y1) - I(X;Y2).

    A nonnegative minimum over a fine grid is (numerical) evidence that
    receiver 1's marginal channel is more capable than receiver 2's.
    Returns {"min_gap", "argmin_px", "grid_step"}.
    """
    grid_step = 0.05
    px = simplex_grid(ch.x_card, grid_step)
    h = dict(zip(info_core.ROWS, info_core._price_rows(ch.transition, px)))
    gaps = (h["Y1"] - h["Y1|X"]) - (h["Y2"] - h["Y2|X"])
    k = int(np.argmin(gaps))
    return {"min_gap": float(gaps[k]), "argmin_px": px[k].tolist(),
            "grid_step": float(grid_step)}


def kappa(a, b, lam):
    """Effective combined-output SNR slope for correlated noises.

    Finite for |lam| < 1; at |lam| = 1 it stays finite (= a^2) only in
    the aligned case b = lam * a, and is +inf otherwise.  Elementwise
    over arrays of channel parameters; a scalar for scalars.
    """
    a, b, lam = (np.asarray(v, dtype=float) for v in (a, b, lam))
    edge = np.abs(lam) >= 1.0
    aligned = np.abs(b - lam * a) <= 1e-12 * np.maximum(1.0, np.abs(a))
    # the edge takes no part in the division, which would be by zero there
    free = (a * a + b * b - 2.0 * lam * a * b) / np.where(edge, 1.0, 1.0 - lam * lam)
    return np.where(edge, np.where(aligned, a * a, math.inf), free)[()]


# ---------------------------------------------------------------------------
# worked example channels
# ---------------------------------------------------------------------------

def example_channel(name, p=0.2, power=1.0, c12=0.0, c21=0.0):
    """Small channels used throughout the docs and test suites.

    dm-ex1        Y1 = X xor Z, Y2 = Z          (Z ~ Bern(p))
    dm-ex2        Y1 = Z,       Y2 = X xor Z    (Z ~ Bern(p))
    g-mirror      Y1 = X + Z,   Y2 = X - Z      (a=1, b=1, lam=-1)
    g-noise-at-2  Y1 = X + Z,   Y2 = Z          (a=1, b=0, lam=1)
    g-noise-at-1  Y1 = Z,       Y2 = X + Z      (a=0, b=1, lam=1)
    """
    if name == "dm-ex1":
        t = np.zeros((2, 2, 2))
        for x in range(2):
            for z in range(2):
                t[x, x ^ z, z] = p if z else 1.0 - p
        return DmBroadcastChannel(t, c12, c21)
    if name == "dm-ex2":
        t = np.zeros((2, 2, 2))
        for x in range(2):
            for z in range(2):
                t[x, z, x ^ z] = p if z else 1.0 - p
        return DmBroadcastChannel(t, c12, c21)
    if name == "g-mirror":
        return GaussianBc(1.0, 1.0, -1.0, power, c12, c21)
    if name == "g-noise-at-2":
        return GaussianBc(1.0, 0.0, 1.0, power, c12, c21)
    if name == "g-noise-at-1":
        return GaussianBc(0.0, 1.0, 1.0, power, c12, c21)
    raise ChannelFormatError("no example channel named %r" % name)
