"""Discrete information measures on dense joint pmfs.

Everything is in bits (base-2 logs).  Joint distributions are stored as
dense numpy arrays with one axis per variable, which is fine for the
small alphabets this package sweeps over; a guard refuses tables whose
total size would exceed MAX_CELLS.

_price_rows is the one batch information-term kernel: the conditional
output entropies of many rows of P(a, x) through one channel, without
forming any joint.  The dm_bounds grid sweeps and
channels.more_capable_evidence both read it.

Conventions:
  * 0 * log 0 = 0
  * mutual informations that land in (-1e-12, 0) from rounding are
    snapped to 0; anything more negative is returned as-is so a real
    bug stays visible.
"""

import numpy as np

MASS_TOL = 1e-12
NEG_TOL = 1e-12
MAX_CELLS = 10 ** 7
# the output sets _price_rows prices, and its rows by name
OUTPUTS = ("Y1", "Y2", "Y1Y2")
ROWS = OUTPUTS + tuple(y + "|X" for y in OUTPUTS)


def xlog2x(p):
    """Elementwise p*log2(p) with the 0*log0=0 convention (entries <= 0
    give 0).  One temporary: log2 and the product run in place on it."""
    p = np.asarray(p, dtype=float)
    out = np.where(p > 0, p, 1.0)
    np.log2(out, out=out)
    np.multiply(out, p, out=out)
    return out


def binary_entropy(p):
    """h(p) = -p log2 p - (1-p) log2 (1-p)."""
    return float(-xlog2x(p) - xlog2x(1.0 - p))


# ---------------------------------------------------------------------------
# pmf containers
# ---------------------------------------------------------------------------

class JointPmf:
    """Dense joint distribution over named variables.

    names  -- tuple of variable names, one per table axis
    table  -- ndarray, table[i1,...,ik] = P(v1=i1, ..., vk=ik)
    """

    def __init__(self, names, table):
        table = np.asarray(table, dtype=float)
        names = tuple(names)
        if len(names) != table.ndim:
            raise ValueError("need one name per table axis")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if table.size > MAX_CELLS:
            raise ValueError(
                "joint alphabet has %d cells, over the %d cap" % (table.size, MAX_CELLS))
        _check_mass(table)
        self.names = names
        self.table = table
        self._axis = {n: i for i, n in enumerate(names)}

    def marginal(self, names):
        """Marginal JointPmf over the given subset, in the subset's order."""
        keep = tuple(names)
        drop = tuple(i for n, i in self._axis.items() if n not in keep)
        sub = self.table.sum(axis=drop) if drop else self.table
        # sum() above keeps surviving axes in original order; permute to request
        order = [n for n in self.names if n in keep]
        perm = [order.index(n) for n in keep]
        return JointPmf(keep, np.transpose(sub, perm))


def _check_mass(table):
    if np.any(table < -NEG_TOL):
        raise ValueError("negative probability entry")
    s = float(table.sum())
    if abs(s - 1.0) > MASS_TOL:
        raise ValueError("probability mass is %r, not 1 within %g" % (s, MASS_TOL))


# ---------------------------------------------------------------------------
# entropies and mutual informations
# ---------------------------------------------------------------------------

def entropy(p, names=None):
    """H(names) in bits; all variables of p when names is None."""
    if names is None:
        table = p.table
    else:
        keep = set(names)
        drop = tuple(i for n, i in p._axis.items() if n not in keep)
        table = p.table.sum(axis=drop) if drop else p.table
    return float(-xlog2x(table).sum())


def mutual_information(p, a, b, given=()):
    """I(a ; b | given) in bits.

    a, b, given are disjoint tuples of variable names of p.  Computed as
    H(a,g) + H(b,g) - H(a,b,g) - H(g), which only touches four
    marginalizations of the dense table.
    """
    a, b, g = tuple(a), tuple(b), tuple(given)
    overlap = (set(a) & set(b)) | (set(a) & set(g)) | (set(b) & set(g))
    if overlap:
        raise ValueError("variable groups overlap: %s" % sorted(overlap))
    v = entropy(p, a + g) + entropy(p, b + g) - entropy(p, a + b + g)
    if g:
        v -= entropy(p, g)
    if -NEG_TOL < v < 0.0:
        return 0.0
    return v


def _price_rows(t, rows):
    """The row table of (R, X) rows r of P(a, x) under the transition t
    of shape (|X|, |Y1|, |Y2|), one column per row r and a row per name
    in ROWS: (6, R), g_Y(r) = f_Y(r) - f(r) = p(a) H(Y | A=a) for Y in
    OUTPUTS, f_Y(r) = -sum_y xlog2x((r T_Y)_y), f(r) = -xlog2x(sum_x r_x),
    then r @ H(Y | X=x).  For an input pmf r, "Y1" is H(Y1).  One GEMM
    against a ones column and the blocks T_Y side by side, one xlog2x,
    and one GEMM against a -1 segment matrix; the unit rows e_x ride
    along, as g_Y(e_x) = H(Y | X=x)."""
    nx = t.shape[0]
    outs = [np.ones((nx, 1)), t.sum(axis=2), t.sum(axis=1), t.reshape(nx, -1)]
    widths = [o.shape[1] for o in outs]
    seg = np.zeros((len(outs), sum(widths)))
    seg[np.repeat(np.arange(len(outs)), widths), np.arange(seg.shape[1])] = -1.0
    f = seg @ xlog2x(np.vstack([rows, np.eye(nx)]) @ np.hstack(outs)).T
    return np.vstack([f[1:, :-nx] - f[0, :-nx], f[1:, -nx:] @ rows.T])


# ---------------------------------------------------------------------------
# composing auxiliaries with a broadcast channel and quantizers
# ---------------------------------------------------------------------------

def compose_joint(aux, channel, q1=None, q2=None, q2_on_w=False):
    """Join auxiliaries, channel, and decoder-side quantizers into one pmf.

    aux      -- JointPmf over (U, V, W, X), in that axis order
    channel  -- object with .transition of shape (|X|, |Y1|, |Y2|)
    q1       -- P(yh1 | u, w, y1), shape (|U|,|W|,|Y1|,|Yh1|); None = constant
    q2       -- P(yh2 | y2), shape (|Y2|,|Yh2|); with q2_on_w=True instead
                P(yh2 | w, y2) of shape (|W|,|Y2|,|Yh2|); None = constant
    returns  -- JointPmf over (U,V,W,X,Y1,Y2,Yh1,Yh2)

    The output marginalized back to (U,V,W,X) reproduces aux exactly up
    to float addition order, which the tests pin at 1e-12.
    """
    if aux.table.ndim != 4:
        raise ValueError("aux must have four axes (U,V,W,X)")
    t = np.asarray(channel.transition, dtype=float)
    nu, nv, nw, nx = aux.table.shape
    if t.shape[0] != nx:
        raise ValueError("channel input alphabet disagrees with aux X axis")
    ny1, ny2 = t.shape[1], t.shape[2]
    if q1 is None:
        q1 = np.ones((nu, nw, ny1, 1))
    if q2 is None:
        q2 = np.ones((ny2, 1)) if not q2_on_w else np.ones((nw, ny2, 1))
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    _check_rows(q1, "q1")
    _check_rows(q2, "q2")
    if q2_on_w:
        table = np.einsum("uvwx,xab,uwac,wbd->uvwxabcd", aux.table, t, q1, q2,
                          optimize=True)
    else:
        table = np.einsum("uvwx,xab,uwac,bd->uvwxabcd", aux.table, t, q1, q2,
                          optimize=True)
    names = aux.names + ("Y1", "Y2", "Yh1", "Yh2")
    return JointPmf(names, table)


def _check_rows(cond, label):
    rows = cond.sum(axis=-1)
    if np.any(np.abs(rows - 1.0) > 1e-9) or np.any(cond < -NEG_TOL):
        raise ValueError("%s rows must each sum to 1 and be nonnegative" % label)
