"""Simplex grids and the evaluation budget for the parameter sweeps.

A "simplex grid" with step 1/n over k cells is the set of probability
vectors whose entries are integer multiples of 1/n summing to 1, i.e.
the compositions of n into k parts, enumerated in a fixed lexicographic
order so sweeps are reproducible run to run.
"""

import math
from itertools import chain, combinations, islice

import numpy as np

from .errors import GridTooLargeError

EVAL_BUDGET = 10 ** 8
_SWEEP_CHUNK = 65536    # grid points per block of a bound sweep


def simplex_grid_size(cells, step):
    """Number of grid points: C(n+k-1, k-1) with n = round(1/step)."""
    n = _units(step)
    return math.comb(n + cells - 1, cells - 1)


def check_budget(n_points, budget=EVAL_BUDGET):
    if n_points > budget:
        raise GridTooLargeError(
            "sweep needs %d evaluations, over the %d budget" % (n_points, budget))


def _budgeted_chunks(cells, step):
    """simplex_grid_chunks in _SWEEP_CHUNK blocks after check_budget; a
    grid over the budget fails naming the finest step 1/n that fits."""
    try:
        check_budget(simplex_grid_size(cells, step))
    except GridTooLargeError as exc:
        lo, hi = 1, EVAL_BUDGET         # C(n+k-1, k-1) >= n+1 rises with n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if simplex_grid_size(cells, 1.0 / mid) <= EVAL_BUDGET:
                lo = mid
            else:
                hi = mid - 1
        raise GridTooLargeError(
            "%s; the finest step that fits is 1/%d = %r (%d points)"
            % (exc, lo, 1.0 / lo, simplex_grid_size(cells, 1.0 / lo))) from None
    return simplex_grid_chunks(cells, step, chunk=_SWEEP_CHUNK)


def simplex_grid_chunks(cells, step, chunk=200_000):
    """Yield (m, cells) float arrays covering the whole grid, in order.

    Rows are exact multiples of 1/n and sum to 1 exactly up to float
    division (the integer counts always sum to n).
    """
    n = _units(step)
    if cells == 1:
        yield np.ones((1, 1))
        return
    slots = n + cells - 1
    it = combinations(range(slots), cells - 1)
    while True:
        d = np.fromiter(chain.from_iterable(islice(it, chunk)),
                        np.int64).reshape(-1, cells - 1)
        if d.shape[0] == 0:
            return
        parts = np.empty((d.shape[0], cells), dtype=np.int64)
        parts[:, 0] = d[:, 0]
        if cells > 2:
            parts[:, 1:-1] = d[:, 1:] - d[:, :-1] - 1
        parts[:, -1] = slots - 1 - d[:, -1]
        yield parts / float(n)


def simplex_grid(cells, step):
    """Whole grid as one array; use the chunked form for big sweeps."""
    return np.concatenate(list(simplex_grid_chunks(cells, step)), axis=0)


def _units(step):
    step = float(step)
    if not step > 0.0:
        raise ValueError("step must be 1/n for a positive integer n, got %r" % step)
    n = int(round(1.0 / step))
    if n < 1 or abs(n * step - 1.0) > 1e-9 * n:
        raise ValueError("step must be 1/n for a positive integer n, got %r" % step)
    return n

