"""Simplex grids, their sorted (one point per orbit) form, and the
evaluation budget for the parameter sweeps.

A grid with step 1/n over `parts` parts of `cells` cells each is the set
of probability vectors of parts * cells entries that are integer
multiples of 1/n, i.e. the compositions of n into parts * cells
entries.  Its *sorted* form keeps the one point of each orbit under
permutations of the parts whose parts are ordered by sum m, descending,
then by index in the lexicographic list of the L_m compositions of m;
the order is total, so that point is unique.  sorted_grid_blocks emits
them in one fixed order, so sweeps are reproducible run to run: the
partitions m_1 >= ... >= m_parts >= 0 of n, first part descending, then
the rest in the same order recursively, from (n, 0, ..., 0); within one,
the product of its runs of r equal parts m, the first slowest, each the
non-decreasing r-tuples of indices into m's list in lexicographic order.
Every part is gathered from its list (counts, or the lattice codes
dm_bounds makes of it), so no point is unranked.  One part is the plain
simplex grid in lexicographic order: simplex_grid, divided by n.
"""

import functools
import math
from collections import Counter
from itertools import accumulate, chain, combinations, combinations_with_replacement, islice

import numpy as np

from .errors import GridTooLargeError

EVAL_BUDGET = 10 ** 8
_SWEEP_CHUNK = 65536    # grid points per block of a bound sweep


def sorted_grid_size(parts, cells, step):
    """Number of points of the sorted grid: the sum over the partitions
    of n of the product over each run of r equal parts m of
    C(L_m + r - 1, r), L_m = C(m + cells - 1, cells - 1).  One part gives
    L_n.  The cost is one term per partition of n into `parts` parts."""
    n = _units(step)
    return sum(math.prod(math.comb(math.comb(m + cells - 1, cells - 1) + r - 1, r)
                         for m, r in Counter(p).items())
               for p in _partitions(n, parts, n))


def _fit_budget(n, count):
    """The size of a grid at step 1/n, whose size at step 1/m is count(m)
    -> (size, exact), rising with m.  A grid over the budget fails
    naming the finest step 1/m whose point count fits.  The budget
    counts points, not seconds: what a point costs depends on the bound,
    so a step that fits may still run long."""
    size, exact = count(n)
    if size > EVAL_BUDGET:
        lo, hi = 1, n - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if count(mid)[0] <= EVAL_BUDGET:
                lo = mid
            else:
                hi = mid - 1
        raise GridTooLargeError(
            "sweep needs %s evaluations, over the %d-point budget; the "
            "finest step within that point budget is 1/%d = %r (%d points), "
            "which bounds the grid, not the run time"
            % (_count_text(size, exact), EVAL_BUDGET, lo, 1.0 / lo, count(lo)[0]))
    return size


def _count_text(size, exact):
    """A point count for a message: its digits up to 40 of them, else
    its first four digits and its power of ten, from integer arithmetic
    (Python refuses str() of an int past 4,300 digits, and float()
    overflows past 1e308).  Such a count is cut, not rounded, so it is
    "at least" the figure, as is an inexact one."""
    if size < 10 ** 40:
        return "%s%d" % ("" if exact else "at least ", size)
    digits = int(math.log10(size))          # off by one at most; fixed below
    digits += (10 ** (digits + 1) <= size) - (10 ** digits > size)
    lead = size // 10 ** (digits - 3)
    return "at least %d.%03de+%d" % (lead // 1000, lead % 1000, digits)


def _count(parts, cells, n):
    """(size, exact) of the sorted grid at step 1/n, without walking the
    partitions of a grid that is far over the budget.  An orbit holds at
    most parts! points and the sorted grid one of each, so its size is
    at least the full grid's over parts!.  When that floor is over parts!
    budgets it is returned instead of the size."""
    floor = -(-math.comb(n + parts * cells - 1, parts * cells - 1)
              // math.factorial(parts))
    if parts > 1 and floor > math.factorial(parts) * EVAL_BUDGET:
        return floor, False
    return sorted_grid_size(parts, cells, 1.0 / n), True


def sorted_grid_blocks(parts, cells, step, emit=lambda c: c, chunk=_SWEEP_CHUNK):
    """Yield (parts, w, points) blocks of the sorted grid in the module's
    order, `chunk` points each, the last one fewer: [i, :, j] is part i of
    point j, a row of emit(c) for the (L, cells) int64 composition list c
    it is gathered from (by default the counts, w = cells).  Buffers are
    whole chunks: their freed size moves glibc's mmap threshold for later
    pricing."""
    n = _units(step)
    if parts == 1:      # the one list is the grid: read it in pieces
        pieces = (emit(c).T[None] for c in _compositions(n, cells, chunk))
    else:
        lists = {m: emit(np.vstack([*_compositions(m, cells, chunk)])) for m in range(n + 1)}

        @functools.lru_cache(maxsize=None)
        def run(m, r):      # (r, w, N_run): the non-decreasing r-tuples of m's list
            every = combinations_with_replacement(range(len(lists[m])), r)
            at = np.fromiter(chain.from_iterable(every), np.intp).reshape(-1, r)
            return np.ascontiguousarray(lists[m][at].transpose(1, 2, 0))

        pieces = (piece for p in _partitions(n, parts, n)
                  for piece in _pieces([run(m, r) for m, r in Counter(p).items()], chunk))
    block, pos = None, chunk
    for piece in pieces:
        while piece.shape[-1]:
            if pos == chunk:
                block, pos = np.empty(piece.shape[:2] + (chunk,), piece.dtype), 0
            take = min(chunk - pos, piece.shape[-1])
            block[..., pos:pos + take], piece = piece[..., :take], piece[..., take:]
            pos += take
            if pos == chunk:
                yield block
    if 0 < pos < chunk:
        yield block[..., :pos]


def _compositions(m, cells, chunk):
    """The compositions of m over the cells, lexicographic, in (<= chunk,
    cells) int64 pieces: the gaps between cells - 1 bars in m + cells - 1 slots."""
    bars = combinations(range(m + cells - 1), cells - 1)
    for lo in range(0, math.comb(m + cells - 1, cells - 1), chunk):
        take = min(chunk, math.comb(m + cells - 1, cells - 1) - lo)
        at = np.fromiter(chain.from_iterable(islice(bars, take)), np.int64,
                         take * (cells - 1)).reshape(take, cells - 1)
        yield np.diff(at, axis=1, prepend=-1, append=m + cells - 1) - 1


def _pieces(runs, chunk):
    """The product of the runs ((r, w, N_run) each, the first slowest) in
    pieces of max(chunk, rest) points at most, each run on its own axis."""
    step = max(1, chunk // math.prod(p.shape[-1] for p in runs[1:]))
    for i in range(0, runs[0].shape[-1], step):
        now = [runs[0][..., i:i + step]] + runs[1:]
        shape = tuple(p.shape[-1] for p in now)
        out = np.empty((sum(len(p) for p in now), now[0].shape[1]) + shape, now[0].dtype)
        at = (0, *accumulate(map(len, now)))
        for a, p in enumerate(now):
            out[at[a]:at[a + 1]] = p.reshape(p.shape[:2] + (1,) * a + shape[a:a + 1]
                                             + (1,) * (len(shape) - a - 1))
        yield out.reshape(out.shape[:2] + (-1,))


def _partitions(n, parts, top):
    """Non-increasing `parts`-tuples of parts <= top summing to n, the
    first part descending."""
    if parts == 1:
        return iter([(n,)] if n <= top else [])
    return ((m,) + rest for m in range(min(n, top), -(-n // parts) - 1, -1)
            for rest in _partitions(n - m, parts - 1, m))


def simplex_grid(cells, step):
    """The whole plain simplex grid at step 1/n as one float array,
    rows exact multiples of 1/n; sweeps walk sorted_grid_blocks."""
    counts = np.concatenate(list(_compositions(_units(step), cells, _SWEEP_CHUNK)))
    return counts / float(_units(step))


def _units(step):
    step = float(step)
    if not step > 0.0:
        raise ValueError("step must be 1/n for a positive integer n, got %r" % step)
    n = int(round(1.0 / step))
    if n < 1 or abs(n * step - 1.0) > 1e-9 * n:
        raise ValueError("step must be 1/n for a positive integer n, got %r" % step)
    return n
