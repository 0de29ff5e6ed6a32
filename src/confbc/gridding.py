"""Simplex grids, their sorted (symmetry-reduced) form, and the
evaluation budget for the parameter sweeps.

A grid with step 1/n over `parts` parts of `cells` cells each is the set
of probability vectors of parts * cells entries that are integer
multiples of 1/n, i.e. the compositions of n into parts * cells
entries.  Its *sorted* form keeps the points whose part sums are
non-increasing, m_1 >= m_2 >= ... >= m_parts >= 0: one representative
(or more) of every orbit under permutations of the parts.

sorted_grid_chunks emits these points as integer counts in one fixed
order, so sweeps are reproducible run to run:

  * the partitions (m_1, ..., m_parts) of n, first part descending,
    then the rest in the same order recursively, from (n, 0, ..., 0);
  * within one partition, the product of the compositions of each m_i
    over the cells, part 1 slowest, each in lexicographic order.

One part is the plain simplex grid: the compositions of n into `cells`
entries in lexicographic order, which is what simplex_grid returns
(divided by n).
"""

import math

import numpy as np

from .errors import GridTooLargeError

EVAL_BUDGET = 10 ** 8
_SWEEP_CHUNK = 65536    # grid points per block of a bound sweep


def sorted_grid_size(parts, cells, step):
    """Number of points of the sorted grid: the sum over the partitions
    of n of the product of C(m_i + cells - 1, cells - 1).  One part
    gives C(n + cells - 1, cells - 1).  The cost is one term per
    partition of n into `parts` parts."""
    n = _units(step)
    return sum(math.prod(math.comb(m + cells - 1, cells - 1) for m in p)
               for p in _partitions(n, parts, n))


def _budgeted_chunks(parts, cells, step):
    """(size, sorted_grid_chunks in _SWEEP_CHUNK blocks) after the budget
    check of _fit_budget."""
    size = _fit_budget(_units(step), lambda m: _count(parts, cells, m))
    return size, sorted_grid_chunks(parts, cells, step)


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
            "sweep needs %s%d evaluations, over the %d-point budget; the "
            "finest step within that point budget is 1/%d = %r (%d points), "
            "which bounds the grid, not the run time"
            % ("" if exact else "at least ", size, EVAL_BUDGET, lo, 1.0 / lo,
               count(lo)[0]))
    return size


def _count(parts, cells, n):
    """(size, exact) of the sorted grid at step 1/n, without walking the
    partitions of a grid that is far over the budget.  Relabelling the
    parts moves a point inside an orbit of at most parts! points, and
    the sorted grid holds at least one point of every orbit, so its size
    is at least the full grid's over parts!.  When that floor is over
    parts! budgets it is returned instead of the size."""
    floor = -(-math.comb(n + parts * cells - 1, parts * cells - 1)
              // math.factorial(parts))
    if parts > 1 and floor > math.factorial(parts) * EVAL_BUDGET:
        return floor, False
    return sorted_grid_size(parts, cells, 1.0 / n), True


def sorted_grid_chunks(parts, cells, step, chunk=_SWEEP_CHUNK):
    """Yield (rows, parts * cells) int64 count blocks covering the
    sorted grid in the module's order; every row sums to n.  Blocks
    hold `chunk` rows, the last one fewer."""
    n = _units(step)
    if math.comb(n + cells - 1, cells - 1) > np.iinfo(np.int64).max:
        raise GridTooLargeError("a grid part has too many points to enumerate")
    # table[r, s] = C(s + r - 1, r - 1), the compositions of s into r cells
    table = np.zeros((cells + 1, n + 1), dtype=np.int64)
    table[1] = 1
    for r in range(2, cells + 1):
        table[r] = np.cumsum(table[r - 1])
    width = parts * cells
    block, pos = np.empty((chunk, width), dtype=np.int64), 0
    for part in _partitions(n, parts, n):
        sizes = [int(table[cells, m]) for m in part]
        total, done = math.prod(sizes), 0
        while done < total:
            take = min(chunk - pos, total - done)
            digits = np.unravel_index(np.arange(done, done + take), sizes)
            for i, (m, rank) in enumerate(zip(part, digits)):
                block[pos:pos + take, i * cells:(i + 1) * cells] = \
                    _unrank(rank, m, cells, table)
            pos += take
            done += take
            if pos == chunk:
                yield block
                block, pos = np.empty((chunk, width), dtype=np.int64), 0
    if pos:
        yield block[:pos]


def _partitions(n, parts, top):
    """Non-increasing `parts`-tuples of parts <= top summing to n, the
    first part descending."""
    if parts == 1:
        if n <= top:
            yield (n,)
        return
    for m in range(min(n, top), -(-n // parts) - 1, -1):
        for rest in _partitions(n - m, parts - 1, m):
            yield (m,) + rest


def _unrank(rank, total, cells, table):
    """Rows of the compositions of `total` into `cells` entries with the
    given lexicographic ranks.  Those whose first entry is below f number
    table[r, t] - table[r, t - f] (r cells, sum t), so the first entry
    leaves the smallest s with table[r, s] >= table[r, t] - rank to the
    cells after it."""
    out = np.empty((rank.size, cells), dtype=np.int64)
    t = total
    for j in range(cells - 1):
        below = table[cells - j]
        after = below[t] - rank
        s = np.searchsorted(below, after)
        out[:, j] = t - s
        rank = below[s] - after
        t = s
    out[:, -1] = t
    return out


def simplex_grid(cells, step):
    """The whole plain simplex grid at step 1/n as one float array,
    rows exact multiples of 1/n; sweeps walk sorted_grid_chunks."""
    counts = np.concatenate(list(sorted_grid_chunks(1, cells, step)), axis=0)
    return counts / float(_units(step))


def _units(step):
    step = float(step)
    if not step > 0.0:
        raise ValueError("step must be 1/n for a positive integer n, got %r" % step)
    n = int(round(1.0 / step))
    if n < 1 or abs(n * step - 1.0) > 1e-9 * n:
        raise ValueError("step must be 1/n for a positive integer n, got %r" % step)
    return n
