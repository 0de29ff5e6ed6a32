"""Simplex grids: counts, exactness, chunking, the evaluation budget."""

import math
from itertools import combinations

import numpy as np
import pytest

from confbc.errors import GridTooLargeError
from confbc.gridding import (
    EVAL_BUDGET,
    check_budget,
    simplex_grid,
    simplex_grid_chunks,
    simplex_grid_size,
)


def test_grid_size_is_compositions_count():
    # n = 4 units over 3 cells: C(6, 2) = 15
    assert simplex_grid_size(3, 0.25) == 15
    assert simplex_grid_size(1, 0.125) == 1
    assert simplex_grid_size(2, 0.5) == 3      # (1,0), (.5,.5), (0,1)


def test_grid_rows_are_exact_multiples():
    g = simplex_grid(3, 0.5)
    assert g.shape == (6, 3)
    assert np.allclose(g.sum(axis=1), 1.0, atol=1e-15)
    assert np.all(np.abs(g * 2 - np.round(g * 2)) < 1e-12)
    # lexicographic order is stable: first row puts no mass up front
    assert g[0].tolist() == [0.0, 0.0, 1.0] or g[0].tolist() == [1.0, 0.0, 0.0]
    # every distinct point appears exactly once
    assert len({tuple(r) for r in np.round(g, 12)}) == 6


def test_chunking_matches_whole_grid():
    whole = simplex_grid(4, 0.25)
    parts = np.concatenate(list(simplex_grid_chunks(4, 0.25, chunk=7)), axis=0)
    assert whole.shape == parts.shape == (35, 4)
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("chunk", [1, 7, 10_000])
def test_chunks_match_stars_and_bars(chunk):
    # every composition of n = 5 into 4 parts, from the bar positions
    n, cells = 5, 4
    want = [[hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (n + cells - 1,))]
            for bars in combinations(range(n + cells - 1), cells - 1)]
    blocks = list(simplex_grid_chunks(cells, 1.0 / n, chunk=chunk))
    assert [len(b) for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)
    got = np.concatenate(blocks, axis=0)
    assert np.array_equal(got, np.array(want) / float(n))


def test_single_cell_grid():
    g = simplex_grid(1, 0.01)
    assert g.shape == (1, 1) and g[0, 0] == 1.0


def test_step_validation():
    with pytest.raises(ValueError):
        simplex_grid_size(3, 0.3)
    with pytest.raises(ValueError):
        simplex_grid(3, 0.0)


def test_budget_guard():
    check_budget(EVAL_BUDGET)              # at the line is fine
    with pytest.raises(GridTooLargeError):
        check_budget(EVAL_BUDGET + 1)
    with pytest.raises(GridTooLargeError):
        check_budget(10, budget=5)
    assert simplex_grid_size(32, 0.001) > EVAL_BUDGET   # why the guard exists

