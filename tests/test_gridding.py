"""Simplex grids and their sorted form: counts, exactness, order,
chunking, the evaluation budget."""

import math
from itertools import combinations

import numpy as np
import pytest

import confbc.gridding as gridding
from confbc.errors import GridTooLargeError
from confbc.gridding import (
    _SWEEP_CHUNK,
    EVAL_BUDGET,
    _budgeted_chunks,
    simplex_grid,
    sorted_grid_chunks,
    sorted_grid_size,
)


def test_grid_size_is_compositions_count():
    # n = 4 units over 3 cells: C(6, 2) = 15
    for cells, step, size in ((3, 0.25, 15), (1, 0.125, 1),
                              (2, 0.5, 3)):      # (1,0), (.5,.5), (0,1)
        assert sorted_grid_size(1, cells, step) == size
        assert simplex_grid(cells, step).shape == (size, cells)


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
    parts = np.concatenate(list(sorted_grid_chunks(1, 4, 0.25, chunk=7)), axis=0)
    assert whole.shape == parts.shape == (35, 4)
    assert np.array_equal(whole, parts / 4.0)


@pytest.mark.parametrize("chunk", [1, 7, 10_000])
def test_chunks_match_stars_and_bars(chunk):
    # every composition of n = 5 into 4 parts, from the bar positions
    n, cells = 5, 4
    want = [[hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (n + cells - 1,))]
            for bars in combinations(range(n + cells - 1), cells - 1)]
    blocks = list(sorted_grid_chunks(1, cells, 1.0 / n, chunk=chunk))
    assert [len(b) for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)
    got = np.concatenate(blocks, axis=0)
    assert np.array_equal(got, want)
    assert np.array_equal(simplex_grid(cells, 1.0 / n), np.array(want) / float(n))


def test_single_cell_grid():
    g = simplex_grid(1, 0.01)
    assert g.shape == (1, 1) and g[0, 0] == 1.0


def test_step_validation():
    with pytest.raises(ValueError):
        sorted_grid_size(1, 3, 0.3)
    with pytest.raises(ValueError):
        simplex_grid(3, 0.0)


def test_budget_guard(monkeypatch):
    # a grid of exactly the budget's size passes; one point over fails
    size = sorted_grid_size(2, 3, 1 / 6)
    monkeypatch.setattr(gridding, "EVAL_BUDGET", size)
    assert _budgeted_chunks(2, 3, 1 / 6)[0] == size
    monkeypatch.setattr(gridding, "EVAL_BUDGET", size - 1)
    with pytest.raises(GridTooLargeError):
        _budgeted_chunks(2, 3, 1 / 6)
    assert sorted_grid_size(1, 32, 0.001) > EVAL_BUDGET   # why the guard exists



def _sorted_grid(parts, cells, n, chunk=_SWEEP_CHUNK):
    return np.concatenate(list(sorted_grid_chunks(parts, cells, 1.0 / n,
                                                  chunk=chunk)), axis=0)


@pytest.mark.parametrize("parts,cells,n", [
    (1, 1, 7), (1, 5, 6), (2, 1, 9), (2, 2, 10), (3, 2, 12), (4, 2, 9),
    (2, 6, 5), (4, 8, 3), (5, 3, 6)])
def test_sorted_grid_size_counts_the_rows(parts, cells, n):
    g = _sorted_grid(parts, cells, n, chunk=97)
    assert g.dtype == np.int64 and g.shape == (sorted_grid_size(parts, cells, 1.0 / n),
                                               parts * cells)
    assert np.all(g >= 0) and np.all(g.sum(axis=1) == n)
    sums = g.reshape(-1, parts, cells).sum(axis=2)
    assert np.all(np.diff(sums, axis=1) <= 0)          # marginal sorted
    assert len({r.tobytes() for r in g}) == g.shape[0]  # no point twice


def test_sorted_grid_one_part_is_the_simplex_grid():
    assert sorted_grid_size(1, 4, 0.2) == len(simplex_grid(4, 0.2)) == 56
    assert sorted_grid_size(1, 32, 0.001) == math.comb(1031, 31)


def test_budget_names_the_orbit_floor_of_a_far_grid():
    # 4 parts of 2 cells at step 1e-6 is not counted point by point: the
    # full grid over 4! is already far over the budget
    with pytest.raises(GridTooLargeError) as exc:
        _budgeted_chunks(4, 2, 1e-6)
    floor = -(-math.comb(10 ** 6 + 7, 7) // 24)
    assert "sweep needs at least %d evaluations" % floor in str(exc.value)
    assert "1/68 = %r (95457983 points)" % (1 / 68) in str(exc.value)


@pytest.mark.parametrize("parts,cells,n", [(2, 2, 6), (3, 2, 5), (4, 2, 4),
                                           (3, 3, 4), (2, 4, 4)])
def test_sorted_grid_holds_every_point_sorted_by_marginal(parts, cells, n):
    got = {r.tobytes() for r in _sorted_grid(parts, cells, n)}
    full = np.rint(simplex_grid(parts * cells, 1.0 / n) * n).astype(np.int64)
    for p in full.reshape(-1, parts, cells):
        order = np.argsort(-p.sum(axis=1), kind="stable")
        assert p[order].tobytes() in got


@pytest.mark.parametrize("cells,n", [(1, 5), (2, 9), (3, 7), (5, 4)])
def test_one_part_keeps_the_stars_and_bars_order(cells, n):
    # channels.more_capable_evidence and the v_card = 1 sweeps of the
    # dm-example1 suite read points in this order
    want = [[hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (n + cells - 1,))]
            for bars in combinations(range(n + cells - 1), cells - 1)]
    got = _sorted_grid(1, cells, n, chunk=4)
    assert got.tobytes() == np.array(want, dtype=np.int64).tobytes()
    assert simplex_grid(cells, 1.0 / n).tobytes() == (got / float(n)).tobytes()


def test_sorted_grid_blocks_fit_the_sweep_chunk():
    # 4 parts of 2 cells at step 1/24 is over two sweep blocks
    blocks = list(sorted_grid_chunks(4, 2, 1 / 24))
    assert len(blocks) > 2
    assert [b.shape[0] for b in blocks[:-1]] == [_SWEEP_CHUNK] * (len(blocks) - 1)
    assert 0 < blocks[-1].shape[0] <= _SWEEP_CHUNK
    assert sum(b.shape[0] for b in blocks) == sorted_grid_size(4, 2, 1 / 24)


def test_sorted_grid_is_deterministic():
    a = _sorted_grid(3, 4, 6, chunk=1000)
    b = _sorted_grid(3, 4, 6, chunk=1000)
    assert a.tobytes() == b.tobytes()
    # and the block size does not change the order
    assert _sorted_grid(3, 4, 6, chunk=7).tobytes() == a.tobytes()
