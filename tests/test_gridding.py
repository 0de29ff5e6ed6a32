"""Simplex grids and their sorted form: counts, exactness, order,
chunking, the evaluation budget."""

import functools
import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confbc.gridding as gridding
from confbc.errors import GridTooLargeError
from confbc.gridding import (
    _SWEEP_CHUNK,
    EVAL_BUDGET,
    simplex_grid,
    sorted_grid_blocks,
    sorted_grid_size,
)


def _stars_and_bars(n, cells):
    """Every composition of n into `cells` entries, from the bar
    positions, in lexicographic order."""
    return [[hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (n + cells - 1,))]
            for bars in combinations(range(n + cells - 1), cells - 1)]


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
    parts = _sorted_grid(1, 4, 4, chunk=7)
    assert whole.shape == parts.shape == (35, 4)
    assert np.array_equal(whole, parts / 4.0)


@pytest.mark.parametrize("chunk", [1, 7, 10_000])
def test_chunks_match_stars_and_bars(chunk):
    # every composition of n = 5 into 4 parts, from the bar positions
    n, cells = 5, 4
    want = _stars_and_bars(n, cells)
    blocks = list(sorted_grid_blocks(1, cells, 1.0 / n, chunk=chunk))
    assert [b.shape[-1] for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)
    got = _sorted_grid(1, cells, n, chunk=chunk)
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


def _budgeted(parts, cells, n):
    """The sorted grid's size at step 1/n after the sweeps' budget check."""
    return gridding._fit_budget(n, lambda m: gridding._count(parts, cells, m))


def test_budget_guard(monkeypatch):
    # a grid of exactly the budget's size passes; one point over fails
    size = sorted_grid_size(2, 3, 1 / 6)
    monkeypatch.setattr(gridding, "EVAL_BUDGET", size)
    assert _budgeted(2, 3, 6) == size
    monkeypatch.setattr(gridding, "EVAL_BUDGET", size - 1)
    with pytest.raises(GridTooLargeError):
        _budgeted(2, 3, 6)
    assert sorted_grid_size(1, 32, 0.001) > EVAL_BUDGET   # why the guard exists


def test_budget_message_count_is_cut_not_rounded():
    # past 40 digits a count prints as its first four digits and its
    # exponent, exact at every power of ten whatever the float log says
    text = gridding._count_text
    assert text(10 ** 40 - 1, True) == "9" * 40
    assert text(1200487746, False) == "at least 1200487746"
    for e in (40, 41, 308, 309, 5000):
        assert text(10 ** e, True) == "at least 1.000e+%d" % e
        if e > 40:
            assert text(10 ** e - 1, True) == "at least 9.999e+%d" % (e - 1)
    assert text(123456 * 10 ** 9000, True) == "at least 1.234e+9005"



def _sorted_grid(parts, cells, n, chunk=_SWEEP_CHUNK):
    """The sorted grid's points as (N, parts * cells) counts."""
    blocks = np.concatenate(list(sorted_grid_blocks(parts, cells, 1.0 / n, chunk=chunk)),
                            axis=-1)
    return np.moveaxis(blocks, -1, 0).reshape(-1, parts * cells)


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
        _budgeted(4, 2, 10 ** 6)
    floor = -(-math.comb(10 ** 6 + 7, 7) // 24)
    assert "sweep needs at least %d evaluations" % floor in str(exc.value)
    assert "1/69 = %r (92171324 points)" % (1 / 69) in str(exc.value)


@pytest.mark.parametrize("parts,cells,n", [(2, 2, 6), (3, 2, 5), (4, 2, 4),
                                           (3, 3, 4), (2, 4, 4)])
def test_sorted_grid_holds_every_point_sorted_by_marginal(parts, cells, n):
    got = {r.tobytes() for r in _sorted_grid(parts, cells, n)}
    full = np.rint(simplex_grid(parts * cells, 1.0 / n) * n).astype(np.int64)
    for p in full.reshape(-1, parts, cells):
        # parts by sum, descending, then lexicographically: one per orbit
        order = sorted(range(parts), key=lambda i: (-p[i].sum(), tuple(p[i])))
        assert p[order].tobytes() in got


@pytest.mark.parametrize("cells,n", [(1, 5), (2, 9), (3, 7), (5, 4)])
def test_one_part_keeps_the_stars_and_bars_order(cells, n):
    # channels.more_capable_evidence and the v_card = 1 sweeps of the
    # dm-example1 suite read points in this order
    want = _stars_and_bars(n, cells)
    got = _sorted_grid(1, cells, n, chunk=4)
    assert got.tobytes() == np.array(want, dtype=np.int64).tobytes()
    assert simplex_grid(cells, 1.0 / n).tobytes() == (got / float(n)).tobytes()


def test_sorted_grid_blocks_fit_the_sweep_chunk():
    # 4 parts of 2 cells at step 1/25 is over two sweep blocks
    blocks = list(sorted_grid_blocks(4, 2, 1 / 25))
    assert len(blocks) > 2
    assert [b.shape[-1] for b in blocks[:-1]] == [_SWEEP_CHUNK] * (len(blocks) - 1)
    assert 0 < blocks[-1].shape[-1] <= _SWEEP_CHUNK
    assert sum(b.shape[-1] for b in blocks) == sorted_grid_size(4, 2, 1 / 25)


def test_sorted_grid_is_deterministic():
    a = _sorted_grid(3, 4, 6, chunk=1000)
    b = _sorted_grid(3, 4, 6, chunk=1000)
    assert a.tobytes() == b.tobytes()
    # and the block size does not change the order
    assert _sorted_grid(3, 4, 6, chunk=7).tobytes() == a.tobytes()


@st.composite
def _orbit_grids(draw):
    """(parts, cells, n): 1-4 parts of 1-3 auxiliary letters over |X| =
    2-3, n <= 8 with a full grid small enough to walk."""
    parts, letters, nx = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                          draw(st.integers(2, 3)))
    cells = letters * nx
    top = max(m for m in range(1, 9)
              if m == 1 or math.comb(m + parts * cells - 1, m) <= 20_000)
    return parts, cells, draw(st.integers(1, top))


@given(_orbit_grids(), st.sampled_from([1, 5, _SWEEP_CHUNK]))
@settings(max_examples=60, deadline=None)
def test_sorted_grid_holds_one_point_per_orbit(grid, chunk):
    # relabelling the parts maps a point to one of its orbit; the sorted
    # grid is exactly one point of every orbit of the full grid
    parts, cells, n = grid
    got = _sorted_grid(parts, cells, n, chunk=chunk)
    assert got.shape[0] == sorted_grid_size(parts, cells, 1.0 / n)
    assert np.all(got.sum(axis=1) == n)
    orbit = lambda p: tuple(sorted(map(tuple, p.reshape(parts, cells))))
    held = {orbit(p) for p in got}
    assert len(held) == got.shape[0]                    # no orbit twice
    full = np.array(_stars_and_bars(n, parts * cells))
    assert held == {orbit(p) for p in full}             # every orbit once
    # one part is the plain simplex grid, in lexicographic order
    plain = np.array(_stars_and_bars(n, cells), dtype=np.int64)
    assert simplex_grid(cells, 1.0 / n).tobytes() == (plain / float(n)).tobytes()


def _burnside(parts, cells, n):
    """Orbits of the grid under permutations of the parts, by Burnside's
    lemma: a permutation with cycle lengths l_1, l_2, ... fixes the
    points whose parts agree along each cycle, the compositions of the
    m_i with sum l_i m_i = n, and the orbits are the mean fixed count."""
    comps = lambda m: math.comb(m + cells - 1, cells - 1)

    @functools.lru_cache(maxsize=None)
    def fixed(lengths, left):
        if not lengths:
            return int(left == 0)
        return sum(comps(m) * fixed(lengths[1:], left - lengths[0] * m)
                   for m in range(left // lengths[0] + 1))

    def cycles(perm):
        seen, out = set(), []
        for i in range(parts):
            j, length = i, 0
            while j not in seen:
                seen.add(j)
                j, length = perm[j], length + 1
            out += [length] if length else []
        return tuple(out)

    total = sum(fixed(cycles(p), n) for p in permutations(range(parts)))
    return total // math.factorial(parts)


@pytest.mark.parametrize("parts,cells,n,size", [
    (3, 2, 30, 54_857), (4, 2, 16, 11_911), (4, 2, 50, 11_255_784),
    (4, 2, 69, 92_171_324), (4, 2, 100, 1_092_839_609), (4, 8, 3, 528),
    (4, 8, 10, 49_148_220), (4, 8, 11, 185_012_488)])
def test_sorted_grid_size_is_the_burnside_orbit_count(parts, cells, n, size):
    # the counts the budget, the docs and CI pin, from an independent count
    assert sorted_grid_size(parts, cells, 1.0 / n) == _burnside(parts, cells, n) == size
