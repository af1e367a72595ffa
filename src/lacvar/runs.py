"""The run-length form of a step function on a uniform grid.

V_s f on an eval grid is flat on long stretches: the kernel folds it once
per run of equal cells.  A RunFunction keeps it that way, one value per run
over a GridRuns (the grid and the run lengths), which every member of one
`variations` call shares.  gridfn.lp_norm sums it on the runs, with the bits
of np.sum over every cell, by following numpy's pairwise tree (_SumPlan,
built once per GridRuns); whatever needs the cells expands it by on_grid().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gridfn import GridFunction, UniformGrid, _read_only

# numpy sums a contiguous float64 array pairwise: a block of at most this
# many values in eight running sums, and a longer one as the sum of its two
# halves, the first cut down to a multiple of 8 (_half)
_PW_BLOCK = 128


def _half(n):
    """Where numpy's pairwise sum cuts n > _PW_BLOCK values; n may be an int array."""
    return n // 2 - n // 2 % 8


class _SumPlan:
    """numpy's pairwise sum over a grid's cells, laid out on its runs.

    The grid's cells are cut as numpy cuts them, level by level, down to
    leaves of at most _PW_BLOCK cells.  Each leaf becomes a row of run
    indices, one per cell, so that np.take(cells, row) holds the leaf's
    cells in a C-contiguous row, whose row sum adds them as np.sum adds the
    leaf (a strided view would not).  The leaves of one length that lie in
    one run share a row.  The leaf sums then climb the tree a level at a
    time, each node the sum of its two halves.
    """

    def __init__(self, counts: np.ndarray):
        ends = np.cumsum(counts)
        starts, sizes = np.zeros(1, dtype=np.intp), ends[-1:]
        # per level, top down: the node count and the masks of its leaves
        # and of its cut nodes; and every leaf's start and length
        levels, lo, ln = [], [], []
        while sizes.size:
            leaf = sizes <= _PW_BLOCK
            levels.append((sizes.size, leaf, ~leaf))
            lo.append(starts[leaf])
            ln.append(sizes[leaf])
            a, m = starts[~leaf], sizes[~leaf]
            h = _half(m)
            starts, sizes = np.column_stack((a, a + h)).ravel(), np.column_stack((h, m - h)).ravel()
        # deepest first, each with the slice of its leaves among all of them
        spans = np.cumsum([0] + [x.size for x in lo]).tolist()
        self.levels = [(*level, a, b) for level, a, b in zip(levels, spans, spans[1:])][::-1]
        lo, ln = np.concatenate(lo), np.concatenate(ln)
        first = ends.searchsorted(lo, side="right")
        inside = first == ends.searchsorted(lo + ln - 1, side="right")
        # one matrix of rows per leaf length, and each leaf's row among them all
        # (np.unique would import numpy.ma, half a MiB, on first use)
        self.rows, self.row_of, done = [], np.empty(lo.size, dtype=np.intp), 0
        for m in np.flatnonzero(np.bincount(ln)).tolist():
            one, cross = np.flatnonzero((ln == m) & inside), np.flatnonzero((ln == m) & ~inside)
            seen = np.zeros(counts.size, dtype=bool)
            seen[first[one]] = True
            runs = np.flatnonzero(seen)
            back = runs.searchsorted(first[one])
            cells = ends.searchsorted(lo[cross, None] + np.arange(m), side="right")
            self.rows.append(np.concatenate([np.repeat(runs[:, None], m, axis=1), cells]))
            self.row_of[one] = done + back
            self.row_of[cross] = done + runs.size + np.arange(cross.size)
            done += runs.size + cross.size

    def sum(self, cells: np.ndarray):
        """np.sum over the grid of cells[i] on each cell of run i, with its bits."""
        leaves = np.concatenate([np.take(cells, rows).sum(axis=1) for rows in self.rows])[self.row_of]
        node = None
        for size, leaf, cut, lo, hi in self.levels:
            if node is None:  # the deepest level is all leaves
                node = leaves[lo:hi]
            elif lo == hi:
                node = node[0::2] + node[1::2]
            else:
                halves, node = node[0::2] + node[1::2], np.empty(size)
                node[leaf], node[cut] = leaves[lo:hi], halves
        return node[0]


@dataclass(frozen=True, eq=False)
class GridRuns:
    """A uniform grid cut into runs of consecutive cells: run i is counts[i] cells, in order.

    The sum plan over the runs is built on the first unweighted lp_norm and
    kept, so every function on these runs shares it.
    """

    grid: UniformGrid
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.intp)
        if c.ndim != 1 or c.size == 0 or c.min() < 1 or c.sum() != self.grid.n:
            raise ValueError(f"run lengths must be positive and tile the grid's {self.grid.n} cells")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @cached_property
    def _plan(self) -> _SumPlan:
        return _SumPlan(self.counts)

    def sum(self, cells: np.ndarray):
        """np.sum over the grid of cells[i] on each cell of run i, with its bits."""
        return np.sum(cells) if self.counts.size == self.grid.n else self._plan.sum(cells)


@dataclass(frozen=True, eq=False)
class RunFunction:
    """A step function on runs.grid, run_values[i] on every cell of run i.

    The run-length form of a GridFunction: `on_grid` expands it.  Its
    values take another name than GridFunction's, so that code written for
    one value per cell fails on it instead of reading one value per run.
    """

    runs: GridRuns
    run_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _read_only(self.run_values)
        if v.shape != self.runs.counts.shape:
            raise ValueError("need one value per run")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "run_values", v)

    @property
    def grid(self) -> UniformGrid:
        return self.runs.grid

    @property
    def n(self) -> int:
        return self.runs.grid.n

    def on_grid(self) -> GridFunction:
        """The value at every cell, by np.repeat over the run lengths,
        handed to GridFunction read-only, without a copy."""
        g, counts, v = self.runs.grid, self.runs.counts, self.run_values
        if counts.size < g.n:
            v = np.repeat(v, counts)
            v.setflags(write=False)
        return GridFunction(g.x0, g.h, v)
