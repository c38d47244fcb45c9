"""Shared search machinery: tested-scenario archive, budgeted evaluation
driver, per-evaluation logging and the run-result container."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import ClassifiedSets, classified_sets
from .risk import INF, classify
from .sim import EvaluationResult
from .space import ContinuousPoint, Scenario, ScenarioSpace

# Finite stand-in for the +inf GTTC sentinel in SA delta arithmetic.
F_CAP = 1e6


# Width, in squared steps, of the distance band that nearest_untested keeps
# per query point: a wider band recomputes fewer lists, but on the default
# grid holds more cells (about 255k at 16, a threat to peak memory).
NEAREST_BAND = 4.0


def capped(gttc_min_value: float) -> float:
    return min(gttc_min_value, F_CAP)


class InvariantError(RuntimeError):
    """A search loop broke the no-retest or budget contract, or asked for an
    untested scenario when none is left: a driver bug, never an evaluator
    failure."""


class Archive:
    """Set of tested scenario indices with nearest-untested queries.

    Its whole state is the penalty grid, 0.0 where a scenario is untested and
    INF where tested, and the untested count of each row of the grid (a row
    is one block of the last two axes), with count, the number tested.
    add() is the only writer of all three. Besides that state, the archive
    keeps state derived from it: nearest_untested's candidate cells per query
    point, which only speed up a repeated query and die with the archive.

    The grids (penalty, flat-index table) are stored last axis first,
    (n_last, n0, n1, n2): with the short last axis (9 levels on the default
    grid) outermost, a full-grid distance's last outer add runs
    over rows of n0 * n1 * n2 cells, not of n_last, about six times faster.
    Only _penalty, _flat and _dist2 know that order. _grid is a flat-order
    view of _penalty: __contains__, add and nth_untested index it by flat
    index or by row, and add, still the only writer, writes through it.
    Queries still answer in flat-index order: the box query sorts by
    (distance, flat index), and nearest_untested takes the smallest flat
    index among all the cells at the minimum distance."""

    def __init__(self, space: ScenarioSpace):
        self.space = space
        self._penalty = np.zeros((space.shape[-1], *space.shape[:-1]))
        # the same cells in flat-index order: item k is scenario k's penalty
        self._grid = np.moveaxis(self._penalty, 0, -1)
        self._row_size = math.prod(space.shape[-2:])
        self._row_untested = np.full(space.cardinality // self._row_size, self._row_size)
        # per-axis value tables and distance divisors, as Python floats
        self._axes = tuple((s.values, s.gamma or 1.0) for s in space.specs)
        flat = np.arange(space.cardinality).reshape(space.shape)
        self._flat = np.ascontiguousarray(np.moveaxis(flat, -1, 0))
        self.count = 0
        # nearest_untested's candidates per query point, nearest first
        self._nearest: dict[tuple[float, ...], np.ndarray] = {}

    def __contains__(self, idx: int) -> bool:
        # .item and .flat would wrap a negative index, so range-check first
        if not 0 <= idx < self.space.cardinality:
            raise IndexError(f"scenario index {idx} out of range")
        return self._grid.item(idx) == INF

    def add(self, idx: int) -> None:
        if idx in self:
            raise InvariantError(f"scenario {idx} was already tested")
        self._grid.flat[idx] = INF
        self._row_untested[idx // self._row_size] -= 1
        self.count += 1

    def _dist2(self, point: ContinuousPoint,
               block: tuple[slice, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Squared step-normalized distances from point to every cell of the
        grid block (one slice per axis), +inf where the cell is tested, and
        the cells' flat indices, both raveled in the stored order.

        Each axis term is ((v - p) / scale) squared as x * x in Python floats,
        which is what numpy's ** 2 computes. The terms are summed in axis
        order, ((t0 + t1) + t2) + t3, by outer adds, the last as t3 + (...):
        IEEE addition commutes, so it is the same float. The penalty is added
        last: x + 0.0 == x and x + inf == inf, so an untested cell's distance
        is its plain axis sum, bit for bit."""
        terms = []
        for (values, scale), p, s in zip(self._axes, point, block):
            terms.append([(x := (v - p) / scale) * x for v in values[s]])
        stored = (block[-1], *block[:-1])
        dist2 = terms[0]
        for term in terms[1:-1]:
            dist2 = np.add.outer(dist2, term)
        dist2 = np.add.outer(terms[-1], dist2)
        dist2 += self._penalty[stored]
        return dist2.ravel(), self._flat[stored].ravel()

    def untested_in_box(self, point: ContinuousPoint, j: int) -> np.ndarray:
        """Flat indices of untested scenarios in the jth box around point,
        sorted by step-normalized distance then by flat index."""
        block = tuple(slice(lo, hi + 1) for lo, hi in self.space.box_windows(point, j))
        dist2, flats = self._dist2(point, block)
        # INF sorts last, so the untested cells lead, by distance then flat index
        order = np.lexsort((flats, dist2))[: np.count_nonzero(dist2 < INF)]
        return flats[order]

    def nearest_untested(self, point: ContinuousPoint) -> int:
        """Globally nearest untested scenario, ties by smaller flat index:
        for a point inside the grid, untested_in_box(point, max_ring)[0].

        A query point's first answer comes from a full-grid _dist2 with
        minimum dmin: the cells with dist2 <= dmin + NEAREST_BAND, in
        (dist2, flat index) order, are kept under the point, and a repeated
        query returns the first of them still untested. That is the exact
        answer. A cell's distance from a fixed point never changes, and add,
        the only writer, never un-tests a cell, so the kept cells keep their
        order and only lose members. Every cell left out was tested or lies
        beyond dmin + NEAREST_BAND, farther than every kept cell. Once every
        kept cell is tested, the list is computed afresh."""
        if self.count == self.space.cardinality:
            raise InvariantError("every scenario has been tested")
        key = tuple(point)
        cells = self._nearest.get(key, ())
        for i, idx in enumerate(cells):
            if self._grid.item(idx) != INF:
                self._nearest[key] = cells[i:]
                return int(idx)
        whole = (slice(None),) * len(self.space.shape)
        dist2, flats = self._dist2(point, whole)
        near = np.flatnonzero(dist2 <= dist2.min() + NEAREST_BAND)
        cells = flats[near[np.lexsort((flats[near], dist2[near]))]]
        self._nearest[key] = cells
        return int(cells[0])

    def nth_untested(self, n: int) -> int:
        """Flat index of the nth untested scenario (0-based) in flat-index
        order: np.flatnonzero(untested)[n], found from the row counts and a
        scan of one row."""
        if not 0 <= n < self.space.cardinality - self.count:
            raise IndexError(f"no untested scenario number {n}")
        ends = np.cumsum(self._row_untested)
        row = int(np.searchsorted(ends, n, side="right"))
        before = int(ends[row - 1]) if row else 0
        cells = np.flatnonzero(self._grid[divmod(row, self.space.shape[1])] == 0.0)
        return row * self._row_size + int(cells[n - before])


@dataclass(frozen=True)
class LogRow:
    """One evaluation; its number is its position in the log."""

    scenario: Scenario
    gttc_min: float
    accepted: bool
    destroy_op: int | None
    repair_op: int | None
    t_current: float | None


# Not frozen, since a pool worker sets an exception's __traceback__; built
# with positional arguments, since unpickling passes an exception its args.
@dataclass
class EvaluationFailure(Exception):
    """The exception an evaluation raised, and the scenario it raised on:
    raised itself, it ends a search campaign or the oracle."""

    scenario_index: int
    error_type: str
    message: str

    def __str__(self) -> str:
        return f"scenario {self.scenario_index}: {self.error_type}: {self.message}"


class BudgetedEvaluator:
    """Wraps the scenario evaluator with the no-retest archive, the budget,
    the evaluation log and the capture of evaluator failures. A driver runs
    its campaign under `contextlib.suppress(EvaluationFailure)`, then returns
    `result()`, so an evaluator failure ends every search in this one place."""

    def __init__(
        self,
        space: ScenarioSpace,
        evaluator: Callable[[Scenario], EvaluationResult],
        budget: int,
    ):
        if not 1 <= budget <= space.cardinality:
            raise ValueError(f"budget {budget} must be in [1, {space.cardinality}]")
        self.archive = Archive(space)
        self._evaluator = evaluator
        self.budget = budget
        self.rows: list[LogRow] = []
        self.failure: EvaluationFailure | None = None

    @property
    def remaining(self) -> int:
        return self.budget - self.archive.count

    def evaluate(self, scenario: Scenario) -> EvaluationResult:
        """The evaluator's result. If the evaluator raises, or its GTTC_min
        fails `classify` (NaN or negative), an EvaluationFailure naming it is
        kept in `failure` and raised from it, for the driver to suppress. A
        budget overrun or a retest raises InvariantError before the evaluator runs."""
        if self.remaining <= 0:
            raise InvariantError("evaluation budget exhausted")
        self.archive.add(scenario.index)
        try:
            res = self._evaluator(scenario)
            classify(res.gttc_min)  # a NaN or negative GTTC_min fails as a raise does
            return res
        except Exception as exc:  # the evaluator is a black box
            self.failure = EvaluationFailure(scenario.index, type(exc).__name__, str(exc))
            raise self.failure from exc

    def log(self, scenario: Scenario, res: EvaluationResult, accepted: bool,
            destroy_op: int | None = None, repair_op: int | None = None,
            t_current: float | None = None) -> None:
        self.rows.append(LogRow(scenario, res.gttc_min, accepted,
                                destroy_op, repair_op, t_current))

    def result(self, bank=None, **extras) -> RunResult:
        return RunResult(self.rows, bank, self.failure, extras)


@dataclass
class RunResult:
    """Outcome of one search campaign: the evaluation log, in order, and the
    evaluator failure that ended it early, if any. The caller that started
    the run knows its algorithm and seed."""

    rows: list[LogRow]
    bank: object | None
    failure: EvaluationFailure | None
    extras: dict

    @property
    def archive_order(self) -> list[int]:
        return [r.scenario.index for r in self.rows]

    @property
    def n_evaluations(self) -> int:
        return len(self.rows)

    @property
    def best_gttc_min(self) -> float:
        return min((r.gttc_min for r in self.rows), default=INF)

    def classified_sets(self) -> ClassifiedSets:
        return classified_sets((classify(r.gttc_min), r.scenario.index) for r in self.rows)
