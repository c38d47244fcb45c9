"""Shared search machinery: tested-scenario archive, budgeted evaluation
driver, per-evaluation logging and the run-result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .risk import INF, ScenarioClass
from .sim import EvaluationResult
from .space import ContinuousPoint, Scenario, ScenarioSpace

# Finite stand-in for the +inf GTTC sentinel in SA delta arithmetic.
F_CAP = 1e6


def capped(gttc_min_value: float) -> float:
    return min(gttc_min_value, F_CAP)


class SpaceExhausted(Exception):
    """Every grid scenario has been tested."""


class Archive:
    """Set of tested scenario indices with nearest-untested queries."""

    def __init__(self, space: ScenarioSpace):
        self.space = space
        self.tested = np.zeros(space.cardinality, dtype=bool)
        self._grid = self.tested.reshape(space.shape)
        self._flat = np.arange(space.cardinality).reshape(space.shape)
        self.order: list[int] = []

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, idx: int) -> bool:
        return bool(self.tested[idx])

    @property
    def full(self) -> bool:
        return len(self.order) == self.space.cardinality

    def add(self, idx: int) -> None:
        assert not self.tested[idx], f"scenario {idx} was already tested"
        self.tested[idx] = True
        self.order.append(idx)

    def _dist2(self, point: ContinuousPoint, block: tuple[slice, ...]) -> np.ndarray:
        """Squared step-normalized distances from point to every cell of the
        grid block, +inf where the cell is tested, raveled in flat-index order."""
        axes = zip(self.space.axis_values, self.space.scales, point, block)
        dist2 = 0.0
        for axis, (values, scale, p, s) in enumerate(axes):
            # shape (n, 1, ..., 1) broadcasts the axis against the later ones
            term = ((values[s] - p) / scale) ** 2
            dist2 = dist2 + term.reshape((-1,) + (1,) * (len(block) - 1 - axis))
        return np.where(self._grid[block], INF, dist2).ravel()

    def untested_in_box(self, point: ContinuousPoint, j: int) -> np.ndarray:
        """Flat indices of untested scenarios in the jth box around point,
        sorted by step-normalized distance then by flat index."""
        windows = self.space.box_windows(point, j)
        if any(lo > hi for lo, hi in windows):
            return np.empty(0, dtype=np.int64)
        block = tuple(slice(lo, hi + 1) for lo, hi in windows)
        dist2 = self._dist2(point, block)
        (untested,) = np.nonzero(dist2 < INF)
        # a stable sort keeps flat-index order among equal distances
        order = untested[np.argsort(dist2[untested], kind="stable")]
        return self._flat[block].ravel()[order]

    def nearest_untested(self, point: ContinuousPoint) -> int:
        """Globally nearest untested scenario, ties by smaller flat index:
        for a point inside the grid, untested_in_box(point, max_ring)[0]."""
        if self.full:
            raise SpaceExhausted
        whole = (slice(None),) * len(self.space.shape)
        return int(np.argmin(self._dist2(point, whole)))


@dataclass(frozen=True)
class LogRow:
    """One evaluation, in the order it happened."""

    iteration: int
    scenario: Scenario
    gttc_min: float
    risk_class: ScenarioClass
    accepted: bool
    destroy_op: int | None = None
    repair_op: int | None = None
    t_current: float | None = None


class BudgetedEvaluator:
    """Wraps the scenario evaluator with archive bookkeeping and a budget."""

    def __init__(
        self,
        space: ScenarioSpace,
        evaluator: Callable[[Scenario], EvaluationResult],
        budget: int,
    ):
        if budget > space.cardinality:
            raise ValueError("budget exceeds the scenario space cardinality")
        self.space = space
        self.archive = Archive(space)
        self._evaluator = evaluator
        self.budget = budget
        self.results: dict[int, EvaluationResult] = {}
        self.rows: list[LogRow] = []

    @property
    def count(self) -> int:
        return len(self.archive)

    @property
    def remaining(self) -> int:
        return self.budget - self.count

    def evaluate(self, scenario: Scenario) -> EvaluationResult:
        assert self.remaining > 0, "evaluation budget exhausted"
        res = self._evaluator(scenario)
        self.archive.add(scenario.index)
        self.results[scenario.index] = res
        return res

    def log(self, scenario: Scenario, res: EvaluationResult, accepted: bool,
            destroy_op: int | None = None, repair_op: int | None = None,
            t_current: float | None = None) -> None:
        self.rows.append(LogRow(
            iteration=self.count - 1,
            scenario=scenario,
            gttc_min=res.gttc_min,
            risk_class=res.risk_class,
            accepted=accepted,
            destroy_op=destroy_op,
            repair_op=repair_op,
            t_current=t_current,
        ))


@dataclass
class RunResult:
    """Outcome of one search campaign."""

    algorithm: str
    seed: int
    rows: list[LogRow]
    archive_order: list[int]
    omega_star: list[int]
    bank: object | None = None
    invalid: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def n_evaluations(self) -> int:
        return len(self.archive_order)

    @property
    def best_gttc_min(self) -> float:
        return min((r.gttc_min for r in self.rows), default=INF)

    def classified_sets(self) -> dict[ScenarioClass, set[int]]:
        sets: dict[ScenarioClass, set[int]] = {c: set() for c in ScenarioClass}
        for row in self.rows:
            sets[row.risk_class].add(row.scenario.index)
        return sets
