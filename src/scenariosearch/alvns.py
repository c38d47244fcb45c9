"""Adaptive large-variable-neighborhood search with SA acceptance.

Each iteration destroys one coordinate of the current scenario, repairs the
off-grid point back to an untested grid scenario by expanding neighborhood
boxes, evaluates it, applies the Metropolis acceptance rule and updates the
operator weights from the outcome.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable

from . import operators as ops
from .engine import BudgetedEvaluator, EvaluationFailure, InvariantError, RunResult, capped
from .risk import classify
from .rng import make_generator
from .sim import EvaluationResult
from .space import ContinuousPoint, Scenario, ScenarioSpace, require_finite


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 11_000
    t_begin: float = 1.0
    t_end: float = 0.01
    alpha: float = 0.95
    rho: float = 0.3
    rejection_threshold: int = 5
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.t_end < self.t_begin:
            raise ValueError("need 0 < t_end < t_begin")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.rejection_threshold < 0:
            raise ValueError("rejection_threshold must be >= 0")


def vns_repair(
    point: ContinuousPoint,
    space: ScenarioSpace,
    archive,
    bank: ops.OperatorBank,
    rng,
) -> tuple[Scenario, int]:
    """Expand boxes j = 1..L around the destroyed point; at the first box
    holding untested scenarios, roulette-pick repair operator k and return
    the kth-closest candidate (the single one if only one exists)."""
    for j in range(1, space.max_ring + 1):
        flats = archive.untested_in_box(point, j)
        if len(flats) == 0:
            continue
        k = ops.select_operator(bank, "repair", rng)
        chosen = int(flats[k - 1]) if len(flats) >= 2 else int(flats[0])
        return space.index_to_scenario(chosen), k
    raise InvariantError("every scenario has been tested")


def run_alvns_sa(
    config: SearchConfig,
    space: ScenarioSpace,
    evaluator: Callable[[Scenario], EvaluationResult],
    repair=vns_repair,
) -> RunResult:
    """Algorithm driver; `repair` is swappable so the no-VNS variant can
    reuse the identical loop."""
    rng = make_generator(config.seed)
    drv = BudgetedEvaluator(space, evaluator, config.budget)
    bank = ops.init_bank()

    with contextlib.suppress(EvaluationFailure):
        current = space.index_to_scenario(int(rng.integers(space.cardinality)))
        cur_res = drv.evaluate(current)
        t_current = config.t_begin
        drv.log(current, cur_res, accepted=True, t_current=t_current)
        rejections = 0

        # the budget never exceeds the grid, so repairs always find an untested scenario
        while drv.remaining > 0:
            destroy_id = ops.select_operator(bank, "destroy", rng)
            frac = ops.xi_fraction(classify(cur_res.gttc_min),
                                   drv.archive.count / drv.budget,
                                   rejections > config.rejection_threshold)
            point = ops.destroy(current, destroy_id, frac, space, rng)
            candidate, repair_id = repair(point, space, drv.archive, bank, rng)
            res = drv.evaluate(candidate)
            accepted = ops.sa_accept(capped(res.gttc_min) - capped(cur_res.gttc_min),
                                     t_current, rng)
            theta = ops.score_delta(cur_res.gttc_min, res.gttc_min, accepted)
            drv.log(candidate, res, accepted, destroy_id, repair_id, t_current)

            if accepted:
                current, cur_res = candidate, res
                rejections = 0
            else:
                rejections += 1

            ops.update_bank(bank, destroy_id, repair_id, theta, config.rho)
            t_current *= config.alpha
            if t_current <= config.t_end:
                t_current = config.t_begin

    return drv.result(bank)
