"""Comparison algorithms: random testing, a generational GA and the
no-VNS variant of the adaptive search. All drive the same evaluator and
honor the shared no-retest archive contract."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators as ops
from .alvns import SearchConfig, run_alvns_sa
from .engine import BudgetedEvaluator, RunResult, SpaceExhausted, capped
from .rng import make_generator
from .sim import EvaluationResult
from .space import ContinuousPoint, Scenario, ScenarioSpace

# Offset added to the inverted fitness so roulette stays defined when all
# individuals share the worst value.
FITNESS_EPS = 1e-6


def run_random(
    budget: int,
    space: ScenarioSpace,
    evaluator: Callable[[Scenario], EvaluationResult],
    seed: int,
) -> RunResult:
    """Uniform sampling without replacement: a seeded shuffle of all grid
    indices, evaluated up to the budget."""
    rng = make_generator(seed)
    drv = BudgetedEvaluator(space, evaluator, min(budget, space.cardinality))
    order = rng.permutation(space.cardinality)[: drv.budget]
    invalid = False
    for idx in order:
        scenario = space.index_to_scenario(int(idx))
        try:
            res = drv.evaluate(scenario)
        except Exception:
            invalid = True
            break
        drv.log(scenario, res, accepted=True)
    return RunResult(
        algorithm="random",
        seed=seed,
        rows=drv.rows,
        archive_order=list(drv.archive.order),
        omega_star=list(drv.archive.order),
        invalid=invalid,
    )


@dataclass(frozen=True)
class GAConfig:
    population: int = 100
    crossover: float = 0.75
    mutation: float = 0.05
    generations: int = 1500
    budget: int = 11_000
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        for p in (self.crossover, self.mutation):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


def run_ga(
    config: GAConfig,
    space: ScenarioSpace,
    evaluator: Callable[[Scenario], EvaluationResult],
) -> RunResult:
    """Generational GA minimizing GTTC_min over 4-gene grid scenarios.

    Roulette parent selection uses the inverted fitness (f_max - f + eps).
    Uniform per-gene crossover yields two complementary children; mutation
    resamples one gene uniformly. Children already tested are redirected to
    the nearest untested scenario, ties by smaller flat index (the first
    entry of the archive's max-ring box query), so every evaluation is new.
    Survivors are the population-size lowest-f individuals of parents plus
    children.
    """
    rng = make_generator(config.seed)
    drv = BudgetedEvaluator(space, evaluator, min(config.budget, space.cardinality))
    fitness: dict[int, float] = {}
    invalid = False

    def eval_index(idx: int) -> bool:
        nonlocal invalid
        scenario = space.index_to_scenario(idx)
        try:
            res = drv.evaluate(scenario)
        except Exception:
            invalid = True
            return False
        drv.log(scenario, res, accepted=True)
        fitness[idx] = capped(res.gttc_min)
        return True

    population: list[int] = []
    for idx in rng.permutation(space.cardinality):
        if drv.remaining == 0 or len(population) == config.population:
            break
        if not eval_index(int(idx)):
            break
        population.append(int(idx))

    generation = 0
    collapsed = False
    while (drv.remaining > 0 and generation < config.generations
           and not invalid and not collapsed):
        fvals = np.array([fitness[i] for i in population])
        weights = fvals.max() - fvals + FITNESS_EPS

        children: list[np.ndarray] = []
        for i in range(len(population)):
            mate = population[ops.roulette(weights, rng)]
            if rng.random() < config.crossover:
                g1 = np.array(space.index_to_levels(population[i]))
                g2 = np.array(space.index_to_levels(mate))
                mask = rng.random(4) < 0.5
                children.append(np.where(mask, g1, g2))
                children.append(np.where(mask, g2, g1))
        for genes in children:
            if rng.random() < config.mutation:
                gene = int(rng.integers(4))
                genes[gene] = int(rng.integers(space.shape[gene]))

        newcomers: list[int] = []
        for genes in children:
            if drv.remaining == 0:
                break
            idx = space.levels_to_index(tuple(int(g) for g in genes))
            if idx in drv.archive:
                point = space.index_to_scenario(idx).coords
                try:
                    idx = drv.archive.nearest_untested(point)
                except SpaceExhausted:
                    collapsed = True
                    break
            if not eval_index(idx):
                break
            newcomers.append(idx)

        pool = sorted(set(population) | set(newcomers),
                      key=lambda i: (fitness[i], i))
        population = pool[: config.population]
        generation += 1

    return RunResult(
        algorithm="ga",
        seed=config.seed,
        rows=drv.rows,
        archive_order=list(drv.archive.order),
        omega_star=list(drv.archive.order),
        invalid=invalid,
        extras={"generations": generation},
    )


def alns_repair(
    point: ContinuousPoint,
    space: ScenarioSpace,
    archive,
    bank: ops.OperatorBank,
    rng,
) -> tuple[Scenario, int]:
    """Repair without neighborhood expansion: operator 1 snaps to the grid,
    operator 2 draws uniformly from the untested part of the fixed radius-1
    box. When the local choice is exhausted, both fall back to a uniform
    random untested scenario: recovering locality from an exhausted box is
    precisely what the removed neighborhood expansion provides, so the
    no-expansion baseline must not reintroduce it."""
    k = ops.select_operator(bank, "repair", rng)
    if k == 1:
        snapped = space.snap(point)
        if snapped.index not in archive:
            return snapped, k
    else:
        flats = archive.untested_in_box(point, 1)
        if len(flats):
            return space.index_to_scenario(int(flats[rng.integers(len(flats))])), k
    untested = np.flatnonzero(~archive.tested)
    if len(untested) == 0:
        raise SpaceExhausted
    return space.index_to_scenario(int(untested[rng.integers(len(untested))])), k


def run_alns_sa(
    config: SearchConfig,
    space: ScenarioSpace,
    evaluator: Callable[[Scenario], EvaluationResult],
) -> RunResult:
    return run_alvns_sa(config, space, evaluator,
                        repair=alns_repair, algorithm_name="alns-sa")
