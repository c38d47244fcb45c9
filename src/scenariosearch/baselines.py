"""Comparison algorithms: random testing, a generational GA and the
no-VNS variant of the adaptive search. All drive the same evaluator and
honor the shared no-retest archive contract."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators as ops
from .alvns import SearchConfig, run_alvns_sa
from .engine import BudgetedEvaluator, EvaluationFailure, InvariantError, RunResult, capped
from .rng import make_generator
from .sim import EvaluationResult
from .space import ContinuousPoint, Scenario, ScenarioSpace, require_finite

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
    drv = BudgetedEvaluator(space, evaluator, budget)
    with contextlib.suppress(EvaluationFailure):
        for idx in rng.permutation(space.cardinality)[: drv.budget]:
            scenario = space.index_to_scenario(int(idx))
            drv.log(scenario, drv.evaluate(scenario), accepted=True)
    return drv.result()


@dataclass(frozen=True)
class GAConfig:
    population: int = 100
    crossover: float = 0.75
    mutation: float = 0.05
    generations: int = 1500
    budget: int = 11_000
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
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
    drv = BudgetedEvaluator(space, evaluator, config.budget)

    def evaluated(idx: int) -> tuple[float, int]:
        scenario = space.index_to_scenario(idx)
        res = drv.evaluate(scenario)
        drv.log(scenario, res, accepted=True)
        return capped(res.gttc_min), idx

    generation = 0
    with contextlib.suppress(EvaluationFailure):
        size = min(config.population, drv.budget)
        # the whole permutation is drawn, whatever the population size
        population = [evaluated(idx)
                      for idx in rng.permutation(space.cardinality)[:size].tolist()]

        while drv.remaining > 0 and generation < config.generations:
            generation += 1  # first, so a generation that fails still counts
            fvals = np.array([f for f, _ in population])
            weights = fvals.max() - fvals + FITNESS_EPS

            children: list[list[int]] = []
            for _, parent in population:
                _, mate = population[ops.roulette(weights, rng)]
                if rng.random() < config.crossover:
                    # gene k: (parent's, mate's) level where draw k is < 0.5, else swapped
                    genes = zip(space.index_to_levels(parent), space.index_to_levels(mate))
                    pairs = [(g1, g2) if u < 0.5 else (g2, g1)
                             for u, (g1, g2) in zip(rng.random(4).tolist(), genes)]
                    children.extend(map(list, zip(*pairs)))

            # each child is mutated where it is placed: evaluation and redirects
            # draw nothing from rng, so the draws are those of mutating every
            # child first, less the unread ones of children past the budget
            for genes in children[: drv.remaining]:
                if rng.random() < config.mutation:
                    gene = int(rng.integers(4))
                    genes[gene] = int(rng.integers(space.shape[gene]))
                idx = space.levels_to_index(genes)
                if idx in drv.archive:
                    # untested scenarios remain: the budget never exceeds the grid
                    idx = drv.archive.nearest_untested(space.index_to_scenario(idx).coords)
                # every index is evaluated once, so no child is already a member
                population.append(evaluated(idx))

            # (fitness, index) pairs: the lowest f first, ties by smaller index
            population = sorted(population)[: config.population]

    return drv.result(generations=generation)


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
    untested = space.cardinality - archive.count
    if untested == 0:
        raise InvariantError("every scenario has been tested")
    return space.index_to_scenario(archive.nth_untested(int(rng.integers(untested)))), k


def run_alns_sa(
    config: SearchConfig,
    space: ScenarioSpace,
    evaluator: Callable[[Scenario], EvaluationResult],
) -> RunResult:
    return run_alvns_sa(config, space, evaluator, repair=alns_repair)
