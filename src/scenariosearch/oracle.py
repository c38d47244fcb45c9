"""Brute-force ground truth: the GTTC_min of every grid scenario, by flat index.

Per-scenario seeding makes each value independent of evaluation order, so
the map is identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .engine import EvaluationFailure
from .metrics import ClassifiedSets, classified_sets
from .risk import classify
from .sim import EgoControllerConfig, SimConfig, evaluate
from .space import ConfigurationError, ScenarioSpace

_CHUNK = 2048


def resolve_workers(workers: int) -> int:
    """A positive count as given; 0 means one process per CPU."""
    if workers < 0:
        raise ConfigurationError(f"workers: {workers} is negative (0 = one per CPU)")
    return workers or max(1, os.cpu_count() or 1)


def _evaluate_range(
    space: ScenarioSpace,
    sim_config: SimConfig,
    ego_config: EgoControllerConfig,
    run_seed: int,
    start: int,
    stop: int,
) -> list[float]:
    gttc = []
    for i in range(start, stop):
        try:
            scenario = space.index_to_scenario(i)
            gttc.append(evaluate(scenario, sim_config, ego_config, run_seed).gttc_min)
        except Exception as exc:  # name the scenario, as a failed search run does
            failure = EvaluationFailure(i, type(exc).__name__, str(exc))
            raise RuntimeError(str(failure)) from exc
    return gttc


def brute_force_oracle(
    space: ScenarioSpace,
    sim_config: SimConfig,
    ego_config: EgoControllerConfig,
    run_seed: int,
    workers: int = 0,
) -> list[float]:
    """GTTC_min of every scenario, indexed by flat scenario index. A failure
    names the smallest failing index: chunks stop at their first failure."""
    n = space.cardinality
    workers = resolve_workers(workers)
    if workers == 1 or n <= _CHUNK:
        return _evaluate_range(space, sim_config, ego_config, run_seed, 0, n)
    bounds = list(range(0, n, _CHUNK)) + [n]
    gttc: list[float] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_evaluate_range, space, sim_config, ego_config,
                        run_seed, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        # submission order keeps the map index-sorted and raises the smallest
        # failing index first
        for fut in futures:
            gttc.extend(fut.result())
    return gttc


def oracle_classified_sets(gttc: list[float]) -> ClassifiedSets:
    return classified_sets((classify(g), i) for i, g in enumerate(gttc))
