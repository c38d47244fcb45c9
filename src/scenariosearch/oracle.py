"""Brute-force ground truth: the GTTC_min of every grid scenario, by flat index.

Per-scenario seeding makes each value independent of evaluation order, so
the map is identical for any worker count.
"""

from __future__ import annotations

import functools
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
            classify(gttc[-1])  # a NaN or negative value fails as a raise does
        except Exception as exc:  # name the scenario, as a failed search run does
            raise EvaluationFailure(i, type(exc).__name__, str(exc)) from exc
    return gttc


def brute_force_oracle(
    space: ScenarioSpace,
    sim_config: SimConfig,
    ego_config: EgoControllerConfig,
    run_seed: int,
    workers: int = 0,
) -> list[float]:
    """GTTC_min of every scenario, by flat scenario index. A failure names the
    smallest failing index: each chunk, and the chunk map, stop at the first."""
    n = space.cardinality
    task = functools.partial(_evaluate_range, space, sim_config, ego_config, run_seed)
    starts = range(0, n, _CHUNK)
    stops = [*starts[1:], n]
    # at most one worker per chunk, and a single chunk or worker runs in-process
    workers = min(resolve_workers(workers), len(starts))
    if workers == 1:
        return [g for chunk in map(task, starts, stops) for g in chunk]
    # Executor.map yields chunks in submission order, so the smallest failing
    # index is raised first, and cancels the chunks still queued when it raises
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [g for chunk in pool.map(task, starts, stops) for g in chunk]


def oracle_classified_sets(gttc: list[float]) -> ClassifiedSets:
    return classified_sets((classify(g), i) for i, g in enumerate(gttc))
