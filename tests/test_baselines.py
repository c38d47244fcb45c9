import dataclasses
import hashlib
import math
import os
from collections import Counter

import numpy as np
import pytest

from scenariosearch import operators as ops
from scenariosearch.alvns import SearchConfig
from scenariosearch.baselines import (
    FITNESS_EPS,
    GAConfig,
    alns_repair,
    run_alns_sa,
    run_ga,
    run_random,
)
from scenariosearch.config import load_config
from scenariosearch.engine import Archive, InvariantError
from scenariosearch.experiment import log_lines, make_evaluator, run_search
from scenariosearch.rng import make_generator
from scenariosearch.space import ParamSpec, ScenarioSpace

TOY_CONFIG = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg"))
TOY = TOY_CONFIG.space
DEFAULT_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
# sha256 of the log lines of each algorithm on configs/default.cfg, seed 101,
# budget 2,000, sigma 0.1: each log's classes, accept flags, operators and
# temperatures, so a change to the SA loop or the log moves it
LOG_SHA256 = {
    # about 1,500 of GA's children are redirected to the nearest untested
    # scenario, so moving any redirect changes it; the redirects run all
    # three paths of the archive's per-point lists: 882 hits, 349 first
    # queries of a point and 253 lists run out and computed again
    "ga": "05fe0fe7dda66f0bc6f07d8b9fad297a97051b3eef015cdddff4b89e2eeb570e",
    "alvns-sa": "c5020e148d90fe536b48b0aaa2ec4e4d5dbc650e10b072e3a487b8b57a9f1cd8",
    "alns-sa": "337492828fa5e33bae726fef8c41bfd95563542391e1211eaf84afc64c44d267",
    "random": "be1eefe67a2ce3914a2b453eaa0211b205ced897d21ea2c602a6088ed3bcdf7d",
}


def toy_evaluator():
    return make_evaluator(TOY_CONFIG, 0)


@pytest.mark.parametrize("algorithm", LOG_SHA256)
def test_log_golden(algorithm):
    config = dataclasses.replace(load_config(DEFAULT_CFG), budget=2000)
    assert config.sim.sigma == 0.1
    text = "\n".join(log_lines(run_search(config, algorithm, 101)))
    assert hashlib.sha256(text.encode()).hexdigest() == LOG_SHA256[algorithm]


class TestRandom:
    def test_exhausts_grid(self):
        res = run_random(TOY.cardinality, TOY, toy_evaluator(), seed=1)
        assert sorted(res.archive_order) == list(range(TOY.cardinality))

    def test_budget_and_distinctness(self):
        res = run_random(10, TOY, toy_evaluator(), seed=2)
        assert len(res.archive_order) == 10
        assert len(set(res.archive_order)) == 10

    def test_determinism(self):
        a = run_random(12, TOY, toy_evaluator(), seed=5)
        b = run_random(12, TOY, toy_evaluator(), seed=5)
        assert a.archive_order == b.archive_order

    def test_uniformity_over_seeds(self):
        # drawing 6 of 36 without replacement: each index is picked with
        # probability 1/6 per run; check counts over many runs
        n_runs, k = 300, 6
        counts = Counter()
        for seed in range(n_runs):
            res = run_random(k, TOY, toy_evaluator(), seed=seed)
            counts.update(res.archive_order)
        p = k / TOY.cardinality
        sigma = math.sqrt(n_runs * p * (1 - p))
        for idx in range(TOY.cardinality):
            assert abs(counts[idx] - n_runs * p) < 4 * sigma

    def test_every_evaluation_kept(self):
        res = run_random(8, TOY, toy_evaluator(), seed=3)
        assert res.n_evaluations == 8
        assert all(r.accepted for r in res.rows)


class TestGA:
    def test_no_variation_archives_one_population(self):
        cfg = GAConfig(population=6, crossover=0.0, mutation=0.0,
                       generations=50, budget=36)
        res = run_ga(cfg, TOY, toy_evaluator(), seed=1)
        assert res.n_evaluations == 6

    def test_exhausts_tiny_grid(self):
        tiny = ScenarioSpace([
            ParamSpec("v_e", 9.0, 3.0, 2),
            ParamSpec("v_o", 5.5, 4.0, 1),
            ParamSpec("d", 13.5, 10.0, 1),
            ParamSpec("a", -0.05, -1.6, 1),
        ])
        cfg = GAConfig(population=2, generations=50, budget=2)
        res = run_ga(cfg, tiny, toy_evaluator(), seed=1)
        assert sorted(res.archive_order) == [0, 1]

    def test_budget_exact(self):
        cfg = GAConfig(population=6, generations=1000, budget=30)
        res = run_ga(cfg, TOY, toy_evaluator(), seed=2)
        assert res.n_evaluations == 30
        assert len(set(res.archive_order)) == 30

    def test_exhausts_toy_grid(self):
        cfg = GAConfig(population=6, generations=1000, budget=36)
        res = run_ga(cfg, TOY, toy_evaluator(), seed=3)
        assert sorted(res.archive_order) == list(range(TOY.cardinality))

    def test_determinism(self):
        cfg = GAConfig(population=6, generations=20, budget=30)
        a = run_ga(cfg, TOY, toy_evaluator(), seed=7)
        b = run_ga(cfg, TOY, toy_evaluator(), seed=7)
        assert a.archive_order == b.archive_order

    def test_campaigns_share_no_nearest_cache(self):
        # the archive's nearest-untested lists live and die with it: a second
        # campaign in the same process redirects as the first did, which a
        # cache kept by the module or by functools.lru_cache would break
        config = dataclasses.replace(load_config(DEFAULT_CFG), budget=1000)
        first = list(log_lines(run_search(config, "ga", 101)))
        assert list(log_lines(run_search(config, "ga", 101))) == first
        assert Archive(config.space)._nearest == {}

    def test_roulette_transform_frequencies(self):
        # inverted-fitness roulette: weights f_max - f + eps
        fvals = np.array([1.0, 2.0, 4.0])
        weights = fvals.max() - fvals + FITNESS_EPS
        probs = weights / weights.sum()
        rng = make_generator(9)
        n = 100_000
        counts = np.bincount([ops.roulette(weights, rng) for _ in range(n)],
                             minlength=3)
        for c, p in zip(counts, probs):
            sigma = math.sqrt(n * p * (1 - p)) if p > 0 else 1.0
            assert abs(c - n * p) < 4 * sigma
        assert counts[2] == 0 or probs[2] > 0  # worst gets only eps mass

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population=1)
        with pytest.raises(ValueError):
            GAConfig(crossover=1.5)


class TestAlnsRepair:
    def test_snap_when_untested(self):
        archive = Archive(TOY)
        bank = ops.init_bank()
        bank.repair_weights[:] = (1.0, 0.0)
        point = (9.1, 5.6, 13.6, -0.06)
        s, k = alns_repair(point, TOY, archive, bank, make_generator(0))
        assert k == 1
        assert s.index == TOY.snap(point).index

    def test_box_draw_excludes_tested(self):
        archive = Archive(TOY)
        origin = TOY.snap((9.0, 5.5, 13.5, -0.05))
        archive.add(origin.index)
        bank = ops.init_bank()
        bank.repair_weights[:] = (0.0, 1.0)
        box = {s.index for s in TOY.neighborhood(origin.coords, 1)}
        for seed in range(30):
            s, k = alns_repair(origin.coords, TOY, archive, bank,
                               make_generator(seed))
            assert k == 2
            assert s.index in box - {origin.index}

    def test_fallback_is_global_uniform(self):
        # test everything inside the radius-1 box; the draw must then range
        # over the whole remaining grid, not just neighbors
        archive = Archive(TOY)
        origin = TOY.snap((9.0, 5.5, 13.5, -0.05))
        inner = {s.index for s in TOY.neighborhood(origin.coords, 1)}
        for idx in sorted(inner):
            archive.add(idx)
        seen = set()
        for seed in range(300):
            s, _ = alns_repair(origin.coords, TOY, archive, ops.init_bank(),
                               make_generator(seed))
            assert s.index not in inner
            seen.add(s.index)
        assert len(seen) > len(inner)

    def test_exhausted_raises(self):
        archive = Archive(TOY)
        for k in range(TOY.cardinality):
            archive.add(k)
        with pytest.raises(InvariantError, match="every scenario has been tested"):
            alns_repair((9.0, 5.5, 13.5, -0.05), TOY, archive,
                        ops.init_bank(), make_generator(0))


class TestRunAlnsSa:
    def test_exhausts_toy_grid(self):
        res = run_alns_sa(SearchConfig(), TOY, toy_evaluator(),
                          budget=TOY.cardinality, seed=4)
        assert sorted(res.archive_order) == list(range(TOY.cardinality))

    def test_determinism(self):
        a = run_alns_sa(SearchConfig(), TOY, toy_evaluator(), budget=20, seed=6)
        b = run_alns_sa(SearchConfig(), TOY, toy_evaluator(), budget=20, seed=6)
        assert a.archive_order == b.archive_order

    def test_differs_from_full_variant(self):
        from scenariosearch.alvns import run_alvns_sa
        assert run_alns_sa(SearchConfig(), TOY, toy_evaluator(), 25, 6).archive_order != \
            run_alvns_sa(SearchConfig(), TOY, toy_evaluator(), 25, 6).archive_order
