"""Traced mode: per-layer metrics from perf_counter wrappers around the
program's public functions.

The wrappers are installed by replacing module attributes for the length of
one traced round and restored afterwards; no code in `src/` knows about them.
Layers that the workload's commands never reach (the archive and the search
algorithms under `enumerate`, the GA under `search-sa`, the SA searches under
`search-ga`) are traced on companion campaigns of COMPANION_BUDGET
evaluations with the same seed, so every traced run reports every metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import statistics
import time
from collections import Counter, defaultdict

# Evaluations of a companion campaign: a tenth of the default budget.
COMPANION_BUDGET = 1_100
# Scenarios timed one call at a time in the layer probes.
PROBE_SAMPLE = 2_000
# Search algorithms whose layers every traced run reports.
SEARCHES = ("alvns-sa", "alns-sa", "ga")

perf = time.perf_counter


class Tracer:
    """Spans (name -> list of seconds) and counts recorded by the wrappers."""

    def __init__(self):
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.within: Counter = Counter()  # (campaign, span) -> seconds
        self.within_calls: Counter = Counter()  # (campaign, span) -> calls
        self.results: dict[str, list] = defaultdict(list)  # campaign -> [(config, RunResult)]
        self.campaign: str | None = None
        self.repair: str | None = None

    def span(self, name: str, seconds: float) -> None:
        self.spans[name].append(seconds)
        if self.campaign:
            self.within[self.campaign, name] += seconds
            self.within_calls[self.campaign, name] += 1

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span(name, perf() - t0)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        from scenariosearch import alvns, baselines, cli, engine, experiment, operators
        from scenariosearch import oracle as oracle_mod

        tracer = self
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        evaluate = experiment.evaluate

        def traced_evaluate(*args, **kwargs):
            t0 = perf()
            res = evaluate(*args, **kwargs)
            self.span("sim.evaluate", perf() - t0)
            self.counts["sim.steps"] += res.n_steps
            return res

        class TracedArchive(engine.Archive):
            def untested_in_box(self, point, j):
                t0 = perf()
                try:
                    flats = super().untested_in_box(point, j)
                finally:
                    tracer.span("engine.box_query", perf() - t0)
                tracer.counts["engine.box_cells"] += math.prod(
                    max(0, hi - lo + 1) for lo, hi in self.space.box_windows(point, j))
                tracer.counts["engine.box_hits"] += len(flats) > 0
                if tracer.repair:
                    tracer.counts[tracer.repair + ".box_queries"] += 1
                return flats

            def nearest_untested(self, point):
                t0 = perf()
                try:
                    return super().nearest_untested(point)
                finally:
                    tracer.span("engine.nearest", perf() - t0)

        def campaign(name, fn, **inject):
            def wrapper(*args, **kwargs):
                kwargs.update(inject)
                self.campaign = name
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.span(name + ".campaign", perf() - t0)
                    self.campaign = None
                self.results[name].append((args[0], result))
                return result
            return wrapper

        def repair(name, fn):
            def wrapper(point, space, archive, bank, rng):
                self.repair = name
                t0 = perf()
                try:
                    scenario, k = fn(point, space, archive, bank, rng)
                finally:
                    self.span(name + ".repair", perf() - t0)
                    self.repair = None
                if name == "alns" and is_fallback(point, space, scenario, k):
                    self.counts["alns.fallbacks"] += 1
                return scenario, k
            return wrapper

        def write(fn):
            def wrapper(*args, **kwargs):
                t0 = perf()
                path = fn(*args, **kwargs)
                self.span("experiment.write", perf() - t0)
                self.counts["experiment.bytes"] += os.path.getsize(path)
                return path
            return wrapper

        patch(experiment, "evaluate", traced_evaluate)
        patch(oracle_mod, "evaluate", traced_evaluate)
        patch(engine, "Archive", TracedArchive)
        patch(experiment, "run_alvns_sa", campaign(
            "alvns", experiment.run_alvns_sa, repair=repair("alvns", alvns.vns_repair)))
        patch(experiment, "run_alns_sa", campaign("alns", experiment.run_alns_sa))
        patch(baselines, "alns_repair", repair("alns", baselines.alns_repair))
        patch(experiment, "run_ga", campaign("ga", experiment.run_ga))
        patch(operators, "select_operator",
              self.timed("operators.select", operators.select_operator))
        patch(operators, "update_bank", self.timed("operators.update", operators.update_bank))
        patch(cli, "write_oracle", write(cli.write_oracle))
        patch(cli, "write_log", write(cli.write_log))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def is_fallback(point, space, scenario, k: int) -> bool:
    """Whether an ALNS repair fell back to a uniform random untested scenario:
    operator 1 returns the snapped point when untested, operator 2 a scenario
    of the radius-1 box, and the fallback is untested so it is neither."""
    if k == 1:
        return scenario.index != space.snap(point).index
    levels = space.index_to_levels(scenario.index)
    return not all(lo <= lv <= hi for lv, (lo, hi) in zip(levels, space.box_windows(point, 1)))


def median_us(xs) -> float:
    return statistics.median(xs) * 1e6


def layer_metrics(main: Tracer, companion: Tracer) -> dict[str, float]:
    """Per-layer metrics, each group from the main round when it reached the
    layer, else from the companion campaigns."""
    def pick(span):
        return main if main.spans[span] else companion

    m: dict[str, float] = {}
    ev = main.spans["sim.evaluate"]
    m["sim.evaluate_us"] = median_us(ev)
    m["sim.evaluate_calls"] = len(ev)
    m["sim.evaluate_s"] = sum(ev)
    m["sim.steps_per_eval"] = main.counts["sim.steps"] / len(ev)
    writes = main.spans["experiment.write"]
    m["experiment.write_s"] = sum(writes)
    m["experiment.bytes_written"] = main.counts["experiment.bytes"]

    t = pick("engine.box_query")
    box = t.spans["engine.box_query"]
    m["engine.box_query_us"] = median_us(box)
    m["engine.box_query_calls"] = len(box)
    m["engine.box_cells_scanned"] = t.counts["engine.box_cells"]
    m["engine.box_hit_ratio"] = t.counts["engine.box_hits"] / len(box)
    t = pick("engine.nearest")
    near = t.spans["engine.nearest"]
    m["engine.nearest_us"] = median_us(near)
    m["engine.nearest_calls"] = len(near)
    m["engine.nearest_s"] = sum(near)

    t = pick("operators.select")
    m["operators.select_us"] = median_us(t.spans["operators.select"])
    m["operators.update_us"] = median_us(t.spans["operators.update"])

    for name in ("alvns", "alns"):
        t = pick(name + ".campaign")
        repairs = t.spans[name + ".repair"]
        m[name + ".repair_us"] = median_us(repairs)
        m[name + ".self_s"] = (sum(t.spans[name + ".campaign"])
                               - t.within[name, "sim.evaluate"] - sum(repairs))
    t = pick("alvns.campaign")
    m["alvns.ring_depth_mean"] = t.counts["alvns.box_queries"] / len(t.spans["alvns.repair"])
    rows = [row for _, result in t.results["alvns"] for row in result.rows]
    m["alvns.accepted"] = sum(row.accepted for row in rows)
    m["alvns.restarts"] = sum(
        b.t_current > a.t_current for a, b in zip(rows, rows[1:]))
    t = pick("alns.campaign")
    m["alns.fallbacks"] = t.counts["alns.fallbacks"]

    t = pick("ga.campaign")
    m["ga.redirects"] = t.within_calls["ga", "engine.nearest"]
    children = sum(result.n_evaluations - min(config.population, config.budget)
                   for config, result in t.results["ga"])
    m["ga.redirect_ratio"] = m["ga.redirects"] / children
    m["ga.generations"] = sum(result.extras["generations"] for _, result in t.results["ga"])
    m["ga.self_s"] = (sum(t.spans["ga.campaign"]) - t.within["ga", "sim.evaluate"]
                      - t.within["ga", "engine.nearest"])
    return m


def probe_layers(space, sim_config, ego_config, indices, run_seed) -> dict[str, float]:
    """Median per-call time of each step of one evaluation, on the given
    scenarios: grid lookup, noise stream, trajectory, GTTC reduction, and the
    whole evaluation again at sigma = 0."""
    from scenariosearch.risk import gttc_min
    from scenariosearch.rng import make_generator, scenario_seed
    from scenariosearch.sim import evaluate, simulate

    deterministic = dataclasses.replace(sim_config, sigma=0.0)
    n_max = int(round(sim_config.t_max / sim_config.dt))
    spans = defaultdict(list)
    for i in indices:
        t0 = perf()
        scenario = space.index_to_scenario(i)
        t1 = perf()
        seed = scenario_seed(run_seed, i)
        make_generator(seed).normal(0.0, sim_config.sigma, n_max)
        t2 = perf()
        trajectory = simulate(scenario, sim_config, ego_config, seed)
        t3 = perf()
        gttc_min(trajectory)
        t4 = perf()
        evaluate(scenario, deterministic, ego_config, run_seed)
        t5 = perf()
        spans["space.index_to_scenario_us"].append(t1 - t0)
        spans["rng.stream_us"].append(t2 - t1)
        spans["sim.simulate_us"].append(t3 - t2)
        spans["risk.gttc_min_us"].append(t4 - t3)
        spans["sim.evaluate_det_us"].append(t5 - t4)
    return {name: median_us(xs) for name, xs in spans.items()}


def oracle_seconds(config, run_seed: int, workers: int) -> float:
    """Wall time of the full-grid oracle, untraced."""
    from scenariosearch.oracle import brute_force_oracle

    t0 = perf()
    brute_force_oracle(config.space, config.sim, config.ego, run_seed, workers)
    return perf() - t0
