"""Experiment orchestration: running campaigns, CSV emission and the
plain-text comparison report."""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import os
import statistics

from . import metrics
from .baselines import run_alns_sa, run_ga, run_random
from .alvns import run_alvns_sa
from .config import ExperimentConfig
from .engine import RunResult
from .oracle import brute_force_oracle, oracle_classified_sets
from .risk import ScenarioClass, classify
from .sim import evaluate

LOG_HEADER = "iter,scenario_index,v_e,v_o,d,a,gttc_min,class,accepted,destroy_op,repair_op,T_c"
ORACLE_HEADER = "scenario_index,v_e,v_o,d,a,gttc_min,class"
SUMMARY_HEADER = "algorithm,seed,class,P,coverage_union,coverage_oracle,n_evals"
OPERATORS_HEADER = "algorithm,seed,kind,operator,weight,score,uses"
DISTRIBUTION_HEADER = "algorithm,class,share"

RunKey = tuple[str, int]  # (algorithm, seed)


def fmt(x: float | None) -> str:
    """One CSV cell: blank where the value is undefined."""
    return "" if x is None else f"{x:.12g}"


def atomic_write(path: str, lines: list[str]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def make_evaluator(config: ExperimentConfig, run_seed: int):
    return functools.partial(
        evaluate, sim_config=config.sim, ego_config=config.ego, run_seed=run_seed
    )


def run_search(config: ExperimentConfig, algorithm: str, seed: int) -> RunResult:
    evaluator = make_evaluator(config, seed)
    if algorithm == "alvns-sa":
        return run_alvns_sa(config.search, config.space, evaluator, config.budget, seed)
    if algorithm == "alns-sa":
        return run_alns_sa(config.search, config.space, evaluator, config.budget, seed)
    if algorithm == "ga":
        return run_ga(dataclasses.replace(config.ga, budget=config.budget),
                      config.space, evaluator, seed)
    if algorithm == "random":
        return run_random(config.budget, config.space, evaluator, seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def log_lines(result: RunResult) -> list[str]:
    lines = [LOG_HEADER]
    for i, row in enumerate(result.rows):
        s = row.scenario
        lines.append(",".join([
            str(i),
            str(s.index),
            fmt(s.v_e), fmt(s.v_o), fmt(s.d), fmt(s.a),
            fmt(row.gttc_min),
            classify(row.gttc_min).label,
            "1" if row.accepted else "0",
            str(row.destroy_op) if row.destroy_op is not None else "",
            str(row.repair_op) if row.repair_op is not None else "",
            fmt(row.t_current),
        ]))
    return lines


def write_log(result: RunResult, out_dir: str, algorithm: str, seed: int) -> str:
    path = os.path.join(out_dir, f"{algorithm}_seed{seed}.csv")
    atomic_write(path, log_lines(result))
    return path


def write_oracle(space, gttc: list[float], out_dir: str) -> str:
    # each axis value is formatted once; product varies the last axis fastest,
    # as the flat index does, so its tuples come in flat-index order
    cells = itertools.product(*([fmt(v) for v in s.values] for s in space.specs))
    lines = [ORACLE_HEADER]
    for i, (coords, g) in enumerate(zip(cells, gttc, strict=True)):
        lines.append(",".join([str(i), *coords, fmt(g), classify(g).label]))
    path = os.path.join(out_dir, "oracle.csv")
    atomic_write(path, lines)
    return path


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict[RunKey, RunResult]:
    """Run every (algorithm, seed) pair plus the ground-truth oracle, write the
    full CSV bundle into out_dir and return the runs."""
    gttc = brute_force_oracle(
        config.space, config.sim, config.ego, config.oracle_seed, config.workers
    )
    write_oracle(config.space, gttc, out_dir)
    oracle_sets = oracle_classified_sets(gttc)

    runs = {}
    for algorithm in config.algorithms:
        for seed in config.seeds:
            runs[algorithm, seed] = run_search(config, algorithm, seed)
            write_log(runs[algorithm, seed], out_dir, algorithm, seed)

    sets = {k: run.classified_sets() for k, run in runs.items()}
    # A run that failed on its first evaluation tested nothing, so has no shares.
    shares = {k: metrics.proportion(sets[k]) for k, run in runs.items() if run.rows}
    tables = {"summary.csv": _summary_lines(config, runs, sets, shares, oracle_sets),
              "operators.csv": _operator_lines(runs),
              "distribution.csv": _distribution_lines(config, shares)}
    for name, lines in tables.items():
        atomic_write(os.path.join(out_dir, name), lines)
    return runs


def _summary_lines(config, runs, sets, shares, oracle_sets) -> list[str]:
    """Per run and class: share, coverage of the seed's union and of the oracle."""
    lines = [SUMMARY_HEADER]
    for seed in config.seeds:
        by_algo = {a: sets[a, seed] for a in config.algorithms}
        for algorithm in config.algorithms:
            share = shares.get((algorithm, seed), {})
            n = runs[algorithm, seed].n_evaluations
            for cls in ScenarioClass:
                cov_u = metrics.coverage(by_algo, cls, algorithm)
                cov_o = metrics.coverage_vs_oracle(by_algo[algorithm], oracle_sets, cls)
                lines.append(f"{algorithm},{seed},{cls.label},{fmt(share.get(cls))},"
                             f"{fmt(cov_u)},{fmt(cov_o)},{n}")
    return lines


def _operator_lines(runs) -> list[str]:
    """Final weight, score and use count of every operator of each adaptive run."""
    lines = [OPERATORS_HEADER]
    for (algorithm, seed), run in runs.items():
        for kind in ("destroy", "repair") if run.bank else ():
            columns = zip(*(getattr(run.bank, f"{kind}_{column}")
                            for column in ("weights", "scores", "uses")))
            for op, (weight, score, uses) in enumerate(columns, start=1):
                lines.append(f"{algorithm},{seed},{kind},{op},"
                             f"{fmt(weight)},{fmt(score)},{int(uses)}")
    return lines


def _distribution_lines(config, shares) -> list[str]:
    """Per algorithm and class: median share over the runs that tested anything."""
    lines = [DISTRIBUTION_HEADER]
    for algorithm in config.algorithms:
        tested = [share for (a, _), share in shares.items() if a == algorithm]
        for cls in ScenarioClass:
            median = statistics.median(s[cls] for s in tested) if tested else None
            lines.append(f"{algorithm},{cls.label},{fmt(median)}")
    return lines


def render_report(in_dir: str) -> str:
    """Text table of per-class P and coverage, medians across seeds."""
    path = os.path.join(in_dir, "summary.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no summary.csv in {in_dir}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("summary.csv is empty")

    algorithms = list(dict.fromkeys(r["algorithm"] for r in rows))
    lines = [
        "Scenario class proportions (P) and coverage rates (median across seeds).",
        "Coverage-union is relative to the cross-algorithm union; coverage-oracle",
        "to the full-grid ground truth. Multi-seed medians extend the single-run",
        "comparison protocol.",
        "",
        f"{'class':<12} {'metric':<16} " + " ".join(f"{a:>10}" for a in algorithms),
    ]
    for cls in ScenarioClass:
        for key, label in (("P", "P"), ("coverage_union", "coverage-union"),
                           ("coverage_oracle", "coverage-oracle")):
            cells = []
            for algorithm in algorithms:
                vals = [
                    float(r[key]) for r in rows
                    if r["algorithm"] == algorithm and r["class"] == cls.label
                    and r[key] != ""
                ]
                cells.append(f"{100 * statistics.median(vals):>9.2f}%"
                             if vals else f"{'n/a':>10}")
            lines.append(f"{cls.label:<12} {label:<16} " + " ".join(cells))
    return "\n".join(lines)

