"""Experiment orchestration: running campaigns, CSV emission and the
plain-text comparison report."""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import os
import statistics
from collections.abc import Iterable, Iterator

from . import metrics
from .baselines import run_alns_sa, run_ga, run_random
from .alvns import run_alvns_sa
from .config import ExperimentConfig
from .engine import EvaluationFailure, RunResult
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


def atomic_write(path: str, lines: Iterable[str]) -> None:
    """Write each line, newline-terminated, into a temporary file beside
    path, one line at a time, then rename it onto path. If the lines raise
    partway, the temporary is removed and path is left as it was. An empty
    iterable writes an empty file; every caller passes a header line first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
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


def log_lines(result: RunResult) -> Iterator[str]:
    yield LOG_HEADER
    for i, row in enumerate(result.rows):
        s = row.scenario
        yield ",".join([
            str(i),
            str(s.index),
            fmt(s.v_e), fmt(s.v_o), fmt(s.d), fmt(s.a),
            fmt(row.gttc_min),
            classify(row.gttc_min).label,
            "1" if row.accepted else "0",
            str(row.destroy_op) if row.destroy_op is not None else "",
            str(row.repair_op) if row.repair_op is not None else "",
            fmt(row.t_current),
        ])


def write_log(result: RunResult, out_dir: str, algorithm: str, seed: int) -> str:
    path = os.path.join(out_dir, f"{algorithm}_seed{seed}.csv")
    atomic_write(path, log_lines(result))
    return path


def write_oracle(space, gttc: list[float], out_dir: str) -> str:
    # each axis value is formatted once; product varies the last axis fastest,
    # as the flat index does, so its tuples come in flat-index order. The rows
    # are made as the file is written, so no list of them is ever held, and a
    # gttc of the wrong length raises from zip partway, leaving no file.
    cells = itertools.product(*([fmt(v) for v in s.values] for s in space.specs))
    rows = (",".join([str(i), *coords, fmt(g), classify(g).label])
            for i, (coords, g) in enumerate(zip(cells, gttc, strict=True)))
    path = os.path.join(out_dir, "oracle.csv")
    atomic_write(path, itertools.chain([ORACLE_HEADER], rows))
    return path


def run_experiment(config: ExperimentConfig,
                   out_dir: str) -> dict[RunKey, EvaluationFailure | None]:
    """Run the ground-truth oracle and every (algorithm, seed) pair, write the
    full CSV bundle into out_dir, each log as its run ends, and return each
    run's failure or None. Of a run, only its class sets, bank and failure are kept."""
    gttc = brute_force_oracle(
        config.space, config.sim, config.ego, config.oracle_seed, config.workers
    )
    write_oracle(config.space, gttc, out_dir)
    oracle_sets = oracle_classified_sets(gttc)

    sets, banks, failures = {}, {}, {}
    for key in itertools.product(config.algorithms, config.seeds):
        run = run_search(config, *key)
        write_log(run, out_dir, *key)
        sets[key], banks[key], failures[key] = run.classified_sets(), run.bank, run.failure
        del run  # so that no campaign is held while the next one runs

    # A run that failed on its first evaluation tested nothing, so has no shares.
    shares = {k: metrics.proportion(s) for k, s in sets.items() if any(s.values())}
    tables = {"summary.csv": _summary_lines(config, sets, shares, oracle_sets),
              "operators.csv": _operator_lines(banks),
              "distribution.csv": _distribution_lines(config, shares)}
    for name, lines in tables.items():
        atomic_write(os.path.join(out_dir, name), lines)
    return failures


def _summary_lines(config, sets, shares, oracle_sets) -> list[str]:
    """Per run and class: share, coverage of the seed's union and of the oracle.
    Each evaluated scenario is in exactly one of its run's class sets."""
    lines = [SUMMARY_HEADER]
    for seed in config.seeds:
        by_algo = {a: sets[a, seed] for a in config.algorithms}
        for algorithm in config.algorithms:
            share = shares.get((algorithm, seed), {})
            n = sum(len(s) for s in by_algo[algorithm].values())
            for cls in ScenarioClass:
                cov_u = metrics.coverage(by_algo, cls, algorithm)
                cov_o = metrics.coverage_vs_oracle(by_algo[algorithm], oracle_sets, cls)
                lines.append(f"{algorithm},{seed},{cls.label},{fmt(share.get(cls))},"
                             f"{fmt(cov_u)},{fmt(cov_o)},{n}")
    return lines


def _operator_lines(banks) -> list[str]:
    """Final weight, score and use count of every operator of each adaptive run."""
    lines = [OPERATORS_HEADER]
    for (algorithm, seed), bank in banks.items():
        for kind in ("destroy", "repair") if bank else ():
            columns = zip(*(getattr(bank, f"{kind}_{column}")
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

