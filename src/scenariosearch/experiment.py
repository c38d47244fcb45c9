"""Experiment orchestration: running campaigns, CSV emission and the
plain-text comparison report."""

from __future__ import annotations

import csv
import functools
import math
import os
import statistics
import tempfile
from dataclasses import dataclass, field

from . import metrics
from .baselines import run_alns_sa, run_ga, run_random
from .alvns import run_alvns_sa
from .config import ExperimentConfig
from .engine import RunResult
from .oracle import brute_force_oracle, oracle_classified_sets
from .risk import LABEL_TO_CLASS, ScenarioClass
from .sim import EvaluationResult, evaluate

LOG_HEADER = "iter,scenario_index,v_e,v_o,d,a,gttc_min,class,accepted,destroy_op,repair_op,T_c"
ORACLE_HEADER = "scenario_index,v_e,v_o,d,a,gttc_min,class"
SUMMARY_HEADER = "algorithm,seed,class,P,coverage_union,coverage_oracle,n_evals"
OPERATORS_HEADER = "algorithm,seed,kind,operator,weight,score,uses"
DISTRIBUTION_HEADER = "algorithm,class,share"


def fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def atomic_write(path: str, lines: list[str]) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
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
        return run_alvns_sa(config.search_config(seed), config.space, evaluator)
    if algorithm == "alns-sa":
        return run_alns_sa(config.search_config(seed), config.space, evaluator)
    if algorithm == "ga":
        return run_ga(config.ga_config(seed), config.space, evaluator)
    if algorithm == "random":
        return run_random(config.budget, config.space, evaluator, seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def log_lines(result: RunResult) -> list[str]:
    lines = [LOG_HEADER]
    for row in result.rows:
        s = row.scenario
        lines.append(",".join([
            str(row.iteration),
            str(s.index),
            fmt(s.v_e), fmt(s.v_o), fmt(s.d), fmt(s.a),
            fmt(row.gttc_min),
            row.risk_class.label,
            "1" if row.accepted else "0",
            str(row.destroy_op) if row.destroy_op is not None else "",
            str(row.repair_op) if row.repair_op is not None else "",
            fmt(row.t_current) if row.t_current is not None else "",
        ]))
    return lines


def write_log(result: RunResult, out_dir: str) -> str:
    path = os.path.join(out_dir, f"{result.algorithm}_seed{result.seed}.csv")
    atomic_write(path, log_lines(result))
    return path


def write_oracle(space, oracle: list[EvaluationResult], out_dir: str) -> str:
    lines = [ORACLE_HEADER]
    for res in oracle:
        s = space.index_to_scenario(res.scenario_index)
        lines.append(",".join([
            str(res.scenario_index),
            fmt(s.v_e), fmt(s.v_o), fmt(s.d), fmt(s.a),
            fmt(res.gttc_min),
            res.risk_class.label,
        ]))
    path = os.path.join(out_dir, "oracle.csv")
    atomic_write(path, lines)
    return path


@dataclass
class ExperimentReport:
    runs: dict[tuple[str, int], RunResult] = field(default_factory=dict)
    oracle_sets: metrics.ClassifiedSets | None = None

    @property
    def failures(self) -> list[RunResult]:
        return [r for r in self.runs.values() if r.invalid]


def run_experiment(config: ExperimentConfig, out_dir: str) -> ExperimentReport:
    """Run every (algorithm, seed) pair plus the ground-truth oracle and
    write the full CSV bundle into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    report = ExperimentReport()

    oracle = brute_force_oracle(
        config.space, config.sim, config.ego, config.oracle_seed, config.workers
    )
    write_oracle(config.space, oracle, out_dir)
    report.oracle_sets = oracle_classified_sets(oracle)

    for algorithm in config.algorithms:
        for seed in config.seeds:
            result = run_search(config, algorithm, seed)
            report.runs[(algorithm, seed)] = result
            write_log(result, out_dir)

    summary = [SUMMARY_HEADER]
    for seed in config.seeds:
        per_algo_sets = {
            a: report.runs[(a, seed)].classified_sets() for a in config.algorithms
        }
        for algorithm in config.algorithms:
            sets = per_algo_sets[algorithm]
            props = metrics.proportion(sets)
            for cls in ScenarioClass:
                cov_u = metrics.coverage(per_algo_sets, cls, algorithm)
                cov_o = metrics.coverage_vs_oracle(sets, report.oracle_sets, cls)
                summary.append(",".join([
                    algorithm,
                    str(seed),
                    cls.label,
                    fmt(props[cls]),
                    fmt(cov_u) if cov_u is not None else "",
                    fmt(cov_o) if cov_o is not None else "",
                    str(report.runs[(algorithm, seed)].n_evaluations),
                ]))
    atomic_write(os.path.join(out_dir, "summary.csv"), summary)

    operators = [OPERATORS_HEADER]
    for (algorithm, seed), result in report.runs.items():
        bank = result.bank
        if bank is None:
            continue
        for op in range(len(bank.destroy_weights)):
            operators.append(",".join([
                algorithm, str(seed), "destroy", str(op + 1),
                fmt(bank.destroy_weights[op]),
                fmt(bank.destroy_scores[op]),
                str(int(bank.destroy_uses[op])),
            ]))
        for op in range(len(bank.repair_weights)):
            operators.append(",".join([
                algorithm, str(seed), "repair", str(op + 1),
                fmt(bank.repair_weights[op]),
                fmt(bank.repair_scores[op]),
                str(int(bank.repair_uses[op])),
            ]))
    atomic_write(os.path.join(out_dir, "operators.csv"), operators)

    distribution = [DISTRIBUTION_HEADER]
    for algorithm in config.algorithms:
        shares = {cls: [] for cls in ScenarioClass}
        for seed in config.seeds:
            props = metrics.proportion(report.runs[(algorithm, seed)].classified_sets())
            for cls in ScenarioClass:
                shares[cls].append(props[cls])
        for cls in ScenarioClass:
            distribution.append(",".join([
                algorithm, cls.label, fmt(statistics.median(shares[cls]))
            ]))
    atomic_write(os.path.join(out_dir, "distribution.csv"), distribution)

    return report


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


def load_log_sets(path: str) -> metrics.ClassifiedSets:
    """Classified index sets from one evaluation-log CSV."""
    with open(path, newline="") as fh:
        return metrics.classified_sets(
            (LABEL_TO_CLASS[row["class"]], int(row["scenario_index"]))
            for row in csv.DictReader(fh))
