"""The campaign driver's contract, shared by every search algorithm: no
retest, an exact budget, and evaluator failures recorded, not raised out of
the driver."""

import math
import os
import subprocess
import sys

import pytest

import scenariosearch
from scenariosearch.alvns import SearchConfig, run_alvns_sa
from scenariosearch.baselines import GAConfig, run_alns_sa, run_ga, run_random
from scenariosearch.config import load_config
from scenariosearch.engine import Archive, BudgetedEvaluator, EvaluationFailure, InvariantError
from scenariosearch.experiment import make_evaluator
from scenariosearch.rng import make_generator
from scenariosearch.sim import EvaluationResult
from scenariosearch.space import ParamSpec, ScenarioSpace

TOY_CONFIG = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg"))
TOY = TOY_CONFIG.space
GOOD = make_evaluator(TOY_CONFIG, 0)

RUNNERS = {
    "random": lambda ev: run_random(20, TOY, ev, seed=1),
    "ga": lambda ev: run_ga(GAConfig(population=6, budget=20, seed=1), TOY, ev),
    "alvns-sa": lambda ev: run_alvns_sa(SearchConfig(budget=20, seed=1), TOY, ev),
    "alns-sa": lambda ev: run_alns_sa(SearchConfig(budget=20, seed=1), TOY, ev),
}


def failing_at(n, calls, gttc_min=None):
    """GOOD, except that the nth call raises, or returns gttc_min when one is
    given; calls records every index."""
    def flaky(scenario):
        calls.append(scenario.index)
        if len(calls) == n:
            if gttc_min is None:
                raise RuntimeError("simulator crashed")
            return EvaluationResult(gttc_min, 1)
        return GOOD(scenario)
    return flaky


# a raise, or a GTTC_min that classify rejects: (gttc_min, error type, message)
FAILURES = [
    (None, "RuntimeError", "simulator crashed"),
    (math.nan, "ValueError", "GTTC_min must be >= 0, got nan"),
    (-1.0, "ValueError", "GTTC_min must be >= 0, got -1.0"),
]


# n = 7 is GA's first child and n = 20 the budget's last evaluation
@pytest.mark.parametrize("n", [1, 4, 7, 10, 20])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_evaluator_failure_recorded(algorithm, n):
    runs = []
    for gttc_min, error_type, message in FAILURES:
        calls = []
        res = RUNNERS[algorithm](failing_at(n, calls, gttc_min))
        assert res.failure == EvaluationFailure(calls[n - 1], error_type, message)
        assert str(res.failure) == f"scenario {calls[n - 1]}: {error_type}: {message}"
        assert len(calls) == n  # the run stops at the failure
        assert res.archive_order == calls[: n - 1] and res.n_evaluations == n - 1
        runs.append((calls, res.rows))
    # the kind of failure changes nothing before it
    assert all(run == runs[0] for run in runs)


# population 6 and 2 children per crossover: a generation that fails counts
@pytest.mark.parametrize("n, generations", [(1, 0), (4, 0), (7, 1), (10, 1), (20, 2)])
def test_ga_failed_run_counts_its_generations(n, generations):
    res = RUNNERS["ga"](failing_at(n, []))
    assert res.extras == {"generations": generations}


def test_evaluate_raises_its_recorded_failure_from_the_evaluator_error():
    def broken(scenario):
        raise ValueError("bad input")

    drv = BudgetedEvaluator(TOY, broken, budget=2)
    with pytest.raises(EvaluationFailure) as info:
        drv.evaluate(TOY.index_to_scenario(3))
    assert info.value is drv.failure
    assert isinstance(info.value.__cause__, ValueError)
    assert drv.failure == EvaluationFailure(3, "ValueError", "bad input")
    assert 3 in drv.archive and drv.rows == []


def test_diverged_state_recorded_as_failure():
    # every scenario of this grid overflows the positions within a few steps
    huge = ScenarioSpace([ParamSpec("v_e", 1e308, -1e307, 2),
                          ParamSpec("v_o", 1e308, -1e307, 2),
                          ParamSpec("d", 1e308, -1e307, 2),
                          ParamSpec("a", -0.05, -1.0, 2)])
    res = run_random(10, huge, GOOD, seed=1)
    first = int(make_generator(1).permutation(huge.cardinality)[0])
    assert res.failure == EvaluationFailure(first, "FloatingPointError",
                                            "state diverged")
    assert res.n_evaluations == 0


def first_tested(archive) -> int:
    """The smallest tested flat index: a retest stand-in for a broken query."""
    return next(k for k in range(archive.space.cardinality) if k in archive)


def test_ga_redirect_to_tested_scenario_raises(monkeypatch):
    # a redirect that breaks the no-retest contract is a driver bug, not an
    # evaluator failure: it must surface, not flag the run invalid
    monkeypatch.setattr(Archive, "nearest_untested", lambda self, point: first_tested(self))
    with pytest.raises(InvariantError, match="already tested"):
        run_ga(GAConfig(population=6, budget=36, seed=1), TOY, GOOD)


def test_alvns_repair_to_tested_scenario_raises():
    # the same for a repair: the driver's suppress(EvaluationFailure) swallows
    # no InvariantError
    def repair(point, space, archive, bank, rng):
        return space.index_to_scenario(first_tested(archive)), 1

    with pytest.raises(InvariantError, match="^scenario 17 was already tested$"):
        run_alvns_sa(SearchConfig(budget=20, seed=1), TOY, GOOD, repair=repair)


INVARIANTS_SNIPPET = """
from scenariosearch.engine import BudgetedEvaluator, InvariantError
from scenariosearch.sim import EvaluationResult
from scenariosearch.space import ParamSpec, ScenarioSpace
space = ScenarioSpace([ParamSpec(name, 0.0, 1.0, 2) for name in "abcd"])
drv = BudgetedEvaluator(space, lambda s: EvaluationResult(float(s.index), 1), budget=2)
print(__debug__)
for idx in (0, 0, 1, 2):
    try:
        print(drv.evaluate(space.index_to_scenario(idx)).gttc_min)
    except InvariantError as exc:
        print(exc)
"""


def test_invariants_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(scenariosearch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", INVARIANTS_SNIPPET],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "0.0", "scenario 0 was already tested", "1.0",
        "evaluation budget exhausted",
    ]
