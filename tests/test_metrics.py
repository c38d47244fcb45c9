import functools
import math

import pytest

from scenariosearch.baselines import run_random
from scenariosearch.metrics import (
    classified_sets,
    coverage,
    coverage_vs_oracle,
    proportion,
    safety_critical_union,
)
from scenariosearch.risk import SAFETY_CRITICAL, ScenarioClass, classify
from scenariosearch.sim import EgoControllerConfig, SimConfig, evaluate
from scenariosearch.space import ParamSpec, ScenarioSpace

C = ScenarioClass


def sets_of(**kw):
    names = {
        "crash": C.CRASH, "near": C.NEAR_CRASH, "high": C.HIGH_RISK,
        "risk": C.RISK, "free": C.RISK_FREE,
    }
    return classified_sets((names[k], i) for k, v in kw.items() for i in v)


class TestProportion:
    def test_sums_to_one(self):
        p = proportion(sets_of(crash={1, 2}, near={3}, free={4, 5, 6}))
        assert sum(p.values()) == pytest.approx(1.0)
        assert p[C.CRASH] == pytest.approx(2 / 6)
        assert p[C.RISK] == 0.0

    def test_single_class(self):
        p = proportion(sets_of(free={1, 2, 3}))
        assert p[C.RISK_FREE] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            proportion({})


class TestCoverage:
    def test_full_and_partial(self):
        a = sets_of(crash={1, 2, 3})
        b = sets_of(crash={3, 4})
        all_sets = {"a": a, "b": b}
        assert coverage(all_sets, C.CRASH, "a") == pytest.approx(3 / 4)
        assert coverage(all_sets, C.CRASH, "b") == pytest.approx(2 / 4)

    def test_none_when_class_unseen(self):
        all_sets = {"a": sets_of(crash={1}), "b": sets_of()}
        assert coverage(all_sets, C.NEAR_CRASH, "a") is None

    def test_single_algorithm_is_one(self):
        all_sets = {"a": sets_of(high={7, 8})}
        assert coverage(all_sets, C.HIGH_RISK, "a") == 1.0

    def test_bounded(self):
        all_sets = {"a": sets_of(crash={1}), "b": sets_of(crash={2, 3})}
        for alg in all_sets:
            assert 0.0 <= coverage(all_sets, C.CRASH, alg) <= 1.0


class TestCoverageVsOracle:
    def test_exact_fraction(self):
        oracle = sets_of(crash={1, 2, 3, 4})
        found = sets_of(crash={1, 2})
        assert coverage_vs_oracle(found, oracle, C.CRASH) == 0.5

    def test_counts_oracle_class_of_tested(self):
        # at sigma > 0 a campaign's noise differs from the oracle's, so it can
        # class an oracle near-crash as a crash
        oracle = sets_of(crash={1, 2}, near={3})
        found = sets_of(crash={1, 3})
        assert coverage_vs_oracle(found, oracle, C.CRASH) == 0.5
        assert coverage_vs_oracle(found, oracle, C.NEAR_CRASH) == 1.0
        found = sets_of(crash={1, 2, 3})
        assert coverage_vs_oracle(found, oracle, C.CRASH) <= 1.0

    def test_none_when_oracle_empty(self):
        assert coverage_vs_oracle(sets_of(crash={1}), sets_of(), C.CRASH) is None

    def test_random_sampling_expectation(self):
        # a uniform sample of n from N scenarios covers each class at rate
        # n/N in expectation, whatever the class sizes are
        space = ScenarioSpace([
            ParamSpec("v_e", 9.0, 1.5, 4),
            ParamSpec("v_o", 5.5, 2.0, 3),
            ParamSpec("d", 13.5, 5.0, 3),
            ParamSpec("a", -0.05, -0.8, 2),
        ])
        ev = functools.partial(evaluate, sim_config=SimConfig(sigma=0.0),
                               ego_config=EgoControllerConfig(), run_seed=0)
        oracle = {c: set() for c in C}
        for k in range(space.cardinality):
            oracle[classify(ev(space.index_to_scenario(k)).gttc_min)].add(k)
        n, n_seeds = 18, 200
        rate = n / space.cardinality
        present = [c for c in C if oracle[c]]
        totals = {c: 0.0 for c in present}
        for seed in range(n_seeds):
            res = run_random(n, space, ev, seed=seed)
            found = res.classified_sets()
            for c in present:
                totals[c] += coverage_vs_oracle(found, oracle, c)
        for c in present:
            mean = totals[c] / n_seeds
            # binomial-ish spread; loose 5-sigma band scaled by class size
            sigma = math.sqrt(rate * (1 - rate) / (len(oracle[c]) * n_seeds))
            assert abs(mean - rate) < 5 * sigma + 1e-9


class TestSafetyCriticalUnion:
    def test_union_of_critical_classes(self):
        sets = sets_of(crash={1}, near={2}, high={3}, risk={4}, free={5})
        got = safety_critical_union(sets)
        expected = set()
        for c in SAFETY_CRITICAL:
            expected |= sets[c]
        assert got == expected

    def test_empty(self):
        assert safety_critical_union(sets_of()) == set()
