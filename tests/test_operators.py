import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenariosearch import operators as ops
from scenariosearch.config import load_config
from scenariosearch.risk import INF, classify
from scenariosearch.rng import make_generator

DEFAULT_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
SPACE = load_config(DEFAULT_CFG).space


class TestInitBank:
    def test_initial_scores(self):
        bank = ops.init_bank()
        assert bank.destroy_scores[0] == 1.5  # R1
        assert bank.destroy_scores[1] == 1.5  # R2
        assert bank.destroy_scores[2] == 1.5  # R3
        assert bank.destroy_scores[3] == 1.0  # R4
        assert bank.destroy_scores[6] == 1.5  # R7
        assert bank.destroy_scores[7] == 1.0  # R8
        assert np.all(bank.destroy_weights == 1.0)

    def test_use_counts_zero(self):
        bank = ops.init_bank()
        assert np.all(bank.destroy_uses == 0)
        assert np.all(bank.repair_uses == 0)

    def test_repair_uniform_start(self):
        bank = ops.init_bank()
        assert bank.repair_weights[0] == bank.repair_weights[1] == 1.0


class TestSelectOperator:
    def test_uniform_frequencies(self):
        bank = ops.init_bank()
        rng = make_generator(1)
        n = 80_000
        counts = np.bincount(
            [ops.select_operator(bank, "destroy", rng) - 1 for _ in range(n)],
            minlength=8,
        )
        p = 1 / 8
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 3 * sigma)

    def test_weighted_repair(self):
        bank = ops.init_bank()
        bank.repair_weights[:] = (3.0, 1.0)
        rng = make_generator(2)
        n = 100_000
        first = sum(ops.select_operator(bank, "repair", rng) == 1
                    for _ in range(n))
        assert abs(first / n - 0.75) < 0.01

    def test_single_nonzero_weight(self):
        bank = ops.init_bank()
        bank.destroy_weights[:] = 0.0
        bank.destroy_weights[4] = 2.0
        rng = make_generator(3)
        assert all(ops.select_operator(bank, "destroy", rng) == 5
                   for _ in range(100))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ops.roulette(np.zeros(3), make_generator(0))

    @given(st.lists(st.floats(0.0, 1e6) | st.floats(0.0, 1e-6) | st.just(0.0),
                    min_size=ops.N_DESTROY, max_size=ops.N_DESTROY),
           st.lists(st.floats(1e-9, 1e6), min_size=ops.N_REPAIR, max_size=ops.N_REPAIR),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_roulette(self, destroy, repair, seed):
        # the same operators from the same rng state, draw after draw
        bank = ops.init_bank()
        bank.destroy_weights[:] = destroy
        bank.repair_weights[:] = repair
        got, ref = make_generator(seed), make_generator(seed)
        for _ in range(20):
            if sum(destroy) > 0.0:
                assert (ops.select_operator(bank, "destroy", got)
                        == roulette_reference(bank.destroy_weights, ref) + 1)
            assert (ops.select_operator(bank, "repair", got)
                    == roulette_reference(bank.repair_weights, ref) + 1)

    def test_total_is_numpy_sum(self):
        # numpy sums 8 weights pairwise, to more than the left-to-right sum
        # here; the top draw lands past every running total, so it picks the
        # last operator, where a left-to-right total would give the first
        weights = np.array([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert float(weights.sum()) > sum(weights.tolist())
        bank = ops.init_bank()
        bank.destroy_weights[:] = weights
        top = FixedDraw(1.0 - 2.0**-53)
        assert ops.select_operator(bank, "destroy", top) == 8
        assert roulette_reference(weights, top) + 1 == 8

    @given(st.lists(st.floats(1e-6, 1e6), min_size=100, max_size=100),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_ga_width_roulette_unchanged(self, weights, seed):
        weights = np.array(weights)
        got, ref = make_generator(seed), make_generator(seed)
        assert ([ops.roulette(weights, got) for _ in range(20)]
                == [roulette_reference(weights, ref) for _ in range(20)])


class FixedDraw:
    """An rng stand-in whose every uniform draw is r."""

    def __init__(self, r: float):
        self.r = r

    def random(self) -> float:
        return self.r


def roulette_reference(weights, rng) -> int:
    """Roulette over numpy scalars, as it read before its loop took a list."""
    total = float(weights.sum())
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += float(w)
        if u < acc:
            return i
    return len(weights) - 1


class TestSampleXi:
    def test_baseline_band_below_threshold(self):
        rng = make_generator(4)
        span = SPACE.specs[0].span
        frac = ops.xi_fraction(classify(5.0), 0 / 100, 2 > 5)
        for _ in range(200):
            xi = ops.sample_xi(SPACE, 0, frac, rng)
            assert 0.0 <= xi <= 0.1 * span

    def test_crash_band(self):
        rng = make_generator(5)
        span = SPACE.specs[2].span
        frac = ops.xi_fraction(classify(0.0), 50 / 100, 10 > 5)
        assert frac == 0.1
        for _ in range(200):
            xi = ops.sample_xi(SPACE, 2, frac, rng)
            assert xi <= 0.1 * span

    def test_risk_free_band_shrinks_with_progress(self):
        rng = make_generator(6)
        span = SPACE.specs[1].span
        frac = ops.xi_fraction(classify(3.0), 100 / 100, 10 > 5)
        assert frac == pytest.approx(0.4)
        assert ops.xi_fraction(classify(INF), 0.25, True) == pytest.approx(0.7)
        for _ in range(200):
            xi = ops.sample_xi(SPACE, 1, frac, rng)
            assert xi <= 0.4 * span

    @pytest.mark.parametrize("g,frac", [
        (0.3, 0.2), (0.5, 0.2), (0.8, 0.3), (1.0, 0.3), (1.5, 0.8), (2.0, 0.8),
    ])
    def test_adaptive_bands(self, g, frac):
        assert ops.xi_fraction(classify(g), 0 / 100, 10 > 5) == frac
        assert ops.xi_fraction(classify(g), 0 / 100, False) == 0.1

    def test_degenerate_axis(self):
        from scenariosearch.space import ParamSpec, build_space
        sp = build_space([ParamSpec(n, 1.0, 1.0, 1) for n in "abcd"])
        frac = ops.xi_fraction(classify(5.0), 0 / 10, 0 > 5)
        assert ops.sample_xi(sp, 0, frac, make_generator(0)) == 0.0


class TestDestroy:
    def test_null_perturbation(self):
        s = SPACE.index_to_scenario(100)
        assert ops.destroy(s, 3, 0.0, SPACE) == pytest.approx(s.coords)

    def test_r2_clamps(self):
        s = SPACE.snap((16.0, 10.0, 20.5, -0.85))
        point = ops.destroy(s, 2, 0.7, SPACE)
        assert point[0] == 16.5

    def test_r5_subtracts_gap(self):
        s = SPACE.snap((12.0, 10.0, 20.5, -0.85))
        point = ops.destroy(s, 5, 2.3, SPACE)
        assert point == pytest.approx((s.v_e, s.v_o, 18.2, s.a))

    @pytest.mark.parametrize("op,param,sign", [
        (1, 0, -1), (2, 0, 1), (3, 1, -1), (4, 1, 1),
        (5, 2, -1), (6, 2, 1), (7, 3, -1), (8, 3, 1),
    ])
    def test_operator_directions(self, op, param, sign):
        s = SPACE.snap((12.0, 10.0, 20.5, -0.85))
        point = ops.destroy(s, op, 0.01, SPACE)
        assert point[param] == pytest.approx(s.coords[param] + sign * 0.01)

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            ops.destroy(SPACE.index_to_scenario(0), 9, 0.1, SPACE)


class TestSaAccept:
    def test_zero_delta_always(self):
        rng = make_generator(7)
        assert all(ops.sa_accept(0.0, 0.5, rng) for _ in range(1000))

    def test_improvement_always(self):
        rng = make_generator(8)
        assert all(ops.sa_accept(-1.0, 0.5, rng) for _ in range(1000))

    def test_delta_equals_temperature(self):
        rng = make_generator(9)
        n = 100_000
        acc = sum(ops.sa_accept(0.7, 0.7, rng) for _ in range(n))
        assert abs(acc / n - math.exp(-1)) < 0.01

    def test_huge_delta_rejected(self):
        rng = make_generator(10)
        assert not any(ops.sa_accept(1e9, 0.5, rng) for _ in range(100))


class TestScoreDelta:
    @pytest.mark.parametrize("old,new,accepted,theta", [
        # improvement column, banded by the new value
        (1.5, 0.3, True, 2.6),
        (1.5, 0.5, True, 2.6),
        (1.5, 0.8, True, 2.2),
        (3.0, 1.5, True, 1.8),
        (INF, 3.0, True, 0.2),
        # accepted non-improvement
        (0.2, 0.4, True, 2.0),
        (0.4, 0.9, True, 1.6),
        (0.4, 1.5, True, 1.2),
        (0.4, 3.0, True, 0.1),
        # rejected non-improvement
        (0.2, 0.4, False, 1.8),
        (0.4, 0.9, False, 1.4),
        (0.4, 1.5, False, 1.0),
        (0.4, 3.0, False, 0.0),
        # edge: equal values are non-improvements
        (0.5, 0.5, True, 2.0),
        (INF, INF, False, 0.0),
        (0.0, 0.0, True, 2.0),
    ])
    def test_table(self, old, new, accepted, theta):
        assert ops.score_delta(old, new, accepted) == theta

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ops.score_delta(-1.0, 0.5, True)

    @pytest.mark.parametrize("new", [math.nan, -1.0])
    def test_invalid_new_rejected(self, new):
        with pytest.raises(ValueError):
            ops.score_delta(1.0, new, True)


class TestUpdateBank:
    def test_exact_update(self):
        bank = ops.init_bank()
        # R4 starts at w=1, s=1; incoming theta=1 gives s=2 at u=1
        ops.update_bank(bank, 4, 1, theta=1.0, rho=0.5)
        assert bank.destroy_weights[3] == pytest.approx(1.5)
        assert bank.destroy_uses[3] == 1
        assert bank.destroy_scores[3] == 2.0

    def test_unused_unchanged(self):
        bank = ops.init_bank()
        before = bank.destroy_weights.copy()
        ops.update_bank(bank, 4, 2, theta=1.0, rho=0.5)
        touched = np.zeros(8, dtype=bool)
        touched[3] = True
        assert np.all(bank.destroy_weights[~touched] == before[~touched])

    def test_zero_theta_decays_toward_mean_score(self):
        bank = ops.init_bank()
        for _ in range(50):
            ops.update_bank(bank, 1, 1, theta=0.0, rho=0.5)
        # weight converges to s/u = 1.5/50 -> small but positive
        assert 0.0 < bank.destroy_weights[0] < 0.1

    def test_weights_stay_positive(self):
        bank = ops.init_bank()
        rng = make_generator(11)
        for _ in range(500):
            ops.update_bank(bank, int(rng.integers(1, 9)),
                            int(rng.integers(1, 3)), theta=0.0, rho=0.3)
        assert np.all(bank.destroy_weights > 0.0)
        assert np.all(bank.repair_weights > 0.0)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            ops.update_bank(ops.init_bank(), 1, 1, 1.0, 0.0)
