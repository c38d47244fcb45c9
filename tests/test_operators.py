import itertools
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
from scenariosearch.space import ParamSpec, ScenarioSpace

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

    def test_banks_share_no_state(self):
        names = ("destroy_weights", "destroy_scores", "destroy_uses",
                 "repair_weights", "repair_scores", "repair_uses")
        used, fresh = ops.init_bank(), ops.init_bank()
        initial = {name: getattr(fresh, name).copy() for name in names}
        for name in names:
            assert getattr(used, name) is not getattr(fresh, name)
        rng = make_generator(4)
        for _ in range(20):
            ops.update_bank(used, ops.select_operator(used, "destroy", rng),
                            ops.select_operator(used, "repair", rng),
                            theta=2.6, rho=0.5)
        assert used.destroy_uses.sum() == used.repair_uses.sum() == 20
        for name in names:
            assert np.array_equal(getattr(fresh, name), initial[name])


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


def destroy_reference(current, op_id, frac, space, rng):
    """destroy as three functions once computed it: sample_xi drew xi (none
    on a zero-span axis), destroy moved the coordinate by sign * xi, and
    ScenarioSpace.clamp clamped all four coordinates to their axis ranges."""
    param = (op_id - 1) // 2
    span = space.specs[param].span
    xi = 0.0 if span == 0.0 else rng.uniform(0.0, frac * span)
    sign = -1.0 if op_id % 2 == 1 else 1.0
    coords = list(current.coords)
    coords[param] += sign * xi
    return tuple(min(max(float(v), spec.lo), spec.hi)
                 for spec, v in zip(space.specs, coords))


axis_specs = st.builds(
    ParamSpec,
    st.just("x"),
    st.floats(-50.0, 50.0),
    st.one_of(st.floats(0.01, 5.0), st.floats(-5.0, -0.01)),
    st.integers(1, 6),  # a one-level axis has zero span
)


@st.composite
def destroy_cases(draw):
    """The default grid or a random one (one-level and negative-step axes
    included), and a scenario on it, often on a corner level."""
    space = draw(st.just(SPACE) | st.builds(ScenarioSpace, st.lists(
        axis_specs, min_size=4, max_size=4)))
    levels = [draw(st.sampled_from((0, n - 1)) | st.integers(0, n - 1))
              for n in space.shape]
    return space, space.scenario_from_levels(levels)


class TestSampleXi:
    """The step xi that destroy draws: within the class's band of the axis
    span, and no draw at all on a zero-span axis."""

    @staticmethod
    def moves(op, frac, seed, space=SPACE, n=200):
        """How far op moves the grid centre's coordinate, over n draws; the
        bands used here, at most 0.4 of the span, stay clear of the clamp."""
        center = space.scenario_from_levels([n // 2 for n in space.shape])
        param = (op - 1) // 2
        rng = make_generator(seed)
        return [abs(ops.destroy(center, op, frac, space, rng)[param] - center.coords[param])
                for _ in range(n)]

    def test_baseline_band_below_threshold(self):
        frac = ops.xi_fraction(classify(5.0), 0 / 100, 2 > 5)
        assert 0.0 < max(self.moves(1, frac, 4)) <= 0.1 * SPACE.specs[0].span

    def test_crash_band(self):
        frac = ops.xi_fraction(classify(0.0), 50 / 100, 10 > 5)
        assert frac == 0.1
        assert 0.0 < max(self.moves(5, frac, 5)) <= 0.1 * SPACE.specs[2].span

    def test_risk_free_band_shrinks_with_progress(self):
        frac = ops.xi_fraction(classify(3.0), 100 / 100, 10 > 5)
        assert frac == pytest.approx(0.4)
        assert ops.xi_fraction(classify(INF), 0.25, True) == pytest.approx(0.7)
        assert 0.0 < max(self.moves(3, frac, 6)) <= 0.4 * SPACE.specs[1].span

    @pytest.mark.parametrize("g,frac", [
        (0.3, 0.2), (0.5, 0.2), (0.8, 0.3), (1.0, 0.3), (1.5, 0.8), (2.0, 0.8),
    ])
    def test_adaptive_bands(self, g, frac):
        assert ops.xi_fraction(classify(g), 0 / 100, 10 > 5) == frac
        assert ops.xi_fraction(classify(g), 0 / 100, False) == 0.1

    def test_degenerate_axis(self):
        sp = ScenarioSpace([ParamSpec(n, 1.0, 1.0, 1) for n in "abcd"])
        frac = ops.xi_fraction(classify(5.0), 0 / 10, 0 > 5)
        rng = make_generator(0)
        before = rng.bit_generator.state
        assert ops.destroy(sp.index_to_scenario(0), 1, frac, sp, rng) == (1.0,) * 4
        assert rng.bit_generator.state == before


class FixedStep:
    """An rng stand-in whose uniform draw is always xi."""

    def __init__(self, xi: float):
        self.xi = xi

    def uniform(self, low: float, high: float) -> float:
        return self.xi


class TestDestroy:
    def test_null_perturbation(self):
        s = SPACE.index_to_scenario(100)
        assert ops.destroy(s, 3, 0.0, SPACE, make_generator(0)) == s.coords

    def test_r2_clamps(self):
        s = SPACE.snap((16.0, 10.0, 20.5, -0.85))
        point = ops.destroy(s, 2, 0.8, SPACE, FixedStep(0.7))
        assert point[0] == 16.5

    def test_r5_subtracts_gap(self):
        s = SPACE.snap((12.0, 10.0, 20.5, -0.85))
        point = ops.destroy(s, 5, 0.8, SPACE, FixedStep(2.3))
        assert point == pytest.approx((s.v_e, s.v_o, 18.2, s.a))

    @pytest.mark.parametrize("op,param,sign", [
        (1, 0, -1), (2, 0, 1), (3, 1, -1), (4, 1, 1),
        (5, 2, -1), (6, 2, 1), (7, 3, -1), (8, 3, 1),
    ])
    def test_operator_directions(self, op, param, sign):
        s = SPACE.snap((12.0, 10.0, 20.5, -0.85))
        point = ops.destroy(s, op, 0.1, SPACE, FixedStep(0.01))
        assert point[param] == pytest.approx(s.coords[param] + sign * 0.01)

    @given(destroy_cases(), st.integers(1, ops.N_DESTROY),
           st.floats(0.1, 0.8) | st.sampled_from((0.1, 0.2, 0.3, 0.4, 0.8)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case, op, frac, seed):
        # the same point, bit for bit, and the rng left in the same state
        space, current = case
        got, ref = make_generator(seed), make_generator(seed)
        point = ops.destroy(current, op, frac, space, got)
        expected = destroy_reference(current, op, frac, space, ref)
        assert [v.hex() for v in point] == [v.hex() for v in expected]
        assert got.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("op", range(1, ops.N_DESTROY + 1))
    def test_corners_clamp_to_both_bounds(self, op):
        # odd ids move toward an axis's lower bound and even ids toward its
        # upper one; from the corner that sits on that bound, every step
        # leaves the axis range and the moved coordinate is clamped back
        param = (op - 1) // 2
        spec = SPACE.specs[param]
        bound = spec.lo if op % 2 == 1 else spec.hi
        clamped = 0
        for k, seed in itertools.product((0, SPACE.cardinality - 1), range(20)):
            current = SPACE.index_to_scenario(k)
            got, ref = make_generator(seed), make_generator(seed)
            point = ops.destroy(current, op, 0.8, SPACE, got)
            expected = destroy_reference(current, op, 0.8, SPACE, ref)
            assert [v.hex() for v in point] == [v.hex() for v in expected]
            assert got.bit_generator.state == ref.bit_generator.state
            if current.coords[param] == bound:
                assert point[param] == bound
                clamped += 1
        assert clamped == 20


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
