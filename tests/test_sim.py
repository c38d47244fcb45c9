import hashlib
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenariosearch import sim
from scenariosearch.config import load_config
from scenariosearch.risk import INF, ScenarioClass, classify, gttc_min
from scenariosearch.rng import make_generator, scenario_seed
from scenariosearch.sim import (
    EgoControllerConfig,
    SimConfig,
    evaluate,
    simulate,
)
from scenariosearch.space import ParamSpec, ScenarioSpace

DEFAULT_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
SPACE = load_config(DEFAULT_CFG).space
NO_BRAKE = EgoControllerConfig(reaction_time=0.0, max_brake=1.0,
                               ttc_trigger=0.0, min_gap_trigger=0.0)
QUIET = SimConfig(sigma=0.0)


def scenario(v_e, v_o, d, a):
    return SPACE.snap((v_e, v_o, d, a))


def objective_closed_form(t, d, v_o, a):
    """Position/velocity of a lead vehicle decelerating at constant a <= 0
    until it stops, then at rest."""
    t_stop = v_o / -a if a < 0 else math.inf
    if t < t_stop:
        return d + v_o * t + 0.5 * a * t * t, v_o + a * t
    return d + v_o * t_stop + 0.5 * a * t_stop * t_stop, 0.0


def contact_time_no_braking(v_e, v_o, d, a):
    """First time the gap closes for a constant-speed follower."""
    t_stop = v_o / -a if a < 0 else math.inf
    # phase 1: 0.5*a*t^2 + (v_o - v_e)*t + d = 0
    A, B, C = 0.5 * a, v_o - v_e, d
    disc = B * B - 4 * A * C
    if A != 0 and disc >= 0:
        roots = sorted([(-B - math.sqrt(disc)) / (2 * A),
                        (-B + math.sqrt(disc)) / (2 * A)])
        for r in roots:
            if 0 <= r <= t_stop:
                return r
    stop_pos, _ = objective_closed_form(t_stop, d, v_o, a)
    return stop_pos / v_e if v_e > 0 else math.inf


class TestSimulate:
    def test_near_zero_closing_no_contact(self):
        s = scenario(12.0, 12.0, 20.5, -0.05)
        rec = simulate(s, QUIET, EgoControllerConfig(), seed=0)
        assert not any(rec.contact)

    def test_objective_matches_closed_form_every_step(self):
        s = scenario(9.0, 10.0, 25.5, -1.05)
        rec = simulate(s, QUIET, NO_BRAKE, seed=0)
        for k in range(len(rec.t)):
            pos, vel = objective_closed_form(rec.t[k], s.d, s.v_o, s.a)
            assert rec.obj_pos[k] == pytest.approx(pos, abs=1e-9)
            assert rec.obj_v[k] == pytest.approx(vel, abs=1e-9)

    def test_contact_time_matches_closed_form(self):
        s = scenario(16.5, 5.5, 13.5, -1.65)
        rec = simulate(s, QUIET, NO_BRAKE, seed=0)
        assert any(rec.contact)
        t_star = contact_time_no_braking(16.5, 5.5, 13.5, -1.65)
        assert abs(rec.t[-1] - t_star) <= QUIET.dt

    def test_strong_brake_min_gap_matches_closed_form(self):
        # immediate full braking: both trajectories are closed-form
        ego = EgoControllerConfig(reaction_time=0.0, max_brake=10.0,
                                  ttc_trigger=10.0, min_gap_trigger=0.0)
        s = scenario(16.5, 5.5, 13.5, -1.65)
        rec = simulate(s, QUIET, ego, seed=0)
        assert not any(rec.contact)
        # relative speed zero at t* = 11 / (10 - 1.65); gap(t) = 13.5 - 11t + 4.175t^2
        t_star = 11.0 / 8.35
        gap_star = 13.5 - 11.0 * t_star + 4.175 * t_star * t_star
        sim_min_gap = min(o - e for o, e in zip(rec.obj_pos, rec.ego_pos))
        assert sim_min_gap == pytest.approx(gap_star, abs=0.05)

    def test_velocities_never_negative(self):
        for idx in [0, 777, 30240, 60479]:
            rec = simulate(SPACE.index_to_scenario(idx), SimConfig(),
                           EgoControllerConfig(), seed=3)
            assert all(v >= 0.0 for v in rec.ego_v)
            assert all(v >= 0.0 for v in rec.obj_v)

    def test_contact_only_terminal(self):
        s = scenario(16.5, 5.5, 13.5, -1.65)
        rec = simulate(s, QUIET, NO_BRAKE, seed=0)
        assert rec.contact[-1] and not any(rec.contact[:-1])

    def test_noise_is_one_stream_past_the_first_draw(self):
        # the lead brakes at min(a + noise[k], 0) while it moves, where noise
        # is one draw of the whole horizon from the run's stream
        s = scenario(16.0, 15.0, 20.5, -0.05)
        config = SimConfig(sigma=0.1)
        rec = simulate(s, config, NO_BRAKE, seed=5)
        n_max = int(round(config.t_max / config.dt))
        noise = make_generator(5).normal(0.0, config.sigma, n_max).tolist()
        moving = [k for k in range(len(rec.t))
                  if rec.obj_v[k] > 0.0 and not rec.contact[k]]
        assert len(moving) > sim.NOISE_HEAD
        assert [rec.obj_a[k] for k in moving] == [
            min(s.a + noise[k], 0.0) for k in moving]

    def test_time_axis(self):
        rec = simulate(SPACE.index_to_scenario(42), QUIET,
                       EgoControllerConfig(), seed=0)
        diffs = np.diff(rec.t)
        assert np.allclose(diffs, QUIET.dt)

    def test_determinism(self):
        s = SPACE.index_to_scenario(1234)
        r1 = simulate(s, SimConfig(), EgoControllerConfig(), seed=99)
        r2 = simulate(s, SimConfig(), EgoControllerConfig(), seed=99)
        assert r1.ego_pos == r2.ego_pos
        assert r1.obj_pos == r2.obj_pos
        assert r1.contact == r2.contact

    def test_monotone_danger_in_gap_and_closing_speed(self):
        # shrinking the gap or raising the closing speed never delays contact
        def contact_t(v_e, v_o, d):
            s = scenario(v_e, v_o, d, -1.65)
            rec = simulate(s, QUIET, NO_BRAKE, seed=0)
            return rec.t[-1] if any(rec.contact) else math.inf

        for d_hi, d_lo in [(32.5, 22.5), (22.5, 13.5)]:
            assert contact_t(16.5, 5.5, d_lo) <= contact_t(16.5, 5.5, d_hi)
        for v_fast, v_slow in [(16.5, 14.0), (14.0, 11.5)]:
            assert contact_t(v_fast, 5.5, 20.5) <= contact_t(v_slow, 5.5, 20.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(sigma=-1.0)
        with pytest.raises(ValueError):
            EgoControllerConfig(max_brake=0.0)


class TestEvaluate:
    def test_crash_result(self):
        res = evaluate(scenario(16.5, 5.5, 13.5, -1.65), QUIET, NO_BRAKE, 0)
        assert res.gttc_min == 0.0
        assert classify(res.gttc_min) is ScenarioClass.CRASH

    def test_never_closing_is_risk_free(self):
        res = evaluate(scenario(9.0, 15.5, 32.5, -0.05), QUIET,
                       EgoControllerConfig(), 0)
        assert res.gttc_min == INF
        assert classify(res.gttc_min) is ScenarioClass.RISK_FREE

    def test_bitwise_determinism(self):
        s = SPACE.index_to_scenario(4567)
        r1 = evaluate(s, SimConfig(), EgoControllerConfig(), run_seed=5)
        r2 = evaluate(s, SimConfig(), EgoControllerConfig(), run_seed=5)
        assert r1 == r2

    def test_order_independence(self):
        indices = [10, 20_000, 5, 60_000]
        forward = [evaluate(SPACE.index_to_scenario(i), SimConfig(),
                            EgoControllerConfig(), run_seed=8) for i in indices]
        backward = [evaluate(SPACE.index_to_scenario(i), SimConfig(),
                             EgoControllerConfig(), run_seed=8)
                    for i in reversed(indices)]
        assert forward == list(reversed(backward))

    def test_diverged_state_raises(self):
        # positions near the float maximum overflow within a few steps; an
        # explicit exception, so it holds under python -O too
        huge = ScenarioSpace([ParamSpec("v_e", 1e308, 0.0, 1),
                              ParamSpec("v_o", 1e308, 0.0, 1),
                              ParamSpec("d", 1e308, 0.0, 1),
                              ParamSpec("a", -0.05, 0.0, 1)])
        for sigma in (0.0, 0.1):
            with pytest.raises(FloatingPointError, match="state diverged"):
                evaluate(huge.index_to_scenario(0), SimConfig(sigma=sigma),
                         EgoControllerConfig(), 0)

    def test_builds_no_trajectory(self, monkeypatch):
        # the hot path keeps a running minimum; only simulate() records rows
        def refuse(*args, **kwargs):
            raise AssertionError("evaluate built a TrajectoryRecord")

        monkeypatch.setattr(sim, "TrajectoryRecord", refuse)
        res = evaluate(SPACE.index_to_scenario(4567), SimConfig(),
                       EgoControllerConfig(), 0)
        assert res.n_steps > 0

    def test_crash_iff_gttc_zero(self):
        for idx in range(0, 60_480, 7001):
            res = evaluate(SPACE.index_to_scenario(idx), SimConfig(),
                           EgoControllerConfig(), run_seed=2)
            assert (classify(res.gttc_min) is ScenarioClass.CRASH) == (res.gttc_min == 0.0)

    @pytest.mark.parametrize("fn", [evaluate, simulate], ids=lambda fn: fn.__name__)
    def test_configs_and_seed_are_required(self, fn):
        # a result is fixed by the scenario, both configs and the seed, so a
        # caller that forgets one gets a TypeError, not SimConfig() or seed 0
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] == []
        with pytest.raises(TypeError):
            fn(SPACE.index_to_scenario(0), QUIET, EgoControllerConfig())


def assert_matches_reference(s, sim_config, ego_config, run_seed):
    """evaluate() equals the GTTC reduction of the recorded trajectory, bit
    for bit, and returns Python floats."""
    res = evaluate(s, sim_config, ego_config, run_seed)
    rec = simulate(s, sim_config, ego_config, scenario_seed(run_seed, s.index))
    ref = gttc_min(rec)
    assert type(res.gttc_min) is float
    assert res.gttc_min.hex() == float(ref).hex()
    assert classify(res.gttc_min) is classify(ref)
    assert res.n_steps == len(rec.t)
    return res


EGOS = st.sampled_from([EgoControllerConfig(), NO_BRAKE])
SIGMAS = st.sampled_from([0.0, 0.1])
RUN_SEEDS = st.integers(0, 2**63)


class TestEvaluateMatchesSimulate:
    @given(index=st.integers(0, SPACE.cardinality - 1), sigma=SIGMAS,
           run_seed=RUN_SEEDS, ego=EGOS)
    @settings(max_examples=300, deadline=None)
    def test_default_grid(self, index, sigma, run_seed, ego):
        assert_matches_reference(SPACE.index_to_scenario(index),
                                 SimConfig(sigma=sigma), ego, run_seed)

    @given(levels=st.tuples(*(st.integers(0, n - 1) for n in (3, 1, 4, 1))),
           sigma=SIGMAS, run_seed=RUN_SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_one_level_axes(self, levels, sigma, run_seed):
        space = ScenarioSpace([ParamSpec("v_e", 12.0, 2.0, 3),
                               ParamSpec("v_o", 8.0, 0.0, 1),
                               ParamSpec("d", 6.0, 4.0, 4),
                               ParamSpec("a", -1.0, 0.0, 1)])
        assert_matches_reference(space.scenario_from_levels(levels),
                                 SimConfig(sigma=sigma), EgoControllerConfig(),
                                 run_seed)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_contact_on_first_step(self, sigma):
        space = ScenarioSpace([ParamSpec("v_e", 16.5, 0.0, 1),
                               ParamSpec("v_o", 5.5, 0.0, 1),
                               ParamSpec("d", 0.01, 0.0, 1),
                               ParamSpec("a", -1.65, 0.0, 1)])
        res = assert_matches_reference(space.index_to_scenario(0),
                                       SimConfig(sigma=sigma),
                                       EgoControllerConfig(), 3)
        assert res.gttc_min == 0.0 and res.n_steps == 2

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_minimum_on_first_step(self, sigma):
        # braking hard from step 0 makes the time gap grow at once, so the
        # starting state holds the minimum
        ego = EgoControllerConfig(reaction_time=0.0, max_brake=10.0,
                                  ttc_trigger=10.0, min_gap_trigger=0.0)
        s = scenario(16.5, 5.5, 20.5, -1.65)
        res = assert_matches_reference(s, SimConfig(sigma=sigma), ego, 3)
        assert res.gttc_min == s.d / (s.v_e - s.v_o)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_never_closing(self, sigma):
        res = assert_matches_reference(scenario(9.0, 15.5, 32.5, -0.05),
                                       SimConfig(sigma=sigma),
                                       EgoControllerConfig(), 4)
        assert res.gttc_min == INF


# (index, sigma, run_seed) -> float.hex(gttc_min), n_steps, computed with an
# earlier, generator-based form of the step loop; any drift in the loop's
# arithmetic changes them.
GOLDEN = [
    (53467, 0.0, 1, "0x0.0p+0", 20),
    (49697, 0.1, 1, "0x0.0p+0", 27),
    (57263, 0.0, 101, "0x1.bcfd72325939dp-2", 63),
    (52950, 0.1, 101, "0x1.4b10cf5a89d15p-2", 63),
    (49512, 0.0, 0, "0x1.a33fea33fe9f7p-1", 53),
    (56788, 0.1, 1, "0x1.c1b1860af9327p-1", 39),
    (33281, 0.0, 1, "0x1.bb8b7dfde8570p+0", 82),
    (52684, 0.1, 1, "0x1.b18054af54696p+0", 77),
    (2336, 0.0, 1, "inf", 20),
    (29647, 0.1, 101, "inf", 20),
    # the lead still moves at step 64, the first step past the noise
    # drawn up front (sim.NOISE_HEAD)
    (91, 0.1, 101, "0x1.d6ad511ea9a4ap+0", 65),
    # the lead's noisy deceleration a + noise > 0 is clamped at 0 before the
    # minimum; the first run reaches the horizon, the second the open-gap exit
    (29133, 0.1, 101, "0x1.179a8bcc197e7p+1", 300),
    (47736, 0.1, 101, "0x1.f08551df23e94p+0", 61),
    # open-gap exit after a finite GTTC, with and without the ego's stopping
    # sub-step
    (13, 0.0, 101, "0x1.bca632ee936fep+0", 44),
    (47736, 0.0, 101, "0x1.e6e700b93016ep+0", 62),
    # both vehicles stop within a step (the stopping sub-step of each)
    (26, 0.0, 101, "0x1.8bcf00cb099acp+0", 34),
    (26, 0.1, 101, "0x1.8e061ca7b646cp+0", 34),
    # contact
    (41587, 0.1, 101, "0x0.0p+0", 19),
    (49166, 0.0, 101, "0x0.0p+0", 19),
]


@pytest.mark.parametrize("index,sigma,run_seed,gttc_hex,n_steps", GOLDEN)
def test_golden_values(index, sigma, run_seed, gttc_hex, n_steps):
    res = evaluate(SPACE.index_to_scenario(index), SimConfig(sigma=sigma),
                   EgoControllerConfig(), run_seed)
    assert type(res.gttc_min) is float
    assert res.gttc_min.hex() == gttc_hex
    assert res.n_steps == n_steps


# sha256 of "index gttc_hex n_steps" lines over every 7th default-grid
# scenario at run seed 101, computed with the same earlier step loop as GOLDEN.
GRID_DIGESTS = {
    0.0: "dc654714ecd7dbc599aef6acea0619605e94001f7eecbbeff9233c02b964b84f",
    0.1: "f03dbb4ba8a42632f765daed9963e0414351c3ac5c858a356699c424b1ae0117",
}


@pytest.mark.parametrize("sigma", sorted(GRID_DIGESTS))
def test_grid_digest(sigma):
    config, ego = SimConfig(sigma=sigma), EgoControllerConfig()
    digest = hashlib.sha256()
    for idx in range(0, SPACE.cardinality, 7):
        res = evaluate(SPACE.index_to_scenario(idx), config, ego, 101)
        digest.update(f"{idx} {res.gttc_min.hex()} {res.n_steps}\n".encode())
    assert digest.hexdigest() == GRID_DIGESTS[sigma]
