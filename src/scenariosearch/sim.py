"""Counterfactual rear-end simulation.

The objective (lead) vehicle decelerates with per-step Gaussian noise around
its mean deceleration until it stops. The ego vehicle is a simple reactive
surrogate controller: it latches a full-brake command when TTC or gap drops
below a trigger, applies it after a reaction delay, and brakes until stopped.
Any controller honoring evaluate()'s contract can be substituted for it.

Integration is stepwise at dt with piecewise-constant acceleration; within a
step the constant-acceleration kinematics are integrated exactly (including
the stopping sub-step), so noise-free runs match closed-form trajectories to
machine precision.

The dynamics live in one step loop, the generator _steps(), which yields each
step's state. It has two consumers: simulate() records every row in a
TrajectoryRecord and is the per-step reference for tests and tracing;
evaluate(), the hot path of every search and the oracle, keeps only a running
minimum of the GTTC and a step count, and equals gttc_min(simulate(...))
bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .risk import INF, ScenarioClass, classify
from .rng import make_generator, scenario_seed
from .space import Scenario, require_finite

# Noise values drawn before the first step; runs average 44-59 steps.
NOISE_HEAD = 64


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1
    t_max: float = 30.0
    sigma: float = 0.1
    open_gap_exit: int = 20

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_max < self.dt:
            raise ValueError("t_max must be >= dt")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.open_gap_exit < 1:
            raise ValueError("open_gap_exit must be >= 1")


@dataclass(frozen=True)
class EgoControllerConfig:
    reaction_time: float = 0.5
    max_brake: float = 6.0
    ttc_trigger: float = 2.5
    min_gap_trigger: float = 5.0

    def __post_init__(self):
        require_finite(self)
        if min(self.reaction_time, self.ttc_trigger, self.min_gap_trigger) < 0:
            raise ValueError("controller parameters must be nonnegative")
        if self.max_brake <= 0.0:
            raise ValueError("max_brake must be positive")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-step longitudinal states of both vehicles, one list per column of
    the step loop's rows."""

    t: list[float]
    ego_pos: list[float]
    ego_v: list[float]
    ego_a: list[float]
    obj_pos: list[float]
    obj_v: list[float]
    obj_a: list[float]
    contact: list[bool]

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class EvaluationResult:
    gttc_min: float
    risk_class: ScenarioClass
    n_steps: int


def _advance(pos: float, v: float, a: float, dt: float) -> tuple[float, float]:
    """Exact constant-acceleration step; the vehicle never reverses."""
    if a < 0.0 and v + a * dt < 0.0:
        t_stop = -v / a
        return pos + v * t_stop + 0.5 * a * t_stop * t_stop, 0.0
    return pos + v * dt + 0.5 * a * dt * dt, v + a * dt


def _steps(
    scenario: Scenario,
    sim_config: SimConfig,
    ego_config: EgoControllerConfig,
    seed: int,
) -> Iterator[tuple[float, float, float, float, float, float, float, bool]]:
    """The step loop. Yields one row per step,
    (t, ego_p, ego_v, ego_a, obj_p, obj_v, obj_a, contact), the contact row last.

    Noise is drawn as Python floats, so the loop does no numpy-scalar
    arithmetic. The first NOISE_HEAD values are drawn up front and the rest
    of the horizon only when a run reaches step NOISE_HEAD; the two draws
    give the same values as one draw of n_max from the PCG64 stream.
    """
    dt = sim_config.dt
    sigma = sim_config.sigma
    n_max = int(round(sim_config.t_max / dt))
    if sigma > 0.0:
        gen = make_generator(seed)
        noise = gen.normal(0.0, sigma, min(n_max, NOISE_HEAD)).tolist()
    else:
        noise = [0.0] * n_max
    ttc_trigger = ego_config.ttc_trigger
    min_gap = ego_config.min_gap_trigger
    max_brake = ego_config.max_brake
    a = scenario.a

    ego_p, ego_v = 0.0, scenario.v_e
    obj_p, obj_v = scenario.d, scenario.v_o
    latched = False
    brake_at = math.inf  # time from which the latched brake is applied
    open_steps = 0

    for k in range(n_max):
        if k == len(noise):
            noise += gen.normal(0.0, sigma, n_max - k).tolist()
        t = k * dt
        if not latched:
            gap = obj_p - ego_p
            closing = ego_v - obj_v
            ttc = gap / closing if closing > 0.0 else math.inf
            if ttc < ttc_trigger or gap < min_gap:
                latched = True
                brake_at = t + ego_config.reaction_time - 1e-12
        ego_a = -max_brake if (t >= brake_at and ego_v > 0.0) else 0.0
        obj_a = min(a + noise[k], 0.0) if obj_v > 0.0 else 0.0

        yield t, ego_p, ego_v, ego_a, obj_p, obj_v, obj_a, False

        ego_p, ego_v = _advance(ego_p, ego_v, ego_a, dt)
        obj_p, obj_v = _advance(obj_p, obj_v, obj_a, dt)
        if not (math.isfinite(ego_p) and math.isfinite(obj_p)):
            raise FloatingPointError("state diverged")

        new_gap = obj_p - ego_p
        if new_gap <= 0.0:
            yield (k + 1) * dt, ego_p, ego_v, 0.0, obj_p, obj_v, 0.0, True
            return
        if ego_v == 0.0 and obj_v == 0.0:
            return
        if ego_v <= obj_v and new_gap >= min_gap:
            open_steps += 1
            if open_steps >= sim_config.open_gap_exit:
                return
        else:
            open_steps = 0


def simulate(
    scenario: Scenario,
    sim_config: SimConfig = SimConfig(),
    ego_config: EgoControllerConfig = EgoControllerConfig(),
    seed: int = 0,
) -> TrajectoryRecord:
    """Every step of one run, as a record; the per-step reference."""
    rows = _steps(scenario, sim_config, ego_config, seed)
    return TrajectoryRecord(*map(list, zip(*rows)))


def evaluate(
    scenario: Scenario,
    sim_config: SimConfig = SimConfig(),
    ego_config: EgoControllerConfig = EgoControllerConfig(),
    run_seed: int = 0,
) -> EvaluationResult:
    """One counterfactual test; deterministic in (scenario, configs, run_seed).

    Equal to gttc_min(simulate(...)) and len(simulate(...)), computed as a
    running minimum over the rows without keeping them.
    """
    seed = scenario_seed(run_seed, scenario.index)
    best = INF
    n_steps = 0
    for _, ego_p, ego_v, _, obj_p, obj_v, _, contact in _steps(
            scenario, sim_config, ego_config, seed):
        n_steps += 1
        if contact:
            best = 0.0
            break
        gap = obj_p - ego_p
        closing = ego_v - obj_v
        if gap > 0.0 and closing > 0.0:
            g = gap / closing
            if g < best:
                best = g
    return EvaluationResult(gttc_min=best, risk_class=classify(best), n_steps=n_steps)
