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

The dynamics live in one plain step loop, _run(), which keeps a running
minimum of the GTTC and a step count, and records each step's row only when
asked. It has two callers: evaluate(), the hot path of every search and the
oracle, which records nothing; and simulate(), which records every row in a
TrajectoryRecord and is the per-step reference for tests and tracing.
evaluate() equals gttc_min(simulate(...)) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .risk import INF
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


@dataclass(frozen=True)
class EvaluationResult:
    gttc_min: float
    n_steps: int


def _run(
    scenario: Scenario,
    sim_config: SimConfig,
    ego_config: EgoControllerConfig,
    seed: int,
    rows: list | None = None,
) -> tuple[float, int]:
    """The step loop: (gttc_min, n_steps), the minimum taken over each step's
    starting state and 0 on contact. A rows list gets each step's row,
    (t, ego_p, ego_v, ego_a, obj_p, obj_v, obj_a, contact), the contact row last.

    Noise is Python floats: NOISE_HEAD values up front and the rest of the
    horizon only at step NOISE_HEAD, the same values as one draw of n_max.
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
    open_gap_exit = sim_config.open_gap_exit
    a = scenario.a

    ego_p, ego_v = 0.0, scenario.v_e
    obj_p, obj_v = scenario.d, scenario.v_o
    gap = obj_p - ego_p
    brake_at = INF  # time from which the latched brake is applied; INF until latched
    open_steps = 0
    best = INF

    for k in range(n_max):
        if k == len(noise):
            noise += gen.normal(0.0, sigma, n_max - k).tolist()
        t = k * dt
        closing = ego_v - obj_v
        ttc = gap / closing if closing > 0.0 else INF
        if gap > 0.0 and ttc < best:
            best = ttc
        if brake_at == INF and (ttc < ttc_trigger or gap < min_gap):
            brake_at = t + ego_config.reaction_time - 1e-12
        ego_a = -max_brake if (t >= brake_at and ego_v > 0.0) else 0.0
        obj_a = a + noise[k] if obj_v > 0.0 else 0.0
        if obj_a > 0.0:  # min(obj_a, 0.0), NaN kept
            obj_a = 0.0
        if rows is not None:
            rows.append((t, ego_p, ego_v, ego_a, obj_p, obj_v, obj_a, False))

        # exact constant-acceleration step; a vehicle stops, never reverses
        if ego_a < 0.0 and ego_v + ego_a * dt < 0.0:
            t_stop = -ego_v / ego_a
            ego_p, ego_v = ego_p + ego_v * t_stop + 0.5 * ego_a * t_stop * t_stop, 0.0
        else:
            ego_p, ego_v = ego_p + ego_v * dt + 0.5 * ego_a * dt * dt, ego_v + ego_a * dt
        if obj_a < 0.0 and obj_v + obj_a * dt < 0.0:
            t_stop = -obj_v / obj_a
            obj_p, obj_v = obj_p + obj_v * t_stop + 0.5 * obj_a * t_stop * t_stop, 0.0
        else:
            obj_p, obj_v = obj_p + obj_v * dt + 0.5 * obj_a * dt * dt, obj_v + obj_a * dt
        if not (-INF < ego_p < INF and -INF < obj_p < INF):
            raise FloatingPointError("state diverged")

        gap = obj_p - ego_p
        if gap <= 0.0:
            if rows is not None:
                rows.append(((k + 1) * dt, ego_p, ego_v, 0.0, obj_p, obj_v, 0.0, True))
            return 0.0, k + 2
        if ego_v == 0.0 and obj_v == 0.0:
            return best, k + 1
        if ego_v <= obj_v and gap >= min_gap:
            open_steps += 1
            if open_steps >= open_gap_exit:
                return best, k + 1
        else:
            open_steps = 0
    return best, n_max


def simulate(
    scenario: Scenario,
    sim_config: SimConfig,
    ego_config: EgoControllerConfig,
    seed: int,
) -> TrajectoryRecord:
    """Every step of one run, as a record; the per-step reference."""
    rows = []
    _run(scenario, sim_config, ego_config, seed, rows)
    return TrajectoryRecord(*map(list, zip(*rows)))


def evaluate(
    scenario: Scenario,
    sim_config: SimConfig,
    ego_config: EgoControllerConfig,
    run_seed: int,
) -> EvaluationResult:
    """One counterfactual test; deterministic in (scenario, configs, run_seed).

    Equal to gttc_min(simulate(...)) and len(simulate(...).t), from the same
    step loop run without recording rows.
    """
    best, n_steps = _run(scenario, sim_config, ego_config,
                         scenario_seed(run_seed, scenario.index))
    return EvaluationResult(gttc_min=best, n_steps=n_steps)
