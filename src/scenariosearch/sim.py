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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .risk import ScenarioClass, classify, gttc_min
from .rng import make_generator, scenario_seed
from .space import Scenario


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1
    t_max: float = 30.0
    sigma: float = 0.1
    open_gap_exit: int = 20

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_max < self.dt:
            raise ValueError("t_max must be >= dt")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class EgoControllerConfig:
    reaction_time: float = 0.5
    max_brake: float = 6.0
    ttc_trigger: float = 2.5
    min_gap_trigger: float = 5.0

    def __post_init__(self):
        if min(self.reaction_time, self.ttc_trigger, self.min_gap_trigger) < 0:
            raise ValueError("controller parameters must be nonnegative")
        if self.max_brake <= 0.0:
            raise ValueError("max_brake must be positive")


@dataclass
class TrajectoryRecord:
    """Per-step longitudinal states of both vehicles."""

    t: list[float] = field(default_factory=list)
    ego_pos: list[float] = field(default_factory=list)
    ego_v: list[float] = field(default_factory=list)
    ego_a: list[float] = field(default_factory=list)
    obj_pos: list[float] = field(default_factory=list)
    obj_v: list[float] = field(default_factory=list)
    obj_a: list[float] = field(default_factory=list)
    contact: list[bool] = field(default_factory=list)

    def append(self, t, ep, ev, ea, op, ov, oa, hit):
        self.t.append(t)
        self.ego_pos.append(ep)
        self.ego_v.append(ev)
        self.ego_a.append(ea)
        self.obj_pos.append(op)
        self.obj_v.append(ov)
        self.obj_a.append(oa)
        self.contact.append(hit)

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class EvaluationResult:
    scenario_index: int
    gttc_min: float
    risk_class: ScenarioClass
    n_steps: int
    seed: int

    @property
    def crash(self) -> bool:
        return self.risk_class is ScenarioClass.CRASH


def _advance(pos: float, v: float, a: float, dt: float) -> tuple[float, float]:
    """Exact constant-acceleration step; the vehicle never reverses."""
    if a < 0.0 and v + a * dt < 0.0:
        t_stop = -v / a
        return pos + v * t_stop + 0.5 * a * t_stop * t_stop, 0.0
    return pos + v * dt + 0.5 * a * dt * dt, v + a * dt


def simulate(
    scenario: Scenario,
    sim_config: SimConfig = SimConfig(),
    ego_config: EgoControllerConfig = EgoControllerConfig(),
    seed: int = 0,
) -> TrajectoryRecord:
    dt = sim_config.dt
    n_max = int(round(sim_config.t_max / dt))
    if sim_config.sigma > 0.0:
        noise = make_generator(seed).normal(0.0, sim_config.sigma, n_max)
    else:
        noise = None

    ego_p, ego_v = 0.0, scenario.v_e
    obj_p, obj_v = scenario.d, scenario.v_o
    brake_latch_t = None
    open_steps = 0
    rec = TrajectoryRecord()

    for k in range(n_max):
        t = k * dt
        gap = obj_p - ego_p
        closing = ego_v - obj_v

        if brake_latch_t is None:
            ttc = gap / closing if closing > 0.0 else math.inf
            if ttc < ego_config.ttc_trigger or gap < ego_config.min_gap_trigger:
                brake_latch_t = t
        braking = (
            brake_latch_t is not None
            and t >= brake_latch_t + ego_config.reaction_time - 1e-12
        )
        ego_a = -ego_config.max_brake if (braking and ego_v > 0.0) else 0.0

        if obj_v > 0.0:
            obj_a = scenario.a + (noise[k] if noise is not None else 0.0)
            obj_a = min(obj_a, 0.0)
        else:
            obj_a = 0.0

        rec.append(t, ego_p, ego_v, ego_a, obj_p, obj_v, obj_a, False)

        ego_p, ego_v = _advance(ego_p, ego_v, ego_a, dt)
        obj_p, obj_v = _advance(obj_p, obj_v, obj_a, dt)
        if not (math.isfinite(ego_p) and math.isfinite(obj_p)):
            raise FloatingPointError("state diverged")

        new_gap = obj_p - ego_p
        if new_gap <= 0.0:
            rec.append((k + 1) * dt, ego_p, ego_v, 0.0, obj_p, obj_v, 0.0, True)
            break
        if ego_v == 0.0 and obj_v == 0.0:
            break
        if ego_v <= obj_v and new_gap >= ego_config.min_gap_trigger:
            open_steps += 1
            if open_steps >= sim_config.open_gap_exit:
                break
        else:
            open_steps = 0

    return rec


def evaluate(
    scenario: Scenario,
    sim_config: SimConfig = SimConfig(),
    ego_config: EgoControllerConfig = EgoControllerConfig(),
    run_seed: int = 0,
) -> EvaluationResult:
    """One counterfactual test; deterministic in (scenario, configs, run_seed)."""
    seed = scenario_seed(run_seed, scenario.index)
    traj = simulate(scenario, sim_config, ego_config, seed)
    g = gttc_min(traj)
    return EvaluationResult(
        scenario_index=scenario.index,
        gttc_min=g,
        risk_class=classify(g),
        n_steps=len(traj),
        seed=seed,
    )
