"""Reference evaluation written apart from the program, used to check its outputs.

It follows the model that `scenariosearch/sim.py` documents: the lead vehicle
decelerates at its mean rate plus per-step Gaussian noise until it stops; the
ego vehicle latches full braking when TTC or the gap drops below a trigger and
applies it after the reaction delay; each step integrates constant
acceleration exactly, stopping sub-step included; a run ends on contact, when
both vehicles stand still, or after `open_gap_exit` consecutive steps with an
opening gap of at least the minimum-gap trigger. GTTC_min is the minimum of
gap / closing speed over the states at the start of each step while the
vehicles close, and 0 on contact.

The noise stream is the documented one: a SplitMix64 mix of
(run seed, scenario index) seeds numpy's PCG64, which draws `t_max / dt`
normals. Nothing here imports `scenariosearch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
AXES = ("v_e", "v_o", "d", "a")
CRITICAL = ("crash", "near-crash", "high-risk")


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def stream_seed(run_seed: int, index: int) -> int:
    return splitmix64(splitmix64(run_seed & MASK64) ^ (index & MASK64))


def risk_class(gttc_min: float) -> str:
    """The README's bands: 0 crash, (0, .5] near-crash, (.5, 1] high-risk,
    (1, 2] risk, above 2 risk-free."""
    if gttc_min == 0.0:
        return "crash"
    if gttc_min <= 0.5:
        return "near-crash"
    if gttc_min <= 1.0:
        return "high-risk"
    if gttc_min <= 2.0:
        return "risk"
    return "risk-free"


@dataclass(frozen=True)
class Model:
    """The [space], [sim] and [ego] sections of a config file."""

    axes: tuple[tuple[float, float, int], ...]  # (start, step, levels) per axis
    dt: float
    t_max: float
    sigma: float
    open_gap_exit: int
    reaction_time: float
    max_brake: float
    ttc_trigger: float
    min_gap_trigger: float

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(levels for _, _, levels in self.axes)

    @property
    def cardinality(self) -> int:
        return math.prod(self.shape)

    def coords(self, index: int) -> tuple[float, ...]:
        """Axis values of a flat, row-major (C-order) grid index."""
        if not 0 <= index < self.cardinality:
            raise IndexError(index)
        levels = []
        for n in reversed(self.shape):
            index, k = divmod(index, n)
            levels.append(k)
        levels.reverse()
        return tuple(start + k * step for (start, step, _), k in zip(self.axes, levels))


def read_model(parser) -> Model:
    """Model from a parsed config (configparser with '#' inline comments)."""
    axes = []
    for name in AXES:
        start, step, levels = parser["space"][name].split(":")
        axes.append((float(start), float(step), int(levels)))
    sim, ego = parser["sim"], parser["ego"]
    return Model(
        axes=tuple(axes),
        dt=float(sim.get("dt", "0.1")),
        t_max=float(sim.get("t_max", "30")),
        sigma=float(sim.get("sigma", "0.1")),
        open_gap_exit=int(sim.get("open_gap_exit", "20")),
        reaction_time=float(ego.get("reaction_time", "0.5")),
        max_brake=float(ego.get("max_brake", "6.0")),
        ttc_trigger=float(ego.get("ttc_trigger", "2.5")),
        min_gap_trigger=float(ego.get("min_gap_trigger", "5.0")),
    )


def _step(pos: float, v: float, a: float, dt: float) -> tuple[float, float]:
    if a < 0.0 and v + a * dt < 0.0:  # stops within the step
        t = -v / a
        return pos + v * t + 0.5 * a * t * t, 0.0
    return pos + v * dt + 0.5 * a * dt * dt, v + a * dt


def gttc_min(model: Model, index: int, run_seed: int) -> float:
    """GTTC_min of one grid scenario under one run seed."""
    v_e, v_o, d, a_mean = model.coords(index)
    dt = model.dt
    n_max = int(round(model.t_max / dt))
    noise = None
    if model.sigma > 0.0:
        gen = np.random.Generator(np.random.PCG64(stream_seed(run_seed, index)))
        noise = gen.normal(0.0, model.sigma, n_max)

    ego_p, ego_v, obj_p, obj_v = 0.0, v_e, d, v_o
    latch = None
    opening = 0
    best = math.inf
    for k in range(n_max):
        t = k * dt
        gap = obj_p - ego_p
        closing = ego_v - obj_v
        if gap > 0.0 and closing > 0.0:
            best = min(best, gap / closing)
        if latch is None:
            ttc = gap / closing if closing > 0.0 else math.inf
            if ttc < model.ttc_trigger or gap < model.min_gap_trigger:
                latch = t
        braking = latch is not None and t >= latch + model.reaction_time - 1e-12
        ego_a = -model.max_brake if braking and ego_v > 0.0 else 0.0
        if obj_v > 0.0:
            obj_a = min(a_mean + (noise[k] if noise is not None else 0.0), 0.0)
        else:
            obj_a = 0.0

        ego_p, ego_v = _step(ego_p, ego_v, ego_a, dt)
        obj_p, obj_v = _step(obj_p, obj_v, obj_a, dt)
        gap = obj_p - ego_p
        if gap <= 0.0:
            return 0.0
        if ego_v == 0.0 and obj_v == 0.0:
            break
        if ego_v <= obj_v and gap >= model.min_gap_trigger:
            opening += 1
            if opening >= model.open_gap_exit:
                break
        else:
            opening = 0
    return best
