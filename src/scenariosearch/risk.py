"""Generalized time-to-collision (GTTC) risk metrics and classification."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

INF = float("inf")


class ScenarioClass(enum.IntEnum):
    """Five-level risk classes, ordered from most to least dangerous."""

    CRASH = 0
    NEAR_CRASH = 1
    HIGH_RISK = 2
    RISK = 3
    RISK_FREE = 4

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    ScenarioClass.CRASH: "crash",
    ScenarioClass.NEAR_CRASH: "near-crash",
    ScenarioClass.HIGH_RISK: "high-risk",
    ScenarioClass.RISK: "risk",
    ScenarioClass.RISK_FREE: "risk-free",
}

LABEL_TO_CLASS = {v: k for k, v in _LABELS.items()}

SAFETY_CRITICAL = (
    ScenarioClass.CRASH,
    ScenarioClass.NEAR_CRASH,
    ScenarioClass.HIGH_RISK,
    ScenarioClass.RISK,
)


@dataclass(frozen=True)
class KinematicState:
    """Planar positions/velocities of the two closest points on two vehicles."""

    p_i: tuple[float, float]
    p_j: tuple[float, float]
    v_i: tuple[float, float]
    v_j: tuple[float, float]


def relative_distance(state: KinematicState) -> float:
    dx = state.p_i[0] - state.p_j[0]
    dy = state.p_i[1] - state.p_j[1]
    return math.hypot(dx, dy)


def distance_rate(state: KinematicState) -> float:
    """Signed range rate; negative means the vehicles are closing."""
    dist = relative_distance(state)
    if dist == 0.0:
        raise ZeroDivisionError("range rate undefined at contact (D = 0)")
    dx = state.p_i[0] - state.p_j[0]
    dy = state.p_i[1] - state.p_j[1]
    rvx = state.v_i[0] - state.v_j[0]
    rvy = state.v_i[1] - state.v_j[1]
    return (dx * rvx + dy * rvy) / dist


def gttc(state: KinematicState) -> float | None:
    """-D/D' when closing (D' < 0); None when risk is constant or reducing."""
    rate = distance_rate(state)
    if rate >= 0.0:
        return None
    return -relative_distance(state) / rate


def gttc_min(trajectory) -> float:
    """Minimum GTTC over a trajectory; 0 on contact, +inf if never defined.

    Works on any record exposing per-step ego_pos/ego_v/obj_pos/obj_v arrays
    and a contact flag array.
    """
    n = len(trajectory.t)
    if n == 0:
        raise ValueError("empty trajectory")
    if any(trajectory.contact):
        return 0.0
    best = INF
    for k in range(n):
        gap = trajectory.obj_pos[k] - trajectory.ego_pos[k]
        closing = trajectory.ego_v[k] - trajectory.obj_v[k]
        if gap > 0.0 and closing > 0.0:
            best = min(best, gap / closing)
    return best


def classify(value: float) -> ScenarioClass:
    """Map a GTTC_min value to its risk class (bands are left-open/right-closed)."""
    if value < 0.0 or math.isnan(value):
        raise ValueError(f"GTTC_min must be >= 0, got {value}")
    if value == 0.0:
        return ScenarioClass.CRASH
    if value <= 0.5:
        return ScenarioClass.NEAR_CRASH
    if value <= 1.0:
        return ScenarioClass.HIGH_RISK
    if value <= 2.0:
        return ScenarioClass.RISK
    return ScenarioClass.RISK_FREE

