"""Destroy/repair operator bank, adaptive step sampling and SA acceptance.

Destroy operators 1..8 perturb one scenario parameter each: odd ids subtract
the step xi, even ids add it (1/2 -> ego speed, 3/4 -> objective speed,
5/6 -> gap, 7/8 -> deceleration). Repair operators 1..2 pick the nearest or
second-nearest untested grid scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .risk import ScenarioClass, classify
from .space import ContinuousPoint, Scenario, ScenarioSpace

N_DESTROY = 8
N_REPAIR = 2

# Destroy operators whose initial score is boosted (speed-reducing and
# deceleration-strengthening moves tend to raise risk).
_BOOSTED = (1, 2, 3, 7)


@dataclass
class OperatorBank:
    """Weights, cumulative scores and use counts for the adaptive operators."""

    destroy_weights: np.ndarray = field(
        default_factory=lambda: np.ones(N_DESTROY)
    )
    destroy_scores: np.ndarray = field(
        default_factory=lambda: np.array(
            [1.5 if i + 1 in _BOOSTED else 1.0 for i in range(N_DESTROY)]
        )
    )
    destroy_uses: np.ndarray = field(
        default_factory=lambda: np.zeros(N_DESTROY, dtype=np.int64)
    )
    repair_weights: np.ndarray = field(default_factory=lambda: np.ones(N_REPAIR))
    repair_scores: np.ndarray = field(default_factory=lambda: np.ones(N_REPAIR))
    repair_uses: np.ndarray = field(
        default_factory=lambda: np.zeros(N_REPAIR, dtype=np.int64)
    )


def init_bank() -> OperatorBank:
    return OperatorBank()


def roulette(weights: np.ndarray, rng) -> int:
    """0-based roulette-wheel draw proportional to weights."""
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("roulette requires a positive total weight")
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights.tolist()):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def select_operator(bank: OperatorBank, kind: str, rng) -> int:
    """1-based operator id drawn by roulette over the bank's weights."""
    weights = bank.destroy_weights if kind == "destroy" else bank.repair_weights
    return roulette(weights, rng) + 1


# Upper bound of the destruction step as a fraction of the parameter range,
# by the current scenario's risk class, once consecutive rejections exceed the
# threshold: a riskier current scenario takes smaller, more local steps, and
# the risk-free step shrinks with search progress. Row: (base, progress slope).
_XI = {
    ScenarioClass.CRASH: (0.1, 0.0),
    ScenarioClass.NEAR_CRASH: (0.2, 0.0),
    ScenarioClass.HIGH_RISK: (0.3, 0.0),
    ScenarioClass.RISK: (0.8, 0.0),
    ScenarioClass.RISK_FREE: (0.8, 0.4),
}


def xi_fraction(risk_class: ScenarioClass, progress: float, widened: bool) -> float:
    """The tightest band (0.1) until the step is widened, then the class's
    band at `progress`, the spent share of the budget."""
    if not widened:
        return 0.1
    base, slope = _XI[risk_class]
    return base - slope * progress


def destroy(
    current: Scenario, op_id: int, frac: float, space: ScenarioSpace, rng
) -> ContinuousPoint:
    """Move one coordinate down (odd id) or up (even id) by xi, drawn from
    [0, frac * span) (no draw on a zero-span axis), and clamp it to its axis."""
    if not 1 <= op_id <= N_DESTROY:
        raise ValueError(f"invalid destroy operator {op_id}")
    param = (op_id - 1) // 2
    spec = space.specs[param]
    xi = rng.uniform(0.0, frac * spec.span) if spec.span else 0.0
    coords = list(current.coords)
    coords[param] += -xi if op_id % 2 == 1 else xi
    coords[param] = min(max(coords[param], spec.lo), spec.hi)
    return tuple(coords)


def sa_accept(delta: float, t_current: float, rng) -> bool:
    """Metropolis rule: always accept improvements, worse moves w.p. exp(-d/T)."""
    if t_current <= 0.0:
        raise ValueError("temperature must be positive")
    if delta <= 0.0:
        return True
    return rng.random() < math.exp(-delta / t_current)


# Score credited to the operators of one iteration, by the new scenario's
# risk class. Columns: improvement, accepted-worse, rejected.
_THETA = {
    ScenarioClass.CRASH: (2.6, 2.0, 1.8),
    ScenarioClass.NEAR_CRASH: (2.6, 2.0, 1.8),
    ScenarioClass.HIGH_RISK: (2.2, 1.6, 1.4),
    ScenarioClass.RISK: (1.8, 1.2, 1.0),
    ScenarioClass.RISK_FREE: (0.2, 0.1, 0.0),
}


def score_delta(old: float, new: float, accepted: bool) -> float:
    if old < 0.0 or math.isnan(old):
        raise ValueError(f"GTTC_min must be >= 0, got {old}")
    improved, acc, rej = _THETA[classify(new)]
    if new < old:
        return improved
    return acc if accepted else rej


def update_bank(
    bank: OperatorBank, destroy_id: int, repair_id: int, theta: float, rho: float
) -> None:
    """Credit theta to both used operators and refresh their weights in place."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    for uses, scores, weights, idx in (
        (bank.destroy_uses, bank.destroy_scores, bank.destroy_weights, destroy_id - 1),
        (bank.repair_uses, bank.repair_scores, bank.repair_weights, repair_id - 1),
    ):
        uses[idx] += 1
        scores[idx] += theta
        weights[idx] = (1.0 - rho) * weights[idx] + rho * scores[idx] / uses[idx]
