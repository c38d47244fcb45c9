"""Per-class proportion and coverage metrics over tested-scenario archives."""

from __future__ import annotations

from .risk import SAFETY_CRITICAL, ScenarioClass

ClassifiedSets = dict[ScenarioClass, set[int]]


def proportion(sets: ClassifiedSets) -> dict[ScenarioClass, float]:
    """Share of each risk class among one algorithm's tested scenarios."""
    total = sum(len(s) for s in sets.values())
    if total == 0:
        raise ValueError("empty archive: proportions undefined")
    return {c: len(sets.get(c, set())) / total for c in ScenarioClass}


def coverage(
    all_sets: dict[str, ClassifiedSets], cls: ScenarioClass, algorithm: str
) -> float | None:
    """Fraction of the cross-algorithm union of class `cls` that `algorithm`
    found. None when no compared algorithm found the class."""
    union: set[int] = set()
    for sets in all_sets.values():
        union |= sets.get(cls, set())
    if not union:
        return None
    return len(all_sets[algorithm].get(cls, set())) / len(union)


def coverage_vs_oracle(
    sets: ClassifiedSets, oracle_sets: ClassifiedSets, cls: ScenarioClass
) -> float | None:
    """Fraction of the ground-truth class population the algorithm tested.

    Counts the tested scenarios that the oracle puts in class `cls`, whatever
    class the algorithm's own (differently seeded) evaluation gave them; None
    when the oracle found no scenario of that class.
    """
    population = oracle_sets.get(cls, set())
    if not population:
        return None
    return len(population & set().union(*sets.values())) / len(population)


def safety_critical_union(sets: ClassifiedSets) -> set[int]:
    out: set[int] = set()
    for c in SAFETY_CRITICAL:
        out |= sets.get(c, set())
    return out
