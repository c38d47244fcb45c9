"""Discretized rear-end scenario parameter space.

A concrete scenario is a 4-tuple (ego speed, objective speed, initial gap,
mean objective deceleration) lying on a regular grid. All search algorithms
share this module's indexing, neighborhoods and step-normalized distances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EPS = 1e-9

ContinuousPoint = tuple[float, float, float, float]


class ConfigurationError(ValueError):
    """Raised for invalid parameter specs or experiment configs."""


@dataclass(frozen=True)
class ParamSpec:
    """One grid axis: values are start + k*step for k in [0, levels).

    step is signed so the deceleration axis can run from -0.05 downward
    while keeping grid index 0 at the mildest value.
    """

    name: str
    start: float
    step: float
    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigurationError(f"{self.name}: levels must be >= 1")
        if self.levels > 1 and self.step == 0.0:
            raise ConfigurationError(f"{self.name}: step must be nonzero")
        if not math.isfinite(self.start) or not math.isfinite(self.step):
            raise ConfigurationError(f"{self.name}: non-finite spec")

    @property
    def gamma(self) -> float:
        """Step magnitude used for normalization (0 on a zero-step axis)."""
        return abs(self.step)

    @property
    def lo(self) -> float:
        end = self.start + (self.levels - 1) * self.step
        return min(self.start, end)

    @property
    def hi(self) -> float:
        end = self.start + (self.levels - 1) * self.step
        return max(self.start, end)

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def value(self, k: int) -> float:
        if not 0 <= k < self.levels:
            raise IndexError(f"{self.name}: level {k} out of range")
        return self.start + k * self.step

    def level_of(self, v: float) -> int:
        """Exact level for an on-grid value; raises if off-grid."""
        k = int(round((v - self.start) / self.step)) if self.step else 0
        if not 0 <= k < self.levels or abs(self.value(k) - v) > EPS:
            raise ValueError(f"{self.name}: {v} is not on the grid")
        return k

    def nearest_level(self, v: float) -> int:
        if self.levels == 1 or self.step == 0.0:
            return 0
        k = int(math.floor((v - self.start) / self.step + 0.5))
        return min(max(k, 0), self.levels - 1)

    def level_window(self, center: float, radius: float) -> tuple[int, int]:
        """Inclusive level range whose values lie in [center-radius, center+radius]."""
        if self.levels == 1 or self.step == 0.0:
            if abs(self.start - center) <= radius + EPS:
                return (0, 0)
            return (0, -1)
        a = (center - radius - self.start) / self.step
        b = (center + radius - self.start) / self.step
        klo = math.ceil(min(a, b) - EPS)
        khi = math.floor(max(a, b) + EPS)
        return (max(klo, 0), min(khi, self.levels - 1))


@dataclass(frozen=True)
class Scenario:
    """One concrete grid scenario."""

    v_e: float
    v_o: float
    d: float
    a: float
    index: int

    @property
    def coords(self) -> ContinuousPoint:
        return (self.v_e, self.v_o, self.d, self.a)


PARAM_NAMES = ("v_e", "v_o", "d", "a")


@dataclass(frozen=True)
class ScenarioSpace:
    """Immutable 4-axis grid; all operations are pure."""

    specs: tuple[ParamSpec, ParamSpec, ParamSpec, ParamSpec]
    shape: tuple[int, int, int, int] = field(init=False)
    cardinality: int = field(init=False)

    def __post_init__(self):
        shape = tuple(s.levels for s in self.specs)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cardinality", int(np.prod(shape)))

    @property
    def gammas(self) -> tuple[float, ...]:
        return tuple(s.gamma for s in self.specs)

    @cached_property
    def axis_values(self) -> tuple[np.ndarray, ...]:
        """Per-axis table of grid values, indexed by level."""
        return tuple(s.start + np.arange(s.levels) * s.step for s in self.specs)

    @cached_property
    def scales(self) -> np.ndarray:
        """Per-axis divisor of step-normalized distances (1 on a zero-step axis)."""
        return np.array([g or 1.0 for g in self.gammas])

    @cached_property
    def max_ring(self) -> int:
        """Largest neighborhood radius L = max_i(range_i / step_i)."""
        ratios = [s.span / s.gamma for s in self.specs if s.gamma > 0]
        return max(1, math.ceil(max(ratios))) if ratios else 1

    def index_to_levels(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.cardinality:
            raise IndexError(f"scenario index {idx} out of range")
        idx, levels = int(idx), []
        for n in reversed(self.shape):
            idx, k = divmod(idx, n)
            levels.append(k)
        return tuple(reversed(levels))

    def levels_to_index(self, levels: tuple[int, ...]) -> int:
        idx = 0
        for k, n in zip(levels, self.shape, strict=True):
            if not 0 <= k < n:
                raise ValueError(f"levels {levels} out of range for shape {self.shape}")
            idx = idx * n + int(k)
        return idx

    def scenario_from_levels(self, levels: tuple[int, ...]) -> Scenario:
        vals = [spec.value(k) for spec, k in zip(self.specs, levels)]
        return Scenario(*vals, index=self.levels_to_index(levels))

    def index_to_scenario(self, idx: int) -> Scenario:
        return self.scenario_from_levels(self.index_to_levels(idx))

    def scenario_to_index(self, s: Scenario) -> int:
        levels = tuple(spec.level_of(v) for spec, v in zip(self.specs, s.coords))
        return self.levels_to_index(levels)

    def clamp(self, point) -> ContinuousPoint:
        coords = point.coords if isinstance(point, Scenario) else tuple(point)
        return tuple(
            min(max(float(v), spec.lo), spec.hi)
            for spec, v in zip(self.specs, coords)
        )

    def distance(self, x, y) -> float:
        """Euclidean distance in step-normalized coordinates."""
        xc = x.coords if isinstance(x, Scenario) else x
        yc = y.coords if isinstance(y, Scenario) else y
        acc = 0.0
        for spec, a, b in zip(self.specs, xc, yc):
            if spec.gamma > 0:
                acc += ((a - b) / spec.gamma) ** 2
            elif a != b:
                acc += float("inf")
        return math.sqrt(acc)

    def box_windows(self, point: ContinuousPoint, j: int) -> list[tuple[int, int]]:
        """Per-axis inclusive level windows for the jth neighborhood box."""
        return [spec.level_window(p, j * spec.gamma)
                for spec, p in zip(self.specs, point)]

    def neighborhood(self, point, j: int) -> list[Scenario]:
        """All grid scenarios within [point_i - j*step_i, point_i + j*step_i] per axis."""
        if j < 1:
            raise ValueError("neighborhood radius j must be >= 1")
        coords = point.coords if isinstance(point, Scenario) else tuple(point)
        windows = self.box_windows(coords, j)
        if any(lo > hi for lo, hi in windows):
            return []
        ranges = [range(lo, hi + 1) for lo, hi in windows]
        return [self.scenario_from_levels(lv) for lv in itertools.product(*ranges)]

    def snap(self, point: ContinuousPoint) -> Scenario:
        """Nearest grid scenario (per-axis rounding, half away from start)."""
        levels = tuple(spec.nearest_level(v) for spec, v in zip(self.specs, point))
        return self.scenario_from_levels(levels)


def build_space(specs: list[ParamSpec]) -> ScenarioSpace:
    if len(specs) != 4:
        raise ConfigurationError("exactly 4 parameter specs are required")
    return ScenarioSpace(specs=tuple(specs))


def default_space() -> ScenarioSpace:
    """The published 60,480-scenario grid.

    The deceleration axis uses 9 levels (-0.05 to -1.65). The source ranges
    extend to -1.85 (10 levels, 67,200 total), which contradicts the
    published grid size; the 9-level grid keeps the headline cardinality
    and the 10-level variant remains available through the config file.
    """
    return build_space([
        ParamSpec("v_e", 9.0, 0.5, 16),
        ParamSpec("v_o", 5.5, 0.5, 21),
        ParamSpec("d", 13.5, 1.0, 20),
        ParamSpec("a", -0.05, -0.2, 9),
    ])
