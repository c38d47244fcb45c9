"""Discretized rear-end scenario parameter space.

A concrete scenario is a 4-tuple (ego speed, objective speed, initial gap,
mean objective deceleration) lying on a regular grid. All search algorithms
share this module's indexing, neighborhood boxes and snapping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, floor

EPS = 1e-9

ContinuousPoint = tuple[float, float, float, float]


class ConfigurationError(ValueError):
    """Raised for invalid parameter specs or experiment configs."""


def require_finite(config) -> None:
    """Reject a config dataclass with a NaN or infinite float field, by name."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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

    @cached_property
    def values(self) -> tuple[float, ...]:
        """The axis table: the value of each level, start + k*step."""
        return tuple(self.start + k * self.step for k in range(self.levels))

    @cached_property
    def lo(self) -> float:
        return min(self.values)

    @cached_property
    def hi(self) -> float:
        return max(self.values)

    @cached_property
    def span(self) -> float:
        return self.hi - self.lo


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
        if len(self.specs) != 4:
            raise ConfigurationError("exactly 4 parameter specs are required")
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "shape", tuple(s.levels for s in self.specs))
        object.__setattr__(self, "cardinality", math.prod(self.shape))

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

    def index_to_scenario(self, idx: int) -> Scenario:
        values = [s.values[k] for s, k in zip(self.specs, self.index_to_levels(idx))]
        return Scenario(*values, index=int(idx))

    def scenario_from_levels(self, levels: tuple[int, ...]) -> Scenario:
        index = self.levels_to_index(levels)
        return Scenario(*(s.values[k] for s, k in zip(self.specs, levels)), index=index)

    @cached_property
    def _window_axes(self) -> tuple[tuple[float, float, int, float], ...]:
        """Per-axis (start, step, top level, gamma), as box_windows and snap
        read them."""
        return tuple((s.start, s.step, s.levels - 1, s.gamma) for s in self.specs)

    def box_windows(self, point: ContinuousPoint, j: int) -> list[tuple[int, int]]:
        """Per-axis inclusive level windows for the jth neighborhood box: the
        levels whose values lie within j steps of the point's coordinate (a
        one-level axis: its value within EPS, else the empty window (0, -1))."""
        windows = []
        for (start, step, top, gamma), p in zip(self._window_axes, point):
            radius = j * gamma
            if top == 0:
                windows.append((0, 0) if abs(start - p) <= radius + EPS else (0, -1))
                continue
            a = (p - radius - start) / step
            b = (p + radius - start) / step
            if step < 0.0:  # a descending axis maps the lower bound to the higher level
                a, b = b, a
            klo, khi = ceil(a - EPS), floor(b + EPS)
            windows.append((klo if klo > 0 else 0, khi if khi < top else top))
        return windows

    def neighborhood(self, point: ContinuousPoint, j: int) -> list[Scenario]:
        """All grid scenarios within [point_i - j*step_i, point_i + j*step_i] per axis."""
        if j < 1:
            raise ValueError("neighborhood radius j must be >= 1")
        windows = self.box_windows(point, j)
        if any(lo > hi for lo, hi in windows):
            return []
        ranges = [range(lo, hi + 1) for lo, hi in windows]
        return [self.scenario_from_levels(lv) for lv in itertools.product(*ranges)]

    def snap(self, point: ContinuousPoint) -> Scenario:
        """Nearest grid scenario (per-axis rounding, half away from start)."""
        levels = []
        for (start, step, top, _), v in zip(self._window_axes, point):
            k = floor((v - start) / step + 0.5) if top else 0
            levels.append(0 if k < 0 else top if k > top else k)
        return self.scenario_from_levels(levels)
