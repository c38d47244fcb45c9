import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenariosearch.config import load_config
from scenariosearch.space import EPS, ConfigurationError, ParamSpec, ScenarioSpace

DEFAULT_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
DEFAULT_SPACE = load_config(DEFAULT_CFG).space


def toy_space():
    return ScenarioSpace([
        ParamSpec("v_e", 9.0, 3.0, 3),
        ParamSpec("v_o", 5.5, 4.0, 3),
        ParamSpec("d", 13.5, 10.0, 2),
        ParamSpec("a", -0.05, -1.6, 2),
    ])


class TestBuildSpace:
    def test_default_cardinality(self):
        assert DEFAULT_SPACE.cardinality == 60_480

    def test_degenerate_grid(self):
        sp = ScenarioSpace([ParamSpec(n, 1.0, 1.0, 1) for n in "abcd"])
        assert sp.cardinality == 1

    def test_product_of_levels(self):
        sp = ScenarioSpace([
            ParamSpec("a", 0.0, 1.0, 2),
            ParamSpec("b", 0.0, 1.0, 3),
            ParamSpec("c", 0.0, 1.0, 4),
            ParamSpec("d", 0.0, 1.0, 5),
        ])
        assert sp.cardinality == 120

    def test_invalid_specs(self):
        with pytest.raises(ConfigurationError):
            ParamSpec("x", 0.0, 0.0, 2)  # zero step
        with pytest.raises(ConfigurationError):
            ParamSpec("x", 0.0, 1.0, 0)  # zero levels

    @pytest.mark.parametrize("start, step, levels", [
        (math.inf, 1.0, 2), (0.0, math.nan, 2),
        (-0.05, -1e308, 3),  # the third level overflows to -inf
        (1.7e308, -1.7e308, 3),  # finite levels, infinite span
    ])
    def test_overflowing_axis_rejected(self, start, step, levels):
        with pytest.raises(ConfigurationError,
                           match="^x: start, step and span must be finite$"):
            ParamSpec("x", start, step, levels)

    def test_huge_finite_axis_accepted(self):
        # the grid of tests/test_engine.py's diverging run, which fails at run time
        assert math.isfinite(ParamSpec("x", 1e308, -1e307, 2).span)

    @pytest.mark.parametrize("n", [3, 5])
    def test_four_specs_required(self, n):
        with pytest.raises(ConfigurationError, match="exactly 4 parameter specs"):
            ScenarioSpace([ParamSpec("x", 0.0, 1.0, 2)] * n)

    def test_specs_stored_as_tuple(self):
        sp = ScenarioSpace([ParamSpec(n, 1.0, 1.0, 2) for n in "abcd"])
        assert type(sp.specs) is tuple
        assert hash(sp) == hash(ScenarioSpace(sp.specs))


class TestIndexing:
    def test_grid_origin(self):
        s = DEFAULT_SPACE.index_to_scenario(0)
        assert s.coords == (9.0, 5.5, 13.5, -0.05)

    def test_grid_extremum(self):
        sp = DEFAULT_SPACE
        s = sp.index_to_scenario(sp.cardinality - 1)
        assert s.coords == pytest.approx((16.5, 15.5, 32.5, -1.65))

    def test_axis_tables_exact(self):
        sp = DEFAULT_SPACE
        for i in range(sp.cardinality):
            levels = np.unravel_index(i, sp.shape)
            want = [float.hex(s.start + int(k) * s.step)
                    for s, k in zip(sp.specs, levels)]
            assert [float.hex(v) for v in sp.index_to_scenario(i).coords] == want, i

    def test_round_trip_exhaustive(self):
        sp = DEFAULT_SPACE
        for k in range(sp.cardinality):
            assert sp.snap(sp.index_to_scenario(k).coords).index == k

    def test_out_of_range(self):
        sp = DEFAULT_SPACE
        with pytest.raises(IndexError):
            sp.index_to_scenario(sp.cardinality)
        with pytest.raises(IndexError):
            sp.index_to_scenario(-1)

    def test_levels_out_of_range(self):
        sp = DEFAULT_SPACE
        for levels in [(16, 0, 0, 0), (0, -1, 0, 0), (0, 0, 20, 0),
                       (0, 0, 0, 9), (0, 0, 0)]:
            with pytest.raises(ValueError):
                sp.levels_to_index(levels)

    def test_levels_in_c_order(self):
        sp = DEFAULT_SPACE
        for k in range(0, sp.cardinality, 97):
            levels = sp.index_to_levels(k)
            assert levels == tuple(int(v) for v in np.unravel_index(k, sp.shape))
            assert all(type(v) is int for v in levels)
            assert sp.levels_to_index(levels) == k


class TestNeighborhood:
    def test_on_node_j1_box(self):
        sp = DEFAULT_SPACE
        center = sp.index_to_scenario(
            sp.snap((12.0, 10.0, 20.5, -0.85)).index)
        box = sp.neighborhood(center.coords, 1)
        assert len(box) == 81
        assert center.index in {s.index for s in box}

    def test_boundary_box_is_smaller(self):
        sp = DEFAULT_SPACE
        box = sp.neighborhood(sp.index_to_scenario(0).coords, 1)
        assert len(box) == 16  # 2*2*2*2 corner box

    def test_max_ring_covers_grid(self):
        sp = toy_space()
        box = sp.neighborhood(sp.index_to_scenario(0).coords, sp.max_ring)
        assert len(box) == sp.cardinality

    def test_off_node_point(self):
        # expected set computed by brute-force filtering of the full grid
        sp = DEFAULT_SPACE
        point = (9.2, 5.5, 13.5, -0.05)
        got = {s.index for s in sp.neighborhood(point, 1)}
        expected = set()
        for k in range(sp.cardinality):
            s = sp.index_to_scenario(k)
            if all(
                abs(c - p) <= spec.gamma + 1e-9
                for c, p, spec in zip(s.coords, point, sp.specs)
            ):
                expected.add(k)
        assert got == expected
        assert {sp.index_to_scenario(k).v_e for k in got} == {9.0, 9.5}
        # 1.5 below the first v_e level, 9.0, no cell lies within one step:
        # the j = 1 v_e window is the empty window (0, -1)
        below = (9.0 - 3 * 0.5, 5.5, 13.5, -0.05)
        assert sp.box_windows(below, 1)[0] == (0, -1)
        assert sp.neighborhood(below, 1) == []

    @given(st.integers(0, 35), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_j(self, idx, j):
        sp = toy_space()
        p = sp.index_to_scenario(idx).coords
        inner = {s.index for s in sp.neighborhood(p, j)}
        outer = {s.index for s in sp.neighborhood(p, j + 1)}
        assert inner <= outer


def clamp(space, point):
    """Each coordinate clamped to its axis range."""
    return tuple(min(max(v, spec.lo), spec.hi) for spec, v in zip(space.specs, point))


def level_window_reference(spec, center, radius):
    """The per-axis window rule as a ParamSpec method once computed it: the
    inclusive level range whose values lie in [center - radius, center + radius],
    or (0, -1) when no level does."""
    a = (center - radius - spec.start) / spec.step
    b = (center + radius - spec.start) / spec.step
    klo = max(math.ceil(min(a, b) - EPS), 0)
    khi = min(math.floor(max(a, b) + EPS), spec.levels - 1)
    return (klo, khi) if klo <= khi else (0, -1)


axis_specs = st.builds(
    ParamSpec,
    st.just("x"),
    st.floats(-50.0, 50.0),
    st.one_of(st.floats(0.01, 5.0), st.floats(-5.0, -0.01)),  # signed, as the deceleration axis
    st.integers(1, 12),
)


@st.composite
def spaces_and_points(draw):
    """A random grid (one-level and negative-step axes included) and a point
    on a level, off the grid inside or outside its hull, optionally clamped."""
    space = ScenarioSpace([draw(axis_specs) for _ in range(4)])
    point = []
    for spec in space.specs:
        if draw(st.booleans()):
            point.append(draw(st.sampled_from(spec.values)))
        else:
            margin = draw(st.sampled_from((0.0, 3.0))) * spec.gamma
            point.append(draw(st.floats(spec.lo - margin, spec.hi + margin)))
    if draw(st.booleans()):
        point = clamp(space, point)
    return space, tuple(point)


class TestBoxWindows:
    @given(spaces_and_points(), st.integers(1, 14))
    @settings(max_examples=300, deadline=None)
    def test_equals_level_window_rule(self, space_point, j):
        space, point = space_point
        expected = [level_window_reference(spec, p, j * spec.gamma)
                    for spec, p in zip(space.specs, point)]
        windows = space.box_windows(point, j)
        assert windows == expected
        # a slice of the axis table holds exactly the window's levels: it
        # never wraps, as values[0:-1] would for a window (0, -2)
        for spec, (lo, hi) in zip(space.specs, windows):
            assert len(spec.values[lo:hi + 1]) == len(range(lo, hi + 1))

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_default_grid_points(self, j):
        # on-level, off-grid and clamped points of the published grid, whose
        # deceleration axis runs downward
        sp = DEFAULT_SPACE
        rng = np.random.default_rng(j)
        points = [sp.index_to_scenario(int(k)).coords
                  for k in rng.integers(sp.cardinality, size=50)]
        points += [tuple(rng.uniform(s.lo - 2 * s.gamma, s.hi + 2 * s.gamma)
                         for s in sp.specs) for _ in range(50)]
        points += [clamp(sp, p) for p in points[50:]]
        for point in points:
            expected = [level_window_reference(spec, p, j * spec.gamma)
                        for spec, p in zip(sp.specs, point)]
            assert sp.box_windows(point, j) == expected

    def test_one_level_axis(self):
        sp = ScenarioSpace([ParamSpec("v_e", 9.0, 3.0, 3), ParamSpec("v_o", 5.5, 4.0, 4),
                            ParamSpec("d", 13.5, 10.0, 3), ParamSpec("a", -0.05, 0.0, 1)])
        assert sp.box_windows((9.0, 5.5, 13.5, -0.05), 1)[3] == (0, 0)
        assert sp.box_windows((9.0, 5.5, 13.5, -0.05 + EPS / 2), 1)[3] == (0, 0)
        assert sp.box_windows((9.0, 5.5, 13.5, -1.0), 1)[3] == (0, -1)


def nearest_level_reference(spec, v):
    """The per-axis rounding rule as a ParamSpec method once computed it."""
    if spec.levels == 1:
        return 0
    k = int(math.floor((v - spec.start) / spec.step + 0.5))
    return min(max(k, 0), spec.levels - 1)


def fields_hex(scenario):
    """Every field of a Scenario, floats by float.hex, and each field's type."""
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in dataclasses.astuple(scenario)]


@st.composite
def snap_points(draw):
    """spaces_and_points, with some coordinates moved to a midpoint between
    two levels, where the rounding rule decides."""
    space, point = draw(spaces_and_points())
    point = list(point)
    for i, spec in enumerate(space.specs):
        if spec.levels > 1 and draw(st.booleans()):
            point[i] = spec.start + (draw(st.integers(0, spec.levels - 2)) + 0.5) * spec.step
    return space, tuple(point)


class TestSnap:
    @given(snap_points())
    @settings(max_examples=300, deadline=None)
    def test_equals_index_round_trip(self, space_point):
        # snap rounds from cached axis tuples and builds its scenario from the
        # levels directly; the reference rounds per ParamSpec and goes levels
        # -> flat index -> levels -> values, as snap once did
        space, point = space_point
        levels = tuple(nearest_level_reference(spec, v) for spec, v in zip(space.specs, point))
        expected = space.index_to_scenario(space.levels_to_index(levels))
        assert fields_hex(space.snap(point)) == fields_hex(expected)
        assert fields_hex(space.scenario_from_levels(levels)) == fields_hex(expected)
