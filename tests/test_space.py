import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenariosearch.space import (
    ConfigurationError,
    ParamSpec,
    build_space,
    default_space,
)


def toy_space():
    return build_space([
        ParamSpec("v_e", 9.0, 3.0, 3),
        ParamSpec("v_o", 5.5, 4.0, 3),
        ParamSpec("d", 13.5, 10.0, 2),
        ParamSpec("a", -0.05, -1.6, 2),
    ])


class TestBuildSpace:
    def test_default_cardinality(self):
        assert default_space().cardinality == 60_480

    def test_degenerate_grid(self):
        sp = build_space([ParamSpec(n, 1.0, 1.0, 1) for n in "abcd"])
        assert sp.cardinality == 1

    def test_product_of_levels(self):
        sp = build_space([
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
        with pytest.raises(ConfigurationError):
            build_space([ParamSpec("x", 0.0, 1.0, 2)] * 3)


class TestIndexing:
    def test_grid_origin(self):
        s = default_space().index_to_scenario(0)
        assert s.coords == (9.0, 5.5, 13.5, -0.05)

    def test_grid_extremum(self):
        sp = default_space()
        s = sp.index_to_scenario(sp.cardinality - 1)
        assert s.coords == pytest.approx((16.5, 15.5, 32.5, -1.65))

    def test_round_trip_exhaustive(self):
        sp = default_space()
        for k in range(sp.cardinality):
            assert sp.scenario_to_index(sp.index_to_scenario(k)) == k

    def test_out_of_range(self):
        sp = default_space()
        with pytest.raises(IndexError):
            sp.index_to_scenario(sp.cardinality)
        with pytest.raises(IndexError):
            sp.index_to_scenario(-1)

    def test_levels_out_of_range(self):
        sp = default_space()
        for levels in [(16, 0, 0, 0), (0, -1, 0, 0), (0, 0, 20, 0),
                       (0, 0, 0, 9), (0, 0, 0)]:
            with pytest.raises(ValueError):
                sp.levels_to_index(levels)

    def test_levels_in_c_order(self):
        sp = default_space()
        for k in range(0, sp.cardinality, 97):
            levels = sp.index_to_levels(k)
            assert levels == tuple(int(v) for v in np.unravel_index(k, sp.shape))
            assert all(type(v) is int for v in levels)
            assert sp.levels_to_index(levels) == k


class TestNeighborhood:
    def test_on_node_j1_box(self):
        sp = default_space()
        center = sp.index_to_scenario(sp.scenario_to_index(
            sp.snap((12.0, 10.0, 20.5, -0.85))))
        box = sp.neighborhood(center, 1)
        assert len(box) == 81
        assert center.index in {s.index for s in box}

    def test_boundary_box_is_smaller(self):
        sp = default_space()
        box = sp.neighborhood(sp.index_to_scenario(0), 1)
        assert len(box) == 16  # 2*2*2*2 corner box

    def test_max_ring_covers_grid(self):
        sp = toy_space()
        box = sp.neighborhood(sp.index_to_scenario(0), sp.max_ring)
        assert len(box) == sp.cardinality

    def test_off_node_point(self):
        # expected set computed by brute-force filtering of the full grid
        sp = default_space()
        point = (9.2, 5.5, 13.5, -0.05)
        got = {s.index for s in sp.neighborhood(point, 1)}
        expected = set()
        for k in range(sp.cardinality):
            s = sp.index_to_scenario(k)
            if all(
                abs(c - p) <= j_gamma + 1e-9
                for c, p, j_gamma in zip(s.coords, point, sp.gammas)
            ):
                expected.add(k)
        assert got == expected
        assert {sp.index_to_scenario(k).v_e for k in got} == {9.0, 9.5}

    @given(st.integers(0, 35), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_j(self, idx, j):
        sp = toy_space()
        p = sp.index_to_scenario(idx).coords
        inner = {s.index for s in sp.neighborhood(p, j)}
        outer = {s.index for s in sp.neighborhood(p, j + 1)}
        assert inner <= outer


class TestDistance:
    def test_identity(self):
        sp = default_space()
        s = sp.index_to_scenario(17)
        assert sp.distance(s, s) == 0.0

    def test_single_step(self):
        sp = default_space()
        a = sp.index_to_scenario(0)
        b = sp.snap((9.5, 5.5, 13.5, -0.05))
        assert sp.distance(a, b) == pytest.approx(1.0)

    def test_hand_computed(self):
        sp = default_space()
        x = (9.0, 5.5, 13.5, -0.05)
        y = (9.5, 6.0, 14.5, -0.25)
        assert sp.distance(x, y) == pytest.approx(2.0)

    @given(st.tuples(*(st.integers(0, 59) for _ in range(3))))
    @settings(max_examples=200, deadline=None)
    def test_metric_properties(self, idxs):
        sp = toy_space()
        pts = [sp.index_to_scenario(i % sp.cardinality) for i in idxs]
        x, y, z = pts
        dxy = sp.distance(x, y)
        assert dxy == pytest.approx(sp.distance(y, x))
        assert (dxy == 0.0) == (x.coords == y.coords)
        assert dxy <= sp.distance(x, z) + sp.distance(z, y) + 1e-12


class TestClamp:
    def test_in_bounds_unchanged(self):
        sp = default_space()
        p = (10.2, 7.7, 20.0, -1.0)
        assert sp.clamp(p) == p

    def test_upper_bound(self):
        sp = default_space()
        assert sp.clamp((20.0, 7.7, 20.0, -1.0))[0] == 16.5

    def test_all_below_min(self):
        sp = default_space()
        clamped = sp.clamp((-5.0, 0.0, 0.0, -10.0))
        assert clamped == pytest.approx((9.0, 5.5, 13.5, -1.65))
        assert math.isclose(clamped[3], -1.65)
