import math

import numpy as np
import pytest

from scenariosearch.risk import (
    INF,
    KinematicState,
    ScenarioClass,
    classify,
    distance_rate,
    gttc,
    gttc_min,
    relative_distance,
)
from scenariosearch.sim import TrajectoryRecord


def state_1d(gap, v_follow, v_lead):
    return KinematicState(
        p_i=(0.0, 0.0), p_j=(gap, 0.0), v_i=(v_follow, 0.0), v_j=(v_lead, 0.0)
    )


class TestRelativeDistance:
    def test_coincident(self):
        s = KinematicState((1.0, 2.0), (1.0, 2.0), (0.0, 0.0), (0.0, 0.0))
        assert relative_distance(s) == 0.0

    def test_3_4_5(self):
        s = KinematicState((0.0, 0.0), (3.0, 4.0), (0.0, 0.0), (0.0, 0.0))
        assert relative_distance(s) == 5.0

    def test_matches_hypot(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.normal(size=4)
            s = KinematicState((p[0], p[1]), (p[2], p[3]), (0, 0), (0, 0))
            assert relative_distance(s) == pytest.approx(
                math.hypot(p[0] - p[2], p[1] - p[3]))


class TestDistanceRate:
    def test_no_relative_motion(self):
        s = KinematicState((0, 0), (10, 0), (3.0, 1.0), (3.0, 1.0))
        assert distance_rate(s) == 0.0

    def test_hand_case(self):
        s = KinematicState((0, 0), (20, 0), (10, 0), (5, 0))
        assert distance_rate(s) == pytest.approx(-5.0)

    def test_separating_positive(self):
        s = KinematicState((0, 0), (20, 0), (-3, 0), (2, 0))
        assert distance_rate(s) > 0.0

    def test_contact_raises(self):
        s = KinematicState((1, 1), (1, 1), (1, 0), (0, 0))
        with pytest.raises(ZeroDivisionError):
            distance_rate(s)


class TestGttc:
    def test_hand_case(self):
        s = KinematicState((0, 0), (20, 0), (10, 0), (5, 0))
        assert gttc(s) == pytest.approx(4.0)

    def test_undefined_when_not_closing(self):
        s = KinematicState((0, 0), (20, 0), (5, 0), (5, 0))
        assert gttc(s) is None

    def test_1d_reduction(self):
        # in 1-D the general form reduces to gap over closing speed exactly
        rng = np.random.default_rng(11)
        for _ in range(1000):
            gap = rng.uniform(0.5, 50.0)
            v_lead = rng.uniform(0.0, 15.0)
            v_follow = v_lead + rng.uniform(0.1, 15.0)
            got = gttc(state_1d(gap, v_follow, v_lead))
            assert got == pytest.approx(gap / (v_follow - v_lead), abs=1e-9)


class TestGttcMin:
    def _record(self, rows):
        steps = [(k * 0.1, ep, ev, 0.0, op, ov, 0.0, hit)
                 for k, (ep, ev, op, ov, hit) in enumerate(rows)]
        return TrajectoryRecord(*map(list, zip(*steps)))

    def test_contact_is_zero(self):
        rec = self._record([(0, 10, 5, 8, False), (1, 10, 0.9, 8, True)])
        assert gttc_min(rec) == 0.0

    def test_single_step(self):
        rec = self._record([(0.0, 10.0, 20.0, 5.0, False)])
        assert gttc_min(rec) == pytest.approx(4.0)

    def test_never_defined(self):
        rec = self._record([(0.0, 5.0, 10.0, 8.0, False)])
        assert gttc_min(rec) == INF

    def test_prefix_monotone(self):
        rows = [(0, 20, 8, 6, False), (0.8, 19.4, 8, 5, False),
                (1.6, 18.9, 8, 4, False)]
        full = self._record(rows)
        prefix = self._record(rows[:2])
        assert gttc_min(prefix) >= gttc_min(full)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gttc_min(TrajectoryRecord(*([] for _ in range(8))))


def danger_rank_id(value):
    """Test id of a class: its danger rank, 0 (crash) to 4 (risk-free)."""
    if isinstance(value, ScenarioClass):
        return str(list(ScenarioClass).index(value))
    return None


class TestClassify:
    @pytest.mark.parametrize("value,expected", [
        (0.0, ScenarioClass.CRASH),
        (0.3, ScenarioClass.NEAR_CRASH),
        (0.5, ScenarioClass.NEAR_CRASH),
        (0.7, ScenarioClass.HIGH_RISK),
        (1.0, ScenarioClass.HIGH_RISK),
        (1.5, ScenarioClass.RISK),
        (2.0, ScenarioClass.RISK),
        (2.0001, ScenarioClass.RISK_FREE),
        (INF, ScenarioClass.RISK_FREE),
    ], ids=danger_rank_id)
    def test_bands(self, value, expected):
        assert classify(value) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.1)


class TestScenarioClass:
    def test_members_in_danger_order_valued_by_label(self):
        # the row order of summary.csv and distribution.csv
        assert [c.value for c in ScenarioClass] == [
            "crash", "near-crash", "high-risk", "risk", "risk-free"]

    @pytest.mark.parametrize("cls", list(ScenarioClass))
    def test_label_is_value(self, cls):
        assert cls.label == cls.value
        assert type(cls.label) is str
