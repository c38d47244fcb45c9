import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenariosearch import operators as ops
from scenariosearch.alvns import SearchConfig, run_alvns_sa, vns_repair
from scenariosearch.config import load_config
from scenariosearch.engine import NEAREST_BAND, Archive, BudgetedEvaluator, InvariantError
from scenariosearch.experiment import log_lines, make_evaluator
from scenariosearch.risk import INF
from scenariosearch.rng import make_generator
from scenariosearch.space import ParamSpec, ScenarioSpace

TOY_CONFIG = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg"))
TOY = TOY_CONFIG.space
# one-level, step-0 deceleration axis
FLAT_A = ScenarioSpace([
    ParamSpec("v_e", 9.0, 3.0, 3),
    ParamSpec("v_o", 5.5, 4.0, 4),
    ParamSpec("d", 13.5, 10.0, 3),
    ParamSpec("a", -0.05, 0.0, 1),
])
# one-level deceleration axis with a nonzero step, on a grid wide enough
# that a radius-6 ball leaves cells untested
LONE_A = ScenarioSpace([
    ParamSpec("v_e", 9.0, 0.5, 12),
    ParamSpec("v_o", 5.5, 0.5, 10),
    ParamSpec("d", 13.5, 1.0, 9),
    ParamSpec("a", -0.85, -0.2, 1),
])
DEFAULT_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
DEFAULT_SPACE = load_config(DEFAULT_CFG).space


def toy_evaluator():
    return make_evaluator(TOY_CONFIG, 0)


def sample_point(space, rng, margin=0.0):
    """Uniform point over the grid's hull widened by margin steps per axis;
    on the single value of a degenerate axis."""
    return tuple(
        float(rng.uniform(s.lo - margin * s.gamma, s.hi + margin * s.gamma))
        if s.gamma else s.start
        for s in space.specs
    )


def dist2(space, point, k):
    """Squared step-normalized distance, summed in axis order."""
    acc = 0.0
    for spec, v, p in zip(space.specs, space.index_to_scenario(k).coords, point):
        d = (v - p) / (spec.gamma or 1.0)
        acc += d * d
    return acc


def run(budget, seed=1, space=TOY, **kw):
    cfg = SearchConfig(budget=budget, seed=seed, **kw)
    return run_alvns_sa(cfg, space, toy_evaluator())


class TestVnsRepair:
    def test_single_untested_returned(self):
        archive = Archive(TOY)
        for k in range(TOY.cardinality - 1):
            archive.add(k)
        last = TOY.cardinality - 1
        point = TOY.index_to_scenario(0).coords
        s, k = vns_repair(point, TOY, archive, ops.init_bank(),
                          make_generator(0))
        assert s.index == last
        assert k in (1, 2)

    def test_exhausted_space_raises(self):
        archive = Archive(TOY)
        for k in range(TOY.cardinality):
            archive.add(k)
        with pytest.raises(InvariantError, match="every scenario has been tested"):
            vns_repair(TOY.index_to_scenario(0).coords, TOY, archive,
                       ops.init_bank(), make_generator(0))

    def test_first_nonempty_box_only(self):
        # blanket the j=1 box around the origin; repair must come from j=2
        archive = Archive(TOY)
        origin = TOY.index_to_scenario(0)
        inner = {s.index for s in TOY.neighborhood(origin.coords, 1)}
        for k in sorted(inner):
            archive.add(k)
        outer = {s.index for s in TOY.neighborhood(origin.coords, 2)} - inner
        for _ in range(50):
            s, _ = vns_repair(origin.coords, TOY, archive, ops.init_bank(),
                              make_generator(_))
            assert s.index in outer

    def test_operator_rank_semantics(self):
        # op 1 -> closest untested, op 2 -> second closest, brute-forced
        archive = Archive(TOY)
        archive.add(0)
        point = TOY.index_to_scenario(0).coords
        flats = archive.untested_in_box(point, TOY.max_ring)
        bank = ops.init_bank()
        bank.repair_weights[:] = (1.0, 0.0)
        s1, k1 = vns_repair(point, TOY, archive, bank, make_generator(0))
        bank.repair_weights[:] = (0.0, 1.0)
        s2, k2 = vns_repair(point, TOY, archive, bank, make_generator(0))
        # both draws hit the first nonempty box (j=1 here)
        box1 = archive.untested_in_box(point, 1)
        assert (k1, k2) == (1, 2)
        assert s1.index == int(box1[0])
        assert s2.index == int(box1[1])

    def test_never_returns_tested(self):
        rng = make_generator(3)
        archive = Archive(TOY)
        bank = ops.init_bank()
        tested = list(rng.permutation(TOY.cardinality)[:20])
        for k in tested:
            archive.add(int(k))
        for trial in range(100):
            point = tuple(
                float(rng.uniform(spec.lo, spec.hi)) for spec in TOY.specs
            )
            s, _ = vns_repair(point, TOY, archive, bank, rng)
            assert s.index not in archive


class TestRunAlvnsSa:
    def test_budget_one(self):
        res = run(budget=1, seed=7)
        assert res.n_evaluations == 1
        assert len(res.rows) == 1
        assert res.rows[0].accepted

    def test_archive_distinct_and_budget_exact(self):
        res = run(budget=20, seed=2)
        assert len(res.archive_order) == 20
        assert len(set(res.archive_order)) == 20

    def test_exhausts_toy_grid(self):
        res = run(budget=TOY.cardinality, seed=3)
        assert sorted(res.archive_order) == list(range(TOY.cardinality))
        assert res.failure is None

    def test_finds_global_minimum_when_exhaustive(self):
        res = run(budget=TOY.cardinality, seed=4)
        brute = min(
            toy_evaluator()(TOY.index_to_scenario(k)).gttc_min
            for k in range(TOY.cardinality)
        )
        assert res.best_gttc_min == brute

    def test_determinism(self):
        a = run(budget=25, seed=11)
        b = run(budget=25, seed=11)
        assert a.archive_order == b.archive_order
        assert [r.accepted for r in a.rows] == [r.accepted for r in b.rows]
        assert [r.gttc_min for r in a.rows] == [r.gttc_min for r in b.rows]

    def test_seed_sensitivity(self):
        assert run(budget=25, seed=1).archive_order != \
            run(budget=25, seed=2).archive_order

    def test_accepted_chain_is_omega_star(self):
        # the accepted scenarios, omega*, start with the initial one; each
        # later move is accepted or rejected, and a rejection keeps the
        # current scenario, so a run of this length accepts some and not all
        res = run(budget=30, seed=5)
        accepted = [r.accepted for r in res.rows]
        assert accepted[0] and 1 < sum(accepted) < len(accepted)

    def test_temperature_bounds(self):
        res = run(budget=36, seed=6)
        temps = [r.t_current for r in res.rows if r.t_current is not None]
        cfg = SearchConfig()
        assert all(cfg.t_end < t <= cfg.t_begin for t in temps)

    def test_temperature_schedule(self):
        cfg = SearchConfig()
        res = run(budget=36, seed=8)
        temps = [r.t_current for r in res.rows]
        # the initial scenario and the first move are both logged at t_begin;
        # cooling happens after each move is recorded
        assert temps[0] == temps[1] == cfg.t_begin
        for prev, cur in zip(temps[1:], temps[2:]):
            cooled = prev * cfg.alpha
            expected = cfg.t_begin if cooled <= cfg.t_end else cooled
            assert cur == pytest.approx(expected)

    def test_bank_usage_accounting(self):
        res = run(budget=30, seed=9)
        n_moves = len(res.rows) - 1  # initial scenario uses no operators
        assert res.bank.destroy_uses.sum() == n_moves
        assert res.bank.repair_uses.sum() == n_moves

    def test_log_columns_complete(self):
        res = run(budget=15, seed=10)
        first, rest = res.rows[0], res.rows[1:]
        assert first.destroy_op is None and first.repair_op is None
        for r in rest:
            assert 1 <= r.destroy_op <= 8
            assert r.repair_op in (1, 2)
        # the log numbers its rows by position, from 0
        assert [line.split(",")[0] for line in log_lines(res)[1:]] == \
            [str(i) for i in range(15)]

    def test_evaluator_failure_flags_invalid(self):
        calls = {"n": 0}
        good = toy_evaluator()

        def flaky(scenario):
            calls["n"] += 1
            if calls["n"] == 4:
                raise RuntimeError("simulator crashed")
            return good(scenario)

        res = run_alvns_sa(SearchConfig(budget=20, seed=1), TOY, flaky)
        assert res.failure is not None
        assert res.n_evaluations == 3

    def test_budget_above_cardinality_raises(self):
        with pytest.raises(ValueError, match="must be in"):
            run(budget=10_000, seed=12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(t_begin=0.01, t_end=1.0)
        with pytest.raises(ValueError):
            SearchConfig(alpha=1.0)
        with pytest.raises(ValueError):
            SearchConfig(rho=0.0)
        # the budget range is the driver's to check
        with pytest.raises(ValueError, match="must be in"):
            run(budget=0)


class TestArchive:
    def test_no_retest_assertion(self):
        drv = BudgetedEvaluator(TOY, toy_evaluator(), budget=5)
        s = TOY.index_to_scenario(3)
        drv.evaluate(s)
        with pytest.raises(InvariantError):
            drv.evaluate(s)

    def test_untested_box_ordering_matches_brute_force(self):
        rng = make_generator(13)
        for space in (TOY, FLAT_A):
            archive = Archive(space)
            for k in rng.permutation(space.cardinality)[: space.cardinality // 3]:
                archive.add(int(k))
            points = [space.index_to_scenario(int(k)).coords
                      for k in rng.integers(space.cardinality, size=3)]
            points += [sample_point(space, rng) for _ in range(3)]
            points += [sample_point(space, rng, margin=2.0) for _ in range(3)]
            # off the single value of FLAT_A's deceleration axis: empty boxes
            points.append((10.1, 8.0, 17.0, -1.0))
            for point in points:
                for j in range(1, space.max_ring + 2):
                    got = archive.untested_in_box(point, j).tolist()
                    box = [s.index for s in space.neighborhood(point, j)
                           if s.index not in archive]
                    assert sorted(got) == sorted(box)
                    assert got == sorted(
                        box, key=lambda k: (dist2(space, point, k), k))

    def test_nearest_untested_is_first_of_max_ring_box(self):
        rng = make_generator(15)
        for space in (TOY, FLAT_A, DEFAULT_SPACE):
            for fill in (0.3, 0.9, 0.999):
                archive = Archive(space)
                n = min(int(fill * space.cardinality), space.cardinality - 1)
                for k in rng.permutation(space.cardinality)[:n]:
                    archive.add(int(k))
                points = [space.index_to_scenario(int(k)).coords
                          for k in rng.integers(space.cardinality, size=5)]
                points += [sample_point(space, rng) for _ in range(5)]
                for point in points:
                    assert (archive.nearest_untested(point)
                            == archive.untested_in_box(point, space.max_ring)[0])

    def test_nearest_untested_tie_by_flat_index(self):
        # both cells lie at distance sqrt(22) from the point; the squared
        # distances sum to 22.000000000000004 (53481) and 22.0 (57433)
        space = DEFAULT_SPACE
        archive = Archive(space)
        for k in range(space.cardinality):
            if k not in (53481, 57433):
                archive.add(k)
        point = space.scenario_from_levels((14, 0, 0, 6)).coords
        first = int(archive.untested_in_box(point, space.max_ring)[0])
        assert first == 57433
        assert archive.nearest_untested(point) == first

    @pytest.mark.parametrize("space", [DEFAULT_SPACE, TOY, FLAT_A, LONE_A])
    def test_nearest_untested_ties_around_a_tested_ball(self, space):
        # every cell within r levels of a grid node is tested, so the nearest
        # untested cells lie on a shell around it, tied at one distance
        # across many cells and, from r = 6 on the default grid, across
        # several deceleration levels; the archive stores that axis first,
        # so its first minimum is often not the smallest flat index
        rng = make_generator(20)
        levels = np.indices(space.shape).reshape(4, -1)
        nodes = [tuple(n // 2 for n in space.shape), (0, 0, 0, 0)]
        nodes += [tuple(int(rng.integers(n)) for n in space.shape) for _ in range(3)]
        whole = (slice(None),) * 4
        for node in nodes:
            r2 = sum((k - c) ** 2 for k, c in zip(levels, node))
            for r in range(1, 8):
                tested = np.flatnonzero(r2 <= r * r).tolist()
                if len(tested) == space.cardinality:
                    break
                archive = Archive(space)
                for k in tested:
                    archive.add(k)
                point = space.scenario_from_levels(node).coords
                ref = dist2_reference(space, tested, point, whole)
                ties = np.flatnonzero(ref == ref.min())
                if r >= 6 and space.shape[-1] > 1:
                    assert len({k % space.shape[-1] for k in ties.tolist()}) > 1
                assert archive.nearest_untested(point) == ties[0]

    def test_index_out_of_range_rejected(self):
        # a negative index must raise, because the archive's flat-order view
        # would wrap it to a valid cell, as numpy's .item and .flat do
        archive = Archive(TOY)
        for k in (-1, TOY.cardinality, TOY.cardinality + 1):
            with pytest.raises(IndexError):
                archive.add(k)
            with pytest.raises(IndexError):
                k in archive
        assert archive.count == 0

    def test_nearest_untested_full_archive(self):
        archive = Archive(TOY)
        for k in range(TOY.cardinality):
            archive.add(k)
        with pytest.raises(InvariantError, match="every scenario has been tested"):
            archive.nearest_untested(TOY.index_to_scenario(0).coords)

    def test_nearest_untested_matches_brute_force(self):
        rng = make_generator(14)
        archive = Archive(TOY)
        for k in rng.permutation(TOY.cardinality)[:30]:
            archive.add(int(k))
        for trial in range(25):
            point = tuple(
                float(rng.uniform(spec.lo, spec.hi)) for spec in TOY.specs
            )
            untested = [k for k in range(TOY.cardinality) if k not in archive]
            assert archive.nearest_untested(point) == min(
                untested, key=lambda k: (dist2(TOY, point, k), k))

    @pytest.mark.parametrize("space", [TOY, FLAT_A, DEFAULT_SPACE])
    def test_queries_follow_interleaved_adds(self, space):
        # the reference keeps its own tested set, so a query that reads a
        # stale penalty grid picks a cell the reference has already removed;
        # the small grids are queried after every add, up to cardinality - 1
        rng = make_generator(17)
        archive = Archive(space)
        tested = set()
        size = space.cardinality
        # three v_e steps below the first level (on the default grid,
        # (9.0 - 3 * 0.5, 5.5, 13.5, -0.05)): the j = 1 v_e window is the empty
        # window (0, -1), so the box is empty
        first = space.index_to_scenario(0).coords
        below = (first[0] - 3 * space.specs[0].step, *first[1:])
        fills = range(1, size) if size < 100 else (1, size - 500, size - 3, size - 1)
        for n, k in enumerate(rng.permutation(size)[:-1], 1):
            archive.add(int(k))
            tested.add(int(k))
            if n not in fills:
                continue
            points = [space.index_to_scenario(int(k)).coords,
                      sample_point(space, rng),
                      sample_point(space, rng, margin=2.0), below]
            assert archive.untested_in_box(below, 1).size == 0
            untested = [i for i in range(size) if i not in tested]
            for point in points:
                key = lambda i: (dist2(space, point, i), i)
                assert archive.nearest_untested(point) == min(untested, key=key)
                for j in (1, 2):
                    box = {s.index for s in space.neighborhood(point, j)} - tested
                    assert (archive.untested_in_box(point, j).tolist()
                            == sorted(box, key=key))

    def test_box_result_outlives_later_queries(self):
        # full-grid queries share one scratch buffer; no result may alias it
        rng = make_generator(18)
        space = DEFAULT_SPACE
        archive = Archive(space)
        for k in rng.permutation(space.cardinality)[: space.cardinality // 2]:
            archive.add(int(k))
        point = sample_point(space, rng)
        got = archive.untested_in_box(point, space.max_ring)
        kept = got.copy()
        archive.nearest_untested(sample_point(space, rng))
        archive.untested_in_box(sample_point(space, rng), space.max_ring)
        assert np.array_equal(got, kept)

    def test_budget_above_cardinality_rejected(self):
        with pytest.raises(ValueError):
            BudgetedEvaluator(TOY, toy_evaluator(), budget=TOY.cardinality + 1)


def dist2_reference(space, tested, point, block):
    """Archive._dist2 as numpy ufuncs over the axis tables computed it: axis
    terms ((v - p) / scale) ** 2 summed in axis order by broadcasting, then
    a 0/INF penalty grid of the tested set added last."""
    penalty = np.zeros(space.cardinality)
    penalty[list(tested)] = INF
    last = len(block) - 1
    dist2 = 0.0
    for axis, (spec, p, s) in enumerate(zip(space.specs, point, block)):
        term = ((np.array(spec.values)[s] - p) / (spec.gamma or 1.0)) ** 2
        dist2 = dist2 + term.reshape((-1,) + (1,) * (last - axis))
    return (dist2 + penalty.reshape(space.shape)[block]).ravel()


@st.composite
def query_points(draw, space):
    """A point on a level, off the grid inside or outside its hull (off a
    one-level axis too), maybe clamped."""
    point = []
    for spec in space.specs:
        if draw(st.booleans()):
            point.append(draw(st.sampled_from(spec.values)))
        else:
            margin = 2.0 * (spec.gamma or 1.0)
            point.append(draw(st.floats(spec.lo - margin, spec.hi + margin)))
    if draw(st.booleans()):
        point = [min(max(v, spec.lo), spec.hi) for spec, v in zip(space.specs, point)]
    return tuple(point)


@st.composite
def archive_points(draw):
    """A grid with a seeded tested set, and a query point."""
    space = draw(st.sampled_from((TOY, FLAT_A, DEFAULT_SPACE)))
    point = draw(query_points(space))
    fill = draw(st.sampled_from((0.0, 0.3, 0.9)))
    order = make_generator(draw(st.integers(0, 2**32 - 1))).permutation(space.cardinality)
    return space, order[: int(fill * space.cardinality)].tolist(), point


@st.composite
def ball_queries(draw):
    """A grid with every cell within r levels of a node tested (none at
    r = 0), and three query points: the node, whose nearest untested cells
    tie on the shell around the ball, and two drawn by query_points."""
    space = draw(st.sampled_from((DEFAULT_SPACE, TOY, FLAT_A, LONE_A)))
    node = draw(st.one_of(
        st.sampled_from((tuple(n // 2 for n in space.shape), (0, 0, 0, 0))),
        st.tuples(*[st.integers(0, n - 1) for n in space.shape])))
    r = draw(st.integers(0, 7))
    levels = np.indices(space.shape).reshape(4, -1)
    r2 = sum((k - c) ** 2 for k, c in zip(levels, node))
    tested = np.flatnonzero(r2 <= r * r).tolist() if r else []
    assume(len(tested) < space.cardinality)
    points = [space.scenario_from_levels(node).coords]
    points += [draw(query_points(space)) for _ in range(2)]
    return space, tested, points, draw(st.integers(0, 2**32 - 1))


# one-level first, second and last axes; with a one-level second axis the
# archive's row split divmod(row, n1) degenerates to (row, 0)
EDGE_SHAPES = ((1, 3, 2, 2), (3, 1, 2, 2), (2, 3, 2, 1))


@st.composite
def small_grids(draw):
    """TOY, FLAT_A, or a grid of 1-4 levels per axis with signed steps."""
    if draw(st.booleans()):
        return draw(st.sampled_from((TOY, FLAT_A)))
    shape = draw(st.one_of(st.sampled_from(EDGE_SHAPES), st.tuples(*[st.integers(1, 4)] * 4)))
    steps = st.sampled_from((-1.5, -0.5, 0.5, 2.0))
    return ScenarioSpace([ParamSpec(name, 1.0, draw(steps), n)
                          for name, n in zip(("v_e", "v_o", "d", "a"), shape)])


class TestArchiveBits:
    @given(archive_points())
    @settings(max_examples=60, deadline=None)
    def test_dist2_equals_numpy_reference(self, case):
        space, tested, point = case
        archive = Archive(space)
        for k in tested:
            archive.add(k)
        blocks = [(slice(None),) * 4]
        for j in (1, 2, space.max_ring):
            windows = space.box_windows(point, j)
            if all(lo <= hi for lo, hi in windows):
                blocks.append(tuple(slice(lo, hi + 1) for lo, hi in windows))
        # compared cell by cell, keyed by flat index, whatever order the
        # archive stores its grid in
        flat = np.arange(space.cardinality).reshape(space.shape)
        for block in blocks:
            dist2, flats = archive._dist2(point, block)
            got = dict(zip(flats.tolist(), (x.hex() for x in dist2.tolist())))
            expected = dist2_reference(space, tested, point, block).tolist()
            assert got == dict(zip(flat[block].ravel().tolist(),
                                   (x.hex() for x in expected)))

    @given(ball_queries())
    @settings(max_examples=60, deadline=None)
    def test_nearest_untested_cache_is_exact(self, case):
        # queries repeat three points while adds drain the cells cached for
        # them, until each point's cached list has run out and been computed
        # again (a second full-grid query) or the grid is full; every pick
        # must be the exact (dist2, flat index) minimum, which argmin takes
        # from the flat-order reference
        space, tested, points, seed = case
        archive = Archive(space)
        for k in tested:
            archive.add(k)
        whole = (slice(None),) * 4
        untested_dist2 = {p: dist2_reference(space, (), p, whole) for p in points}
        penalty = np.zeros(space.cardinality)
        penalty[tested] = INF
        full_queries = Counter()
        dist2 = archive._dist2

        def counted_dist2(point, block):
            full_queries[tuple(point)] += block == whole
            return dist2(point, block)

        archive._dist2 = counted_dist2
        rng = make_generator(seed)
        while (archive.count < space.cardinality
               and min(full_queries[p] for p in points) < 2):
            point = points[int(rng.integers(len(points)))]
            ref = untested_dist2[point] + penalty
            pick = archive.nearest_untested(point)
            assert pick == int(np.argmin(ref))
            # test the pick or leave it for the next query, and some of the
            # cells tied with it or within the cache's band behind it
            band = np.flatnonzero(ref <= ref[pick] + NEAREST_BAND)
            drained = set(band[rng.random(band.size) < 0.4].tolist())
            if rng.random() < 0.7:
                drained.add(pick)
            for k in drained:
                archive.add(k)
                penalty[k] = INF

    @given(small_grids(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nth_untested_follows_interleaved_adds(self, space, data):
        order = data.draw(st.permutations(range(space.cardinality)))
        archive = Archive(space)
        untested = np.ones(space.cardinality, dtype=bool)
        for k in order:
            flats = np.flatnonzero(untested)
            assert [archive.nth_untested(n) for n in range(len(flats))] == flats.tolist()
            assert [j in archive for j in range(space.cardinality)] == (~untested).tolist()
            assert archive.count == space.cardinality - len(flats)
            archive.add(k)
            untested[k] = False
        assert all(j in archive for j in range(space.cardinality))
        assert archive.count == space.cardinality
        for n in (-1, 0):
            with pytest.raises(IndexError):
                archive.nth_untested(n)

    def test_nth_untested_on_default_grid(self):
        # first, last and random ranks, with rows of 180 cells emptied unevenly
        rng = make_generator(19)
        space = DEFAULT_SPACE
        size = space.cardinality
        archive = Archive(space)
        untested = np.ones(size, dtype=bool)
        fills = (0, 1, 1_000, size // 2, size - 500, size - 3, size - 1)
        for n, k in enumerate(rng.permutation(size).tolist()):
            if n in fills:
                flats = np.flatnonzero(untested)
                ranks = [0, len(flats) - 1] + rng.integers(len(flats), size=20).tolist()
                for rank in ranks:
                    assert archive.nth_untested(rank) == flats[rank]
                with pytest.raises(IndexError):
                    archive.nth_untested(len(flats))
            archive.add(k)
            untested[k] = False
        with pytest.raises(IndexError):
            archive.nth_untested(0)
