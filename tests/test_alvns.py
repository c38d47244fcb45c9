import functools

import pytest

from scenariosearch import operators as ops
from scenariosearch.alvns import SearchConfig, run_alvns_sa, vns_repair
from scenariosearch.engine import Archive, BudgetedEvaluator, SpaceExhausted
from scenariosearch.rng import make_generator
from scenariosearch.sim import EgoControllerConfig, SimConfig, evaluate
from scenariosearch.space import ParamSpec, build_space, default_space

TOY = build_space([
    ParamSpec("v_e", 9.0, 3.0, 3),
    ParamSpec("v_o", 5.5, 4.0, 3),
    ParamSpec("d", 13.5, 10.0, 2),
    ParamSpec("a", -0.05, -1.6, 2),
])
# one-level, step-0 deceleration axis
FLAT_A = build_space([
    ParamSpec("v_e", 9.0, 3.0, 3),
    ParamSpec("v_o", 5.5, 4.0, 4),
    ParamSpec("d", 13.5, 10.0, 3),
    ParamSpec("a", -0.05, 0.0, 1),
])
QUIET = SimConfig(sigma=0.0)


def toy_evaluator(run_seed=0, sim=QUIET):
    return functools.partial(evaluate, sim_config=sim,
                             ego_config=EgoControllerConfig(),
                             run_seed=run_seed)


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
        with pytest.raises(SpaceExhausted):
            vns_repair(TOY.index_to_scenario(0).coords, TOY, archive,
                       ops.init_bank(), make_generator(0))

    def test_first_nonempty_box_only(self):
        # blanket the j=1 box around the origin; repair must come from j=2
        archive = Archive(TOY)
        origin = TOY.index_to_scenario(0)
        inner = {s.index for s in TOY.neighborhood(origin, 1)}
        for k in sorted(inner):
            archive.add(k)
        outer = {s.index for s in TOY.neighborhood(origin, 2)} - inner
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
        assert res.archive_order == res.omega_star
        assert len(res.rows) == 1
        assert res.rows[0].accepted

    def test_archive_distinct_and_budget_exact(self):
        res = run(budget=20, seed=2)
        assert len(res.archive_order) == 20
        assert len(set(res.archive_order)) == 20

    def test_exhausts_toy_grid(self):
        res = run(budget=TOY.cardinality, seed=3)
        assert sorted(res.archive_order) == list(range(TOY.cardinality))
        assert not res.invalid

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
        assert a.omega_star == b.omega_star
        assert [r.gttc_min for r in a.rows] == [r.gttc_min for r in b.rows]

    def test_seed_sensitivity(self):
        assert run(budget=25, seed=1).archive_order != \
            run(budget=25, seed=2).archive_order

    def test_accepted_chain_is_omega_star(self):
        res = run(budget=30, seed=5)
        accepted = [r.scenario.index for r in res.rows if r.accepted]
        assert accepted == res.omega_star
        assert set(res.omega_star) <= set(res.archive_order)

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
        assert [r.iteration for r in res.rows] == list(range(15))

    def test_evaluator_failure_flags_invalid(self):
        calls = {"n": 0}
        good = toy_evaluator()

        def flaky(scenario):
            calls["n"] += 1
            if calls["n"] == 4:
                raise RuntimeError("simulator crashed")
            return good(scenario)

        res = run_alvns_sa(SearchConfig(budget=20, seed=1), TOY, flaky)
        assert res.invalid
        assert res.n_evaluations == 3

    def test_budget_clamped_to_cardinality(self):
        res = run(budget=10_000, seed=12)
        assert res.n_evaluations == TOY.cardinality

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(t_begin=0.01, t_end=1.0)
        with pytest.raises(ValueError):
            SearchConfig(alpha=1.0)
        with pytest.raises(ValueError):
            SearchConfig(rho=0.0)
        with pytest.raises(ValueError):
            SearchConfig(budget=0)


class TestArchive:
    def test_no_retest_assertion(self):
        drv = BudgetedEvaluator(TOY, toy_evaluator(), budget=5)
        s = TOY.index_to_scenario(3)
        drv.evaluate(s)
        with pytest.raises(AssertionError):
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
        for space in (TOY, FLAT_A, default_space()):
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
        space = default_space()
        archive = Archive(space)
        for k in range(space.cardinality):
            if k not in (53481, 57433):
                archive.add(k)
        point = space.scenario_from_levels((14, 0, 0, 6)).coords
        first = int(archive.untested_in_box(point, space.max_ring)[0])
        assert first == 57433
        assert archive.nearest_untested(point) == first

    def test_nearest_untested_full_archive(self):
        archive = Archive(TOY)
        for k in range(TOY.cardinality):
            archive.add(k)
        with pytest.raises(SpaceExhausted):
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
            got = archive.nearest_untested(point)
            dists = {
                k: TOY.distance(point, TOY.index_to_scenario(k).coords)
                for k in range(TOY.cardinality) if k not in archive
            }
            best = min(dists.values())
            assert dists[got] == pytest.approx(best)

    def test_budget_above_cardinality_rejected(self):
        with pytest.raises(ValueError):
            BudgetedEvaluator(TOY, toy_evaluator(), budget=TOY.cardinality + 1)
