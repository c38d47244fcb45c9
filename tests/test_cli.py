import csv
import dataclasses
import gc
import hashlib
import math
import os
import warnings

import pytest

from scenariosearch import experiment, oracle
from scenariosearch.alvns import SearchConfig
from scenariosearch.baselines import GAConfig
from scenariosearch.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from scenariosearch.config import ALGORITHMS, load_config
from scenariosearch.experiment import render_report
from scenariosearch.risk import ScenarioClass
from scenariosearch.sim import EgoControllerConfig, EvaluationResult, SimConfig
from scenariosearch.space import ConfigurationError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
TOY_CFG = os.path.join(CONFIG_DIR, "toy.cfg")
DEFAULT_CFG = os.path.join(CONFIG_DIR, "default.cfg")


class TestLoadConfig:
    def test_toy_config(self):
        cfg = load_config(TOY_CFG)
        assert cfg.space.cardinality == 36
        assert cfg.sim.sigma == 0.0
        assert cfg.budget == 36
        assert cfg.seeds == (1, 2)

    def test_default_config(self):
        cfg = load_config(DEFAULT_CFG)
        assert cfg.space.cardinality == 60_480
        assert cfg.budget == 11_000
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.search.alpha == 0.95
        assert cfg.ga.population == 100

    @pytest.mark.parametrize("name, cardinality", [
        ("toy.cfg", 36), ("default.cfg", 60_480), ("default_a10.cfg", 67_200),
    ])
    def test_shipped_config_loads(self, name, cardinality):
        assert load_config(os.path.join(CONFIG_DIR, name)).space.cardinality == cardinality

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/path.cfg")

    def test_bad_axis(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[space]\nv_e = 9.0:0.5\nv_o = 5.5:0.5:21\n"
                     "d = 13.5:1.0:20\na = -0.05:-0.2:9\n[run]\nbudget = 10\n")
        with pytest.raises(ConfigurationError):
            load_config(str(p))

    def test_unknown_algorithm(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[space]\nv_e = 9.0:0.5:16\nv_o = 5.5:0.5:21\n"
                     "d = 13.5:1.0:20\na = -0.05:-0.2:9\n"
                     "[run]\nalgorithms = tabu\nbudget = 10\n")
        with pytest.raises(ConfigurationError):
            load_config(str(p))

    def test_omitted_sections_keep_defaults(self, tmp_path):
        p = tmp_path / "minimal.cfg"
        p.write_text("[space]\nv_e = 9.0:0.5:16\nv_o = 5.5:0.5:21\n"
                     "d = 13.5:1.0:20\na = -0.05:-0.2:9\n[run]\nbudget = 10\n"
                     "[sim]\nt_max = 20\n")
        cfg = load_config(str(p))
        assert cfg.sim == SimConfig(t_max=20.0)
        assert cfg.ego == EgoControllerConfig()
        assert cfg.search == SearchConfig()
        assert cfg.ga == GAConfig()

    @pytest.mark.parametrize("cls, name, value", [
        (SimConfig, "t_max", math.inf),
        (SimConfig, "sigma", math.nan),
        (SimConfig, "dt", -math.inf),
        (EgoControllerConfig, "reaction_time", math.nan),
        (EgoControllerConfig, "max_brake", math.inf),
        (SearchConfig, "t_begin", math.inf),
        (SearchConfig, "t_end", math.nan),
        (GAConfig, "population", math.inf),
    ])
    def test_dataclass_rejects_non_finite_field(self, cls, name, value):
        # built in Python, not through load_config
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{name: value})

    @pytest.mark.parametrize("bad", [
        {"seeds": (1, 1)}, {"seeds": ()}, {"seeds": (-1,)}, {"oracle_seed": -1},
        {"algorithms": ()}, {"algorithms": ("tabu",)}, {"budget": 0},
        {"budget": 37}, {"workers": -1},
    ], ids=str)
    def test_experiment_config_checks_run_itself(self, bad):
        # built by dataclasses.replace, not through load_config
        with pytest.raises(ConfigurationError):
            dataclasses.replace(load_config(TOY_CFG), **bad)

    def test_replaced_budget_reaches_every_search(self):
        cfg = dataclasses.replace(load_config(TOY_CFG), budget=7)
        runs = {algorithm: experiment.run_search(cfg, algorithm, 3).n_evaluations
                for algorithm in ALGORITHMS}
        assert runs == dict.fromkeys(ALGORITHMS, 7)

    def test_missing_run_section(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[space]\nv_e = 9.0:0.5:2\nv_o = 5.5:0.5:2\n"
                     "d = 13.5:1.0:2\na = -0.05:-0.2:2\n")
        with pytest.raises(ConfigurationError, match="missing section"):
            load_config(str(p))

    def test_budget_over_cardinality(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[space]\nv_e = 9.0:0.5:2\nv_o = 5.5:0.5:2\n"
                     "d = 13.5:1.0:2\na = -0.05:-0.2:2\n"
                     "[run]\nbudget = 100\n")
        with pytest.raises(ConfigurationError):
            load_config(str(p))


class TestCliExitCodes:
    def test_config_error_exits_1(self, tmp_path, capsys):
        rc = main(["search", "--config", "/nope.cfg", "--algo", "random",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_search_success(self, tmp_path, capsys):
        # the log is filed under the algorithm and seed the command names
        for algorithm in ALGORITHMS:
            rc = main(["search", "--config", TOY_CFG, "--algo", algorithm,
                       "--seed", "1", "--out", str(tmp_path)])
            assert rc == EXIT_OK
            out = capsys.readouterr().out
            assert "36 evaluations" in out
            assert (tmp_path / f"{algorithm}_seed1.csv").exists()
        assert len(os.listdir(tmp_path)) == len(ALGORITHMS)

    def test_search_negative_seed_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["search", "--config", TOY_CFG, "--algo", "random",
                   "--seed", "-1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "--seed" in err
        assert not out.exists()

    def test_enumerate_prints_cardinality_first(self, tmp_path, capsys):
        rc = main(["enumerate", "--config", TOY_CFG, "--out", str(tmp_path),
                   "--workers", "1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("36 scenarios")
        with open(tmp_path / "oracle.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 36
        assert [int(r["scenario_index"]) for r in rows] == list(range(36))

    def test_enumerate_workers_flag_zero_overrides_config(self, tmp_path,
                                                          monkeypatch):
        # toy.cfg sets workers = 1; the flag's 0 (one per CPU) must reach the oracle
        seen = []

        def resolve_workers(workers):
            seen.append(workers)
            return 1

        monkeypatch.setattr(oracle, "resolve_workers", resolve_workers)
        assert main(["enumerate", "--config", TOY_CFG, "--out", str(tmp_path),
                     "--workers", "0"]) == EXIT_OK
        assert seen == [0]

    def test_enumerate_negative_workers_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["enumerate", "--config", TOY_CFG, "--out", str(out),
                   "--workers", "-1"])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_subcommand(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["search", "--config", TOY_CFG, "--algo", "gaa", "--seed", "1"],
        ["search", "--config", TOY_CFG, "--algo", "ga", "--seed", "x"],
        ["enumerate", "--config", TOY_CFG, "--workers", "two"],
        ["report"],
    ], ids=["algo", "seed", "workers", "missing-in"])
    def test_malformed_flag_exits_1_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] != "report":
            argv = argv + ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: scenariosearch" in captured.err and "error:" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["enumerate", "search", "compare"])
    def test_out_blocked_by_a_file_exits_1_before_evaluating(self, tmp_path, capsys,
                                                            command, under):
        blocker = tmp_path / "oracle.csv"
        blocker.write_bytes(b"kept\n")
        out = blocker / "sub" if under else blocker
        argv = [command, "--config", TOY_CFG, "--out", str(out)]
        if command == "search":
            argv += ["--algo", "random", "--seed", "1"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # enumerate printed no "36 scenarios"
        assert "config error: --out: " in captured.err
        assert blocker.read_bytes() == b"kept\n"

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage: scenariosearch" in capsys.readouterr().out

    @pytest.mark.parametrize("old, new", [
        ("[sim]\n", "[sim]\nsigam = 0.0\n"),
        ("[space]\n", "[space]\nv_ee = 9.0:3.0:3\n"),
        ("[run]\n", "[run]\nseed = 1\n"),
        ("[ga]\n", "[simm]\nsigma = 0.0\n[ga]\n"),
        # the run's budget and seed are [run]'s, never a search section's
        ("[alvns_sa]\n", "[alvns_sa]\nbudget = 10\n"),
        ("[alvns_sa]\n", "[alvns_sa]\nseed = 1\n"),
        ("[ga]\n", "[ga]\nseed = 1\n"),
        ("[ga]\n", "[ga]\nbudget = 10\n"),
    ], ids=["sim-key", "space-key", "run-key", "section", "alvns_sa-budget",
            "alvns_sa-seed", "ga-seed", "ga-budget"])
    def test_config_typo_exits_1(self, tmp_path, capsys, old, new):
        with open(TOY_CFG) as fh:
            text = fh.read()
        assert old in text
        p = tmp_path / "typo.cfg"
        p.write_text(text.replace(old, new))
        rc = main(["search", "--config", str(p), "--algo", "random",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "unknown" in err

    def test_missing_axis_exits_1_naming_it(self, tmp_path, capsys):
        with open(TOY_CFG) as fh:
            text = fh.read()
        p = tmp_path / "bad.cfg"
        p.write_text(text.replace("d = 13.5:10.0:2\n", ""))
        out = tmp_path / "out"
        assert main(["enumerate", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [space] d: expected start:step:levels, got ''\n")
        assert not out.exists()

    @pytest.mark.parametrize("malform", [
        lambda data: data.replace(b"[space]\n", b""),  # keys before any section header
        lambda data: data + b"[run]\nbudget = 10\n",
        lambda data: data.replace(b"budget = 36\n", b"budget = 36\nbudget = 10\n"),
        lambda data: b"\xff\xfe" + data,
    ], ids=["no-section-header", "duplicate-section", "duplicate-key", "not-utf8"])
    def test_malformed_file_exits_1_before_writing(self, tmp_path, capsys, malform):
        with open(TOY_CFG, "rb") as fh:
            data = fh.read()
        assert malform(data) != data
        p = tmp_path / "malformed.cfg"
        p.write_bytes(malform(data))
        out = tmp_path / "out"
        rc = main(["search", "--config", str(p), "--algo", "random",
                   "--seed", "1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["search", "compare"])
    @pytest.mark.parametrize("old, new", [
        ("alpha = 0.95", "alpha = 1.5"),
        ("population = 6", "population = 1"),
        ("seeds = 1,2", "seeds = 1,1"),
        ("algorithms = alvns-sa,alns-sa,ga,random", "algorithms = ga,ga"),
        ("seeds = 1,2", "seeds = -1,2"),
        ("workers = 1", "workers = -3"),
        ("generations = 200", "generations = -5"),
        ("sigma = 0", "sigma = nan"),
        ("reaction_time = 0.5", "reaction_time = nan"),
        ("t_max = 30", "t_max = inf"),
        ("open_gap_exit = 20", "open_gap_exit = 0"),
        ("rejection_threshold = 5", "rejection_threshold = -3"),
        ("oracle_seed = 0", "oracle_seed = -1"),
    ], ids=["alpha", "population", "duplicate-seed", "duplicate-algorithm",
            "negative-seed", "negative-workers", "negative-generations",
            "nan-sigma", "nan-reaction-time", "infinite-horizon",
            "zero-open-gap-exit", "negative-rejection-threshold",
            "negative-oracle-seed"])
    def test_rejected_value_exits_1_before_writing(self, tmp_path, capsys,
                                                   command, old, new):
        with open(TOY_CFG) as fh:
            text = fh.read()
        assert old in text
        p = tmp_path / "bad.cfg"
        p.write_text(text.replace(old, new))
        out = tmp_path / "out"
        argv = [command, "--config", str(p), "--out", str(out)]
        if command == "search":
            algorithm = "alvns-sa" if new.startswith(("alpha", "rejection")) else "ga"
            argv += ["--algo", algorithm, "--seed", "1"]
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)


# an axis whose levels or span overflow a float, in place of a toy.cfg axis
OVERFLOWING = {
    "a": ("a = -0.05:-1.6:2", "a = -0.05:-1e308:3"),  # the third level is -inf
    "v_o": ("v_o = 5.5:4.0:3", "v_o = 1.7e308:-1.7e308:3"),  # infinite span
}
NOT_FINITE = "start, step and span must be finite"


def overflowing_config(tmp_path, axis) -> str:
    with open(TOY_CFG) as fh:
        text = fh.read()
    old, new = OVERFLOWING[axis]
    assert old in text
    p = tmp_path / "overflow.cfg"
    p.write_text(text.replace(old, new))
    return str(p)


class TestOverflowingAxis:
    @pytest.mark.parametrize("axis", OVERFLOWING)
    def test_load_rejects(self, tmp_path, axis):
        with pytest.raises(ConfigurationError, match=rf"^\[space\] {axis}: {NOT_FINITE}$"):
            load_config(overflowing_config(tmp_path, axis))

    @pytest.mark.parametrize("command", ["enumerate", "search"])
    @pytest.mark.parametrize("axis", OVERFLOWING)
    def test_exits_1_before_writing(self, tmp_path, capsys, axis, command):
        out = tmp_path / "out"
        config = overflowing_config(tmp_path, axis)
        argv = [command, "--config", config, "--out", str(out)]
        if command == "search":
            argv += ["--algo", "alvns-sa", "--seed", "1"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: [space] {axis}: {NOT_FINITE}\n"
        assert not out.exists()

    def test_axis_named_once(self, tmp_path, capsys):
        with open(TOY_CFG) as fh:
            text = fh.read()
        p = tmp_path / "bad.cfg"
        p.write_text(text.replace("a = -0.05:-1.6:2", "a = -0.05:-1.6:0"))
        rc = main(["enumerate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: [space] a: levels must be >= 1\n"


FAILURE_LINE = "run flagged invalid: scenario 5: RuntimeError: boom"
NAN_LINE = "run flagged invalid: scenario 5: ValueError: GTTC_min must be >= 0, got nan"


@pytest.fixture
def failing_evaluator(request, monkeypatch):
    """The search evaluator fails at scenario 5: it raises, or in the "nan"
    mode (an indirect parameter) returns a NaN GTTC_min. Gives the line that
    reports the failure."""
    real = experiment.evaluate
    nan = getattr(request, "param", "raise") == "nan"

    def evaluate(scenario, *args, **kwargs):
        if scenario.index == 5:
            if nan:
                return EvaluationResult(math.nan, 1)
            raise RuntimeError("boom")
        return real(scenario, *args, **kwargs)

    monkeypatch.setattr(experiment, "evaluate", evaluate)
    return NAN_LINE if nan else FAILURE_LINE


class TestFailureReporting:
    def test_search_prints_failure(self, tmp_path, capsys, failing_evaluator):
        rc = main(["search", "--config", TOY_CFG, "--algo", "alvns-sa",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        assert FAILURE_LINE in capsys.readouterr().err.splitlines()

    def test_compare_prints_each_failure(self, tmp_path, capsys,
                                         failing_evaluator):
        rc = main(["compare", "--config", TOY_CFG, "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        # every toy run tests scenario 5: 4 algorithms x 2 seeds
        assert sorted(lines) == sorted(
            f"{algorithm} seed {seed}: {FAILURE_LINE}"
            for algorithm in ("alvns-sa", "alns-sa", "ga", "random")
            for seed in (1, 2))

    @pytest.mark.parametrize("failing_evaluator", ["raise", "nan"], indirect=True)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_search_logs_the_rows_before_the_failure(
            self, tmp_path, capsys, bundle, failing_evaluator, algorithm):
        rc = main(["search", "--config", TOY_CFG, "--algo", algorithm,
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        assert failing_evaluator in capsys.readouterr().err.splitlines()
        # the clean run's log, header included, up to its scenario-5 row
        name = f"{algorithm}_seed1.csv"
        clean = (bundle / name).read_text().splitlines()
        first_5 = next(i for i, line in enumerate(clean) if line.split(",")[1] == "5")
        assert (tmp_path / name).read_text().splitlines() == clean[:first_5]

    @pytest.mark.parametrize("failing_evaluator", ["nan"], indirect=True)
    def test_compare_prints_each_nan(self, tmp_path, capsys, failing_evaluator):
        rc = main(["compare", "--config", TOY_CFG, "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        assert sorted(capsys.readouterr().err.splitlines()) == sorted(
            f"{algorithm} seed {seed}: {NAN_LINE}"
            for algorithm in ALGORITHMS for seed in (1, 2))

    def test_compare_bundle_with_runs_that_tested_nothing(
            self, tmp_path, capsys, monkeypatch):
        def evaluate(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(experiment, "evaluate", evaluate)
        rc = main(["compare", "--config", TOY_CFG, "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        runs = [(algorithm, seed) for algorithm in ALGORITHMS for seed in (1, 2)]
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["oracle.csv", "summary.csv", "operators.csv", "distribution.csv"]
            + [f"{algorithm}_seed{seed}.csv" for algorithm, seed in runs])
        failures = capsys.readouterr().err.splitlines()
        assert len(failures) == len(runs)
        for (algorithm, seed), line in zip(runs, failures):
            assert line.startswith(f"{algorithm} seed {seed}: run flagged invalid: ")
            assert line.endswith(": RuntimeError: boom")
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(runs) * len(ScenarioClass)
        assert all(r["P"] == "" and r["n_evals"] == "0" for r in rows)
        with open(tmp_path / "distribution.csv", newline="") as fh:
            assert all(r["share"] == "" for r in csv.DictReader(fh))
        assert main(["report", "--in", str(tmp_path)]) == EXIT_OK
        assert "n/a" in capsys.readouterr().out


# sha256 of each file of the toy compare bundle
TOY_BUNDLE_SHA256 = {
    "alns-sa_seed1.csv": "f9cce39015639b7f1965ea25d62816b2a29e991f6ec12908ff97043df2277042",
    "alns-sa_seed2.csv": "b2610abe6ae55f9b17995825c79c369b905924bc5f8f6f47329513bd96b8e603",
    "alvns-sa_seed1.csv": "62720a40fa5a4a476a0d343bde054df59ff5bc530111fcc607b9f840da43266b",
    "alvns-sa_seed2.csv": "bf07b3a98d541b85243531349fcb3d30a3913229e94113a7dfee36582f10d4f0",
    "distribution.csv": "5135f02401bcad2f6bcc70cc2d95c982a58ab9bce3e6cb1216f1a24132d85163",
    "ga_seed1.csv": "e4f1ebe65a796a3b9b33c1c7128970b282492ce6e6082cd18734e4fb89f9fc7d",
    "ga_seed2.csv": "951251f6bb97f3ad3910940339078e3ddb7b43b9b28ff2d78f7d4a22bb49934c",
    "operators.csv": "7a98a872334ca51e698619bf556ba2440baf81d4cd204d68551866f47343965a",
    "oracle.csv": "713261b44bb8f4bafe074c3c4a117f4892b5dc194e29b03bcb02d7729e489de7",
    "random_seed1.csv": "816872fdf159d09e50f8c155b928397e518648cd379f18b644f61ee63ef98001",
    "random_seed2.csv": "5798159bb356147bba26397e4e8889868d48281355f99adcf85e3d0fadd5bb30",
    "summary.csv": "a3a3de0a251ad32c0b0f422cb1f772e2852bae471d0ceffb87a34a168deb189f",
}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    rc = main(["compare", "--config", TOY_CFG, "--out", str(out)])
    assert rc == EXIT_OK
    return out


class TestCompareAndReport:
    def test_bundle_files(self, bundle):
        for name in ["oracle.csv", "summary.csv", "operators.csv",
                     "distribution.csv", "alvns-sa_seed1.csv",
                     "random_seed2.csv", "ga_seed1.csv", "alns-sa_seed2.csv"]:
            assert (bundle / name).exists(), name

    def test_bundle_golden(self, bundle):
        digests = {name: hashlib.sha256((bundle / name).read_bytes()).hexdigest()
                   for name in os.listdir(bundle)}
        assert digests == TOY_BUNDLE_SHA256

    def test_summary_rows(self, bundle):
        with open(bundle / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 4 algorithms x 2 seeds x 5 classes
        assert len(rows) == 40
        for r in rows:
            assert 0.0 <= float(r["P"]) <= 1.0
            assert r["n_evals"] == "36"
            if r["coverage_union"]:
                assert 0.0 <= float(r["coverage_union"]) <= 1.0
        # exhaustive toy runs at sigma=0 cover the oracle exactly
        for r in rows:
            if r["coverage_oracle"]:
                assert float(r["coverage_oracle"]) == 1.0

    def test_operator_rows(self, bundle):
        with open(bundle / "operators.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        banked = {r["algorithm"] for r in rows}
        assert banked == {"alvns-sa", "alns-sa"}
        # 2 algorithms x 2 seeds x (8 destroy + 2 repair)
        assert len(rows) == 40
        assert all(float(r["weight"]) >= 0.0 for r in rows)

    def test_log_round_trip(self, bundle):
        sets = load_log_sets(bundle / "alvns-sa_seed1.csv")
        assert sum(len(s) for s in sets.values()) == 36
        assert sets == load_log_sets(bundle / "oracle.csv")

    def test_report_renders(self, bundle, capsys):
        rc = main(["report", "--in", str(bundle)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        for label in [c.label for c in ScenarioClass]:
            assert label in out
        assert "alvns-sa" in out and "random" in out

    def test_files_follow_umask(self, bundle):
        umask = os.umask(0)
        os.umask(umask)
        for name in os.listdir(bundle):
            assert os.stat(bundle / name).st_mode & 0o777 == 0o666 & ~umask, name

    def test_report_closes_summary(self, bundle):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            render_report(str(bundle))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_report_missing_dir(self, tmp_path, capsys):
        rc = main(["report", "--in", str(tmp_path)])
        assert rc == 2


def load_log_sets(path):
    """Scenario indices per class, from an evaluation log or oracle.csv."""
    by_label = {c.label: c for c in ScenarioClass}
    sets = {c: set() for c in ScenarioClass}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            sets[by_label[row["class"]]].add(int(row["scenario_index"]))
    return sets
