"""Tests of the benchmark's own code: the reference loop against the
program's evaluator, and each output check against corrupted output.

    python3 -m pytest bench/tests
"""

import configparser
import contextlib
import csv
import dataclasses
import io
import math
import random
import signal
import time
from pathlib import Path

import pytest

import checks
import refsim
import run
import speed
import tracing
from scenariosearch import cli, engine, experiment
from scenariosearch.config import load_config
from scenariosearch.risk import classify
from scenariosearch.rng import scenario_seed
from scenariosearch.sim import evaluate

CONFIGS = Path(__file__).resolve().parents[2] / "configs"


def model_of(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(path)
    return refsim.read_model(parser)


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("name", ["toy.cfg", "default.cfg"])
def test_reference_loop_matches_evaluate(name, sigma):
    config = load_config(str(CONFIGS / name))
    sim = dataclasses.replace(config.sim, sigma=sigma)
    model = dataclasses.replace(model_of(CONFIGS / name), sigma=sigma)
    rnd = random.Random(f"{name}{sigma}")
    n = config.space.cardinality
    indices = range(n) if n <= 400 else rnd.sample(range(n), 400)
    for i in indices:
        run_seed = rnd.randrange(1 << 32)
        scenario = config.space.index_to_scenario(i)
        assert model.coords(i) == scenario.coords
        assert refsim.gttc_min(model, i, run_seed) == \
            evaluate(scenario, sim, config.ego, run_seed).gttc_min


def test_stream_seed_matches_program():
    rnd = random.Random(0)
    for _ in range(200):
        run_seed, index = rnd.randrange(1 << 64), rnd.randrange(1 << 20)
        assert refsim.stream_seed(run_seed, index) == scenario_seed(run_seed, index)


@pytest.mark.parametrize("value", [0.0, 1e-12, 0.5, math.nextafter(0.5, 1), 1.0,
                                   math.nextafter(1.0, 2), 2.0, 2.5, math.inf])
def test_risk_bands_match_classify(value):
    assert refsim.risk_class(value) == classify(value).label


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """oracle.csv and an ALVNS-SA log on the toy grid with sigma = 0.1."""
    out = tmp_path_factory.mktemp("out")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(CONFIGS / "toy.cfg")
    parser["sim"]["sigma"] = "0.1"
    parser["run"]["oracle_seed"] = "7"
    config = out / "toy.cfg"
    with open(config, "w") as fh:
        parser.write(fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["enumerate", "--config", str(config), "--out", str(out)]) == 0
        assert cli.main(["search", "--config", str(config), "--algo", "alvns-sa",
                         "--seed", "7", "--out", str(out)]) == 0
    return refsim.read_model(parser), out / "oracle.csv", out / "alvns-sa_seed7.csv"


def rewrite(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return str(dst)


def check_oracle(model, path):
    return checks.check_oracle(str(path), model, 7, checks.sample_rng(7))


def check_log(model, path):
    return checks.check_log(str(path), model, 7, 36, checks.sample_rng(7))


def test_clean_outputs_pass(outputs):
    model, oracle, log = outputs
    crit = check_oracle(model, oracle)
    order, log_crit = check_log(model, log)
    assert sorted(order) == list(range(36))
    assert log_crit == crit


def perturb_gttc(rows, col):
    for row in rows[1:]:
        g = float(row[col])
        if 0.0 < g < math.inf:  # a relative change of 1e-6 keeps the class here
            row[col] = repr(g * (1 + 1e-6))
            return
    raise AssertionError("no finite GTTC to perturb")


def flip_class(rows, col):
    rows[1][col] = "crash" if rows[1][col] != "crash" else "risk-free"


def duplicate_index(rows, col):
    rows[3] = list(rows[2])
    if col == 1:
        rows[3][0] = "2"  # keep the iteration column in order


CORRUPTIONS = {
    "duplicated index": duplicate_index,
    "flipped class": lambda rows, col: flip_class(rows, col + 6),
    "perturbed gttc": lambda rows, col: perturb_gttc(rows, col + 5),
    "truncated": lambda rows, col: rows.pop(),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_oracle_check_rejects(outputs, tmp_path, corruption):
    model, oracle, _ = outputs
    bad = rewrite(oracle, tmp_path / "oracle.csv", lambda rows: CORRUPTIONS[corruption](rows, 0))
    with pytest.raises(checks.CheckError):
        check_oracle(model, bad)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_log_check_rejects(outputs, tmp_path, corruption):
    model, _, log = outputs
    bad = rewrite(log, tmp_path / "log.csv", lambda rows: CORRUPTIONS[corruption](rows, 1))
    with pytest.raises(checks.CheckError):
        check_log(model, bad)


def test_log_check_rejects_rejected_improvement(outputs, tmp_path):
    model, _, log = outputs

    def reject_an_improvement(rows):
        current = float(rows[1][6])
        for row in rows[2:]:
            if float(row[6]) < current:
                row[8] = "0"
                return
            if row[8] == "1":
                current = float(row[6])
        raise AssertionError("no improving move in the log")

    bad = rewrite(log, tmp_path / "log.csv", reject_an_improvement)
    with pytest.raises(checks.CheckError):
        check_log(model, bad)


def test_tracing_keeps_results_and_restores_the_program(tmp_path):
    before = (experiment.evaluate, engine.Archive, experiment.run_ga, cli.write_log)
    tracer = tracing.Tracer()
    config = run.write_config(tmp_path / "ga.cfg", budget=1100)
    args = ["search", "--config", str(config), "--algo", "ga", "--seed", "3", "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer.installed():
            assert cli.main(args + [str(tmp_path / "traced")]) == 0
        assert cli.main(args + [str(tmp_path / "plain")]) == 0
    assert (experiment.evaluate, engine.Archive, experiment.run_ga, cli.write_log) == before
    assert (tmp_path / "traced/ga_seed3.csv").read_bytes() == \
        (tmp_path / "plain/ga_seed3.csv").read_bytes()
    assert len(tracer.spans["sim.evaluate"]) == 1100
    assert len(tracer.spans["ga.campaign"]) == 1
    assert tracer.within_calls["ga", "engine.nearest"] == len(tracer.spans["engine.nearest"])


def test_alns_fallback_classification():
    space = load_config(str(CONFIGS / "default.cfg")).space
    point = (10.2, 7.3, 15.4, -0.6)
    snapped = space.snap(point)
    in_box = space.neighborhood(point, 1)
    far = space.index_to_scenario(space.cardinality - 1)
    assert not tracing.is_fallback(point, space, snapped, 1)
    assert tracing.is_fallback(point, space, far, 1)
    assert all(not tracing.is_fallback(point, space, s, 2) for s in in_box)
    assert tracing.is_fallback(point, space, far, 2)


def test_round_seeds_and_config_overrides(tmp_path):
    ops = run.make_round(("enumerate", "ga"), 12, tmp_path, budget=1100)
    parser = run.read_config(Path(ops[0].argv[2]))
    assert parser["run"]["oracle_seed"] == "12" and parser["run"]["budget"] == "1100"
    assert ops[1].argv[ops[1].argv.index("--seed") + 1] == "12"
    assert ops[1].output == tmp_path / "ga_seed12.csv"



def test_sampled_time_is_scaled_to_the_reference_speed():
    sampler = speed.Sampler()
    sampler.slices = [speed.REF_SLICE_S, 3 * speed.REF_SLICE_S]
    sampler.handler_s = 1.0
    assert sampler.reference_seconds(9.0) == pytest.approx(4.0)


def test_sampler_samples_during_the_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler.installed():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL:
            pass
    assert len(sampler.slices) >= 3 and sampler.handler_s > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
