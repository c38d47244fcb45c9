"""The full-grid oracle's ordered chunk map: a grid of more than one chunk
gives the same GTTC_min list at any worker count and under every process
start method, each value the Python float that `evaluate` returns,
`oracle.csv` rows that take their coordinates from `index_to_scenario`, and,
when a scenario fails or returns a GTTC_min that `classify` rejects, the same
error naming the smallest failing index, with the chunks still queued in the
pool cancelled."""

import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import scenariosearch
from scenariosearch import oracle
from scenariosearch.cli import EXIT_RUNTIME, main
from scenariosearch.config import load_config
from scenariosearch.engine import EvaluationFailure
from scenariosearch.experiment import ORACLE_HEADER, fmt, write_oracle
from scenariosearch.oracle import brute_force_oracle
from scenariosearch.risk import INF, classify
from scenariosearch.sim import (EgoControllerConfig, EvaluationResult, SimConfig,
                                evaluate)
from scenariosearch.space import ParamSpec, ScenarioSpace

# 16 * 16 * 1 * 9 = 2,304 scenarios, with a one-level gap axis and a
# negative-step deceleration axis
SPACE = ScenarioSpace([ParamSpec("v_e", 9.0, 0.5, 16),
                       ParamSpec("v_o", 5.5, 0.5, 16),
                       ParamSpec("d", 13.5, 1.0, 1),
                       ParamSpec("a", -0.05, -0.2, 9)])
SIM = SimConfig(sigma=0.1)
EGO = EgoControllerConfig()
RUN_SEED = 7
WORKERS = (1, 2)


def test_grid_takes_the_pool_branch():
    assert SPACE.cardinality > oracle._CHUNK


@pytest.fixture(scope="module")
def gttc_by_workers():
    return {w: brute_force_oracle(SPACE, SIM, EGO, RUN_SEED, w) for w in WORKERS}


def test_worker_counts_agree(gttc_by_workers):
    assert gttc_by_workers[2] == gttc_by_workers[1]


# SPACE as a config file; the budget only has to fit the grid
SPACE_CFG = """\
[space]
v_e = 9.0:0.5:16
v_o = 5.5:0.5:16
d = 13.5:1.0:1
a = -0.05:-0.2:9

[sim]
sigma = 0.1

[run]
budget = 100
oracle_seed = 7
"""


def test_cli_oracle_is_byte_identical_across_a_pool(tmp_path):
    """`enumerate` writes the same oracle.csv in-process and across a two-process
    pool: the grid is two chunks, where the toy grid's one chunk never leaves
    the process."""
    config = tmp_path / "space.cfg"
    config.write_text(SPACE_CFG)
    assert load_config(str(config)).space == SPACE
    written = []
    for workers in WORKERS:
        out = tmp_path / f"w{workers}"
        assert main(["enumerate", "--config", str(config), "--out", str(out),
                     "--workers", str(workers)]) == 0
        written.append((out / "oracle.csv").read_bytes())
    assert written[0].count(b"\n") == SPACE.cardinality + 1
    assert written[1] == written[0]


# the pool under a start method set in a fresh interpreter; the result goes
# back as float.hex strings
START_METHOD_RUN = """\
import json, multiprocessing, sys
from scenariosearch.oracle import brute_force_oracle
from test_oracle import EGO, RUN_SEED, SIM, SPACE
if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    gttc = brute_force_oracle(SPACE, SIM, EGO, RUN_SEED, 2)
    print(json.dumps([g.hex() for g in gttc]))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_start_method(gttc_by_workers, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    path = [str(Path(scenariosearch.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", START_METHOD_RUN, method],
                         cwd=Path(__file__).parent, env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(run.stdout) == [g.hex() for g in gttc_by_workers[1]]


@pytest.mark.parametrize("workers", WORKERS)
def test_values_are_evaluate_floats(gttc_by_workers, workers):
    gttc = gttc_by_workers[workers]
    assert len(gttc) == SPACE.cardinality
    for i, g in enumerate(gttc):
        ref = evaluate(SPACE.index_to_scenario(i), SIM, EGO, RUN_SEED).gttc_min
        assert type(g) is float and g.hex() == ref.hex(), i


@pytest.mark.parametrize("workers", WORKERS)
def test_written_rows(gttc_by_workers, workers, tmp_path):
    gttc = gttc_by_workers[workers]
    with open(write_oracle(SPACE, gttc, str(tmp_path)), newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ORACLE_HEADER.split(",")
    assert len(rows) == len(gttc)
    for i, (row, g) in enumerate(zip(rows, gttc)):
        coords = map(fmt, SPACE.index_to_scenario(i).coords)
        assert row == [str(i), *coords, fmt(g), classify(g).label], i


# the band edges and both sentinels: 0.0 on contact, finite values, and inf
# where the pair never closes
GTTC_CYCLE = (0.0, 1 / 3, 0.5, 0.75, 1.0, 2.0, 2.0001, 123.456, INF)
TOY_CFG = Path(__file__).parents[1] / "configs" / "toy.cfg"


@pytest.mark.parametrize("grid", ["toy", "descending-and-one-level"])
def test_writer_matches_per_index_reference(grid, tmp_path):
    """The writer formats each axis value once and walks the axis tables in
    product order; its file equals rows built per index from
    index_to_scenario and fmt."""
    space = load_config(str(TOY_CFG)).space if grid == "toy" else SPACE
    gttc = [GTTC_CYCLE[i % len(GTTC_CYCLE)] for i in range(space.cardinality)]
    reference = [ORACLE_HEADER] + [
        ",".join([str(i), *map(fmt, space.index_to_scenario(i).coords),
                  fmt(g), classify(g).label])
        for i, g in enumerate(gttc)
    ]
    with open(write_oracle(space, gttc, str(tmp_path)), newline="") as fh:
        assert fh.read() == "\n".join(reference) + "\n"
    assert {row.split(",")[5] for row in reference[1:]} >= {"0", "inf"}


@pytest.mark.parametrize("surplus", [-1, 1])
def test_writer_rejects_a_list_of_the_wrong_length(surplus, tmp_path):
    with pytest.raises(ValueError):
        write_oracle(SPACE, [1.0] * (SPACE.cardinality + surplus), str(tmp_path))
    # zip raises partway through the streamed write: no oracle.csv, no temporary
    assert os.listdir(tmp_path) == []


# 1 * 2 * 64 * 40 = 5,120 scenarios: every one with the huge objective speed
# diverges, and the first of them, 2,560, lies in the second chunk
DIVERGING = """\
[space]
v_e = 12:0.5:1
v_o = 5.5:1.7e308:2
d = 13.5:1:64
a = -0.05:-0.04:40

[run]
budget = 100
workers = {workers}
"""
DIVERGED = "scenario 2560: FloatingPointError: state diverged"


def diverging_config(tmp_path, workers) -> str:
    path = tmp_path / "diverging.cfg"
    path.write_text(DIVERGING.format(workers=workers))
    return str(path)


@pytest.mark.parametrize("workers", WORKERS)
def test_failure_names_the_first_failing_scenario(tmp_path, workers):
    config = load_config(diverging_config(tmp_path, workers))
    assert config.space.cardinality > 2 * oracle._CHUNK
    with pytest.raises(EvaluationFailure, match=f"^{DIVERGED}$") as info:
        brute_force_oracle(config.space, config.sim, config.ego, config.oracle_seed,
                           workers)
    # at 2 workers, the failure was pickled out of a worker with its fields
    assert info.value == EvaluationFailure(2560, "FloatingPointError", "state diverged")
    if workers == 1:  # in-process, the evaluator's own error is the cause
        assert type(info.value.__cause__) is FloatingPointError


@pytest.mark.parametrize("command", ["enumerate", "compare"])
@pytest.mark.parametrize("workers", WORKERS)
def test_cli_exits_2_and_writes_no_oracle(tmp_path, capsys, command, workers):
    out = tmp_path / "out"
    rc = main([command, "--config", diverging_config(tmp_path, workers),
               "--out", str(out)])
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {DIVERGED}\n"
    assert not (out / "oracle.csv").exists()


def test_a_failure_stops_the_pool(monkeypatch):
    """Scenario 0 fails: the map raises it and cancels the chunks still queued.
    Threads stand in for processes, so the patched evaluator is seen under any
    start method, and each evaluation yields the GIL."""
    space = ScenarioSpace([ParamSpec("v_e", 9.0, 0.5, 16),
                           ParamSpec("v_o", 5.5, 0.5, 16),
                           ParamSpec("d", 13.5, 1.0, 16),
                           ParamSpec("a", -0.05, -0.2, 8)])
    assert space.cardinality == 16 * oracle._CHUNK
    workers = 2
    calls = 0
    lock = threading.Lock()
    result = EvaluationResult(1.0, 1)

    def stand_in(scenario, sim_config, ego_config, run_seed):
        nonlocal calls
        with lock:
            calls += 1
        if scenario.index == 0:
            raise FloatingPointError("state diverged")
        time.sleep(0)
        return result

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(oracle, "evaluate", stand_in)
    with pytest.raises(EvaluationFailure, match="^scenario 0: FloatingPointError: "):
        brute_force_oracle(space, SIM, EGO, RUN_SEED, workers)
    assert calls <= (workers + 1) * oracle._CHUNK


def rejected_at(k, value):
    """A stand-in evaluator: 1.0 everywhere except scenario k's value."""
    def stand_in(scenario, sim_config, ego_config, run_seed):
        return EvaluationResult(value if scenario.index == k else 1.0, 1)
    return stand_in


@pytest.mark.parametrize("value", [math.nan, -1.0])
def test_a_rejected_value_names_its_scenario(monkeypatch, value):
    monkeypatch.setattr(oracle, "evaluate", rejected_at(2100, value))
    message = f"scenario 2100: ValueError: GTTC_min must be >= 0, got {value}"
    with pytest.raises(EvaluationFailure, match=f"^{re.escape(message)}$") as info:
        brute_force_oracle(SPACE, SIM, EGO, RUN_SEED, 1)
    assert info.value == EvaluationFailure(2100, "ValueError",
                                           f"GTTC_min must be >= 0, got {value}")
    assert type(info.value.__cause__) is ValueError


@pytest.mark.parametrize("command", ["enumerate", "compare"])
def test_cli_names_a_nan_and_writes_no_oracle(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(oracle, "evaluate", rejected_at(5, math.nan))
    out = tmp_path / "out"
    assert main([command, "--config", str(TOY_CFG), "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "error: scenario 5: ValueError: GTTC_min must be >= 0, got nan\n")
    assert not out.exists()


@pytest.fixture
def recording_pool(monkeypatch):
    """Threads stand in for the process pool and record each size asked for;
    a stand-in evaluator keeps the grid quick."""
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracle, "evaluate", lambda *args: EvaluationResult(1.0, 1))
    return sizes


@pytest.mark.parametrize("workers", [2, 8, 1000])
def test_pool_never_outnumbers_the_chunks(recording_pool, workers):
    assert oracle._CHUNK < SPACE.cardinality <= 2 * oracle._CHUNK
    gttc = brute_force_oracle(SPACE, SIM, EGO, RUN_SEED, workers)
    assert gttc == [1.0] * SPACE.cardinality
    assert recording_pool == [2]


@pytest.mark.parametrize("workers", [0, 1, 2, 8, 1000])
def test_one_chunk_runs_in_process(recording_pool, workers):
    space = ScenarioSpace([ParamSpec("v_e", 9.0, 0.5, 16),
                           ParamSpec("v_o", 5.5, 0.5, 16),
                           ParamSpec("d", 13.5, 1.0, 8),
                           ParamSpec("a", -0.05, -0.2, 1)])
    assert space.cardinality == oracle._CHUNK
    gttc = brute_force_oracle(space, SIM, EGO, RUN_SEED, workers)
    assert gttc == [1.0] * oracle._CHUNK
    assert recording_pool == []
