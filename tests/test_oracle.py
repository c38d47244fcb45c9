"""The full-grid oracle on its process-pool branch: a grid of more than one
chunk gives the same GTTC_min list at any worker count, each value the
Python float that `evaluate` returns, and `oracle.csv` rows that take their
coordinates from `index_to_scenario`."""

import csv

import pytest

from scenariosearch import oracle
from scenariosearch.experiment import ORACLE_HEADER, fmt, write_oracle
from scenariosearch.oracle import brute_force_oracle
from scenariosearch.risk import classify
from scenariosearch.sim import EgoControllerConfig, SimConfig, evaluate
from scenariosearch.space import ParamSpec, build_space

# 16 * 16 * 1 * 9 = 2,304 scenarios, with a one-level gap axis and a
# negative-step deceleration axis
SPACE = build_space([ParamSpec("v_e", 9.0, 0.5, 16),
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
