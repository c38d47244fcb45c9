"""Checks of the CSVs the CLI writes, against properties and the reference in
`refsim`, never against a stored copy of earlier output."""

from __future__ import annotations

import csv
import math
import zlib

import numpy as np

import refsim

ORACLE_HEADER = ["scenario_index", "v_e", "v_o", "d", "a", "gttc_min", "class"]
LOG_HEADER = ["iter", "scenario_index", "v_e", "v_o", "d", "a", "gttc_min",
              "class", "accepted", "destroy_op", "repair_op", "T_c"]
# Rows per file re-evaluated by the reference loop.
SAMPLE = 256


class CheckError(Exception):
    """An output file breaks a property the program promises."""


def _read(path: str, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckError(f"{path}: header {rows[0] if rows else None} != {header}")
    return rows[1:]


def _check_rows(path, rows, model, run_seed, rng, col) -> list[float]:
    """Coordinates, GTTC and class of each row; a seeded sample of rows is
    re-evaluated by the reference loop. Returns the GTTC_min column."""
    gttcs = []
    for row in rows:
        idx = int(row[col])
        for k, value in enumerate(model.coords(idx)):
            cell = float(row[col + 1 + k])
            if not math.isclose(cell, value, rel_tol=1e-9, abs_tol=1e-9):
                raise CheckError(f"{path}: scenario {idx} has {refsim.AXES[k]}={cell}, "
                                 f"the grid says {value}")
        g = float(row[col + 5])
        if not g >= 0.0:
            raise CheckError(f"{path}: scenario {idx} has GTTC_min {row[col + 5]}")
        if row[col + 6] != refsim.risk_class(g):
            raise CheckError(f"{path}: scenario {idx} with GTTC_min {g} is classed "
                             f"{row[col + 6]}, bands give {refsim.risk_class(g)}")
        gttcs.append(g)
    for r in rng.choice(len(rows), size=min(SAMPLE, len(rows)), replace=False):
        idx = int(rows[r][col])
        want = refsim.gttc_min(model, idx, run_seed)
        if not (gttcs[r] == want == math.inf
                or math.isclose(gttcs[r], want, rel_tol=1e-10, abs_tol=1e-12)):
            raise CheckError(f"{path}: scenario {idx} GTTC_min {gttcs[r]}, "
                             f"reference loop gives {want}")
    return gttcs


def critical(rows, col: int) -> set[int]:
    """Indices classed crash, near-crash or high-risk."""
    return {int(row[col]) for row in rows if row[col + 6] in refsim.CRITICAL}


def check_oracle(path: str, model: refsim.Model, run_seed: int, rng) -> set[int]:
    """oracle.csv: every index 0..N-1 once and in order, classes from the
    bands, sampled GTTC_min equal to the reference. Returns the critical set."""
    rows = _read(path, ORACLE_HEADER)
    if len(rows) != model.cardinality:
        raise CheckError(f"{path}: {len(rows)} rows for {model.cardinality} scenarios")
    for i, row in enumerate(rows):
        if int(row[0]) != i:
            raise CheckError(f"{path}: row {i} holds scenario {row[0]}")
    _check_rows(path, rows, model, run_seed, rng, 0)
    return critical(rows, 0)


def check_log(path: str, model: refsim.Model, run_seed: int, budget: int, rng):
    """One search log: `budget` rows in iteration order, distinct in-range
    indices, classes from the bands, sampled GTTC_min equal to the
    reference, and every move to a lower GTTC_min than the current
    scenario's logged as accepted. Returns (archive order, critical set)."""
    rows = _read(path, LOG_HEADER)
    if len(rows) != budget:
        raise CheckError(f"{path}: {len(rows)} evaluations, budget is {budget}")
    order = []
    for i, row in enumerate(rows):
        if int(row[0]) != i:
            raise CheckError(f"{path}: row {i} logged as iteration {row[0]}")
        idx = int(row[1])
        if not 0 <= idx < model.cardinality:
            raise CheckError(f"{path}: scenario index {idx} out of range")
        order.append(idx)
    if len(set(order)) != len(order):
        raise CheckError(f"{path}: a scenario was evaluated twice")
    gttcs = _check_rows(path, rows, model, run_seed, rng, 1)

    accepted = [row[8] == "1" for row in rows]
    if not accepted[0]:
        raise CheckError(f"{path}: the initial scenario is not accepted")
    current = gttcs[0]
    for i in range(1, len(rows)):
        if gttcs[i] < current and not accepted[i]:
            raise CheckError(f"{path}: iteration {i} improves GTTC_min "
                             f"{current} -> {gttcs[i]} but is rejected")
        if accepted[i]:
            current = gttcs[i]
    return order, critical(rows, 1)


def sample_rng(seed: int, name: str = "") -> np.random.Generator:
    """The generator that picks the rows re-evaluated for one output."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])
