"""The benchmark's frozen surface: `bench/tracing.py` wraps program functions
by name and reads result fields, so a rename in `src/` breaks a traced round
while every untraced test still passes. This test enforces ROADMAP's "Surface
a simplicity PR keeps until item 1 lands": it runs the CLI under the tracer on
the toy grid and asks for every per-layer metric that `BENCHMARK.json` names."""

import json
import math
import sys
from pathlib import Path

from scenariosearch.cli import EXIT_OK, main
from scenariosearch.config import ALGORITHMS, load_config

REPO = Path(__file__).parents[1]
if str(REPO / "bench") not in sys.path:
    sys.path.insert(0, str(REPO / "bench"))

import tracing  # noqa: E402

TOY_CFG = REPO / "configs" / "toy.cfg"
# per-layer metrics that bench/run.py measures itself, outside the tracer
OWN_METRICS = {"config.import_s", "config.load_s", "oracle.s_w1", "oracle.s_w2",
               "trace.overhead_pct"}


def test_tracer_reports_every_named_layer(tmp_path):
    out = str(tmp_path)
    t = tracing.Tracer()
    with t.installed():
        assert main(["enumerate", "--config", str(TOY_CFG), "--out", out,
                     "--workers", "1"]) == EXIT_OK
        for algorithm in ALGORITHMS:
            assert main(["search", "--config", str(TOY_CFG), "--algo", algorithm,
                         "--seed", "1", "--out", out]) == EXIT_OK
    config = load_config(str(TOY_CFG))
    metrics = tracing.layer_metrics(t, t)
    probes = tracing.probe_layers(config.space, config.sim, config.ego,
                                  range(config.space.cardinality), 1)

    named = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    assert OWN_METRICS <= named
    assert metrics.keys() | probes.keys() == named - OWN_METRICS
    assert metrics.keys().isdisjoint(probes.keys())
    assert all(math.isfinite(v) for v in [*metrics.values(), *probes.values()])
    assert len(t.spans["experiment.write"]) == 1 + len(ALGORITHMS)
    assert metrics["experiment.bytes_written"] > 0
    assert metrics["engine.box_query_calls"] > 0
    assert metrics["engine.nearest_calls"] > 0
