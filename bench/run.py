"""Campaign-level benchmark of the scenariosearch CLI.

    python3 bench/run.py --workload {enumerate,search-sa,search-ga}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The program is imported from `src/`; nothing is
installed. Untraced (`--trace 0`), a run times closed-loop rounds of the
workload's CLI commands, each called through `scenariosearch.cli.main` in this
one process while `speed.py` samples the machine's speed, until about
`--seconds` have passed, then checks every CSV the commands wrote and prints
the end-to-end metrics. Traced (`--trace 1`), it runs one round untraced and
the same round again with per-layer wrappers installed (see `tracing.py`) and
prints the per-layer metrics. Either way the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A record of the run, with the git SHA, the machine and the net source line
count, is written to bench/out/records/.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.cfg"
OUT = ROOT / "bench" / "out"

# Algorithms a workload runs in each round, one CLI command each.
WORKLOADS = {
    "enumerate": ("enumerate",),
    "search-sa": ("alvns-sa", "alns-sa"),
    "search-ga": ("ga",),
}
DEFAULT_SEED = 1
# Fresh interpreters timed for setup_s, before every round and after the
# last, so that the median samples the machine over the whole run.
SETUP_PROBES = 2
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import scenariosearch.cli
from scenariosearch.config import load_config
t1 = time.perf_counter()
load_config(sys.argv[1])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


class Op:
    """One CLI command of a round and the output file it writes."""

    def __init__(self, algo: str, seed: int, out_dir: Path, config: Path):
        self.algo, self.seed = algo, seed
        if algo == "enumerate":
            self.argv = ["enumerate", "--config", str(config), "--out", str(out_dir),
                         "--workers", "1"]
            self.output = out_dir / "oracle.csv"
        else:
            self.argv = ["search", "--config", str(config), "--algo", algo,
                         "--seed", str(seed), "--out", str(out_dir)]
            self.output = out_dir / f"{algo}_seed{seed}.csv"
        self.wall = math.nan
        self.reference = math.nan  # seconds at the reference speed, when sampled
        self.sampler = None
        self.rc = None


def read_config(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise FileNotFoundError(path)
    return parser


def write_config(path: Path, **run_overrides) -> Path:
    """The default config with [run] keys overridden, written to path."""
    parser = read_config(CONFIG)
    for key, value in run_overrides.items():
        parser["run"][key] = str(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def make_round(algos, seed: int, out_dir: Path, **run_overrides) -> list[Op]:
    """One round: each algorithm once with run seed `seed`. enumerate takes
    its seed as the config's oracle_seed."""
    ops = []
    for algo in algos:
        overrides = dict(run_overrides)
        if algo == "enumerate":
            overrides["oracle_seed"] = seed
        config = write_config(out_dir / f"{algo}.cfg", **overrides) if overrides else CONFIG
        ops.append(Op(algo, seed, out_dir, config))
    return ops


def call(op: Op, sampled: bool = False) -> None:
    """Run one CLI command, timing the whole call; with `sampled`, sample the
    machine's speed during it and set op.reference."""
    import speed
    from scenariosearch import cli

    sampler = speed.Sampler()
    with contextlib.redirect_stdout(io.StringIO()), \
            sampler.installed() if sampled else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            op.rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            op.rc = exc.code
        op.wall = time.perf_counter() - t0
    if sampled:
        op.sampler = sampler
        op.reference = sampler.reference_seconds(op.wall)
    if op.rc != 0:
        print(f"FAILED ({op.rc}): scenariosearch {' '.join(op.argv)}", file=sys.stderr)


def setup_times(probes: int = SETUP_PROBES) -> list[tuple[float, float]]:
    """(import, load_config) seconds in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(CONFIG)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        times.append((float(out[0]), float(out[1])))
    return times


def check_ops(ops, budget: int) -> tuple[str | None, int, list[set[int]], set[int]]:
    """Check the output of every command that succeeded. Returns the first
    check failure (or None), the evaluations checked, each op's critical set
    and the scenario indices evaluated."""
    import checks
    import refsim

    model = refsim.read_model(read_config(CONFIG))
    evaluations, criticals, indices = 0, [], set()
    try:
        for op in ops:
            crit = set()
            if op.rc == 0:
                rng = checks.sample_rng(op.seed, op.algo)
                if op.algo == "enumerate":
                    crit = checks.check_oracle(str(op.output), model, op.seed, rng)
                    evaluations += model.cardinality
                    indices.update(range(model.cardinality))
                else:
                    order, crit = checks.check_log(str(op.output), model, op.seed,
                                                   budget, rng)
                    evaluations += budget
                    indices.update(order)
            criticals.append(crit)
    except checks.CheckError as exc:
        return str(exc), evaluations, criticals, indices
    return None, evaluations, criticals, indices


def run_untraced(workload: str, seed: int, seconds: float, out: Path):
    """Whole rounds until about `seconds` of CLI time have passed: a round
    starts only while more than half a mean round remains. Round r uses run
    seed seed + r."""
    from scenariosearch import cli  # noqa: F401  (imported before timing)

    rounds: list[list[Op]] = []
    setup = []
    elapsed = 0.0
    while not rounds or elapsed + elapsed / len(rounds) / 2 < seconds:
        setup += setup_times()
        ops = make_round(WORKLOADS[workload], seed + len(rounds), out / f"round{len(rounds)}")
        for op in ops:
            call(op, sampled=True)
            elapsed += op.wall
        rounds.append(ops)
    setup += setup_times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = [op for ops in rounds for op in ops]
    budget = int(read_config(CONFIG)["run"]["budget"])
    error, evaluations, criticals, _ = check_ops(ops, budget)
    wall = sum(op.wall for op in ops if op.rc == 0)
    reference = sum(op.reference for op in ops if op.rc == 0)
    metrics = {
        "evals_per_s": evaluations / reference if reference else 0.0,
        "setup_s": statistics.median(a + b for a, b in setup),
        "peak_rss_mb": peak_rss_mb,
        "critical_found": len(set().union(*criticals[:len(rounds[0])])),
    }
    detail = {"rounds": len(rounds), "evaluations": evaluations, "cli_wall_s": wall,
              "wall_evals_per_s": evaluations / wall if wall else 0.0,
              "ops": [{"algo": op.algo, "seed": op.seed, "rc": op.rc, "wall_s": op.wall,
                       "reference_s": op.reference, "handler_s": op.sampler.handler_s,
                       "slices_s": op.sampler.slices} for op in ops]}
    return ops, metrics, detail, error


def run_traced(workload: str, seed: int, out: Path):
    """One round untraced, the same round traced, companion campaigns for the
    layers the round does not reach, layer probes and the oracle at 1 and 2
    workers."""
    import checks
    import tracing

    setup = setup_times(5)
    from scenariosearch.config import load_config

    algos = WORKLOADS[workload]
    plain = make_round(algos, seed, out / "untraced")
    for op in plain:
        call(op)
    main_tracer = tracing.Tracer()
    traced = make_round(algos, seed, out / "traced")
    with main_tracer.installed():
        for op in traced:
            call(op)
    companion = tracing.Tracer()
    extra = [algo for algo in tracing.SEARCHES if algo not in algos]
    companions = make_round(extra, seed, out / "companion",
                            budget=tracing.COMPANION_BUDGET)
    with companion.installed():
        for op in companions:
            call(op)

    config = load_config(str(CONFIG))
    error, _, _, indices = check_ops(plain, config.budget)
    error = error or check_ops(companions, tracing.COMPANION_BUDGET)[0]
    for a, b in zip(plain, traced):
        if a.rc == b.rc == 0 and a.output.read_bytes() != b.output.read_bytes():
            error = error or (f"{b.output} differs from {a.output}: "
                              "the same command with the same seed gave another result")

    metrics = tracing.layer_metrics(main_tracer, companion)
    metrics["config.import_s"] = statistics.median(a for a, _ in setup)
    metrics["config.load_s"] = statistics.median(b for _, b in setup)
    untraced_wall = sum(op.wall for op in plain)
    metrics["trace.overhead_pct"] = 100 * (sum(op.wall for op in traced) / untraced_wall - 1)
    sample = checks.sample_rng(seed).choice(
        sorted(indices), size=min(tracing.PROBE_SAMPLE, len(indices)), replace=False)
    metrics.update(tracing.probe_layers(
        config.space, config.sim, config.ego, [int(i) for i in sample], seed))
    metrics["oracle.s_w1"] = tracing.oracle_seconds(config, seed, 1)
    metrics["oracle.s_w2"] = tracing.oracle_seconds(config, seed, 2)
    detail = {"untraced_wall_s": untraced_wall,
              "ops": [[op.algo, op.seed, op.rc, op.wall] for op in plain + traced + companions]}
    return plain + traced + companions, metrics, detail, error


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def net_source_lines() -> int:
    """Lines of src/scenariosearch/*.py that are neither blank nor comments."""
    total = 0
    for path in sorted((SRC / "scenariosearch").glob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def machine() -> dict:
    import numpy

    uname = os.uname()
    return {"system": uname.sysname, "release": uname.release, "arch": uname.machine,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"run seed of the first round (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "scenariosearch" / "cli.py").is_file() or not CONFIG.is_file():
        print(f"no program to benchmark: {SRC / 'scenariosearch'} or {CONFIG} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scenariosearch

    if Path(scenariosearch.__file__).resolve().parent != SRC / "scenariosearch":
        print(f"scenariosearch imported from {scenariosearch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    if args.trace:
        ops, values, detail, error = run_traced(args.workload, args.seed, out)
    else:
        ops, values, detail, error = run_untraced(args.workload, args.seed, args.seconds, out)
    if error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(values):
        missing = {m["name"] for m in wanted} ^ set(values)
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": error is None,
        "attempted": len(ops),
        "failed": sum(op.rc != 0 for op in ops),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(), "machine": machine(),
              "net_source_lines": net_source_lines(), "check_error": error,
              **detail, **result}
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
