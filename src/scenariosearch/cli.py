"""Command-line interface.

Subcommands:
  enumerate  full-grid ground-truth map -> oracle.csv
  search     one (algorithm, seed) campaign -> evaluation log CSV
  compare    full experiment bundle -> summary/operators/distribution CSVs
  report     text table of P and coverage from a compare output directory

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ALGORITHMS, load_config
from .experiment import (
    render_report,
    run_experiment,
    run_search,
    write_log,
    write_oracle,
)
from .oracle import brute_force_oracle
from .space import ConfigurationError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenariosearch",
        description="Search for safety-critical rear-end test scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="evaluate the full scenario grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("search", help="run one search campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="run all configured algorithms and seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="summarize a compare output directory")
    p.add_argument("--in", dest="in_dir", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed --help or its usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        # a file in --out's way fails here, before any evaluation; report has no --out
        path = os.path.abspath(getattr(args, "out", "/"))
        while not os.path.exists(path):
            path = os.path.dirname(path)
        if not os.path.isdir(path):
            raise ConfigurationError(f"--out: {path} is not a directory")
        if args.command == "enumerate":
            config = load_config(args.config)
            print(f"{config.space.cardinality} scenarios")
            gttc = brute_force_oracle(
                config.space, config.sim, config.ego, config.oracle_seed,
                config.workers if args.workers is None else args.workers,
            )
            path = write_oracle(config.space, gttc, args.out)
            print(f"wrote {path}")
        elif args.command == "search":
            if args.seed < 0:
                raise ConfigurationError(f"--seed: negative seed {args.seed}")
            config = load_config(args.config)
            result = run_search(config, args.algo, args.seed)
            path = write_log(result, args.out, args.algo, args.seed)
            print(f"wrote {path} ({result.n_evaluations} evaluations)")
            if result.failure:
                print(f"run flagged invalid: {result.failure}", file=sys.stderr)
                return EXIT_RUNTIME
        elif args.command == "compare":
            config = load_config(args.config)
            outcomes = run_experiment(config, args.out)
            print(f"wrote bundle to {args.out} ({len(outcomes)} runs)")
            failures = {key: failure for key, failure in outcomes.items() if failure}
            for (algorithm, seed), failure in failures.items():
                print(f"{algorithm} seed {seed}: run flagged invalid: {failure}",
                      file=sys.stderr)
            if failures:
                return EXIT_RUNTIME
        elif args.command == "report":
            print(render_report(args.in_dir))
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
