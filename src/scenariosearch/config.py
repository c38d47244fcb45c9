"""Experiment configuration: a flat INI-style `key = value` file with one
section per subsystem. See configs/default.cfg for the documented schema."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .alvns import SearchConfig
from .baselines import GAConfig
from .sim import EgoControllerConfig, SimConfig
from .space import PARAM_NAMES, ConfigurationError, ParamSpec, ScenarioSpace, build_space

ALGORITHMS = ("alvns-sa", "alns-sa", "ga", "random")
RUN_KEYS = ("algorithms", "seeds", "budget", "oracle_seed", "workers")
# Sections read through a dataclass; budget and seed come from [run].
DATACLASS_SECTIONS = {
    "sim": SimConfig,
    "ego": EgoControllerConfig,
    "alvns_sa": SearchConfig,
    "ga": GAConfig,
}


@dataclass(frozen=True)
class ExperimentConfig:
    space: ScenarioSpace
    sim: SimConfig
    ego: EgoControllerConfig
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...]
    budget: int
    oracle_seed: int = 0
    workers: int = 0
    sa_params: dict = field(default_factory=dict)
    ga_params: dict = field(default_factory=dict)

    def search_config(self, seed: int) -> SearchConfig:
        return SearchConfig(budget=self.budget, seed=seed, **self.sa_params)

    def ga_config(self, seed: int) -> GAConfig:
        return GAConfig(budget=self.budget, seed=seed, **self.ga_params)


def _parse_axis(name: str, text: str) -> ParamSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(
            f"[space] {name}: expected start:step:levels, got {text!r}")
    try:
        return ParamSpec(name, float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigurationError(f"[space] {name}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    try:
        return _build(parser)
    except (configparser.Error, KeyError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"invalid config {path}: {exc}") from exc


def _check_keys(parser: configparser.ConfigParser, section: str, known) -> None:
    unknown = [key for key in parser[section] if key not in known]
    if unknown:
        raise ConfigurationError(f"[{section}] unknown key(s): {', '.join(unknown)}")


def _read_section(parser: configparser.ConfigParser, section: str) -> dict:
    """Every field of the section's dataclass: each given key converted with
    the type of the field's default, the default for each omitted one. The
    dataclass itself rejects a value that is out of range or not finite."""
    values = {f.name: f.default for f in fields(DATACLASS_SECTIONS[section])
              if f.name not in ("budget", "seed")}
    if parser.has_section(section):
        _check_keys(parser, section, values)
        for key, text in parser[section].items():
            values[key] = type(values[key])(text)
    return values


def _build(parser: configparser.ConfigParser) -> ExperimentConfig:
    unknown = [s for s in parser.sections()
               if s not in ("space", "run", *DATACLASS_SECTIONS)]
    if unknown:
        raise ConfigurationError(f"unknown section(s): {', '.join(unknown)}")

    _check_keys(parser, "space", PARAM_NAMES)
    space_sec = parser["space"]
    specs = [_parse_axis(name, space_sec[name]) for name in PARAM_NAMES]
    space = build_space(specs)

    _check_keys(parser, "run", RUN_KEYS)
    run_sec = parser["run"]
    algorithms = tuple(
        a.strip() for a in run_sec.get("algorithms", ",".join(ALGORITHMS)).split(",")
        if a.strip()
    )
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {algo!r}")
    if not algorithms:
        raise ConfigurationError("at least one algorithm must be enabled")
    seeds = tuple(int(s) for s in run_sec.get("seeds", "1").split(",") if s.strip())
    if not seeds:
        raise ConfigurationError("at least one seed is required")
    if min(seeds) < 0:
        raise ConfigurationError(f"[run] seeds: negative seed {min(seeds)}")
    for name, values in (("algorithm", algorithms), ("seed", seeds)):
        if len(set(values)) < len(values):
            raise ConfigurationError(f"[run] {name}s: duplicate entries in {values}")
    budget = int(run_sec.get("budget", 11000))
    if not 1 <= budget <= space.cardinality:
        raise ConfigurationError(
            f"budget {budget} must be in [1, {space.cardinality}]")

    workers = int(run_sec.get("workers", 0))
    if workers < 0:
        raise ConfigurationError(f"[run] workers: {workers} is negative (0 = one per CPU)")
    config = ExperimentConfig(
        space=space,
        sim=SimConfig(**_read_section(parser, "sim")),
        ego=EgoControllerConfig(**_read_section(parser, "ego")),
        algorithms=algorithms,
        seeds=seeds,
        budget=budget,
        oracle_seed=int(run_sec.get("oracle_seed", 0)),
        workers=workers,
        sa_params=_read_section(parser, "alvns_sa"),
        ga_params=_read_section(parser, "ga"),
    )
    # build the search configs once, so that a bad value fails at load
    config.search_config(seeds[0])
    config.ga_config(seeds[0])
    return config
