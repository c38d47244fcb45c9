"""Experiment configuration: a flat INI-style `key = value` file with one
section per subsystem. See configs/default.cfg for the documented schema."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .alvns import SearchConfig
from .baselines import GAConfig
from .oracle import resolve_workers
from .sim import EgoControllerConfig, SimConfig
from .space import PARAM_NAMES, ConfigurationError, ParamSpec, ScenarioSpace

ALGORITHMS = ("alvns-sa", "alns-sa", "ga", "random")
SECTIONS = ("space", "run", "sim", "ego", "alvns_sa", "ga")


@dataclass(frozen=True)
class ExperimentConfig:
    """The grid, the simulator, the searches' hyperparameters and the [run]
    facts. The [run] rules are checked here, so a config built in Python or
    by dataclasses.replace is rejected just as a config file is."""

    space: ScenarioSpace
    sim: SimConfig = SimConfig()
    ego: EgoControllerConfig = EgoControllerConfig()
    search: SearchConfig = SearchConfig()
    ga: GAConfig = GAConfig()
    algorithms: tuple[str, ...] = ALGORITHMS
    seeds: tuple[int, ...] = (1,)
    budget: int = 11_000
    oracle_seed: int = 0
    workers: int = 0

    def __post_init__(self):
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                raise ConfigurationError(f"[run] algorithms: unknown {algorithm!r}")
        for name, values in (("algorithms", self.algorithms), ("seeds", self.seeds)):
            if not values:
                raise ConfigurationError(f"[run] {name}: at least one is required")
            if len(set(values)) < len(values):
                raise ConfigurationError(f"[run] {name}: duplicate entries in {values}")
        for seed in (*self.seeds, self.oracle_seed):
            if seed < 0:
                raise ConfigurationError(f"[run] negative seed {seed}")
        if not 1 <= self.budget <= self.space.cardinality:
            raise ConfigurationError(
                f"[run] budget {self.budget} must be in [1, {self.space.cardinality}]")
        resolve_workers(self.workers)


def _parse_axis(name: str, text: str) -> ParamSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(
            f"[space] {name}: expected start:step:levels, got {text!r}")
    try:
        return ParamSpec(name, float(parts[0]), float(parts[1]), int(parts[2]))
    except ConfigurationError as exc:  # ParamSpec's own error names the axis
        raise ConfigurationError(f"[space] {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"[space] {name}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path):
            raise ConfigurationError(f"config file not found: {path}")
        return _build(parser)
    except ConfigurationError:
        raise
    except (configparser.Error, KeyError, ValueError) as exc:
        raise ConfigurationError(f"invalid config {path}: {exc}") from exc


def _check_keys(parser: configparser.ConfigParser, section: str, known) -> None:
    unknown = [key for key in parser[section] if key not in known]
    if unknown:
        raise ConfigurationError(f"[{section}] unknown key(s): {', '.join(unknown)}")


def _convert(default, text: str):
    """text as the type of a field's default; a tuple is comma-separated."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(s.strip()) for s in text.split(",") if s.strip())
    return type(default)(text)


def _read_section(parser: configparser.ConfigParser, section: str, cls, **given):
    """cls built from the section. Its keys are the fields of cls not given
    here; an omitted key keeps the field's default. cls itself rejects a
    value that is out of range or not finite."""
    defaults = {f.name: f.default for f in fields(cls) if f.name not in given}
    if parser.has_section(section):
        _check_keys(parser, section, defaults)
        given.update((key, _convert(defaults[key], text))
                     for key, text in parser[section].items())
    return cls(**given)


def _build(parser: configparser.ConfigParser) -> ExperimentConfig:
    unknown = [s for s in parser.sections() if s not in SECTIONS]
    if unknown:
        raise ConfigurationError(f"unknown section(s): {', '.join(unknown)}")
    missing = [s for s in ("space", "run") if not parser.has_section(s)]
    if missing:
        raise ConfigurationError(f"missing section(s): {', '.join(missing)}")

    _check_keys(parser, "space", PARAM_NAMES)
    space = ScenarioSpace([_parse_axis(name, parser["space"].get(name, ""))
                           for name in PARAM_NAMES])
    return _read_section(
        parser, "run", ExperimentConfig, space=space,
        sim=_read_section(parser, "sim", SimConfig),
        ego=_read_section(parser, "ego", EgoControllerConfig),
        search=_read_section(parser, "alvns_sa", SearchConfig),
        # GA's budget comes from [run], so [ga] does not take it; it stays a
        # GAConfig field because the benchmark's tracer reads it from
        # run_ga's first argument
        ga=_read_section(parser, "ga", GAConfig, budget=GAConfig.budget))
