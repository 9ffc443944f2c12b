"""Run configuration: INI-style key = value files with strict schema checks.

A file is [section] headers and key = value lines, sections and keys spelled
exactly as in SCHEMA, with # and ; comments and values that continue on
indented lines; nothing else: no [DEFAULT], no % interpolation, no ':'.
Unknown sections or keys are rejected; every key has a typed default, so an
empty file is a valid (reference-like) configuration.  The [phy], [traffic],
[pathloss] and [simulate] sections are the records PhyParams, QueueParams,
PathlossModel and EpisodeParams: their keys are the record's fields, in
field order, parsed by the field's type, with the record's defaults, and
each section builds its record whole, which checks its ranges and choices.
A key of [solver], [scheduler] or [deployment] that a record or function
takes as a parameter gets its parser and default from it the same way
(_params); only isd_units, k, the dead noise_norm and gradient_model,
[sweep] and [output] have theirs written here.
Every other per-key check is its owner's too, run at load with the key's
section named: the solve's for [solver] (solver.check_iteration,
solver.check_noise_and_gain, fields.terminal_value, fields.initial_density)
and the draw's for [deployment] (deployment.check_deployment).  The config
itself checks only what no other code does or what spans sections.
The environment variable UDNSIM_OUTDIR overrides the output directory
without touching the file.
"""

from __future__ import annotations

import configparser
import inspect
import math
import os
from dataclasses import dataclass, field
from typing import get_type_hints

from .deployment import check_deployment, generate_deployment
from .errors import ConfigError
from .fields import GridSpec, initial_density, terminal_value
from .phy import PathlossModel, PhyParams, QueueParams
from .scheduler import DppParams
from .simulate import EpisodeParams, run_episodes
from .solver import check_iteration, check_noise_and_gain, solve_mfg

OUTDIR_ENV = "UDNSIM_OUTDIR"

# sweep key -> the [section] key each of its values sets (v sets v_coeff = -|v|)
SWEEP_KEYS = {"isd": ("deployment", "isd_units"), "k": ("deployment", "k"),
              "v": ("scheduler", "v_coeff"), "boundary": ("solver", "boundary"),
              "rate": ("traffic", "arrival_rate_bps")}


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _float(text: str) -> float:
    """A float key's value: any finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _params(owner, *names) -> dict:
    """Keys for the parameters names of owner, a record or a function (all
    of them if none is named), in that order: each with the parameter's
    default, parsed by its type, int, str and bool as such and any other as
    a finite float."""
    params = inspect.signature(owner).parameters
    types = get_type_hints(owner)
    return {name: ({int: int, str: str, bool: _bool}.get(types[name], _float),
                   params[name].default) for name in names or params}


def _prefixed(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ConfigError it raises gets prefix, naming what set the value."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{prefix} {exc}") from None


# section -> key -> (parser, default); values checked after parsing
SCHEMA = {
    # [phy] sbs_density reaches PhyParams, which checks it, but feeds no
    # solve: each solve replaces it with a deployment's eta, as it takes
    # the noise from that deployment and not [solver] noise_norm.  Both keys
    # stay because unknown keys are rejected and bench/configs/reference.cfg
    # still sets them.
    "phy": _params(PhyParams),
    "traffic": _params(QueueParams),
    "pathloss": _params(PathlossModel),
    "solver": {
        **_params(GridSpec),
        **_params(solve_mfg, "boundary", "damping", "tol", "max_iters", "init"),
        # feeds no solve; see the comment on [phy]
        "noise_norm": (_float, 0.03),
        **_params(solve_mfg, "mean_sq_gain"),
        **_params(initial_density, "rho0_mean", "rho0_variance"),
    },
    "scheduler": {
        **_params(DppParams, "v_coeff"),
        # one model only (the EE penalty; V = 0 drops it); the key stays
        # because unknown keys are rejected and bench/configs/reference.cfg
        # still sets it
        "gradient_model": (str, "linear_ee"),
        **_params(run_episodes, "qos_min_rate_bps"),
    },
    "deployment": {
        "isd_units": (_float, 3.5),
        "k": (int, 5),
        **_params(generate_deployment, "area_km2", "jitter_frac", "fading",
                  "cross_isolation_db", "rician_k_db"),
    },
    "simulate": _params(EpisodeParams),
    "sweep": {
        "key": (str, ""),
        "values": (str, ""),
    },
    "output": {
        "dir": (str, "out"),
    },
}

@dataclass
class RunConfig:
    phy: PhyParams
    queue: QueueParams
    pathloss: PathlossModel
    grid: GridSpec
    dpp: DppParams
    episode: EpisodeParams
    raw: dict = field(default_factory=dict)
    output_dir: str = "out"

    @property
    def boundary(self) -> str:
        return self.raw["solver"]["boundary"]

    def with_value(self, key: str, value) -> RunConfig:
        """This config with the swept key set to value, built and checked
        as a config file that sets it."""
        section, name = SWEEP_KEYS[key]
        raw = {sec: dict(keys) for sec, keys in self.raw.items()}
        raw[section][name] = -abs(value) if key == "v" else value
        return _build(raw)

    def sweep_values(self):
        """The [sweep] key and its typed values.  Every value is parsed as
        the config key it sets and every swept config is built, so a bad
        value raises ConfigError before any work."""
        key = self.raw["sweep"]["key"]
        text = self.raw["sweep"]["values"]
        if not key:
            raise ConfigError("config has no [sweep] key")
        items = [v.strip() for v in text.split(",") if v.strip()]
        if not items:
            raise ConfigError("config has no [sweep] values")
        section, name = SWEEP_KEYS[key]
        parse = SCHEMA[section][name][0]
        try:
            values = [parse(v) for v in items]
        except ValueError:
            raise ConfigError(
                f"[sweep] values for {key!r} must be finite numbers: {text!r}") from None
        for value in values:
            _prefixed(f"[sweep] {key} = {value!r}:", self.with_value, key, value)
        return key, values


def load_config(path=None) -> RunConfig:
    """Parse, type-check and assemble a run configuration.

    path None loads pure defaults.  A file holds SCHEMA's sections and keys
    as spelled, key = value lines, # and ; comments (inline too) and
    multi-line values, and nothing else.  Raises ConfigError on anything
    else, type errors, bad choices or inconsistent parameter values; of
    several faults in the file, the first in file order.
    """
    raw = {section: {key: default for key, (_, default) in keys.items()}
           for section, keys in SCHEMA.items()}
    if path is None:
        return _build(raw)
    # no header can name the default section "", so [DEFAULT] is an unknown one
    parser = configparser.ConfigParser(delimiters="=", inline_comment_prefixes=("#", ";"),
                                       default_section="", interpolation=None)
    parser.optionxform = str
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, text in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                try:
                    raw[section][key] = SCHEMA[section][key][0](text)
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return _build(raw)


def _build(raw: dict) -> RunConfig:
    """The run configuration of typed values (section -> key -> value):
    runs each key's owner's check, naming its section, and the checks that
    no other code makes, and assembles the typed records."""
    for section, key, choices in (("scheduler", "gradient_model", ("linear_ee",)),
                                  ("sweep", "key", ("",) + tuple(SWEEP_KEYS))):
        if raw[section][key] not in choices:
            raise ConfigError(
                f"[{section}] {key} must be one of {choices}, got {raw[section][key]!r}")
    if raw["scheduler"]["qos_min_rate_bps"] < 0:
        raise ConfigError("[scheduler] qos_min_rate_bps must be nonnegative")
    outdir = os.environ.get(OUTDIR_ENV, raw["output"]["dir"])
    if not outdir:
        raise ConfigError(f"the output directory ([output] dir, or {OUTDIR_ENV} if set) is empty")

    # each record checks its own ranges; its error names the section
    s = raw["solver"]
    cfg = RunConfig(*(_prefixed(f"[{section}]", make, **kwargs) for section, make, kwargs in (
        ("phy", PhyParams, raw["phy"]), ("traffic", QueueParams, raw["traffic"]),
        ("pathloss", PathlossModel, raw["pathloss"]),
        ("solver", GridSpec, {k: s[k] for k in _params(GridSpec)}),
        ("scheduler", DppParams, {"v_coeff": raw["scheduler"]["v_coeff"]}),
        ("simulate", EpisodeParams, raw["simulate"]))), raw=raw, output_dir=outdir)
    _prefixed("[solver]", check_iteration, s["damping"], s["tol"], s["max_iters"], s["init"])
    _prefixed("[solver]", check_noise_and_gain, s["noise_norm"], s["mean_sq_gain"])
    _prefixed("[solver]", terminal_value, s["boundary"], cfg.grid.queues)
    _prefixed("[solver]", initial_density, cfg.grid, s["rho0_mean"], s["rho0_variance"])
    n_side = _prefixed("[deployment]", check_deployment, **raw["deployment"])
    period_s = cfg.episode.slots_per_period * cfg.queue.slot_duration_s
    if not math.isclose(period_s, cfg.grid.horizon_s, rel_tol=1e-9):
        raise ConfigError(f"the simulated period (slots_per_period x slot_duration_s = "
                          f"{period_s:g} s) must equal the solved one, [solver] horizon_s")
    # bit counts are int64: all buffers full plus an episode's mean arrivals stay below 2**62
    n_ue = n_side ** 2 * raw["deployment"]["k"]
    bits = (cfg.queue.capacity_bits
            + cfg.queue.arrival_rate_bps * cfg.episode.n_periods * period_s) * n_ue
    if bits > 2 ** 62:
        raise ConfigError(f"[traffic] capacity_bits and arrival_rate_bps allow {bits:.3g} bits in "
                          f"an episode of {n_ue} UEs, past 2**62: bit counts are int64")
    return cfg
