"""Line-oriented run configuration.

Format: `[section]` headers, `key = value` pairs, `#` comments.  Every key
has a typed schema entry with a default; unknown keys are errors (no silent
typos), as are duplicates, type mismatches and values outside an enumerated
key's choices.  Keys that configure a dataclass are derived from its fields,
which hold the default, unit and help text, so each default is written once.
The effective configuration (defaults merged with overrides) is echoed to
`effective_config.txt` next to the experiment outputs, so any run is
reproducible from (subcommand, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

from .arm import ArmConfig, ReachTask
from .build import BACKENDS, DEFAULT_REG, EVAL_POINTS_MIN, EVAL_POINTS_PER_NEURON
from .convert import ConversionConfig
from .errors import ConfigError, ConfigTypeError, DuplicateKeyError, UnknownKeyError
from .neurons import DEFAULT_DT, NeuronParams, QuantizationSpec
from .rover import CONTROLLERS as ROVER_CONTROLLERS
from .rover import RoverNetConfig, RoverParams, RoverTaskConfig

GLOBAL = "global"


@dataclass(frozen=True)
class Key:
    type: type
    default: object
    unit: str = ""
    help: str = ""
    choices: tuple = ()  # allowed values; empty = any value of the type
    positive: bool = False  # a duration, size or divisor: must be > 0


def _enum(choices, label=""):
    """A string key restricted to `choices`; the first is the default."""
    return Key(str, choices[0], "", label + " | ".join(choices), choices)


# A section's keys are the fields of its dataclasses that carry "help" or
# "keys" metadata, plus the literal keys in SCHEMA.  Fields named `dt` read
# [global] dt; "positive" metadata makes a key's values > 0.
DATACLASSES = {
    "neurons": (NeuronParams, QuantizationSpec),
    "arm": (ArmConfig, ReachTask),
    "rover": (RoverNetConfig, RoverParams, RoverTaskConfig),
    "convert": (ConversionConfig,),
}


def _field_keys(classes):
    keys = {}
    for cls in classes:
        for f in fields(cls):
            meta = f.metadata
            positive = meta.get("positive", False)
            if "keys" in meta:
                for (key, text), default in zip(meta["keys"].items(), f.default):
                    keys[key] = Key(type(default), default, meta["unit"], text,
                                    positive=positive)
            elif "help" in meta:
                keys[meta.get("key", f.name)] = Key(
                    type(f.default), f.default, meta.get("unit", ""), meta["help"],
                    positive=positive)
    return keys


SCHEMA = {
    GLOBAL: {
        "dt": Key(float, DEFAULT_DT, "s", "simulation timestep", positive=True),
        "seed": Key(int, 0, "", "master seed; per-component streams derive from it"),
        "backend": _enum(BACKENDS),
        "out_dir": Key(str, "out", "", "output directory (CLI --out overrides)"),
    },
    "neurons": {
        **_field_keys(DATACLASSES["neurons"]),
        # solve alone reads these: the rover fits with its own settings
        "reg": Key(float, DEFAULT_REG, "",
                   "decoder regularization, fraction of max rate (solve only)"),
        "eval_points_min": Key(int, EVAL_POINTS_MIN, "",
                               "decoder eval-point floor (solve only)"),
        "eval_points_per_neuron": Key(int, EVAL_POINTS_PER_NEURON, "",
                                      "decoder eval points per neuron (solve only)"),
        "tune_model": _enum(("lif", "relu"), "tune sweep model: "),
        "tune_j_min": Key(float, 0.0, "", "tune sweep lowest input current"),
        "tune_j_max": Key(float, 10.0, "", "tune sweep highest input current"),
        "tune_points": Key(int, 201, "", "tune sweep point count", positive=True),
        "tune_settle": Key(float, 0.5, "s", "tune sweep settling time per point"),
        "tune_window": Key(float, 2.0, "s", "tune sweep measurement window", positive=True),
        "solve_function": _enum(("identity", "square"), "solve target: "),
        "solve_n_neurons": Key(int, 100, "", "solve ensemble size", positive=True),
        "solve_points": Key(int, 101, "", "solve output grid size on [-1, 1]", positive=True),
    },
    "arm": {
        **_field_keys(DATACLASSES["arm"]),
        "emit_trajectory": Key(bool, False, "", "also write arm_traj.csv"),
    },
    "rover": {
        **_field_keys(DATACLASSES["rover"]),
        "controller": _enum(ROVER_CONTROLLERS),
        "bench_preset_small": Key(int, RoverNetConfig.n_neurons, "",
                                  "bench neuron-count preset"),
        "bench_preset_large": Key(int, 4096, "", "bench neuron-count preset"),
        "bench_duration": Key(float, 0.5, "s", "simulated time per bench run",
                              positive=True),
    },
    "convert": {
        **_field_keys(DATACLASSES["convert"]),
        "n_inputs": Key(int, 50, "", "fidelity batch size", positive=True),
        "net_file": Key(str, "", "", "net description file; empty = random net"),
        "layers": Key(str, "8 16 2", "", "random net layer sizes"),
        "input_scale": Key(float, 1.0, "", "random input amplitude"),
    },
}


class RunConfig:
    """Typed key/value store backed by the schema above."""

    def __init__(self, values=None):
        self._values = {s: dict() for s in SCHEMA}
        if values:
            for (section, key), v in values.items():
                self._values[section][key] = v

    def get(self, section, key):
        if key in self._values[section]:
            return self._values[section][key]
        return SCHEMA[section][key].default

    def make(self, cls, **given):
        """An instance of dataclass `cls` (one of DATACLASSES) with every
        keyed field read from its section, `dt` from [global], a field whose
        default is a dataclass instance (one of DATACLASSES) built from that
        class's section, and the fields in `given` as passed.  A value the
        class rejects raises ConfigError naming the section."""
        section = next(s for s, classes in DATACLASSES.items() if cls in classes)
        values = {}
        for f in fields(cls):
            if f.name in given:
                continue
            if f.name == "dt":
                values["dt"] = self.get(GLOBAL, "dt")
            elif is_dataclass(f.default):
                values[f.name] = self.make(type(f.default))
            elif "keys" in f.metadata:
                values[f.name] = tuple(self.get(section, k) for k in f.metadata["keys"])
            elif f.metadata:
                values[f.name] = self.get(section, f.metadata.get("key", f.name))
        try:
            return cls(**values, **given)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    def check_steps(self, section, key):
        """Raise ConfigError unless the duration at (section, key) rounds to
        at least one step of [global] dt, as its runner counts steps."""
        value, dt = self.get(section, key), self.get(GLOBAL, "dt")
        if round(value / dt) < 1:
            raise ConfigError(f"[{section}] {key} must round to at least one step "
                              f"of dt = {dt}, got {value}")

    def set(self, section, key, value):
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise UnknownKeyError(f"unknown key [{section}] {key}")
        self._values[section][key] = value

    def render_effective(self):
        """Full configuration (defaults plus overrides) as config-file text."""
        lines = []
        sections = [GLOBAL] + sorted(s for s in SCHEMA if s != GLOBAL)
        for section in sections:
            if section != GLOBAL:
                lines.append(f"[{section}]")
            for key in sorted(SCHEMA[section]):
                spec = SCHEMA[section][key]
                value = self.get(section, key)
                if spec.type is bool:
                    text = "true" if value else "false"
                else:
                    text = repr(value) if isinstance(value, float) else str(value)
                unit = f"  # {spec.unit}" if spec.unit else ""
                lines.append(f"{key} = {text}{unit}")
            lines.append("")
        return "\n".join(lines)


def _coerce(section, key, raw, lineno):
    spec = SCHEMA[section][key]
    raw = raw.strip()
    try:
        if spec.type is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if spec.type is int:
            if "." in raw or "e" in raw.lower():
                raise ValueError(raw)
            value = int(raw)
            if value < 0 and key != "seed":  # every other int key counts something
                raise ConfigError(f"[{section}] {key} must be >= 0, got {value}")
        elif spec.type is float:
            value = float(raw)
    except ValueError as exc:
        raise ConfigTypeError(
            f"[{section}] {key}: expected {spec.type.__name__}, got {raw!r}",
            line=lineno,
        ) from exc
    if spec.type in (int, float):
        if spec.type is float and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value}")
        if spec.positive and not value > 0:
            raise ConfigError(f"[{section}] {key} must be > 0, got {value}")
        return value
    if spec.choices and raw not in spec.choices:
        raise ConfigTypeError(
            f"[{section}] {key}: expected one of {', '.join(spec.choices)}, "
            f"got {raw!r}", line=lineno)
    return raw


def parse_config(text) -> RunConfig:
    """Parse config-file text; missing keys take their documented defaults."""
    cfg = RunConfig()
    seen = set()
    section = GLOBAL
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA or section == GLOBAL:
                raise UnknownKeyError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigTypeError("expected 'key = value'", line=lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            raise UnknownKeyError(f"unknown key {key!r} in [{section}]", line=lineno)
        if (section, key) in seen:
            raise DuplicateKeyError(f"duplicate key {key!r} in [{section}]", line=lineno)
        seen.add((section, key))
        cfg.set(section, key, _coerce(section, key, raw_value, lineno))
    return cfg


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_reference():
    """Human-readable key listing with defaults and units (for --help)."""
    lines = []
    for section in sorted(SCHEMA):
        lines.append(f"[{section}]")
        for key in sorted(SCHEMA[section]):
            spec = SCHEMA[section][key]
            default = spec.default
            unit = f" [{spec.unit}]" if spec.unit else ""
            lines.append(f"  {key} = {default}{unit}  {spec.help}")
        lines.append("")
    return "\n".join(lines)
