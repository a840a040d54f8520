"""Flat key=value run configuration.

One schema covers every command. The typed configs (ModelConfig,
ScheduleSpec, LossSpec, TrainConfig, SamplerConfig) are the only home of
their settings: each field with a default is the key of the same name,
with that default, parsed by the field's annotated type. dropout_p, kind
and name keep their field names, which checkpoint headers and library
callers use, under the keys `dropout`, `schedule` and `loss`. The schema
itself declares only the paths and report settings no typed config owns.

Values resolve in precedence order defaults < preset < config file <
--set overrides, and unknown keys are rejected everywhere. Resolving
builds every typed config, so every command rejects every bad value.

Config files are plain UTF-8 text, `key = value` per line; `#` starts a
comment at the start of a line or after whitespace, so a string value
holding a line break, or a `#` at its start or after whitespace, is
refused wherever it is set: config.txt could not carry it back. Environment
variables are never consulted.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError, DataError
from .losses import LossSpec
from .metrics import DEFAULT_CUTOFFS
from .network import ModelConfig
from .sampling import SamplerConfig
from .schedule import ScheduleSpec
from .training import TrainConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_cutoffs(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.upper() == "ALL":
            out.append("ALL")
            continue
        try:
            value = int(part)
        except ValueError as e:
            raise ConfigError(f"cutoff {part!r} is neither an integer nor ALL") from e
        if value < 1:
            raise ConfigError(f"cutoffs must be positive, got {value}")
        out.append(value)
    if not out:
        raise ConfigError("cutoff list is empty")
    return tuple(out)


def _parse_int_cutoffs(text: str) -> tuple:
    cutoffs = _parse_cutoffs(text)
    if any(k == "ALL" for k in cutoffs):
        raise ConfigError("this cutoff list accepts integers only")
    return cutoffs


# a comment starts at the start of a line or after whitespace, never
# inside a value such as runs/exp#3
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_str(text: str) -> str:
    """A string value, refused when config.txt could not carry it back."""
    value = text.strip()
    if "\n" in value or "\r" in value:
        raise ConfigError(
            f"{value!r} holds a line break, which would end its config file line"
        )
    if _COMMENT.search(value):
        raise ConfigError(
            f"{value!r} holds a '#' at its start or after whitespace, "
            "which would start a config file comment"
        )
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{value!r} is not UTF-8 text, as config files are") from None
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as e:
        raise ConfigError(f"expected an integer, got {text!r}") from e


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as e:
        raise ConfigError(f"expected a number, got {text!r}") from e
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool, "str": _parse_str}

# field -> key where the two differ
_RENAMED = {"dropout_p": "dropout", "kind": "schedule", "name": "loss"}


def _owned(cls) -> list:
    """(key, field) for each field of a typed config that has a default."""
    return [(_RENAMED.get(f.name, f.name), f) for f in fields(cls) if f.default is not MISSING]


# key -> (parser, default). Defaults mirror the recommended Web30K
# configuration; presets below override the dataset-specific rows.
SCHEMA: dict = {
    # artifact paths
    "train_cache": (_parse_str, ""),
    "valid_cache": (_parse_str, ""),
    "test_cache": (_parse_str, ""),
    "out_dir": (_parse_str, "diffrank_out"),
    # every defaulted field of the typed configs
    **{
        key: (_PARSERS[f.type], f.default)
        for cls in (ModelConfig, ScheduleSpec, LossSpec, TrainConfig, SamplerConfig)
        for key, f in _owned(cls)
    },
    # reports
    "cutoffs": (_parse_cutoffs, DEFAULT_CUTOFFS),
    "rsd_cutoffs": (_parse_int_cutoffs, (1, 5, 10, 20)),
    "repeat": (_parse_int, 10),
}

PRESETS: dict[str, dict[str, str]] = {
    "web30k": {
        "schedule": "trunclinear",
        "timesteps": "1000",
        "denoise_layers": "2",
        "use_attention": "true",
        "loss": "listnet",
    },
    "yahoo": {
        "schedule": "trunclinear",
        "timesteps": "1000",
        "denoise_layers": "4",
        "use_attention": "true",
        "loss": "mse",
    },
    "istella": {
        "schedule": "trunclinear",
        "timesteps": "600",
        "denoise_layers": "8",
        "use_attention": "true",
        "loss": "mse",
    },
}


@dataclass(frozen=True)
class RunConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def _build(self, cls, **given):
        """A typed config from its keys' resolved values plus `given` fields."""
        return cls(**given, **{f.name: self.values[key] for key, f in _owned(cls)})

    def train_config(self, k: int) -> TrainConfig:
        """Training settings for k input features (the data's own width)."""
        return self._build(
            TrainConfig,
            model=self._build(ModelConfig, k=k),
            schedule=self._build(ScheduleSpec),
            loss=self._build(LossSpec),
            sampler=self.sampler_config(),
        )

    def sampler_config(self) -> SamplerConfig:
        return self._build(SamplerConfig)

    def snapshot_text(self) -> str:
        """Complete key=value dump; feeding it back reproduces the run."""
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"


def _assign(values: dict, key: str, raw: str, origin: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r} ({origin})")
    parser, _ = SCHEMA[key]
    try:
        values[key] = parser(raw)
    except ConfigError as e:
        raise ConfigError(f"bad value for {key!r} ({origin}): {e}") from e


def parse_config_file(path: str) -> dict[str, str]:
    """Raw key -> value strings from a config file; duplicates rejected."""
    raw: dict[str, str] = {}
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise DataError(f"cannot read config file {path}: {e.strerror or e}") from None
    for lineno, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}:{lineno}: not UTF-8 text ({e.reason})") from None
        body = _COMMENT.split(text, maxsplit=1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {body!r}")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(
    preset: str | None = None,
    config_path: str | None = None,
    overrides: list[str] | None = None,
) -> RunConfig:
    """Merge defaults, preset, file, and --set overrides (later wins)."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        for key, raw in PRESETS[preset].items():
            _assign(values, key, raw, origin=f"preset {preset}")
    if config_path is not None:
        for key, raw in parse_config_file(config_path).items():
            _assign(values, key, raw, origin=config_path)
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        _assign(values, key.strip(), raw.strip(), origin="--set")
    config = RunConfig(values=values)
    # every command checks every typed setting, used or not
    config.train_config(k=1)
    return config
