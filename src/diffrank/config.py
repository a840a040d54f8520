"""Flat key=value run configuration.

One schema covers every command: data paths, model size, schedule,
loss, optimizer, sampler, and report settings. Values resolve in
precedence order defaults < preset < config file < --set overrides, and
unknown keys are rejected everywhere. Helper builders turn the resolved
mapping into the typed config objects the library consumes.

Config files are plain text: `key = value` per line, `#` comments.
Environment variables are never consulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .losses import LossSpec
from .metrics import DEFAULT_CUTOFFS
from .network import ModelConfig
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


def _identity(text: str) -> str:
    return text.strip()


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


# key -> (parser, default). Defaults mirror the recommended Web30K
# configuration; presets below override the dataset-specific rows.
SCHEMA: dict = {
    # artifact paths
    "train_cache": (_identity, ""),
    "valid_cache": (_identity, ""),
    "test_cache": (_identity, ""),
    "out_dir": (_identity, "diffrank_out"),
    # model
    "d_model": (_parse_int, 128),
    "heads": (_parse_int, 4),
    "blocks": (_parse_int, 3),
    "denoise_layers": (_parse_int, 2),
    "dropout": (_parse_float, 0.1),
    "use_attention": (_parse_bool, True),
    # diffusion schedule
    "schedule": (_identity, "trunclinear"),
    "timesteps": (_parse_int, 1000),
    # loss
    "loss": (_identity, "listnet"),
    "t_smooth": (_parse_float, 1.0),
    "mu": (_parse_float, 10.0),
    "sigma": (_parse_float, 1.0),
    # optimizer / loop
    "epochs": (_parse_int, 200),
    "batch_size": (_parse_int, 128),
    "lr": (_parse_float, 1e-3),
    "beta1": (_parse_float, 0.9),
    "beta2": (_parse_float, 0.999),
    "adam_eps": (_parse_float, 1e-8),
    "weight_decay": (_parse_float, 0.01),
    "eval_every": (_parse_int, 10),
    "eval_reverse_steps": (_parse_int, 8),
    "max_list_size": (_parse_int, 512),
    "dtype": (_identity, "float32"),
    "seed": (_parse_int, 0),
    # inference / reports
    "reverse_steps": (_parse_int, 8),
    "cutoffs": (_parse_cutoffs, DEFAULT_CUTOFFS),
    "rsd_cutoffs": (_parse_int_cutoffs, (1, 5, 10, 20)),
    "repeat": (_parse_int, 10),
    "zero_variance": (_parse_bool, False),
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

    def model_config(self, k: int) -> ModelConfig:
        """Model settings for k input features (the data's own width)."""
        return ModelConfig(
            k=k,
            d_model=self.values["d_model"],
            heads=self.values["heads"],
            blocks=self.values["blocks"],
            denoise_layers=self.values["denoise_layers"],
            dropout_p=self.values["dropout"],
            use_attention=self.values["use_attention"],
        )

    def schedule_spec(self) -> ScheduleSpec:
        return ScheduleSpec(
            kind=self.values["schedule"], timesteps=self.values["timesteps"]
        )

    def loss_spec(self) -> LossSpec:
        return LossSpec(
            name=self.values["loss"],
            t_smooth=self.values["t_smooth"],
            mu=self.values["mu"],
            sigma=self.values["sigma"],
        )

    def train_config(self, k: int) -> TrainConfig:
        return TrainConfig(
            model=self.model_config(k),
            schedule=self.schedule_spec(),
            loss=self.loss_spec(),
            epochs=self.values["epochs"],
            batch_size=self.values["batch_size"],
            lr=self.values["lr"],
            beta1=self.values["beta1"],
            beta2=self.values["beta2"],
            adam_eps=self.values["adam_eps"],
            weight_decay=self.values["weight_decay"],
            eval_every=self.values["eval_every"],
            eval_reverse_steps=self.values["eval_reverse_steps"],
            max_list_size=self.values["max_list_size"],
            seed=self.values["seed"],
            dtype=self.values["dtype"],
        )

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
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(lines, start=1):
        body = line.partition("#")[0].strip()
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
    return RunConfig(values=values)
