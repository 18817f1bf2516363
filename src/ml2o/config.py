"""Flat INI experiment configuration with strict key checking.

Every key has a default; unknown sections or keys are rejected rather than
silently ignored, and the fully resolved configuration is echoed into the
output directory before any run so results are reproducible from the echo
alone.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .tasks import (
    LASSO,
    MIXTURE,
    NORMAL,
    QUADRATIC,
    ROSENBROCK_INIT,
    TaskDistribution,
    unread_fields,
)
from .train import MetaConfig

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_float_list"]


class ConfigError(Exception):
    """Malformed, unknown or ill-typed configuration input."""


def parse_float_list(text: str) -> tuple[float, ...]:
    """Comma-separated floats; empty items are skipped."""
    return tuple(float(p) for p in text.split(",") if p.strip())


# section -> key -> (default string, parser)
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "meta": {
        "seed": ("1", "int"),
        "hidden": ("20", "int"),
        "unroll_len": ("20", "int"),
        "epochs": ("5000", "int"),
        "epochs_per_task": ("20", "int"),
        "alpha": ("1e-5", "float"),
        "outer": ("adam", "str"),
        "outer_lr": ("1e-4", "float"),
        "sgd_beta": ("0.1", "float"),
        "sgd_mu": ("1.0", "float"),
        "grad_mode": ("fd_hvp_meta", "str"),
        "fd_epsilon": ("", "optfloat"),
    },
    "train": {
        "family": ("lasso", "str"),
        "dist": ("mixture", "str"),
        "sigma": ("1.0", "float"),
        "dim": ("10", "int"),
        "lam": ("0.005", "float"),
    },
    "adapt": {
        "family": ("lasso", "str"),
        "dist": ("normal", "str"),
        "sigma": ("100", "float"),
        "dim": ("10", "int"),
        "lam": ("0.005", "float"),
        "steps": ("5", "int"),
        "alpha": ("", "optfloat"),
        "fresh_task_per_step": ("true", "bool"),
    },
    "test": {
        "family": ("lasso", "str"),
        "dist": ("normal", "str"),
        "sigma": ("100", "float"),
        "dim": ("10", "int"),
        "lam": ("0.005", "float"),
        "horizon": ("200", "int"),
    },
    "eval": {
        "n_seeds": ("10", "int"),
        "n_tasks": ("1", "int"),
        "sigmas": ("10,25,50,100,200", "floatlist"),
        "adapt_sigmas": ("10,25,50,100", "floatlist"),
        "test_sigma": ("100", "float"),
        "interp_alphas": ("0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1", "floatlist"),
        "jobs": ("0", "int"),
    },
}

_PARSERS = {
    "int": int,
    "float": float,
    "str": lambda s: s.strip(),
    "bool": lambda s: {"true": True, "false": False, "1": True, "0": False}[s.strip().lower()],
    "floatlist": parse_float_list,
    "optfloat": lambda s: None if not s.strip() else float(s),
}


@dataclass
class ExperimentConfig:
    """Resolved experiment: training knobs, distributions and eval settings."""

    meta: MetaConfig
    dist_train: TaskDistribution
    dist_adapt: TaskDistribution
    dist_test: TaskDistribution
    adapt_alpha: float | None  # None: the adaptation step is [meta] alpha
    adapt_fresh_per_step: bool
    horizon: int
    n_seeds: int
    n_tasks: int
    sigmas: tuple[float, ...]
    adapt_sigmas: tuple[float, ...]
    test_sigma: float
    interp_alphas: tuple[float, ...]
    jobs: int  # 0: one per core this process may run on
    raw: dict = field(default_factory=dict)
    explicit: set = field(default_factory=set)

    def resolved_text(self) -> str:
        lines = []
        for section in sorted(self.raw):
            lines.append(f"[{section}]")
            for key in sorted(self.raw[section]):
                lines.append(f"{key} = {self.raw[section][key]}")
            lines.append("")
        return "\n".join(lines)

    def echo(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "config.resolved.ini")
        with open(path, "w") as fh:
            fh.write(self.resolved_text())
        return path


def _dist_from(section: dict, name: str, explicit: set) -> TaskDistribution:
    kind, family = section["dist"], section["family"]
    if kind not in (MIXTURE, NORMAL, ROSENBROCK_INIT):
        raise ConfigError(f"[{name}] dist must be mixture, normal or rosenbrock, got {kind!r}")
    if kind != ROSENBROCK_INIT and family not in (LASSO, QUADRATIC):
        raise ConfigError(f"[{name}] family must be lasso or quadratic, got {family!r}")
    for key, reason in unread_fields(kind, family).items():
        if (name, key) in explicit:
            raise ConfigError(f"[{name}] {key} is not read by {reason}; remove it")
    if kind == ROSENBROCK_INIT:
        return TaskDistribution(kind=kind)
    fields = {k: section[k] for k in ("family", "dim", "lam", "sigma")}
    try:
        return TaskDistribution(kind=kind, **fields)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse, validate and resolve an INI experiment file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # No header can name the empty section, so a [DEFAULT] section is an
    # unknown section like any other instead of defaults for every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values: dict[str, dict] = {}
    raw: dict[str, dict] = {}
    explicit: set = set()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}] in {path}; "
                f"known sections: {', '.join(sorted(_SCHEMA))}"
            )
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}] of {path}; "
                    f"known keys: {', '.join(sorted(_SCHEMA[section]))}"
                )
            explicit.add((section, key))

    for section, keys in _SCHEMA.items():
        values[section] = {}
        raw[section] = {}
        for key, (default, typ) in keys.items():
            text = parser.get(section, key, fallback=default)
            try:
                values[section][key] = _PARSERS[typ](text)
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key} = {text!r}: expected {typ}"
                ) from exc
            raw[section][key] = text.strip()

    if values["adapt"]["steps"] < 0:
        raise ConfigError(f"[adapt] steps must be >= 0, got {values['adapt']['steps']}")
    # [meta] keys are MetaConfig's field names, save `outer` for `outer_rule`
    meta_fields = {"outer_rule" if k == "outer" else k: v for k, v in values["meta"].items()}
    try:
        meta = MetaConfig(**meta_fields, adapt_steps=values["adapt"]["steps"])
    except ValueError as exc:
        raise ConfigError(f"[meta] {exc}") from exc

    # the echo leaves out the keys that no sampler reads, which a config may not set
    for name in ("train", "adapt", "test"):
        for key in unread_fields(values[name]["dist"], values[name]["family"]):
            del raw[name][key]
    cfg = ExperimentConfig(
        meta=meta,
        dist_train=_dist_from(values["train"], "train", explicit),
        dist_adapt=_dist_from(values["adapt"], "adapt", explicit),
        dist_test=_dist_from(values["test"], "test", explicit),
        adapt_alpha=values["adapt"]["alpha"],
        adapt_fresh_per_step=values["adapt"]["fresh_task_per_step"],
        horizon=values["test"]["horizon"],
        **values["eval"],
        raw=raw,
        explicit=explicit,
    )
    if cfg.horizon < 1:
        raise ConfigError(f"[test] horizon must be >= 1, got {cfg.horizon}")
    if cfg.n_seeds < 1:
        raise ConfigError(f"[eval] n_seeds must be >= 1, got {cfg.n_seeds}")
    if cfg.n_tasks < 1:
        raise ConfigError(f"[eval] n_tasks must be >= 1, got {cfg.n_tasks}")
    return cfg
