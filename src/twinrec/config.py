"""Flat key=value run configuration with strict key checking.

A config file holds one ``key = value`` pair per line (``#`` comments
allowed); unknown keys are rejected. Individual keys can be overridden on
the command line. The resolved config is hashed and echoed into every
output artifact for provenance.
"""

from __future__ import annotations

import hashlib
import math

from .model import VARIANTS

# key -> (type, default)
SCHEMA = {
    "dim": (int, 128),
    "kernel_size": (int, 5),
    "heads": (int, 2),
    "layers": (int, 1),
    "max_len": (int, 50),
    "tables": (int, 2),
    "m1": (int, 2),
    "l2": (float, 1e-5),
    "lr": (float, 0.001),
    "batch_size": (int, 256),
    "epochs": (int, 10),
    "seed": (int, 0),
    "variant": (str, "full"),
    "patience": (int, 10),
    "data": (str, ""),          # input interaction TSV (prepare-data)
    "workspace": (str, "out"),  # output / artifact directory
    "vocab_size": (int, 0),     # 0 = derive from prepared workspace
    "contexts": (int, 0),       # 0 = derive from prepared workspace
}


class ConfigError(ValueError):
    pass


def _parse_value(key, raw):
    typ, _ = SCHEMA[key]
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}") from e


def load_config(path=None, overrides=()):
    """Resolve defaults, an optional config file, then key=value overrides."""
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                cfg[key] = _parse_value(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"override: unknown config key {key!r}")
        cfg[key] = _parse_value(key, raw)
    validate(cfg)
    return cfg


def validate(cfg):
    if cfg["variant"] not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {cfg['variant']!r}")
    for key in ("dim", "kernel_size", "heads", "layers", "max_len", "tables", "m1",
                "batch_size", "patience"):
        if cfg[key] < 1:
            raise ConfigError(f"config key {key!r} must be positive, got {cfg[key]}")
    if cfg["kernel_size"] % 2 == 0:
        raise ConfigError("kernel_size must be odd")
    if not 0 < cfg["lr"] < math.inf or not 0 <= cfg["l2"] < math.inf or cfg["epochs"] < 0:
        raise ConfigError(f"lr must be positive and finite (got {cfg['lr']}), l2 finite and "
                          f"non-negative (got {cfg['l2']}), epochs non-negative")


def config_hash(cfg):
    canon = "\n".join(f"{key}={cfg[key]}" for key in sorted(cfg))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
