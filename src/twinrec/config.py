"""Flat key=value run configuration with strict key checking.

A config file holds one ``key = value`` pair per line; a ``#`` at the start
of a line or after whitespace starts a comment. Unknown keys are rejected.
Individual keys can be overridden on the command line. The resolved config
is hashed and echoed into every output artifact for provenance.

Every field of ``ModelConfig`` except the item and context counts, and
every field of ``TrainConfig``, is one config key; the dataclasses own each
setting's type, default and checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re

from .model import ModelConfig
from .training import TrainConfig

# Config keys that differ from their field's name: field -> key.
_RENAMED = {"n_heads": "heads", "n_layers": "layers", "n_tables": "tables"}


def _keys(cls):
    """Config key -> field, for each field of ``cls`` that has a default."""
    return {_RENAMED.get(f.name, f.name): f for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


_MODEL_KEYS = _keys(ModelConfig)
_TRAIN_KEYS = _keys(TrainConfig)

# key -> (type, default)
SCHEMA = {key: (type(f.default), f.default)
          for key, f in {**_MODEL_KEYS, **_TRAIN_KEYS}.items()}
SCHEMA.update({
    "data": (str, ""),          # input interaction TSV (prepare-data)
    "workspace": (str, "out"),  # output / artifact directory
    "vocab_size": (int, 0),     # 0 = derive from prepared workspace
    "contexts": (int, 0),       # 0 = derive from prepared workspace
})


# A comment starts at a "#" that opens its line or follows whitespace, so a
# value such as ``workspace = out#2`` keeps its "#".
_COMMENT = re.compile(r"(?:^|\s)#")


class ConfigError(ValueError):
    pass


def model_config(cfg, vocab_size, n_contexts):
    return ModelConfig(vocab_size=vocab_size, n_contexts=n_contexts,
                       **{f.name: cfg[key] for key, f in _MODEL_KEYS.items()})


def train_config(cfg):
    return TrainConfig(**{f.name: cfg[key] for key, f in _TRAIN_KEYS.items()})


def _parse_value(key, raw):
    typ, _ = SCHEMA[key]
    try:
        return typ(raw)
    except ValueError as e:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}") from e


def load_config(path=None, overrides=()):
    """Resolve defaults, an optional config file, then key=value overrides."""
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = _COMMENT.split(line, 1)[0].strip()
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
    """Check every setting by building both dataclasses."""
    try:
        model_config(cfg, 1, 1)  # item and context counts exist only after prepare-data
        train_config(cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def config_hash(cfg):
    canon = "\n".join(f"{key}={cfg[key]}" for key in sorted(cfg))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
