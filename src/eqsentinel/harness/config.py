"""Flat key=value experiment configs.

A config file is plain text: one ``key = value`` pair per line, ``#`` starts
a comment, and the ``experiment`` key selects the subcommand whose dataclass
the remaining keys populate. Values are coerced from the dataclass field
types; comma-separated lists map to tuples. The dataclass then checks the
values: a negative ``seed``, for one, is a ``ConfigError``.

A key that the selected config does not read is an error. Only the configs
with ``game``/``strategy`` fields (nf-fwer-null and nf-detect) read the
``game_*``/``strategy_*`` keys, which describe a custom normal-form game and
generating strategy; for any other experiment they are unknown keys::

    game_players = 2
    game_actions = 2,2
    game_payoffs_1 = 0.9,0.2,0.3,0.7     # row-major
    game_payoffs_2 = 0.5,0.3,0.2,0.7
    strategy_kind = product              # or: full
    strategy_1 = 0.71428571,0.28571429   # per-player rows (product)
    strategy_2 = 0.45454545,0.54545455
    # strategy_joint = ...               # row-major table (full)
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, get_args, get_origin

import numpy as np

from ..errors import ConfigError
from ..games import JointStrategy, NormalFormGame


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat key=value text; duplicate keys and text without a single
    pair are errors."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    if not out:
        raise ConfigError("config has no key = value line")
    return out


def _coerce(value: str, annotation: Any, key: str) -> Any:
    if get_origin(annotation) is tuple:
        item_type = get_args(annotation)[0]
        return tuple(_coerce(v.strip(), item_type, key) for v in value.split(",") if v.strip())
    if annotation not in (int, float, str):
        raise ConfigError(f"{key}: unsupported config field type {annotation!r}")
    try:
        return annotation(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {annotation.__name__}, got {value!r}") from None


def _take(mapping: dict[str, str], key: str, kind: type = float) -> tuple:
    """Remove a required key from ``mapping``; returns its comma-separated values."""
    if key not in mapping:
        raise ConfigError(f"missing {key}")
    return _coerce(mapping.pop(key), tuple[kind, ...], key)


def field_types(cls) -> dict[str, Any]:
    """Each dataclass field's type. ``InitVar`` hints, which ``get_type_hints``
    refuses before Python 3.11, are no fields and are never evaluated."""
    namespace = vars(sys.modules[cls.__module__])
    hints = ((f.name, f.type) for f in dataclasses.fields(cls))
    return {name: eval(hint, namespace) if isinstance(hint, str) else hint for name, hint in hints}


def config_from_mapping(cls, mapping: dict[str, str]):
    """Build an experiment config dataclass from parsed key=value pairs; a
    key that no field reads is an error."""
    fields = field_types(cls)
    rest = dict(mapping)
    kwargs = {}
    custom = "game" in fields
    if custom:
        # Each reader removes the keys it reads; the rest go to the fields.
        kwargs = {"game": game_from_mapping(rest), "strategy": strategy_from_mapping(rest)}
        del fields["game"], fields["strategy"]
    for key, value in rest.items():
        if key not in fields:
            valid = sorted(fields) + (["game_*", "strategy_*"] if custom else [])
            raise ConfigError(f"unknown key {key!r} for {cls.__name__}; valid keys: {valid}")
        kwargs[key] = _coerce(value, fields[key], key)
    return cls(**kwargs)


def game_from_mapping(mapping: dict[str, str]) -> NormalFormGame | None:
    """Build a game from the ``game_*`` keys it removes from ``mapping``, or
    None when ``game_players`` is absent."""
    if "game_players" not in mapping:
        return None
    players = _coerce(mapping.pop("game_players"), int, "game_players")
    counts = _take(mapping, "game_actions", int)
    if len(counts) != players or min(counts, default=0) < 1:
        raise ConfigError("game_actions must list one positive count per player")
    payoffs = []
    for i in range(1, players + 1):
        key = f"game_payoffs_{i}"
        flat = np.array(_take(mapping, key))
        if flat.size != int(np.prod(counts)):
            raise ConfigError(f"{key}: expected {int(np.prod(counts))} entries")
        payoffs.append(flat.reshape(counts))
    return NormalFormGame(np.stack(payoffs))


def strategy_from_mapping(mapping: dict[str, str]) -> JointStrategy | None:
    """Build a strategy from the ``strategy_*`` keys it removes from
    ``mapping``, or None when ``strategy_kind`` is absent."""
    if "strategy_kind" not in mapping:
        return None
    kind = mapping.pop("strategy_kind").strip().lower()
    if kind == "product":
        factors = []
        i = 1
        while f"strategy_{i}" in mapping:
            factors.append(np.array(_take(mapping, f"strategy_{i}")))
            i += 1
        if not factors:
            raise ConfigError("product strategy needs strategy_1, strategy_2, ...")
        return JointStrategy.product(*factors)
    if kind == "full":
        if "strategy_joint" not in mapping or "strategy_shape" not in mapping:
            raise ConfigError("full strategy needs strategy_joint and strategy_shape")
        shape = _take(mapping, "strategy_shape", int)
        flat = np.array(_take(mapping, "strategy_joint"))
        if min(shape, default=0) < 1 or flat.size != int(np.prod(shape)):
            raise ConfigError(f"strategy_joint has {flat.size} entries; strategy_shape is {shape}")
        return JointStrategy.full(flat.reshape(shape))
    raise ConfigError(f"strategy_kind must be product or full, got {kind!r}")
