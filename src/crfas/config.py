"""One strict JSON codec for the configuration dataclasses.

`to_dict` writes tuples as lists and nested configs as dicts. `from_dict`
keeps defaults for omitted keys and raises `ConfigError` on an unknown key
or a value of the wrong type: bool fields take only bools, int fields ints
but not bools, float fields finite ints or floats (JSON `NaN` and
`Infinity` are rejected). Lists become tuples of the declared element
type.
"""
from __future__ import annotations

import dataclasses
import math
import typing


class ConfigError(ValueError):
    """A configuration that cannot be read or cannot produce the requested geometry."""


def to_dict(config) -> dict:
    return {f.name: _plain(getattr(config, f.name)) for f in dataclasses.fields(config)}


def _plain(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def from_dict(cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be an object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields {unknown}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _read(hints[name], raw, f"{cls.__name__}.{name}") for name, raw in data.items()})


def _read(hint, value, where: str):
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(items) != len(value):
            raise ConfigError(f"{where} needs {len(items)} items, got {value!r}")
        return tuple(_read(item, v, f"{where}[{i}]") for i, (item, v) in enumerate(zip(items, value)))
    accepted = (int, float) if hint is float else hint
    if isinstance(value, accepted) and (hint is bool or not isinstance(value, bool)):
        if hint is float and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return hint(value)
    raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
