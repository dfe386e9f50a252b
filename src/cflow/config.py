"""Config sections: dataclasses whose ``__post_init__`` calls ``check``.

A field's annotation gives its type and its ``knob`` its range or choices,
so each field is declared once and checked once, when its section is built.
An ``int`` takes no bool, float or string; a ``float`` takes an int or a
finite float and stores a float; ``X | None`` also takes None; a
``tuple[X, ...]`` takes a list or tuple and checks every element.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import MISSING, field, fields, is_dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import yaml

__all__ = ["ConfigError", "knob", "check", "from_mapping", "read_yaml"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def knob(default=MISSING, *, choices=None, ge=None, le=None, positive=False):
    """A config field with a range (``ge``/``le``/``positive``) or ``choices``."""
    rule = {"choices": choices, "ge": ge, "le": le, "positive": positive}
    return field(default=default, metadata=rule)


_KINDS = {int: (Integral, "an integer"), float: (Real, "a finite number"), str: (str, "a string")}


def _kind(value, tp, name: str):
    """``value`` as a ``tp`` (int, float or str); ConfigError if it is not one."""
    accepted, what = _KINDS[tp]
    if isinstance(value, accepted) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int too large for a float
            if tp is not float or math.isfinite(float(value)):
                return tp(value)
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def _checked(value, tp, rule: dict, name: str):
    args = get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_checked(v, get_args(tp)[0], rule, f"{name}[{i}]") for i, v in enumerate(value))
    if is_dataclass(tp):
        if not isinstance(value, tp):
            raise ConfigError(f"{name} must be a {tp.__name__}, got {value!r}")
        return value
    given, value = value, _kind(value, tp, name)
    choices, ge, le = rule.get("choices"), rule.get("ge"), rule.get("le")
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be {'|'.join(choices)}, got {given!r}")
    if rule.get("positive") and not value > 0:
        raise ConfigError(f"{name} must be positive, got {given!r}")
    if ge is not None and not value >= ge:
        raise ConfigError(f"{name} must be >= {ge}, got {given!r}")
    if le is not None and not value <= le:
        raise ConfigError(f"{name} must be <= {le}, got {given!r}")
    return value


def check(section, context: str = "") -> None:
    """Check every field of ``section`` and store it in its normal form."""
    hints = get_type_hints(type(section))
    for f in fields(section):
        name = f"{context}.{f.name}" if context else f.name
        setattr(section, f.name, _checked(getattr(section, f.name), hints[f.name], f.metadata, name))


def from_mapping(cls, data, context: str):
    """Build the config dataclass ``cls`` from a mapping with no unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a mapping")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(map(str, unknown))}")
    try:
        return cls(**data)
    except TypeError as exc:  # a required key is missing
        raise ConfigError(f"invalid {context}: {exc}") from None


def read_yaml(path: str | Path):
    """The document in the YAML file at ``path``; ConfigError if missing or malformed."""
    try:
        with Path(path).open() as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed YAML: {' '.join(str(exc).split())}") from None
