"""Exception types shared across the library, and the field rule of its
config types."""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import MISSING, fields
from functools import cache


class StatefuseError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(StatefuseError, ValueError):
    """An argument, configuration value, or input file failed validation."""


class BehindCameraError(ValidationError):
    """The point lies at or behind the camera plane and cannot be projected."""


class NumericOverflowError(StatefuseError, ArithmeticError):
    """A forward evaluation produced a non-finite intermediate value."""


class Config:
    """Base of the frozen config dataclasses: one rule turns a value into a field.

    A field's annotation is its type.  ``int`` takes an integer; ``float``
    an integer or a finite float, kept as a float; ``bool`` a bool; ``str``
    a string; ``tuple[T, T]`` and ``tuple[T, ...]`` a list or tuple of such
    values, kept as a tuple.  A bool is no number.  Any other value raises
    ``ValidationError("<field>: expected a value like <default>, got
    <value>")``.  A subclass's ``__post_init__`` calls this one, then checks
    ranges.
    """

    def __post_init__(self):
        for name, kind, default in _schema(type(self)):
            like = kind.__name__ if default is MISSING else repr(default)
            object.__setattr__(self, name, field_value(name, getattr(self, name), kind, like))

    @classmethod
    def from_dict(cls, raw: dict):
        """The config a JSON object describes; absent keys take their defaults."""
        if not isinstance(raw, dict):
            raise ValidationError(f"{cls.__name__} must be a JSON object, got {raw!r:.40}")
        schema = _schema(cls)
        names = {name for name, _, _ in schema}
        unknown = [key for key in raw if key not in names]
        if unknown:
            raise ValidationError(f"unknown {cls.__name__} keys: {unknown}")
        for name, _, default in schema:
            if default is MISSING and name not in raw:
                raise ValidationError(f"{name}: missing")
        return cls(**raw)

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists: what :meth:`from_dict` reads."""
        out = {}
        for name, _, _ in _schema(type(self)):
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


_BAD = object()


@cache
def _schema(cls) -> tuple:
    """(name, type, default) of each field of a config class, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default) for f in fields(cls))


def field_value(name: str, value, kind, like: str | None = None):
    """``value`` as a field ``name`` of type ``kind`` under the rule of
    :class:`Config`; any other value raises ``ValidationError("<name>:
    expected a value like <like>, got <value>")``, ``like`` defaulting to
    the type's name."""
    kept = _field_value(value, kind)
    if kept is _BAD:
        like = kind.__name__ if like is None else like
        raise ValidationError(f"{name}: expected a value like {like}, got {value!r:.40}")
    return kept


def _field_value(value, kind):
    """``value`` as a field of type ``kind``, or ``_BAD`` when it is none."""
    if kind is bool:
        return value if isinstance(value, bool) else _BAD
    if isinstance(value, bool):  # a bool is no number
        return _BAD
    if kind is int:
        return int(value) if isinstance(value, numbers.Integral) else _BAD
    if kind is float:
        if not isinstance(value, numbers.Real):
            return _BAD
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            return _BAD
        return value if math.isfinite(value) else _BAD
    if kind is str:
        return value if isinstance(value, str) else _BAD
    if not isinstance(value, (list, tuple)):
        return _BAD
    kinds = typing.get_args(kind)  # tuple[T, T] or tuple[T, ...]
    if kinds[-1] is Ellipsis:
        kinds = kinds[:1] * len(value)
    elif len(value) != len(kinds):
        return _BAD
    out = tuple(map(_field_value, value, kinds))
    return _BAD if any(v is _BAD for v in out) else out
