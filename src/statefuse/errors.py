"""Exception types shared across the library, and the one rule for the
fields of its config and record types and the array and scalar arguments
of its functions, which their annotations declare, with the
write-protection of the arrays that record fields keep."""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import operator
import typing
from dataclasses import MISSING, fields
from functools import cache
from itertools import chain

import numpy as np


class StatefuseError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(StatefuseError, ValueError):
    """An argument, configuration value, or input file failed validation."""


class BehindCameraError(ValidationError):
    """The point lies at or behind the camera plane and cannot be projected."""


class NumericOverflowError(StatefuseError, ArithmeticError):
    """A forward evaluation produced a non-finite intermediate value."""


_DTYPES = {float: np.dtype(np.float64), int: np.dtype(np.int64), bool: np.dtype(bool)}
_SOURCE_KINDS = {float: "fiu", int: "iu", bool: "b"}  # the dtype kinds each takes
_NAMES = {float: "float", int: "int", bool: "bool"}  # as messages say them
_BOOL_TYPES = frozenset((bool, np.bool_))


class Array:
    """The annotation of an array field or argument: ``Array[float, "E", "M"]``.

    Its first entry is the element kind, ``float`` (finite), ``int`` or
    ``bool``, kept as float64, int64 or bool, or a :class:`Bound` of one,
    which each element must meet: ``Array[Bound[float, ">", 0], 3]``.  The
    others are its shape, one entry an axis: a fixed size, or a symbol.  A
    symbol binds at the first field of an object, or argument of a call,
    that uses it, and every later one must agree with it.  A leading ``...``
    binds any number of leading axes as one symbol: ``Array[float, ..., 3]``
    takes a point or a batch of them.  A field's axes hold one entry or
    more; an argument's may be empty.
    """

    def __init__(self, kind, shape: tuple):
        self.bound = _kind(kind)[0] if typing.get_origin(kind) else None  # a Bound
        if getattr(self.bound, "choices", ()):
            raise TypeError("an Array's elements take a Bound of limits, not Literal choices")
        self.kind = getattr(self.bound, "kind", kind)
        self.shape, self.dtype = shape, _DTYPES[self.kind]
        self.lead = shape[:1] == ("...",)  # whether the shape starts with ...
        self.axes = shape[self.lead :]  # the axes after it

    def __class_getitem__(cls, params):
        kind, *shape = ("..." if s is ... else s for s in params)  # ... binds as one symbol
        return typing.Annotated[np.ndarray, cls(kind, tuple(shape))]

    def describe(self, sizes: dict) -> str:
        """The shape, with the size of each symbol that ``sizes`` binds."""
        axes = [f"{s}={sizes[s]}" if s in sizes else str(s) for s in self.shape]
        return f"({', '.join(axes)}{',' * (len(axes) == 1 and not self.lead)})"


class Bound:
    """The annotation of a scalar in a range, ``Bound[int, ">=", 1]`` or
    ``Bound[float, ">=", 0, "<=", 1]``: a kind, then pairs of a comparison
    (``>=``, ``>``, ``<=`` or ``<``) and a limit, each of which a value must
    meet.  ``Literal["a", "b"]`` is read as a Bound that takes only its
    choices, and is no element kind of an :class:`Array`; as one, a Bound
    of limits bounds each element.  ``repr`` reads ``an int >= 1`` or
    ``one of 'a', 'b'``."""

    _COMPARISONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}

    def __init__(self, kind: type, limits: tuple = (), choices: tuple = ()):
        self.kind, self.limits, self.choices = kind, limits, choices

    def __class_getitem__(cls, params):
        return typing.Annotated[params[0], cls(params[0], tuple(zip(params[1::2], params[2::2])))]

    def admits(self, value) -> bool:
        if self.choices:
            return value in self.choices
        for op, limit in self.limits:  # a loop: all() over a generator takes 4x as long
            if not self._COMPARISONS[op](value, limit):
                return False
        return True

    def admits_each(self, arr: np.ndarray) -> np.ndarray:
        """Whether each element of ``arr`` is within the limits; NaN is in none."""
        tests = [self._COMPARISONS[op](arr, limit) for op, limit in self.limits]
        return functools.reduce(operator.and_, tests)

    def __repr__(self) -> str:
        if self.choices:
            return f"one of {', '.join(map(repr, self.choices))}"
        limits = " and ".join(f"{op} {limit}" for op, limit in self.limits)
        return f"{'an' if self.kind is int else 'a'} {_NAMES[self.kind]} {limits}"


class Record:
    """Base of the frozen dataclasses whose fields one rule turns into values.

    A field's annotation is its type.  ``int`` takes an integer; ``float``
    an integer or a finite float, kept as a float; ``bool`` a bool; ``str``
    a string; ``tuple[T, T]`` and ``tuple[T, ...]`` a list or tuple of such
    values, kept as a tuple; ``Array[...]`` an array (see :class:`Array`);
    ``Bound[...]`` and ``Literal[...]`` a value in their range or choices
    (see :class:`Bound`); any other class an instance of it, a nested
    record for one; and ``T | None`` None or a ``T``.  A bool is no number.
    Any other value raises ``ValidationError`` naming the field.  A
    subclass's ``__post_init__`` calls this one, then relates its fields.
    """

    def __post_init__(self):
        sizes = {}  # the symbols of the array fields
        for name, kind, _, like, optional in _schema(type(self)):
            value = getattr(self, name)
            if value is not None or not optional:
                object.__setattr__(self, name, field_value(name, value, kind, like, sizes))


class Config(Record):
    """Base of the frozen config dataclasses: records of scalars, in a
    :class:`Bound` or not, and tuples, read from and written to JSON."""

    @classmethod
    def from_dict(cls, raw: dict):
        """The config a JSON object describes; absent keys take their defaults."""
        if not isinstance(raw, dict):
            raise ValidationError(f"{cls.__name__} must be a JSON object, got {raw!r:.40}")
        schema = _schema(cls)
        names = {name for name, *_ in schema}
        unknown = [key for key in raw if key not in names]
        if unknown:
            raise ValidationError(f"unknown {cls.__name__} keys: {unknown}")
        for name, _, default, *_ in schema:
            if default is MISSING and name not in raw:
                raise ValidationError(f"{name}: missing")
        return cls(**raw)

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists: what :meth:`from_dict` reads."""
        out = {}
        for name, *_ in _schema(type(self)):
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


_BAD = object()


@cache
def _schema(cls) -> tuple:
    """(name, kind, default, like, optional) of each field of a record
    class, in order: ``kind`` is as :func:`_kind` reads it, ``like`` what
    a message says the field expects, and ``optional`` whether it may be
    None."""
    hints = typing.get_type_hints(cls, include_extras=True)
    out = []
    for f in fields(cls):
        kind, optional = _kind(hints[f.name])
        like = _like(kind) if f.default is MISSING else repr(f.default)
        out.append((f.name, kind, f.default, like, optional))
    return tuple(out)


def _kind(hint) -> tuple:
    """(type, :class:`Array` or :class:`Bound`; whether ``T | None``) of an annotation."""
    args = typing.get_args(hint)
    optional = type(None) in args and typing.get_origin(hint) is not tuple
    if optional:  # kind | None
        hint = next(arg for arg in args if arg is not type(None))
    origin = typing.get_origin(hint)
    if origin is typing.Annotated:  # Array[...] or Bound[...]
        hint = hint.__metadata__[0]
    elif origin is typing.Literal:
        hint = Bound(type(typing.get_args(hint)[0]), choices=typing.get_args(hint))
    elif origin is tuple:  # of its elements' kinds
        hint = tuple[tuple(_kind(arg)[0] for arg in typing.get_args(hint))]
    return hint, optional


def _like(kind) -> str:
    kind = kind.kind if isinstance(kind, Bound) else kind
    return str(kind) if typing.get_args(kind) else getattr(kind, "__name__", "an array")


def readonly(arr: np.ndarray) -> np.ndarray:
    """Return a write-protected, aligned, C-contiguous form of ``arr``.

    ``arr`` comes back unchanged when it already is all three and its memory
    belongs to an immutable owner: a write-protected array that owns its
    data (``arr`` itself or the array it views), or a ``bytes`` object, as
    behind the ``np.frombuffer`` views of a weights blob.  Its owner thus
    hands it over without a copy.  Anything else, a view of a caller's
    writable array included, is copied.
    """
    flags = getattr(arr, "flags", None)
    if flags is not None and flags.c_contiguous and flags.aligned and not flags.writeable:
        owner = arr
        while isinstance(owner, np.ndarray) and not owner.flags.owndata:
            owner = owner.base
        if isinstance(owner, bytes) or (
            isinstance(owner, np.ndarray) and not owner.flags.writeable
        ):
            return arr
    out = np.array(arr, copy=True, order="C")
    out.setflags(write=False)
    return out


def frozen(arr: np.ndarray) -> np.ndarray:
    """Write-protect an array the caller has just made and owns, and return it.

    :func:`readonly` then keeps it as it is instead of copying it.
    """
    arr.setflags(write=False)
    return arr


def field_value(name: str, value, kind, like: str | None = None, sizes: dict | None = None):
    """``value`` as a field ``name`` of type ``kind`` under the rule of
    :class:`Record`; any other value raises ``ValidationError("<name>:
    expected a value like <like>, got <value>")``, ``like`` defaulting to
    the type's name, or, out of a :class:`Bound` (a tuple's element named
    ``<name>[<i>]``), ``"<name>: expected <bound>, got <value>"``.  A
    tuple's first element that is no instance of its class is named as
    ``"<name>[<i>]: expected a <class>, got <its class>"``.  ``sizes``
    holds the symbols that the earlier array fields of the object bound."""
    if isinstance(kind, Array):  # write-protected: in place when made here
        arr = checked_array(name, value, kind, {} if sizes is None else sizes, empty=False)
        return readonly(arr) if arr is value else frozen(arr)
    kept = _field_value(value, kind)
    if kept is _BAD:
        raise ValidationError(_refusal(name, value, kind, _like(kind) if like is None else like))
    return kept


def _refusal(name: str, value, kind, like: str) -> str:
    """The message of :func:`field_value` that refuses ``value``."""
    kinds = typing.get_args(kind)
    if kinds and isinstance(value, (list, tuple)):  # an element out of its bound or class
        kinds = kinds[:1] * len(value) if kinds[-1] is Ellipsis else kinds
        pairs = zip(value, kinds) if len(kinds) == len(value) else ()
        for index, (element, of) in enumerate(pairs):
            at = f"{name}[{index}]"
            if _breaks(element, of):
                return _refusal(at, element, of, like)
            if isinstance(of, type) and of not in _DTYPES and not isinstance(element, of):
                return f"{at}: expected a {of.__name__}, got {type(element).__name__}"
    if _breaks(value, kind):
        return f"{name}: expected {kind!r}, got {value!r:.40}"
    return f"{name}: expected a value like {like}, got {value!r:.40}"


def _breaks(value, kind) -> bool:  # whether value is of a Bound's kind, but out of it
    kept = _field_value(value, kind.kind) if isinstance(kind, Bound) else _BAD
    return kept is not _BAD and not kind.admits(kept)


def _field_value(value, kind):
    """``value`` as a field of type ``kind``, or ``_BAD`` when it is none."""
    if type(value) is kind and kind is not float:  # the common case
        return value
    if type(kind) is Bound:
        kept = _field_value(value, kind.kind)
        return kept if kept is not _BAD and kind.admits(kept) else _BAD
    if kind is float and isinstance(value, float):  # a numpy float64 too
        return float(value) if math.isfinite(value) else _BAD
    if kind is bool or isinstance(value, bool):  # a bool is no number
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
    kinds = getattr(kind, "__args__", ())  # (T, T) or (T, ...) of a tuple type
    if not kinds:  # str, a record or any other class
        return value if isinstance(value, kind) else _BAD
    if not isinstance(value, (list, tuple)):
        return _BAD
    if kinds[-1] is Ellipsis:  # tuple[T, ...]
        if type(value) is tuple and kinds[0] is not float and set(map(type, value)) <= {kinds[0]}:
            return value  # the common case: of that type already
        kinds = kinds[:1] * len(value)
    elif len(value) != len(kinds):
        return _BAD
    out = tuple(map(_field_value, value, kinds))
    return _BAD if any(v is _BAD for v in out) else out


def check_seed(seed) -> None:
    """Refuse a random seed other than an int >= 0 or a list or tuple of
    them (a bool is no int) with a ``ValidationError`` naming ``seed``."""
    words = seed if isinstance(seed, (list, tuple)) else (seed,)
    for word in words:
        if not isinstance(word, numbers.Integral) or isinstance(word, bool) or word < 0:
            raise ValidationError(
                f"seed: expected an int >= 0 or a list of them, got {seed!r:.40}"
            )


def number_array(value, kind: type = float) -> np.ndarray | None:
    """``value``, an ndarray, a number or nested lists of them, as an array
    of ``kind`` elements, or None when it holds any other value.

    ``float`` takes integers and floats, kept as float64; ``int`` takes
    integers, kept as int64; ``bool`` takes bools.  A str, a None or a bool
    among numbers is refused.  An ndarray of the kept dtype comes back as
    it is, anything else as a new array.
    """
    if isinstance(value, np.ndarray):
        arr = value
    else:
        try:
            arr = np.array(value)
        except (TypeError, ValueError):  # ragged
            return None
        if arr.dtype.kind in "iuf" and arr.ndim:  # numpy reads a bool among numbers as one
            leaves = value
            for _ in range(arr.ndim - 1):
                leaves = chain.from_iterable(leaves)
            if not _BOOL_TYPES.isdisjoint(map(type, leaves)):
                return None
    dtype = _DTYPES[kind]
    if arr.dtype is dtype or arr.dtype == dtype:  # numpy's own float64 dtype is one object
        return arr
    if arr.dtype.kind not in _SOURCE_KINDS[kind] or not np.can_cast(arr.dtype, dtype):
        return None
    return arr.astype(dtype)


def checked_array(name: str, value, spec: Array, sizes: dict, empty: bool) -> np.ndarray:
    """``value`` as the array ``name`` declared ``spec`` (an ``int``,
    ``float`` or ``bool`` one takes a scalar as a field does): an ndarray of
    the kept dtype as it is, anything else as a new array.  ``sizes`` holds
    the symbols bound so far, and ``empty`` says whether an axis may be
    empty.  Any other value raises ``ValidationError`` naming ``name``; one
    with an element outside the bound of its kind, ``"<name>: expected
    <bound>, got <the first such element>"``."""
    if not isinstance(spec, Array):  # a scalar argument
        return field_value(name, value, spec)
    arr = value
    if type(arr) is not np.ndarray or arr.dtype is not spec.dtype:
        arr = number_array(value, spec.kind)
        if arr is None:
            got = f"an array of {value.dtype}" if isinstance(value, np.ndarray) else repr(value)
            raise ValidationError(
                f"{name}: expected an array of {_NAMES[spec.kind]}s shaped {spec.describe(sizes)}, "
                f"got {' '.join(got[:40].split())}"
            )
    shape, axes = arr.shape, spec.axes
    lead = len(shape) - len(axes) if spec.lead else 0
    fits = lead >= 0 and len(shape) - lead == len(axes) and (empty or 0 not in shape)
    if fits and spec.lead:  # the leading axes bind as one symbol
        fits = sizes.setdefault("...", shape[:lead]) == shape[:lead]
    for size, axis in zip(shape[lead:], axes) if fits else ():
        if size != (sizes.setdefault(axis, size) if type(axis) is str else axis):
            fits = False
            break
    if not fits:
        raise ValidationError(f"{name}: expected shape {spec.describe(sizes)}, got {shape}")
    if spec.kind is float and not np.isfinite(arr).all():
        raise ValidationError(f"{name}: contains NaN or Inf")
    if spec.bound is not None and not (inside := spec.bound.admits_each(arr)).all():
        raise ValidationError(f"{name}: expected {spec.bound!r}, got {arr[~inside][0].item()!r}")
    return arr


def checked(fn):
    """Decorate ``fn`` so that every call checks its ``Array[...]``
    parameters, in order, under the rule of :class:`Array`, and its
    ``int``, ``float`` and ``bool`` ones, its ``Bound[...]`` and
    ``Literal[...]`` ones (see :class:`Bound`), and those typed with a class
    of this package or a tuple of them (a list is passed on as a tuple), as
    :class:`Record` fields; one declared ``T | None`` also takes None.
    ``fn`` receives each checked array: the caller's ndarray itself, neither
    copied nor write-protected, when it holds the kept dtype, else a new
    array.  Any other value raises ``ValidationError`` naming the parameter.
    """

    @functools.wraps(fn)
    def call(*args, **kwargs):
        args, sizes = list(args), {}
        for position, name, spec, optional in _parameters(fn):
            if position < len(args):
                given, key = args, position
            elif name in kwargs:
                given, key = kwargs, name
            else:  # left to its default
                continue
            if given[key] is not None or not optional:
                given[key] = checked_array(name, given[key], spec, sizes, empty=True)
        return fn(*args, **kwargs)

    return call


@cache
def _parameters(fn) -> tuple:
    """(position, name, kind, optional) of each parameter of ``fn`` that
    :func:`checked` checks, read at the first call, so that the annotations
    of a method may name its own class."""
    hints = typing.get_type_hints(fn, include_extras=True)
    specs = []
    for position, name in enumerate(inspect.signature(fn).parameters):
        spec, optional = _kind(hints.get(name))
        classes = typing.get_args(spec) if typing.get_origin(spec) is tuple else (spec,)
        own = all(isinstance(c, type) and c.__module__.startswith(f"{__package__}.")
                  for c in classes if c is not Ellipsis)
        if isinstance(spec, (Array, Bound)) or spec in (int, float, bool) or own:
            specs.append((position, name, spec, optional))
    return tuple(specs)
