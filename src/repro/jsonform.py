"""Checks for the decoders of a run configuration's JSON form, which comes
from outside the program: a bad key or value is a
:class:`~repro.errors.ConfigError` naming the field, never a ``TypeError``.
The config dataclasses apply the same rules to the values they are built
with in code.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from repro.errors import ConfigError


def _int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list(v: object, item) -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


def _object(v: object) -> bool:
    return isinstance(v, dict)


#: Each annotation (a string under ``from __future__ import annotations``)
#: of a decoded dataclass's fields -> (accepts a JSON value, what the value
#: must be).  A bool is never a number.
_KINDS = {
    "int": (_int, "an int"),
    "float": (lambda v: _int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, ...]": (lambda v: _list(v, _int), "a list of ints"),
    "tuple[int, ...] | None": (
        lambda v: v is None or _list(v, _int), "a list of ints or null"),
    "Calibration | None": (lambda v: v is None or _object(v), "an object or null"),
    "FaultPlan | None": (lambda v: v is None or _object(v), "an object or null"),
    "tuple[ThreadKill, ...]": (lambda v: _list(v, _object), "a list of objects"),
    "tuple[ThrottleWindow, ...]": (lambda v: _list(v, _object), "a list of objects"),
}


def check_fields(raw: dict, cls: type, what: str, prefix: str = "") -> list[str]:
    """Raise :class:`ConfigError` naming ``prefix + field`` if *raw* lacks
    a field of dataclass *cls* that has no default, or holds a value of
    the wrong kind for its field.  Returns the keys of *raw* that name no
    field, sorted and prefixed, for the caller to report with the others."""
    for f in fields(cls):
        if f.name in raw:
            accepts, noun = _KINDS[f.type]
            if not accepts(raw[f.name]):
                raise ConfigError(f"{what} field {prefix}{f.name} must be "
                                  f"{noun}, got {raw[f.name]!r}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{what} field {prefix}{f.name} is missing")
    return sorted(prefix + key for key in set(raw) - set(cls.__dataclass_fields__))


def check_instance(obj: object, what: str) -> None:
    """Apply :func:`check_fields` to the field values of dataclass
    instance *obj*, so one built in code holds only values its JSON form
    could."""
    check_fields({f.name: getattr(obj, f.name) for f in fields(obj)},
                 type(obj), what)
