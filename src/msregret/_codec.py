"""The payload format: dataclass fields to JSON-ready values and back, and CSV.

Every report class and every rule serializes through the table CODECS, keyed
by a field's annotation string (the modules use `from __future__ import
annotations`, so dataclass fields carry their annotations as text).  Numbers
and strings pass through, so ints stay ints; tuples become lists; a seed
becomes its int; a nested record becomes its dict; a field holding None is
left out.  Reading back, a missing or null field takes its dataclass default,
and a missing required field, an int field holding anything but an int, a
float holding a bool or a string, and a seed that RngSeed refuses raise
DomainError.  Each class's field plan,
(name, encoder, decoder, required) per field, is built once, by @record for
the report classes and on first use for the rules.

csv_text and json_text are the two text writers of the command line.
json_text returns the bytes of json.dumps(payload, indent=2, sort_keys=True),
which with an indent runs json's pure-Python encoder.  json_text writes only
the shapes a payload holds: a str, an exact int, a float, a non-empty dict
with str keys, and a non-empty list of floats or table of equal-length float
rows, each list with one map(float.__repr__) and one string assembly.  Every
other value (bool, None, an empty or mixed list, a non-str key) is
json.dumps's own text, re-indented.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, fields
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .numerics import DomainError, RngSeed

# field annotation -> (to plain value, from plain value)
CODECS: dict = {}


def register(annotation: str, encode: Callable, decode: Callable) -> None:
    """Add the codec of an annotation and of its Optional form."""
    CODECS[annotation] = CODECS[f"Optional[{annotation}]"] = (encode, decode)


def _rows(value) -> list:
    return [list(row) for row in value]


def float_value(value) -> float:
    """A number as a float; float() would read true as 1.0 and "0.5" as 0.5."""
    if isinstance(value, (bool, str)):
        raise DomainError(f"a float field must hold a number, got {value!r}")
    return float(value)


def _float_rows(data) -> Tuple[Tuple[float, ...], ...]:
    return tuple(tuple(map(float_value, row)) for row in data)


def _int(value) -> int:
    # an exact int only: int() would read 50.7 as 50 and true as 1
    if type(value) is not int:
        raise DomainError(f"an int field must hold an integer, got {value!r}")
    return value


register("float", lambda v: v, float_value)
register("int", lambda v: v, _int)
register("str", lambda v: v, str)
register("RngSeed", lambda s: s.seed, RngSeed)
register("Tuple[float, ...]", list, lambda d: tuple(map(float_value, d)))
register("Tuple[Tuple[float, float], ...]", _rows, _float_rows)
register("Tuple[Tuple[float, float, float], ...]", _rows, _float_rows)
register("Tuple[Tuple[float, float, float, float], ...]", _rows, _float_rows)


@lru_cache(maxsize=None)
def _plan(cls) -> tuple:
    """(name, encode, decode, required) for each field of a dataclass."""
    return tuple(
        (f.name, *CODECS[f.type], f.default is MISSING) for f in fields(cls)
    )


def to_dict(obj) -> dict:
    """Plain-dict payload of a dataclass, one key per field that is not None."""
    out = {}
    for name, encode, _, _ in _plan(type(obj)):
        value = getattr(obj, name)
        if value is not None:
            out[name] = encode(value)
    return out


def from_dict(cls, data: dict):
    """Inverse of to_dict: a missing or null field takes its default."""
    kwargs = {}
    for name, _, decode, required in _plan(cls):
        value = data.get(name)
        if value is not None:
            kwargs[name] = decode(value)
        elif required:
            raise DomainError(f"{cls.__name__} payload needs field {name!r}")
    return cls(**kwargs)


def record(cls):
    """Class decorator: to_dict/from_dict through the codec, and a table entry
    so that other records can hold this one as a field."""
    _plan(cls)
    cls.to_dict = to_dict
    cls.from_dict = classmethod(from_dict)
    register(cls.__name__, to_dict, cls.from_dict)
    return cls


def csv_text(header: str, rows: Iterable[Sequence]) -> str:
    """CSV under a header line: numbers in .12g, strings as they are."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


# float.__repr__ spellings that json writes differently
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: Iterable) -> list:
    """json's text for each float; TypeError as soon as one is not a float."""
    out = list(map(float.__repr__, values))
    if not _JSON_SPECIAL.keys().isdisjoint(out):
        out = [_JSON_SPECIAL.get(v, v) for v in out]
    return out


def _json_table(rows: Sequence, indent: str) -> Optional[str]:
    """The items of a list of equal-length float rows, or None if it is not one."""
    if not all(isinstance(row, (list, tuple)) for row in rows):
        return None
    width = len(rows[0])
    if width == 0 or any(len(row) != width for row in rows):
        return None
    try:
        cells = _json_floats(chain.from_iterable(rows))
    except TypeError:
        return None
    inner = indent + "  "
    row = "[" + inner + ("," + inner).join(["%s"] * width) + indent + "]"
    return ("," + indent).join([row] * len(rows)) % tuple(cells)


def _json(value, indent: str) -> str:
    # indent is a newline and the indentation of the line value starts on;
    # an exact int test leaves bool and int subclasses to json
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_floats((value,))[0]
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value:
        try:
            body = ("," + inner).join(_json_floats(value))
        except TypeError:
            body = _json_table(value, inner)
        if body is not None:
            return "[" + inner + body + indent + "]"
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    # a JSON string holds no raw newline, so this re-indents json's text exactly
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte."""
    return _json(payload, "\n")
