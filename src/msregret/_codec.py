"""The payload format: dataclass fields to JSON-ready values and back, and CSV.

Every report class and every rule serializes through the table CODECS, keyed
by a field's annotation string (the modules use `from __future__ import
annotations`, so dataclass fields carry their annotations as text).  Numbers
and strings pass through, so ints stay ints; tuples become lists; a seed
becomes its int; a nested record becomes its dict; a field holding None is
left out.  Reading back, a missing or null field takes its dataclass default,
and a missing required field raises DomainError.  Each class's field plan,
(name, encoder, decoder, required) per field, is built once, by @record for
the report classes and on first use for the rules.

csv_text and json_text are the two text writers of the command line.
json_text returns the bytes of json.dumps(payload, indent=2, sort_keys=True),
which with an indent runs json's pure-Python encoder; json_text instead
renders a list of floats, or a table of equal-length float rows, with one
map(float.__repr__) and one string assembly.
"""
from __future__ import annotations

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


def _float_rows(data) -> Tuple[Tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in data)


register("float", lambda v: v, float)
register("int", lambda v: v, int)
register("str", lambda v: v, str)
register("RngSeed", lambda s: s.seed, lambda v: RngSeed(int(v)))
register("Tuple[float, ...]", list, lambda d: tuple(float(x) for x in d))
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


def _json_key(key) -> str:
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _json_floats((key,))[0]
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
        )
    return encode_basestring_ascii(key)


def _json(value, indent: str) -> str:
    # indent is a newline and the indentation of the line value starts on;
    # the type tests go in json's order, so bool comes before int
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_floats((value,))[0]
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = ("," + inner).join(_json_floats(value))
        except TypeError:
            body = _json_table(value, inner)
            if body is None:
                body = ("," + inner).join([_json(v, inner) for v in value])
        return "[" + inner + body + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_key(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte."""
    return _json(payload, "\n")
