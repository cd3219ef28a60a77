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
"""
from __future__ import annotations

from dataclasses import MISSING, fields
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Tuple

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
