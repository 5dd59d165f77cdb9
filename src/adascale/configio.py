"""What a valid config or report value is, and the one JSON codec for every
config and report dataclass, plus the JSON Schema of what it reads.

``Config``, the base of the config and report dataclasses, checks each field
with :func:`checked`, the package's one type walker, and the keywords of its
:func:`bound`.  All on-disk documents use tagged objects ({"kind": ...}) for
the union types, each tagged with its class's ``kind``; a ``per_run`` class
variable names fields JSON never holds.  No other module of the package is
imported here.  Schemas ship inside the package under ``adascale/schemas``
as the contract for external tooling; the package runs none of them.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import reprlib
import sys
from dataclasses import MISSING, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

__all__ = [
    "Config",
    "bound",
    "checked",
    "to_json",
    "from_json",
    "schema",
    "validate_run_report",
    "read_json",
    "write_json",
]

SCORE = {"minimum": 0, "maximum": 1}  # the bounds of a precision, recall or F in a report


def read_json(path):
    """The JSON document in a file; a file that cannot be read or parsed
    raises ``ValueError("<path>: <reason>")``."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as error:
        raise ValueError(f"{path}: {error.strerror or error}") from error
    except ValueError as error:  # malformed JSON, or bytes that are not text
        raise ValueError(f"{path}: {error}") from error


def write_json(doc: dict, path) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline, no NaN."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


@functools.lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    return tuple(f for f in fields(cls) if f.name not in getattr(cls, "per_run", ()))


_hints = functools.lru_cache(maxsize=None)(get_type_hints)


def _encode(obj) -> dict:
    doc = {f.name: getattr(obj, f.name) for f in _fields(type(obj))}
    kind = getattr(obj, "kind", None)
    return doc if kind is None else {"kind": kind, **doc}


def to_json(obj):
    """JSON form of a config or report dataclass, tagged with its "kind" if it has one."""
    # json walks the containers (tuples become lists) and hands each dataclass to _encode
    return json.loads(json.dumps(obj, default=_encode))


def _shown(doc) -> str:
    # an object or array by its JSON type, as it may be long, and anything else cut short
    return {dict: "an object", list: "an array"}.get(type(doc)) or reprlib.repr(doc)


def _at(where: str, walk, tp, value):
    """``walk(tp, value)``, :func:`from_json` or :func:`checked`, whose error names
    ``where``, a field, an index or a key."""
    try:
        return walk(tp, value)
    except ValueError as error:
        text = str(error)  # an item's starts with its index: "arms" + "[1]: ..."
        raise ValueError(f"{where}{'' if text.startswith('[') else ': '}{text}") from None


def from_json(tp, doc):
    """Build a value of type ``tp`` from its JSON form.

    ``tp`` is a config or report dataclass, a union of tagged ones (chosen by
    the document's "kind"), or a field annotation.  A dataclass, union or
    dict takes an object and a tuple or list an array; an integral number
    where an ``int`` goes is read as one, and each value read is then
    :func:`checked`.  Absent keys take their field's default.  Any other
    value, an absent key without one, or a key that is neither a field nor
    "kind", raises ``ValueError`` naming the class and the field, the
    fields in declaration order.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if doc is None:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:
            return from_json(members[0], doc)
        if not isinstance(doc, dict):
            raise ValueError(f"expected object, got {_shown(doc)}")
        kind = doc.get("kind")
        tp = next((m for m in members if m.kind == kind), None)
        if tp is None:
            raise ValueError(f"unknown kind {kind!r}")
    elif origin in (tuple, list) or tp in (tuple, list):
        if not isinstance(doc, list):
            raise ValueError(f"expected array, got {_shown(doc)}")
        # a run report's lists hold one float per training step, left to checked() in one pass
        if args and args[0] is not float:
            doc = [_at(f"[{i}]", from_json, args[0], v) for i, v in enumerate(doc)]
        return checked(tp, (list if list in (origin, tp) else tuple)(doc))
    elif origin is dict:
        if not isinstance(doc, dict):
            raise ValueError(f"expected object, got {_shown(doc)}")
        return checked(tp, {k: _at(f"[{k!r}]", from_json, args[1], v) for k, v in doc.items()})
    if not is_dataclass(tp):
        # as the JSON Schema "integer" allows, 2.0 is an int
        return checked(tp, int(doc) if tp is int and type(doc) is float and doc.is_integer() else doc)
    if not isinstance(doc, dict):
        raise ValueError(f"expected {tp.__name__} object, got {_shown(doc)}")
    # a field without a default, plain or from a factory, must be present; a renamed key reads as missing
    missing = [f.name for f in _fields(tp) if f.default is f.default_factory is MISSING and f.name not in doc]
    if missing:
        raise ValueError(f"missing {tp.__name__} keys {missing}")
    unknown = sorted(set(doc) - {f.name for f in _fields(tp)} - {"kind"})
    if unknown:
        raise ValueError(f"unknown {tp.__name__} keys {unknown}")
    hints, present = _hints(tp), [f.name for f in _fields(tp) if f.name in doc]
    return tp(**{key: _at(f"{tp.__name__}.{key}", from_json, hints[key], doc[key]) for key in present})


def _type_name(tp) -> str:
    if get_origin(tp) in (Union, UnionType):
        return " | ".join(_type_name(a) for a in get_args(tp))
    return "None" if tp is type(None) else (get_origin(tp) or tp).__name__


def checked(tp, value):
    """The Python ``value`` of the annotation ``tp`` in canonical form: an ``int``
    where a ``float`` goes, at any depth, made a float, and ``value`` itself
    when nothing changes.

    An ``int`` is also a ``float`` if a float can hold it (a bool is
    neither), a tuple or list takes either, and an optional or tagged union
    any of its members.  A value of another type raises ``ValueError``
    "expected <type>, got <value>", after the index or key of an item at fault.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        members = [a for a in args if a is not type(None)]
        if value is None and len(members) < len(args):
            return None
        if len(members) == 1:
            return checked(members[0], value)
        if isinstance(value, tuple(members)):
            return value
    elif origin in (tuple, list) or tp in (tuple, list):
        if isinstance(value, (tuple, list)):
            if not args or (args[0] is float and set(map(type, value)) <= {float}):
                return value
            items = [_at(f"[{i}]", checked, args[0], v) for i, v in enumerate(value)]
            return value if all(map(operator.is_, items, value)) else type(value)(items)
    elif origin is dict:
        if isinstance(value, dict):
            items = {k: _at(f"[{k!r}]", checked, args[1], v) for k, v in value.items()}
            return value if all(map(operator.is_, items.values(), value.values())) else items
    elif tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # an integer beyond the range of a float
            raise ValueError(f"expected finite float, got {reprlib.repr(value)}") from None
    elif isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        return value
    raise ValueError(f"expected {_type_name(tp)}, got {reprlib.repr(value)}")


def bound(default=MISSING, **keywords):
    """A config field whose value must meet JSON Schema ``keywords``: ``Config``
    checks them and :func:`schema` writes them into the schema."""
    return field(default=default, metadata=keywords)


# keyword -> (test the value passes, the bound as text); NaN fails every comparison
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "exclusiveMinimum": (operator.gt, ">"),
    "maximum": (operator.le, "<="),
    "exclusiveMaximum": (operator.lt, "<"),
    "minLength": (lambda v, n: len(v) >= n, "of length >="),
    "minItems": (lambda v, n: len(v) >= n, "of length >="),
    "enum": (lambda v, options: v in options, "one of"),
}


def _broken(value, keywords) -> str | None:
    """What ``value``, of its field's type, breaks, as " must be <bound>, got <value>",
    or None; None meets all but ``enum``."""
    if isinstance(value, float) and not math.isfinite(value):
        return f" must be finite, got {value!r}"
    for key, limit in keywords.items():
        if key == "items":
            if value is not None and (broken := _broken_item(value, limit)):
                return broken
            continue
        test, text = _BOUNDS[key]
        if (value is not None or key == "enum") and not test(value, limit):
            return f" must be {text} {limit!r}, got {value!r}"
    return None


def _broken_item(values, keywords) -> str | None:
    """What the first item of ``values`` to break ``keywords`` breaks, after its "[<index>]";
    finite numbers within ``minimum``/``maximum``, one per step in a run report, pass in one pass."""
    low, high = keywords.get("minimum", -sys.float_info.max), keywords.get("maximum", sys.float_info.max)
    if keywords.keys() <= {"minimum", "maximum"} and all(low <= x <= high for x in values):
        return None
    return next((f"[{i}]{broken}" for i, x in enumerate(values) if (broken := _broken(x, keywords))), None)


class Config:
    """Base of the config and report dataclasses: every field is stored as
    :func:`checked` against its annotation returns it, a float field must be
    finite and every field must meet the keywords of its :func:`bound`.  So a
    config built in Python writes the JSON of the same config read from a file."""

    def __post_init__(self) -> None:
        hints = _hints(type(self))
        for f in fields(self):
            where, value = f"{type(self).__name__}.{f.name}", getattr(self, f.name)
            canonical = _at(where, checked, hints[f.name], value)
            if canonical is not value:
                object.__setattr__(self, f.name, canonical)
            if broken := _broken(canonical, f.metadata):
                raise ValueError(f"{where}{broken}")


def validate_run_report(cls, doc):
    """The run report ``cls`` decoded from ``doc``, a run file's JSON, which holds every field."""
    missing = [f.name for f in _fields(cls) if f.name not in doc] if isinstance(doc, dict) else []
    if missing:
        raise ValueError(f"missing {cls.__name__} keys {missing}")
    return from_json(cls, doc)


_JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean"}


def schema(tp, keywords=None) -> dict:
    """JSON Schema of what ``from_json(tp, doc)`` reads, walking types as it does, a list as
    a tuple; a field adds the keywords of its ``bound()`` and a tagged dataclass its "kind"."""
    keywords = dict(keywords or {})
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        members = [a for a in args if a is not type(None)]
        if len(members) > 1:
            return {"oneOf": [schema(m) for m in members]}
        doc = schema(members[0], keywords)
        if "type" in doc:
            doc["type"] = [doc["type"], "null"]
        return doc
    if "enum" in keywords:
        # the listed values say the type too
        return {"enum": list(keywords["enum"])}
    if origin in (tuple, list) or tp in (tuple, list):
        items = keywords.pop("items", None)
        return {"type": "array", **keywords, **({"items": schema(args[0], items)} if args else {})}
    if origin is dict:
        return {"type": "object", "additionalProperties": schema(args[1])}
    if not is_dataclass(tp):
        return {"type": _JSON_TYPES[tp], **keywords}
    hints = _hints(tp)
    kind = {"kind": {"const": tp.kind}} if hasattr(tp, "kind") else {}
    properties = {**kind, **{f.name: schema(hints[f.name], f.metadata) for f in _fields(tp)}}
    required = [*kind, *(f.name for f in _fields(tp) if f.default is f.default_factory is MISSING)]
    doc = {"type": "object", "properties": properties, "additionalProperties": False}
    return {**doc, "required": required} if required else doc
