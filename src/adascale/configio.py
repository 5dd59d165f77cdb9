"""One JSON codec for every config and report dataclass, the package's only
validator, plus the JSON Schema of what it reads.

All on-disk documents use tagged objects ({"kind": ...}) for the union
types, each tagged with its class's ``kind``; a ``per_run`` class variable
names fields JSON never holds.  No other module of the package is imported
here.  Schemas ship inside the package under ``adascale/schemas`` as the
contract for external tooling; the package runs none of them.
"""

from __future__ import annotations

import functools
import json
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

__all__ = [
    "to_json",
    "from_json",
    "mistyped",
    "schema",
    "validate_run_report",
    "read_json",
    "write_json",
]


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


def _at(where: str, tp, doc):
    """``from_json(tp, doc)`` whose error names ``where``, a field, an index or a key."""
    try:
        return from_json(tp, doc)
    except ValueError as error:
        text = str(error)  # an item's starts with its index: "arms" + "[1]: ..."
        raise ValueError(f"{where}{'' if text.startswith('[') else ': '}{text}") from None


def from_json(tp, doc):
    """Build a value of type ``tp`` from its JSON form.

    ``tp`` is a config or report dataclass, a union of tagged ones (chosen by
    the document's "kind"), or a field annotation.  A dataclass, union or
    dict takes an object, a tuple or list an array, an ``int`` an integral
    number, a ``float`` any number, and a ``bool`` or ``str`` only its own
    type.  Absent keys take their field's default.  Any other value, an
    absent key without one, or a key that is neither a field nor "kind",
    raises ``ValueError`` naming the class and the field.
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
        # a run report's lists hold one float per training step, taken as they are if all are floats
        if args and not (args[0] is float and set(map(type, doc)) <= {float}):
            doc = [_at(f"[{i}]", args[0], v) for i, v in enumerate(doc)]
        return (list if list in (origin, tp) else tuple)(doc)
    elif origin is dict:
        if not isinstance(doc, dict):
            raise ValueError(f"expected object, got {_shown(doc)}")
        return {k: _at(f"[{k!r}]", args[1], v) for k, v in doc.items()}
    if tp in (int, float):
        if isinstance(doc, bool) or not isinstance(doc, (int, float)) or (tp is int and doc % 1):
            raise ValueError(f"expected {tp.__name__}, got {doc!r}")
        try:
            return tp(doc)
        except OverflowError:  # an integer beyond the range of a float
            raise ValueError(f"expected finite float, got {_shown(doc)}") from None
    if tp in (str, bool):
        if not isinstance(doc, tp):
            raise ValueError(f"expected {tp.__name__}, got {doc!r}")
        return doc
    if not is_dataclass(tp):
        return doc
    if not isinstance(doc, dict):
        raise ValueError(f"expected {tp.__name__} object, got {_shown(doc)}")
    # a renamed key reads as the missing one
    missing = [f.name for f in _fields(tp) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ValueError(f"missing {tp.__name__} keys {missing}")
    unknown = sorted(set(doc) - {f.name for f in _fields(tp)} - {"kind"})
    if unknown:
        raise ValueError(f"unknown {tp.__name__} keys {unknown}")
    hints, present = _hints(tp), [f.name for f in _fields(tp) if f.name in doc]
    return tp(**{key: _at(f"{tp.__name__}.{key}", hints[key], doc[key]) for key in present})


def _type_name(tp) -> str:
    if get_origin(tp) in (Union, UnionType):
        return " | ".join(_type_name(a) for a in get_args(tp))
    return "None" if tp is type(None) else (get_origin(tp) or tp).__name__


def mistyped(tp, value) -> str | None:
    """What keeps the Python ``value`` from being of the annotation ``tp``, as
    ": expected <type>, got <value>" after the index or key of an item at fault,
    or None if nothing does.

    Types are read as ``from_json`` reads them: an ``int`` is also a
    ``float`` (a bool is neither), a tuple or list field takes either, and an
    optional or tagged union any of its members.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        members = [a for a in args if a is not type(None)]
        if value is None and len(members) < len(args):
            return None
        if len(members) == 1:
            return mistyped(members[0], value)
        if isinstance(value, tuple(members)):
            return None
    elif origin in (tuple, list) or tp in (tuple, list):
        if isinstance(value, (tuple, list)):
            if not args or (args[0] is float and set(map(type, value)) <= {float}):
                return None
            return next((f"[{i}]{e}" for i, v in enumerate(value) if (e := mistyped(args[0], v))), None)
    elif origin is dict:
        if isinstance(value, dict):
            return next((f"[{k!r}]{e}" for k, v in value.items() if (e := mistyped(args[1], v))), None)
    elif not isinstance(tp, type):
        return None
    elif isinstance(value, (int, float) if tp is float else tp):
        if tp is bool or not isinstance(value, bool):
            return None
    return f": expected {_type_name(tp)}, got {reprlib.repr(value)}"


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
    required = [*kind, *(f.name for f in _fields(tp) if f.default is MISSING)]
    doc = {"type": "object", "properties": properties, "additionalProperties": False}
    return {**doc, "required": required} if required else doc
