"""One JSON codec for every config dataclass, plus schema validation for
every document the toolkit reads or writes.

All on-disk documents use tagged objects ({"kind": ...}) for the union
types.  Schemas ship inside the package under ``adascale/schemas`` and are
the contract for external tooling.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, fields, is_dataclass
from importlib import resources
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import jsonschema

from .data import FileSource, StratifiedSampler, SyntheticSource, UnderSampler, UniformSampler
from .losses import Adaptive, Focal, Static, Vanilla
from .trainer import SGD, Adam, TrainConfig

__all__ = [
    "to_json",
    "from_json",
    "schema",
    "validate_experiment_config",
    "validate_run_report",
    "validate_comparison_report",
    "validate_sweep_report",
    "validate_grid_report",
    "write_json",
]


def write_json(doc: dict, path) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline, no NaN."""
    from pathlib import Path

    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


# the tag each member of a config union carries in JSON as "kind"
_KINDS = {
    Vanilla: "vanilla",
    Adaptive: "adaptive",
    Static: "static",
    Focal: "focal",
    UniformSampler: "uniform",
    StratifiedSampler: "stratified",
    UnderSampler: "undersample",
    SGD: "sgd",
    Adam: "adam",
    SyntheticSource: "synthetic",
    FileSource: "files",
}

# set for each run by the protocol, never read from or written to JSON
_PER_RUN = {TrainConfig: ("strategy", "seed")}


def _fields(cls) -> list:
    return [f for f in fields(cls) if f.name not in _PER_RUN.get(cls, ())]


def _encode(obj) -> dict:
    doc = {f.name: getattr(obj, f.name) for f in _fields(type(obj))}
    kind = _KINDS.get(type(obj))
    return doc if kind is None else {"kind": kind, **doc}


def to_json(obj):
    """JSON form of a config or report dataclass, tagged with its "kind" if it has one."""
    # json walks the containers (tuples become lists) and hands each dataclass to _encode
    return json.loads(json.dumps(obj, default=_encode))


def from_json(tp, doc):
    """Build a value of type ``tp`` from its JSON form.

    ``tp`` is a config dataclass, a union of tagged ones (chosen by the
    document's "kind"), or a field annotation.  An ``int`` takes an integral
    number, a ``float`` any number, a bool neither; absent dataclass keys
    take their defaults.  Any other value, or a key that is neither a field
    nor "kind", raises ``ValueError`` naming the class and the field.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if doc is None:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:
            return from_json(members[0], doc)
        kind = doc.get("kind")
        tp = next((m for m in members if _KINDS.get(m) == kind), None)
        if tp is None:
            raise ValueError(f"unknown kind {kind!r}")
    elif origin is tuple or tp is tuple:
        items = []
        for i, v in enumerate(doc):
            try:
                items.append(from_json(args[0], v) if args else v)
            except ValueError as error:
                raise ValueError(f"[{i}]: {error}") from None
        return tuple(items)
    elif origin is dict:
        return {k: from_json(args[1], v) for k, v in doc.items()}
    if tp in (int, float):
        if isinstance(doc, bool) or not isinstance(doc, (int, float)) or (tp is int and doc % 1):
            raise ValueError(f"expected {tp.__name__}, got {doc!r}")
        return tp(doc)
    if not is_dataclass(tp):
        return doc
    unknown = sorted(set(doc) - {f.name for f in _fields(tp)} - {"kind"})
    if unknown:
        raise ValueError(f"unknown {tp.__name__} keys {unknown}")
    hints = get_type_hints(tp)
    values = {}
    for f in (f for f in _fields(tp) if f.name in doc):
        try:
            values[f.name] = from_json(hints[f.name], doc[f.name])
        except ValueError as error:
            # an item's error starts with its index: "arms[1]: ..."
            text = str(error)
            sep = "" if text.startswith("[") else ": "
            raise ValueError(f"{tp.__name__}.{f.name}{sep}{text}") from None
    return tp(**values)


_JSON_TYPES = {int: "integer", float: "number", str: "string"}


def schema(tp, keywords=None) -> dict:
    """JSON Schema of what ``from_json(tp, doc)`` reads, walking types as it does;
    a field adds the keywords of its ``bound()`` and a tagged dataclass its "kind"."""
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
    if origin is tuple or tp is tuple:
        items = keywords.pop("items", None)
        return {"type": "array", **keywords, **({"items": schema(args[0], items)} if args else {})}
    if origin is dict:
        return {"type": "object", "additionalProperties": schema(args[1])}
    if not is_dataclass(tp):
        return {"type": _JSON_TYPES[tp], **keywords}
    hints = get_type_hints(tp)
    kind = {"kind": {"const": _KINDS[tp]}} if tp in _KINDS else {}
    properties = {**kind, **{f.name: schema(hints[f.name], f.metadata) for f in _fields(tp)}}
    required = [*kind, *(f.name for f in _fields(tp) if f.default is MISSING)]
    doc = {"type": "object", "properties": properties, "additionalProperties": False}
    return {**doc, "required": required} if required else doc


@functools.lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    text = resources.files("adascale").joinpath("schemas", name).read_text()
    return json.loads(text)


_NUMBER_ITEM_KEYS = {"type", "minimum", "maximum", "exclusiveMinimum"}
_generic_items = jsonschema.Draft202012Validator.VALIDATORS["items"]


def _items(validator, items, instance, schema):
    """``items`` that passes a list of plain in-range numbers in one Python pass.

    A run report holds one number per training step; the generic rule walks
    the item schema once per entry.  Only lists that rule would accept with
    no error take the short cut; every other list, a failing one included,
    goes to the generic rule, so errors and ``best_match`` are unchanged.
    """
    if (
        isinstance(items, dict)
        and items.get("type") == "number"
        and items.keys() <= _NUMBER_ITEM_KEYS
        and isinstance(instance, list)
    ):
        low = items.get("minimum", -math.inf)
        high = items.get("maximum", math.inf)
        above = items.get("exclusiveMinimum", -math.inf)
        if all(type(x) in (int, float) and low <= x <= high and x > above for x in instance):
            return
    yield from _generic_items(validator, items, instance, schema)


_Validator = jsonschema.validators.extend(jsonschema.Draft202012Validator, {"items": _items})


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """One validator per schema; the schema itself is checked once, here."""
    schema = _schema(name)
    _Validator.check_schema(schema)
    return _Validator(schema)


def _validate(doc: dict, schema_name: str) -> None:
    # what jsonschema.validate raises, without re-checking the schema per call
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(doc))
    if error is not None:
        raise error


def validate_experiment_config(doc: dict) -> None:
    _validate(doc, "experiment_config.schema.json")


def validate_run_report(doc: dict) -> None:
    _validate(doc, "run_report.schema.json")


def validate_comparison_report(doc: dict) -> None:
    _validate(doc, "comparison_report.schema.json")


def validate_sweep_report(doc: dict) -> None:
    _validate(doc, "sweep_report.schema.json")


def validate_grid_report(doc: dict) -> None:
    _validate(doc, "grid_report.schema.json")
