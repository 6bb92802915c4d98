"""Validation of a JSON instance against the config schema.

The package's one schema (``schemas/config.schema.json``) uses a small part
of JSON Schema 2020-12 (https://json-schema.org/draft/2020-12).  This module
implements exactly that part: ``type``, ``required``, ``properties``,
``additionalProperties`` (as a boolean), ``items`` (as a schema),
``minItems``, ``minimum``, ``maximum``, ``exclusiveMinimum``, ``enum`` and
``const`` (of scalars), ``oneOf``, ``allOf`` and ``if``/``then``, plus the
annotations ``$schema``, ``title`` and ``description``.  A schema using any
other keyword, or one of these in another form, is refused when the
``Validator`` is built, so the schema cannot outgrow it unnoticed.

Errors come in the order ``jsonschema`` yields them (keywords in schema
order, properties in schema order, items by index) and with its wording, so
the first error by instance path reads the same either way.

>>> v = Validator({"type": "object", "properties": {"n": {"type": "integer", "minimum": 1}}})
>>> v.first_error({"n": 2.0}) is None
True
>>> v.first_error({"n": 0})
('$.n', '0 is less than the minimum of 1')
>>> v.first_error({"n": True})
('$.n', "True is not of type 'integer'")
"""

from __future__ import annotations

import operator
from typing import Iterator

__all__ = ["Validator"]

_ANNOTATIONS = {"$schema", "title", "description"}
# keyword -> how its argument holds subschemas
_KEYWORDS = {"type": None, "required": None, "properties": "map", "additionalProperties": None,
             "items": "one", "minItems": None, "minimum": None, "maximum": None,
             "exclusiveMinimum": None, "enum": None, "const": None, "oneOf": "list",
             "allOf": "list", "if": "one", "then": "one"}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "maximum": (operator.gt, "greater than the maximum of"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum of")}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": int}
_SCALAR = (str, int, float, bool, type(None))


def _is_type(value, name: str) -> bool:
    if isinstance(value, bool):  # bool is an int to Python, not to JSON
        return name == "boolean"
    if name == "integer" and isinstance(value, float):
        return value.is_integer()  # 2020-12: 2.0 is an integer
    return isinstance(value, _TYPES[name])


def _equal(a, b) -> bool:
    """JSON equality of scalars: ``1 == 1.0`` but ``True != 1``."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _check_schema(schema, where: str) -> None:
    """Raise ``ValueError`` on anything outside the supported subset."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema at {where} is not an object")
    for key, arg in schema.items():
        at = f"{where}/{key}"
        if key in _ANNOTATIONS:
            continue
        if key not in _KEYWORDS:
            what = f"keyword {key!r}"
        elif key == "type" and not set([arg] if isinstance(arg, str) else arg) <= set(_TYPES):
            what = f"type {arg!r}"
        elif key == "additionalProperties" and not isinstance(arg, bool):
            what = f"value {arg!r} (only true or false)"
        elif key in ("enum", "const") and not all(
                isinstance(v, _SCALAR) for v in (arg if key == "enum" else [arg])):
            what = f"value {arg!r} (only scalars)"
        else:
            what = None
        if what is not None:
            raise ValueError(f"schema {what} at {at} is not supported")
        if _KEYWORDS[key] == "one":
            _check_schema(arg, at)
        elif _KEYWORDS[key] == "list":
            for k, sub in enumerate(arg):
                _check_schema(sub, f"{at}/{k}")
        elif _KEYWORDS[key] == "map":
            for name, sub in arg.items():
                _check_schema(sub, f"{at}/{name}")


def _valid(schema: dict, value) -> bool:
    return next(_errors(schema, value, ()), None) is None


def _errors(schema: dict, value, path: tuple) -> Iterator[tuple[tuple, str]]:
    """Every ``(path, message)`` of ``value`` against ``schema``, where a path
    is a tuple of property names and array indices."""
    for key, arg in schema.items():
        if key == "type":
            names = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(value, n) for n in names):
                yield path, f"{value!r} is not of type {', '.join(repr(n) for n in names)}"
        elif key in _BOUNDS:
            test, words = _BOUNDS[key]
            if _is_type(value, "number") and test(value, arg):
                yield path, f"{value!r} is {words} {arg!r}"
        elif key == "enum":
            if not any(_equal(v, value) for v in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "const":
            if not _equal(value, arg):
                yield path, f"{arg!r} was expected"
        elif key == "oneOf":
            valid = [sub for sub in arg if _valid(sub, value)]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:  # jsonschema lists the later ones, then the first
                reprs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
                yield path, f"{value!r} is valid under each of {reprs}"
        elif key == "allOf":
            for sub in arg:
                yield from _errors(sub, value, path)
        elif key == "if":
            if "then" in schema and _valid(arg, value):
                yield from _errors(schema["then"], value, path)
        elif isinstance(value, dict):
            if key == "required":
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _errors(sub, value[name], path + (name,))
            elif key == "additionalProperties" and not arg:
                extras = sorted((k for k in value if k not in schema.get("properties", {})),
                                key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, (f"Additional properties are not allowed "
                                 f"({', '.join(repr(k) for k in extras)} {verb} unexpected)")
        elif isinstance(value, list):
            if key == "items":
                for k, item in enumerate(value):
                    yield from _errors(arg, item, path + (k,))
            elif key == "minItems" and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"


def _json_path(path: tuple) -> str:
    """``$.points[0].x`` style, as ``jsonschema``'s ``ValidationError.json_path``."""
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


class Validator:
    """A schema, checked once against the supported subset, to validate
    any number of instances."""

    def __init__(self, schema: dict):
        _check_schema(schema, "#")
        self.schema = schema

    def first_error(self, instance) -> tuple[str, str] | None:
        """``(json path, message)`` of the error with the least instance path
        (the first yielded among equals), or None for a valid instance."""
        first = min(_errors(self.schema, instance, ()), key=lambda e: e[0], default=None)
        return None if first is None else (_json_path(first[0]), first[1])
