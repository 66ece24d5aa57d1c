"""Check JSON documents against the bundled draft-07 schemas.

Implements the keywords those schemas use, and no others: ``type``,
``required``, ``properties``, ``additionalProperties`` (false or a schema),
``minLength``, ``enum``, ``const`` and ``oneOf``; ``$schema``, ``$id`` and
``title`` are annotations.  A bundled schema with any other keyword is
refused when it is loaded, so a schema edit cannot go unchecked.

Messages are jsonschema 4's, and the error reported is the one its
``best_match`` picks: the shallowest, then the last by path, then one not
from ``oneOf``; a ``oneOf`` error gives way to the deepest error under its
alternatives, when one stands out.
"""

from __future__ import annotations

import functools
import json
import numbers
from importlib import resources
from typing import NamedTuple


class SchemaViolation(ValueError):
    """A document its schema rejects; the message is the best-matching error's."""


class _Error(NamedTuple):
    message: str
    keyword: str
    schema: dict  # the (sub)schema whose keyword failed
    instance: object
    path: tuple = ()  # keys from the checked instance down to ``instance``
    context: tuple = ()  # a oneOf's errors under each alternative


# the draft-07 types the bundled schemas name ("integer" is not among them)
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

_ANNOTATIONS = frozenset({"$schema", "$id", "title"})


def check(doc, name):
    """Raise `SchemaViolation` when bundled schema ``name`` rejects ``doc``."""
    error = _best(_errors(doc, load(name)))
    if error is not None:
        raise SchemaViolation(error.message)


@functools.cache
def load(name):
    """Bundled schema ``name``, refused if it uses a keyword this module does not implement."""
    schema = json.loads(resources.files("ulamstab.schemas").joinpath(name).read_text())
    _implemented(schema)
    return schema


def _implemented(schema):
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not an object")
    for keyword in schema:
        if keyword not in _KEYWORDS and keyword not in _ANNOTATIONS:
            raise ValueError(f"schema keyword {keyword!r} is not implemented")
    for t in _names(schema.get("type", [])):
        if t not in _TYPES:
            raise ValueError(f"schema type {t!r} is not implemented")
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]:
        _implemented(sub)
    if schema.get("additionalProperties", False) is not False:
        _implemented(schema["additionalProperties"])


def _errors(instance, schema):
    """Every error of ``instance`` under ``schema``, in jsonschema's order."""
    for keyword, value in schema.items():
        if keyword not in _ANNOTATIONS:
            yield from _KEYWORDS[keyword](value, instance, schema)


def _descend(instance, schema, key):
    for error in _errors(instance, schema):
        yield error._replace(path=(key, *error.path))


def _names(types):
    """A ``type`` value as a list of type names."""
    return [types] if isinstance(types, str) else types


def _type(types, instance, schema):
    types = _names(types)
    if not any(_TYPES[t](instance) for t in types):
        yield _Error(f"{instance!r} is not of type {', '.join(map(repr, types))}", "type", schema, instance)


def _required(names, instance, schema):
    if isinstance(instance, dict):
        for name in names:
            if name not in instance:
                yield _Error(f"{name!r} is a required property", "required", schema, instance)


def _properties(subschemas, instance, schema):
    if isinstance(instance, dict):
        for name, sub in subschemas.items():
            if name in instance:
                yield from _descend(instance[name], sub, name)


def _additional_properties(rule, instance, schema):
    if not isinstance(instance, dict):
        return
    extras = [name for name in instance if name not in schema.get("properties", {})]
    if isinstance(rule, dict):
        for name in extras:
            yield from _descend(instance[name], rule, name)
    elif rule is False and extras:
        verb = "was" if len(extras) == 1 else "were"
        message = f"Additional properties are not allowed ({', '.join(map(repr, sorted(extras)))} {verb} unexpected)"
        yield _Error(message, "additionalProperties", schema, instance)


def _min_length(n, instance, schema):
    if isinstance(instance, str) and len(instance) < n:
        message = f"{instance!r} {'should be non-empty' if n == 1 else 'is too short'}"
        yield _Error(message, "minLength", schema, instance)


def _enum(values, instance, schema):
    if not any(_equal(v, instance) for v in values):
        yield _Error(f"{instance!r} is not one of {values!r}", "enum", schema, instance)


def _const(value, instance, schema):
    if not _equal(instance, value):
        yield _Error(f"{value!r} was expected", "const", schema, instance)


def _one_of(subschemas, instance, schema):
    context = []
    for i, sub in enumerate(subschemas):
        errors = list(_errors(instance, sub))
        if not errors:
            more = [s for s in subschemas[i + 1 :] if next(_errors(instance, s), None) is None]
            if more:
                listed = ", ".join(map(repr, [*more, sub]))
                yield _Error(f"{instance!r} is valid under each of {listed}", "oneOf", schema, instance)
            return
        context.extend(errors)
    message = f"{instance!r} is not valid under any of the given schemas"
    yield _Error(message, "oneOf", schema, instance, (), tuple(context))


_KEYWORDS = {
    "type": _type,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "minLength": _min_length,
    "enum": _enum,
    "const": _const,
    "oneOf": _one_of,
}


def _equal(a, b):
    """JSON equality: a bool equals only a bool, at any depth."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _relevance(error):
    # jsonschema 4's `relevance`: a larger key is a better match; oneOf is its one weak keyword
    matches_type = any(_TYPES[t](error.instance) for t in _names(error.schema.get("type", [])))
    return -len(error.path), error.path, error.keyword != "oneOf", not matches_type


def _best(errors):
    """jsonschema 4's `best_match`: the best error, a oneOf error giving way to one that stands out beneath it."""
    best = max(errors, key=_relevance, default=None)
    while best is not None and best.context:
        ranked = sorted(best.context, key=_relevance)
        if len(ranked) > 1 and _relevance(ranked[0]) == _relevance(ranked[1]):
            break
        best = ranked[0]
    return best
