"""Light record schema: typed, named fields with a designated primary key.

The store does not force an object model on callers — records are plain
dictionaries — but every table carries a :class:`Schema` that validates
records on write.  Validation is strict on the fields it knows about and
rejects unknown fields, which catches ingest bugs early.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import ValidationError


class FieldType(enum.Enum):
    """Value types storable in a record field."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING_LIST = "string_list"

    def check(self, value: Any) -> bool:
        """True when ``value`` conforms to this type."""
        if self is FieldType.STRING:
            return isinstance(value, str)
        if self is FieldType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is FieldType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is FieldType.BOOL:
            return isinstance(value, bool)
        if self is FieldType.STRING_LIST:
            return isinstance(value, list) and all(isinstance(v, str) for v in value)
        raise AssertionError(f"unhandled field type {self}")  # pragma: no cover


@dataclass(frozen=True, slots=True)
class Field:
    """One schema field."""

    name: str
    type: FieldType
    required: bool = True

    def validate(self, record: Mapping[str, Any]) -> None:
        """Raise :class:`ValidationError` when ``record`` violates this field."""
        if self.name not in record or record[self.name] is None:
            if self.required:
                raise ValidationError(f"missing required field {self.name!r}", field=self.name)
            return
        if not self.type.check(record[self.name]):
            raise ValidationError(
                f"field {self.name!r} expects {self.type.value}, "
                f"got {type(record[self.name]).__name__}",
                field=self.name,
            )


def _type_checker(field_type: FieldType) -> Any:
    """A plain predicate equivalent to ``field_type.check`` (bulk path)."""
    if field_type is FieldType.STRING:
        return lambda v: isinstance(v, str)
    if field_type is FieldType.INT:
        return lambda v: isinstance(v, int) and not isinstance(v, bool)
    if field_type is FieldType.FLOAT:
        return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if field_type is FieldType.BOOL:
        return lambda v: isinstance(v, bool)
    if field_type is FieldType.STRING_LIST:
        return lambda v: isinstance(v, list) and all(isinstance(e, str) for e in v)
    raise AssertionError(f"unhandled field type {field_type}")  # pragma: no cover


class Schema:
    """A table schema: ordered fields plus the primary-key field name.

    >>> schema = Schema(
    ...     [Field("id", FieldType.INT), Field("title", FieldType.STRING)],
    ...     primary_key="id",
    ... )
    >>> schema.validate({"id": 1, "title": "x"})
    >>> schema.primary_key_of({"id": 1, "title": "x"})
    1
    """

    def __init__(self, fields: Iterable[Field], *, primary_key: str):
        self.fields: tuple[Field, ...] = tuple(fields)
        self._by_name: dict[str, Field] = {f.name: f for f in self.fields}
        if len(self._by_name) != len(self.fields):
            raise ValidationError("duplicate field names in schema")
        if primary_key not in self._by_name:
            raise ValidationError(f"primary key {primary_key!r} is not a schema field")
        if not self._by_name[primary_key].required:
            raise ValidationError(f"primary key {primary_key!r} must be required")
        self.primary_key = primary_key
        # Pre-bound per-field type predicates for the bulk path: a plain
        # isinstance call per value instead of an enum-method dispatch.
        self._checkers: tuple[tuple[str, bool, Any], ...] = tuple(
            (f.name, f.required, _type_checker(f.type)) for f in self.fields
        )

    def field(self, name: str) -> Field:
        """Look up a field by name; raises :class:`ValidationError` if unknown."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown field {name!r}", field=name) from None

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def validate(self, record: Mapping[str, Any]) -> None:
        """Validate a whole record (all fields, no unknown keys)."""
        for f in self.fields:
            f.validate(record)
        unknown = set(record) - set(self._by_name)
        if unknown:
            raise ValidationError(
                f"unknown fields: {sorted(unknown)}", field=next(iter(sorted(unknown)))
            )

    def validate_many(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Validate a batch of records — same checks and errors as
        :meth:`validate`, one record at a time, but with the per-field
        dispatch hoisted out of the loop.

        Bulk ingest validates every record before anything is logged, so
        validation is a fixed per-record cost on the ``put_many`` hot
        path; this loop runs the pre-bound type predicates and a dict
        membership probe per key instead of building two sets and an enum
        dispatch per record.
        """
        checkers = self._checkers
        known = self._by_name
        for record in records:
            if not isinstance(record, dict):
                # Fail (or pass) exactly as validate() does on odd input.
                self.validate(record)
                continue
            for name, required, ok in checkers:
                value = record.get(name)
                if value is None:
                    if required:
                        raise ValidationError(
                            f"missing required field {name!r}", field=name
                        )
                elif not ok(value):
                    raise ValidationError(
                        f"field {name!r} expects {known[name].type.value}, "
                        f"got {type(value).__name__}",
                        field=name,
                    )
            for key in record:
                if key not in known:
                    unknown = sorted(set(record) - known.keys())
                    raise ValidationError(
                        f"unknown fields: {unknown}", field=unknown[0]
                    )

    def primary_key_of(self, record: Mapping[str, Any]) -> Any:
        """Extract the primary-key value from a record."""
        try:
            return record[self.primary_key]
        except KeyError:
            raise ValidationError(
                f"record lacks primary key {self.primary_key!r}", field=self.primary_key
            ) from None
