"""Type projection: bind program-side types onto partially-specified XML.

The paper (§3) prefers projection over generation because it can "handle
partial data model specifications ... where the overall structure of the
data is not tightly specified, yet it contains structured 'islands' whose
structure is known a priori".

Declare a projection as a class with annotated fields::

    class Location(XmlProjection):
        __tag__ = "location"
        user: str
        lat: float
        lon: float
        accuracy: float = 10.0      # optional, default used when absent

    loc = project(Location, element)        # bind one element
    islands = find_islands(Location, doc)   # find all bindable islands

Field values are resolved from the element's attributes first, then from a
child element's text.  Extra attributes and children are ignored — that is
what makes projection robust to schema evolution (E10).
"""

from __future__ import annotations

import typing
from typing import Any, get_args, get_origin, get_type_hints

from repro.xmlkit.model import XmlElement


class ProjectionError(Exception):
    """The element cannot satisfy the projection's field requirements."""


class XmlProjection:
    """Base class for declarative projections."""

    __tag__: str = ""
    _fields: dict[str, tuple[Any, Any]] = {}
    _MISSING = object()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.__tag__:
            cls.__tag__ = cls.__name__.lower()
        hints = {
            name: hint
            for name, hint in get_type_hints(cls).items()
            if not name.startswith("_")
        }
        fields: dict[str, tuple[Any, Any]] = {}
        for name, hint in hints.items():
            default = getattr(cls, name, cls._MISSING)
            fields[name] = (hint, default)
        cls._fields = fields

    def __init__(self, **values: Any):
        for name in type(self)._fields:
            if name in values:
                setattr(self, name, values.pop(name))
        if values:
            raise TypeError(f"unknown fields: {sorted(values)}")

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return all(
            getattr(self, name, None) == getattr(other, name, None)
            for name in type(self)._fields
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name, None)!r}" for name in type(self)._fields
        )
        return f"{type(self).__name__}({inner})"


def _convert_scalar(raw: str, target: type) -> Any:
    if target is str:
        return raw
    if target is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ProjectionError(f"cannot read {raw!r} as bool")
    if target is int:
        try:
            return int(raw.strip())
        except ValueError as err:
            raise ProjectionError(f"cannot read {raw!r} as int") from err
    if target is float:
        try:
            return float(raw.strip())
        except ValueError as err:
            raise ProjectionError(f"cannot read {raw!r} as float") from err
    raise ProjectionError(f"unsupported scalar type {target!r}")


def _resolve_field(element: XmlElement, name: str, hint: Any) -> Any:
    origin = get_origin(hint)
    if origin in (list, typing.List):
        (item_type,) = get_args(hint)
        if isinstance(item_type, type) and issubclass(item_type, XmlProjection):
            return [
                project(item_type, child)
                for child in element.children_by_tag(item_type.__tag__)
            ]
        return [
            _convert_scalar(child.text, item_type)
            for child in element.children_by_tag(name)
        ]
    if isinstance(hint, type) and issubclass(hint, XmlProjection):
        child = element.child(hint.__tag__) or element.child(name)
        if child is None:
            raise ProjectionError(f"missing nested element for field {name!r}")
        return project(hint, child)
    if name in element.attrs:
        return _convert_scalar(element.attrs[name], hint)
    child = element.child(name)
    if child is not None:
        return _convert_scalar(child.text, hint)
    raise ProjectionError(f"no attribute or child supplies field {name!r}")


def project(cls: type, element: XmlElement):
    """Bind ``element`` to projection ``cls``; raises ProjectionError."""
    if not (isinstance(cls, type) and issubclass(cls, XmlProjection)):
        raise TypeError("project() needs an XmlProjection subclass")
    if element.tag != cls.__tag__:
        raise ProjectionError(
            f"element <{element.tag}> does not match projection tag <{cls.__tag__}>"
        )
    values: dict[str, Any] = {}
    for name, (hint, default) in cls._fields.items():
        try:
            values[name] = _resolve_field(element, name, hint)
        except ProjectionError:
            if default is XmlProjection._MISSING:
                raise
            values[name] = default
    instance = cls.__new__(cls)
    for name, value in values.items():
        setattr(instance, name, value)
    return instance


def find_islands(cls: type, root: XmlElement) -> list:
    """All descendants of ``root`` (inclusive) that bind to ``cls``.

    This is the "islands of structure" search: the surrounding document may
    be arbitrary, only the islands must have known structure.
    """
    islands = []
    for element in root.iter():
        if element.tag != cls.__tag__:
            continue
        try:
            islands.append(project(cls, element))
        except ProjectionError:
            continue
    return islands
