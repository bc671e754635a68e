"""Declarative pipeline descriptions (§4.9's programming abstraction).

A :class:`PipelineSpec` says *what* components a service needs and how they
connect; it deliberately says nothing about physical nodes.  Placement is
decided separately (by hand in the examples, by the evolution engine in the
full system), so topology stays "orthogonal to the service definition and
its deployment" (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComponentSpec:
    """One component: registry name + parameters + needed capabilities."""

    name: str
    component: str
    params: tuple = ()
    capabilities: frozenset = frozenset()
    placement_hint: str = ""  # region name or "" = anywhere

    @classmethod
    def make(
        cls,
        name: str,
        component: str,
        params: dict | None = None,
        capabilities: set | frozenset | None = None,
        placement_hint: str = "",
    ) -> "ComponentSpec":
        return cls(
            name=name,
            component=component,
            params=tuple(sorted((params or {}).items())),
            capabilities=frozenset(capabilities or ()),
            placement_hint=placement_hint,
        )


@dataclass(frozen=True)
class EdgeSpec:
    """Directed event flow from one named component to another."""

    src: str
    dst: str


@dataclass(frozen=True)
class PipelineSpec:
    """A named pipeline: components plus edges."""

    name: str
    components: tuple
    edges: tuple = ()

    def validate(self) -> None:
        names = [c.name for c in self.components]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate component names in pipeline {self.name!r}")
        known = set(names)
        for edge in self.edges:
            if edge.src not in known or edge.dst not in known:
                raise ValueError(
                    f"edge {edge.src}->{edge.dst} references unknown components"
                )

    def component(self, name: str) -> ComponentSpec:
        for spec in self.components:
            if spec.name == name:
                return spec
        raise KeyError(name)
