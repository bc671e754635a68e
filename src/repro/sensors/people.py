"""Simulated people: position, movement, profile facts, social graph."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.knowledge.facts import Fact
from repro.net.geo import Position
from repro.sensors.mobility_models import MobilityModel, Stationary
from repro.simulation import PeriodicTask, Simulator


@dataclass
class Person:
    """One member of the population."""

    name: str
    position: Position
    mobility: MobilityModel = field(default_factory=Stationary)
    nationality: str = ""
    likes: list[str] = field(default_factory=list)
    knows: list[str] = field(default_factory=list)
    travel_mode: str = "foot"

    def profile_facts(self) -> list[Fact]:
        """The person's relatively static knowledge-base entries (§1.1)."""
        facts = []
        if self.nationality:
            facts.append(Fact(self.name, "nationality", self.nationality))
        for liked in self.likes:
            facts.append(Fact(self.name, "likes", liked))
        for friend in self.knows:
            facts.append(Fact(self.name, "knows", friend))
        facts.append(Fact(self.name, "travel-mode", self.travel_mode))
        return facts


class Population:
    """Steps every person's mobility model on a fixed cadence."""

    def __init__(self, sim: Simulator, step_interval_s: float = 10.0):
        self.sim = sim
        self.step_interval_s = step_interval_s
        self.people: dict[str, Person] = {}
        self._rng = sim.rng_for("population")
        self._task = PeriodicTask(sim, step_interval_s, self._step_all)

    def add(self, person: Person) -> Person:
        if person.name in self.people:
            raise ValueError(f"duplicate person: {person.name}")
        self.people[person.name] = person
        return person

    def __getitem__(self, name: str) -> Person:
        return self.people[name]

    def __len__(self) -> int:
        return len(self.people)

    def __iter__(self):
        return iter(self.people.values())

    def _step_all(self) -> None:
        for person in self.people.values():
            mobility = person.mobility
            set_clock = getattr(mobility, "set_clock", None)
            if set_clock is not None:
                set_clock(self.sim.now)
            person.position = mobility.step(
                person.position, self.step_interval_s, self._rng
            )

    def stop(self) -> None:
        self._task.stop()
