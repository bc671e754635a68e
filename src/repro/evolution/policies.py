"""Data placement policies (§4.5-4.6).

"A latency-reduction policy might seek to replicate progressively more of a
user's personal data at storage units geographically close to the user's
current location, the longer that the user remained at that location.  A
backup policy might seek to replicate data on a geographically remote
storage unit as soon as possible after it was created."  Both are built on
the storage layer's promiscuous caching: policies *seed* caches (and pin
backups); correctness never depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.model import Notification
from repro.evolution.advertisement import region_of
from repro.ids import Guid
from repro.net.geo import Position
from repro.simulation import PeriodicTask, Simulator
from repro.storage.service import StorageService


@dataclass
class SeedAction:
    time: float
    guid_hex: str
    region: str
    reason: str


class LatencyReductionPolicy:
    """Pull a user's data toward the region they dwell in.

    Feed it ``user-location`` events; once a user has stayed in one region
    for ``dwell_threshold_s``, the policy reads each of the user's
    registered objects through a storage node in that region, leaving
    promiscuous cache copies close to the user.
    """

    def __init__(
        self,
        sim: Simulator,
        services_by_region: dict[str, list[StorageService]],
        dwell_threshold_s: float = 600.0,
    ):
        self.sim = sim
        self.services_by_region = services_by_region
        self.dwell_threshold_s = dwell_threshold_s
        self.user_data: dict[str, list[Guid]] = {}
        self._dwell: dict[str, tuple[str, float]] = {}  # user -> (region, since)
        self._seeded: set[tuple[str, str]] = set()  # (user, region)
        self.actions: list[SeedAction] = []

    def register_user_data(self, user: str, guids: list[Guid]) -> None:
        self.user_data.setdefault(user, []).extend(guids)

    def on_event(self, event: Notification) -> None:
        if event.event_type != "user-location":
            return
        user = str(event["subject"])
        region = region_of(Position(float(event["lat"]), float(event["lon"])))
        current = self._dwell.get(user)
        if current is None or current[0] != region:
            self._dwell[user] = (region, self.sim.now)
            return
        dwell_time = self.sim.now - current[1]
        if dwell_time < self.dwell_threshold_s or (user, region) in self._seeded:
            return
        self._seeded.add((user, region))
        self._seed(user, region)

    def _seed(self, user: str, region: str) -> None:
        services = self.services_by_region.get(region, [])
        if not services:
            return
        service = min(services, key=lambda s: len(s.cache))
        for guid in self.user_data.get(user, []):
            service.get(guid)  # reader caching leaves an in-region copy
            self.actions.append(
                SeedAction(self.sim.now, guid.hex[:8], region, f"dwell:{user}")
            )

    def reset_user(self, user: str) -> None:
        """Forget dwell state (e.g. when the user's data set changes)."""
        self._dwell.pop(user, None)
        self._seeded = {(u, r) for u, r in self._seeded if u != user}


class BackupPolicy:
    """Pin a copy of newly created data in a geographically remote region."""

    def __init__(
        self,
        sim: Simulator,
        services_by_region: dict[str, list[StorageService]],
    ):
        self.sim = sim
        self.services_by_region = services_by_region
        self.actions: list[SeedAction] = []

    def backup(self, guid: Guid, origin_region: str) -> StorageService | None:
        """Fetch-and-pin ``guid`` at a node outside ``origin_region``."""
        remote_regions = [
            r for r in sorted(self.services_by_region) if r != origin_region
        ]
        for region in remote_regions:
            services = self.services_by_region[region]
            if not services:
                continue
            service = services[0]

            def on_fetched(fut, service=service, region=region) -> None:
                if fut.exception is not None:
                    return
                service.cache.pin(guid)
                self.actions.append(
                    SeedAction(self.sim.now, guid.hex[:8], region, "backup")
                )

            service.get(guid).add_callback(on_fetched)
            return service
        return None


class DiurnalPrefetchPolicy:
    """Learn hour-of-day access patterns, prefetch before the rush (§4.6).

    "The system might observe diurnal patterns in data access ... In
    response to these observations the system would modify the constraint
    set to optimise the caching and replication of data as is appropriate."
    """

    def __init__(
        self,
        sim: Simulator,
        services_by_region: dict[str, list[StorageService]],
        lead_time_s: float = 300.0,
        max_bucket_size: int = 256,
    ):
        self.sim = sim
        self.services_by_region = services_by_region
        self.lead_time_s = lead_time_s
        self.max_bucket_size = max_bucket_size
        # (hour, region) -> {guid: access count}
        self.history: dict[tuple[int, str], dict[Guid, int]] = {}
        self.prefetches: list[SeedAction] = []
        self._task = PeriodicTask(sim, 3600.0, self._prefetch_next_hour, start_delay=3600.0 - lead_time_s)

    def record_access(self, guid: Guid, region: str) -> None:
        hour = int(self.sim.now % 86400.0 // 3600.0)
        bucket = self.history.setdefault((hour, region), {})
        bucket[guid] = bucket.get(guid, 0) + 1
        if len(bucket) > self.max_bucket_size:
            self._decay(bucket)

    def _decay(self, bucket: dict[Guid, int]) -> None:
        """Halve counts and drop the long tail, bounding bucket memory.

        Long simulations touch an unbounded stream of one-off guids; without
        decay each ``(hour, region)`` bucket grows forever.  Halving on
        overflow ages out cold entries (count 1 -> 0 -> dropped) while the
        genuinely popular guids keep dominating the prefetch ranking — the
        same aging trick frequency sketches use.
        """
        for guid in list(bucket):
            bucket[guid] //= 2
            if bucket[guid] <= 0:
                del bucket[guid]
        if len(bucket) > self.max_bucket_size:
            keep = sorted(bucket.items(), key=lambda kv: -kv[1])[: self.max_bucket_size]
            bucket.clear()
            bucket.update(keep)

    def _prefetch_next_hour(self) -> None:
        next_hour = int((self.sim.now + self.lead_time_s) % 86400.0 // 3600.0)
        for (hour, region), bucket in self.history.items():
            if hour != next_hour:
                continue
            services = self.services_by_region.get(region, [])
            if not services:
                continue
            service = services[0]
            popular = sorted(bucket.items(), key=lambda kv: -kv[1])[:16]
            for guid, _count in popular:
                service.get(guid)
                self.prefetches.append(
                    SeedAction(self.sim.now, guid.hex[:8], region, f"diurnal:h{hour}")
                )

    def stop(self) -> None:
        self._task.stop()
