"""The Virtual Drone Repository (VDR).

"Stores preconfigured virtual drone definitions for later use or reuse"
and receives virtual drones whose tasks were interrupted so they "can be
resumed on a later flight" (Sections 2 and 4.4).  An entry is a
definition plus the container's diff layer against a named base image —
the minimal-storage representation of Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.containers.image import Layer
from repro.vdc.definition import VirtualDroneDefinition


class UnknownVdrEntryError(KeyError):
    """Fetch of a VDR entry id that was never stored.  Subclasses
    ``KeyError`` so callers that caught the bare lookup error this used
    to surface as keep working."""

    def __init__(self, entry_id: str):
        super().__init__(f"no VDR entry {entry_id!r}")
        self.entry_id = entry_id

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

@dataclass
class VdrEntry:
    entry_id: str
    name: str
    definition: VirtualDroneDefinition
    base_image_tag: str
    diff: Layer
    resumable: bool
    flights: int = 1
    #: waypoint indices already serviced on previous flights, so a
    #: resumed virtual drone continues where it left off.
    completed_waypoints: frozenset = frozenset()

    @property
    def stored_bytes(self) -> int:
        return self.diff.size_bytes() + len(self.definition.to_json())


class VirtualDroneRepository:
    """The cloud-side store of offline virtual drones."""

    def __init__(self) -> None:
        self._entries: Dict[str, VdrEntry] = {}
        #: latest entry per tenant name, for resume lookups.
        self._latest: Dict[str, str] = {}
        #: entries stored per tenant, for id minting.
        self._stored_count: Dict[str, int] = {}

    def store(self, name: str, definition: VirtualDroneDefinition,
              base_image_tag: str, diff: Layer, resumable: bool,
              completed_waypoints=frozenset()) -> str:
        # Ids are per-tenant sequences (vdr-<tenant>-1, -2, ...), not one
        # global counter: a tenant's entry ids then depend only on its
        # own flight history, not on how many entries other tenants
        # stored first.
        sequence = self._stored_count.get(name, 0) + 1
        self._stored_count[name] = sequence
        entry_id = f"vdr-{name}-{sequence}"
        previous = self._latest.get(name)
        flights = self._entries[previous].flights + 1 if previous else 1
        self._entries[entry_id] = VdrEntry(
            entry_id, name, definition, base_image_tag, diff, resumable,
            flights, frozenset(completed_waypoints)
        )
        self._latest[name] = entry_id
        return entry_id

    def fetch(self, entry_id: str) -> VdrEntry:
        if entry_id not in self._entries:
            raise UnknownVdrEntryError(entry_id)
        return self._entries[entry_id]

    def latest_for(self, name: str) -> Optional[VdrEntry]:
        entry_id = self._latest.get(name)
        return self._entries[entry_id] if entry_id else None

    def resumable_entries(self) -> List[VdrEntry]:
        return [e for e in self._entries.values() if e.resumable]

    def list_entries(self) -> List[VdrEntry]:
        return list(self._entries.values())

    def delete(self, entry_id: str) -> None:
        entry = self._entries.pop(entry_id, None)
        if entry and self._latest.get(entry.name) == entry_id:
            del self._latest[entry.name]

    def total_stored_bytes(self) -> int:
        return sum(e.stored_bytes for e in self._entries.values())
