"""Kernel namespaces.

AnDrone's container architecture relies on standard Linux namespaces for
isolation plus the *device namespace* concept (Cells/AnDrone lineage) that
the Binder driver uses to give each container its own Context Manager.
This module models namespace identity; the Binder-specific behaviour lives
in :mod:`repro.binder.driver`.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict


class NamespaceKind(enum.Enum):
    PID = "pid"
    NET = "net"
    MOUNT = "mnt"
    UTS = "uts"
    IPC = "ipc"
    DEVICE = "device"   # the Cells-style device namespace


@dataclass(frozen=True)
class Namespace:
    """An instance of one namespace kind."""

    kind: NamespaceKind
    ns_id: int
    label: str = ""

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.ns_id}({self.label})"


def _stable_ns_id(kind: NamespaceKind, label: str) -> int:
    """Content-derived namespace id.

    Ids are a function of (kind, owner label) alone — no process-global
    counter — so a container gets the same namespace identity however
    many containers this run, or an earlier run in the same process,
    created first (repro-lint: fork-safety).  Owner labels are unique within a host, so
    ids are unique wherever namespaces can meet (e.g. one Binder driver).
    """
    digest = hashlib.sha256(f"{kind.value}:{label}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


class NamespaceSet:
    """The full set of namespaces a container (or the host) lives in."""

    def __init__(self, label: str, parent: "NamespaceSet" = None, isolate=None):
        """Create a namespace set.

        Args:
            label: human-readable owner name (container name or "host").
            parent: namespaces to inherit from for kinds not isolated.
            isolate: iterable of :class:`NamespaceKind` to create fresh
                instances of.  Containers isolate everything by default.
        """
        self.label = label
        if isolate is None:
            isolate = list(NamespaceKind) if parent is not None else []
        isolate = set(isolate)
        self._spaces: Dict[NamespaceKind, Namespace] = {}
        for kind in NamespaceKind:
            if parent is not None and kind not in isolate:
                self._spaces[kind] = parent.get(kind)
            else:
                self._spaces[kind] = Namespace(kind, _stable_ns_id(kind, label), label)

    def get(self, kind: NamespaceKind) -> Namespace:
        return self._spaces[kind]

    @property
    def device_ns(self) -> Namespace:
        """The device namespace — Binder's isolation unit in AnDrone."""
        return self.get(NamespaceKind.DEVICE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NamespaceSet {self.label!r}>"
