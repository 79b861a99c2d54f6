"""Linux container runtime (Docker-like).

AnDrone manages virtual drone containers with Docker so that "each
container consists of common read-only base disk images layered together
with a writable layer on top" (Section 4.1).  This package reproduces the
parts AnDrone depends on:

* content-addressed, immutable image **layers** with copy-on-write
  semantics and whiteout-based deletion;
* container lifecycle (create/start/stop/commit/remove) wired into the
  simulated kernel's namespaces, cgroups, and memory accounting;
* export/import of a container as (base image ref + diff layer), which is
  what the Virtual Drone Repository stores offline;
* per-container VPN tunnels for remote access (Section 4).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "image": ("Layer", "Image", "ImageStore", "WHITEOUT"),
    "container": ("Container", "ContainerState", "ContainerError"),
    "runtime": ("ContainerRuntime",),
})
