"""The container runtime: Docker's role in AnDrone.

Creates containers from tagged images, tracks them by name, and provides
the export/import path the VDC uses to move virtual drones between drones
and the cloud (``docker export`` / ``docker import`` in the prototype).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.containers.container import Container, ContainerError, ContainerState
from repro.containers.image import ImageStore, Layer
from repro.kernel.cgroups import CgroupLimits
from repro.kernel.kernel import Kernel
from repro.kernel.namespaces import NamespaceSet


class ContainerRuntime:
    """Manages all containers on one drone's kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.images = ImageStore()
        self.host_namespaces = NamespaceSet("host", isolate=[])
        self._containers: Dict[str, Container] = {}

    def create(
        self,
        name: str,
        image_tag: str,
        memory_kb: int,
        limits: Optional[CgroupLimits] = None,
    ) -> Container:
        if name in self._containers:
            raise ContainerError(f"container {name!r} already exists")
        image = self.images.get(image_tag)
        cgroup = self.kernel.cgroups.create(name, limits)
        container = Container(
            self.kernel, name, image, memory_kb, cgroup, self.host_namespaces
        )
        self._containers[name] = container
        obs.event("container.lifecycle", action="created", name=name,
                  image=image_tag, memory_kb=memory_kb)
        obs.gauge("container.count").set(len(self._containers))
        return container

    def get(self, name: str) -> Container:
        if name not in self._containers:
            raise KeyError(f"no container named {name!r}")
        return self._containers[name]

    def list(self, state: Optional[ContainerState] = None) -> List[Container]:
        containers = list(self._containers.values())
        if state is not None:
            containers = [c for c in containers if c.state is state]
        return containers

    def remove(self, name: str) -> None:
        container = self.get(name)
        if container.state is ContainerState.RUNNING:
            container.stop()
        container.state = ContainerState.REMOVED
        self.kernel.cgroups.remove(name)
        del self._containers[name]
        obs.event("container.lifecycle", action="removed", name=name)
        obs.gauge("container.count").set(len(self._containers))

    # ------------------------------------------------------------ export/import
    def export(self, name: str, comment: str = "") -> Tuple[str, Layer]:
        """Export a container as (base image id, diff layer).

        Only the diff travels; the receiving side must already have (or
        fetch) the base image — the minimal-storage property of Section 3.
        """
        container = self.get(name)
        base_id, diff = container.image.image_id, container.commit(comment)
        obs.event("container.lifecycle", action="exported", name=name,
                  base=base_id, diff_files=len(diff.files))
        return base_id, diff

    def import_container(
        self,
        name: str,
        base_tag: str,
        diff: Layer,
        memory_kb: int,
        limits: Optional[CgroupLimits] = None,
    ) -> Container:
        """Recreate a container from a base tag plus an exported diff."""
        if name in self._containers:
            raise ContainerError(f"container {name!r} already exists")
        base = self.images.get(base_tag)
        stored_diff = self.images.add_layer(diff)
        restored_image = base.extend(stored_diff, tag=f"{name}-restored")
        self.images.tag(f"{name}-restored", restored_image)
        cgroup = self.kernel.cgroups.create(name, limits)
        container = Container(
            self.kernel, name, restored_image, memory_kb, cgroup, self.host_namespaces
        )
        self._containers[name] = container
        obs.event("container.lifecycle", action="imported", name=name,
                  base=base_tag, memory_kb=memory_kb)
        obs.gauge("container.count").set(len(self._containers))
        return container
