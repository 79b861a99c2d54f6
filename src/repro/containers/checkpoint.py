"""Transparent container checkpoint/restore (the CRIU/Zap alternative).

"Although checkpoint-based migration is likely feasible for virtual
drones [Flux, Zap, CRIU], AnDrone simply leverages the existing Android
activity lifecycle" (Section 4.4).  This module implements the road not
taken, so the two migration strategies can be compared:

* **lifecycle migration** (AnDrone's default, in the VDC): apps are asked
  to save state via ``onSaveInstanceState()``; uncooperative apps lose
  their in-memory state;
* **transparent checkpoint** (here): the container's filesystem view and
  every app's live ``memory`` and lifecycle position are captured without
  any app cooperation, and restored exactly — at the cost of a bigger
  image and no opportunity for apps to quiesce external resources.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.android.app import AppState
from repro.containers.image import Layer


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken or restored."""


class CheckpointMissingError(CheckpointError, KeyError):
    """No checkpoint exists for the requested container/tenant.

    Subclasses ``KeyError`` for compatibility with callers that caught
    the bare lookup error this used to surface as.
    """

    def __init__(self, name: str):
        message = f"no checkpoint for container {name!r}"
        CheckpointError.__init__(self, message)
        self.container_name = name

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass
class ProcessImage:
    """One checkpointed app process."""

    package: str
    uid: int
    pid: int
    lifecycle_state: AppState
    memory: Dict
    android_manifest: object
    androne_manifest: object

    def memory_bytes(self) -> int:
        return len(repr(self.memory))


@dataclass
class CheckpointImage:
    """A complete container checkpoint."""

    checkpoint_id: str
    container_name: str
    base_image_tag: str
    fs_diff: Layer
    processes: List[ProcessImage]

    def size_bytes(self) -> int:
        return (self.fs_diff.size_bytes()
                + sum(p.memory_bytes() for p in self.processes))


def checkpoint_container(container, env, base_image_tag: str,
                         checkpoint_id: Optional[str] = None) -> CheckpointImage:
    """Freeze a running virtual drone into a checkpoint image.

    No app callbacks fire: memory and lifecycle state are captured as-is
    (the "transparent" property of Zap/CRIU).  Callers that need
    deterministic replay (the VDC supervision loop) pass their own
    run-scoped ``checkpoint_id``; the default is content-addressed from
    the capture, so ids never depend on how many checkpoints other
    drones, or an earlier run in the same process, took first
    (repro-lint: fork-safety).
    """
    processes = []
    for package, app in env.apps.items():
        processes.append(ProcessImage(
            package=package,
            uid=app.uid,
            pid=app.pid,
            lifecycle_state=app.state,
            memory=copy.deepcopy(app.memory),
            android_manifest=app.manifest,
            androne_manifest=app.androne_manifest,
        ))
    fs_diff = container.commit(comment=f"checkpoint:{container.name}")
    if checkpoint_id is None:
        capture = ":".join([
            container.name, base_image_tag,
            ",".join(f"{p.package}@{p.pid}:{p.lifecycle_state.value}"
                     for p in processes),
            str(fs_diff.size_bytes()),
        ])
        digest = hashlib.sha256(capture.encode()).hexdigest()[:10]
        checkpoint_id = f"ckpt-{container.name}-{digest}"
    return CheckpointImage(
        checkpoint_id=checkpoint_id,
        container_name=container.name,
        base_image_tag=base_image_tag,
        fs_diff=fs_diff,
        processes=processes,
    )


def restore_container(image: CheckpointImage, runtime, env_factory,
                      memory_kb: int):
    """Materialize a checkpoint on (possibly different) hardware.

    ``env_factory(container)`` must return a fresh AndroidEnvironment for
    the restored container (the caller wires Binder namespaces and shared
    services, since those are per-drone).  Returns (container, env).
    Restored apps resume exactly where they were — lifecycle state and
    memory intact, with **no** onCreate/onRestore callbacks.
    """
    container = runtime.import_container(
        image.container_name, image.base_image_tag, image.fs_diff, memory_kb)
    container.start()
    env = env_factory(container)
    for process in image.processes:
        app = env.install_app(process.android_manifest,
                              process.androne_manifest, container=container)
        app.memory = copy.deepcopy(process.memory)
        # Transparent restore: state is reinstated directly, bypassing the
        # lifecycle (the process simply continues from its dump).
        app.state = process.lifecycle_state
        app.lifecycle_log.append("restoredFromCheckpoint")
    return container, env
