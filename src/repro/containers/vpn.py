"""Per-container VPN tunnels.

"Remote access to containers is provided by tunneling all communication
over a per-container virtual private network (VPN), allowing potentially
insecure protocols ... to now be used securely over cellular internet
communication" (Section 4).

A tunnel pairs a container-side address with a remote peer over a link and
wraps every payload in an (encrypted, authenticated) envelope.  Messages
arriving at a tunnelled endpoint *not* wrapped by the right tunnel are
rejected — which is the testable property standing in for real crypto.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

from repro.net.link import LinkModel
from repro.net.network import Network


class VpnEnvelope:
    """An encrypted frame as seen on the wire."""

    __slots__ = ("tunnel_id", "auth", "ciphertext")

    def __init__(self, tunnel_id: int, auth: str, ciphertext: Any):
        self.tunnel_id = tunnel_id
        self.auth = auth
        self.ciphertext = ciphertext


class VpnTunnel:
    """A duplex secure tunnel between a container and a remote peer."""

    def __init__(
        self,
        network: Network,
        container_name: str,
        local_address: str,
        remote_address: str,
        link: LinkModel,
    ):
        # Content-derived id: stable for a given endpoint triple no
        # matter how many tunnels other drones, or an earlier run in the
        # same process, opened first (repro-lint: fork-safety).
        self.tunnel_id = int.from_bytes(hashlib.sha256(
            f"vpn:{container_name}:{local_address}:{remote_address}"
            .encode()).digest()[:4], "big")
        self.container_name = container_name
        self.local_address = local_address
        self.remote_address = remote_address
        self._key = hashlib.sha256(
            f"vpn:{self.tunnel_id}:{container_name}".encode()
        ).hexdigest()
        self._to_remote = network.connect(local_address, remote_address, link)
        self._to_local = network.connect(remote_address, local_address, link)
        self.rejected = 0

    def _seal(self, payload: Any) -> VpnEnvelope:
        auth = hashlib.sha256(f"{self._key}:{id(payload)}".encode()).hexdigest()[:16]
        return VpnEnvelope(self.tunnel_id, auth, payload)

    def unseal(self, envelope: Any) -> Any:
        """Authenticate and decrypt an envelope; raises on tampering."""
        if not isinstance(envelope, VpnEnvelope) or envelope.tunnel_id != self.tunnel_id:
            self.rejected += 1
            raise PermissionError(
                f"tunnel {self.tunnel_id}: rejected non-tunnel traffic"
            )
        return envelope.ciphertext

    def send_to_remote(self, payload: Any, nbytes: int = 64) -> bool:
        return self._to_remote.send(self._seal(payload), nbytes)

    def send_to_local(self, payload: Any, nbytes: int = 64) -> bool:
        return self._to_local.send(self._seal(payload), nbytes)

    def on_local_receive(self, callback: Callable[[Any, str], None]) -> None:
        """Install a decrypting receive handler at the container side."""
        def handler(envelope: Any, source: str) -> None:
            callback(self.unseal(envelope), source)

        self._to_local.dest.on_receive = handler

    def on_remote_receive(self, callback: Callable[[Any, str], None]) -> None:
        """Install a decrypting receive handler at the remote side."""
        def handler(envelope: Any, source: str) -> None:
            callback(self.unseal(envelope), source)

        self._to_remote.dest.on_receive = handler
