"""Endpoints and channels.

An :class:`Endpoint` is an addressable message sink ("IP:port" strings by
convention, matching the access information the AnDrone portal hands
users).  A :class:`Channel` connects two endpoints over a
:class:`~repro.net.link.LinkModel`; sends are asynchronous and deliver via
the simulator, with per-message sampled latency and loss.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.net.link import LinkModel, loopback
from repro.sim import RngRegistry, Simulator


class NetworkError(RuntimeError):
    pass


class Endpoint:
    """An addressable receiver.

    Messages arrive either through ``on_receive`` (push) or queue in
    ``inbox`` (poll) when no callback is installed.
    """

    def __init__(self, network: "Network", address: str):
        self.network = network
        self.address = address
        self.on_receive: Optional[Callable[[Any, str], None]] = None
        self.inbox: List[tuple] = []
        self.received_count = 0

    def deliver(self, payload: Any, source: str) -> None:
        self.received_count += 1
        if self.on_receive is not None:
            self.on_receive(payload, source)
        else:
            self.inbox.append((payload, source))

    def drain(self) -> List[tuple]:
        messages, self.inbox = self.inbox, []
        return messages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Endpoint {self.address}>"


class Channel:
    """A unidirectional sender view between two endpoints over one link."""

    def __init__(self, network: "Network", source: Endpoint, dest: Endpoint,
                 link: LinkModel):
        self.network = network
        self.source = source
        self.dest = dest
        self.link = link
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.bytes_sent = 0
        # Serialization point: a bandwidth-limited link transmits one
        # message at a time, so large transfers queue behind each other.
        self._tx_free_at = 0
        self._rng = network.rng.stream(f"link.{source.address}->{dest.address}")

    def send(self, payload: Any, nbytes: int = 64) -> bool:
        """Queue a message for delivery; returns False if dropped."""
        self.sent += 1
        if self.link.is_lost(self._rng):
            self.lost += 1
            return False
        self.bytes_sent += nbytes
        now = self.network.sim.now
        transfer = self.link.transfer_time_us(nbytes)
        start = max(now, self._tx_free_at)
        self._tx_free_at = start + transfer
        latency = (start - now) + transfer + self.link.sample_latency_us(self._rng)
        self.network.sim.after(latency, lambda: self._deliver(payload))
        return True

    def _deliver(self, payload: Any) -> None:
        self.delivered += 1
        self.dest.deliver(payload, self.source.address)


class Network:
    """Registry of endpoints plus channel factory."""

    def __init__(self, sim: Simulator, rng: RngRegistry):
        self.sim = sim
        self.rng = rng
        self._endpoints: Dict[str, Endpoint] = {}

    def endpoint(self, address: str) -> Endpoint:
        if address not in self._endpoints:
            self._endpoints[address] = Endpoint(self, address)
        return self._endpoints[address]

    def lookup(self, address: str) -> Endpoint:
        if address not in self._endpoints:
            raise NetworkError(f"no endpoint at {address!r}")
        return self._endpoints[address]

    def connect(self, source: str, dest: str,
                link: Optional[LinkModel] = None) -> Channel:
        """Create a sender channel from ``source`` to ``dest``."""
        return Channel(
            self,
            self.endpoint(source),
            self.endpoint(dest),
            link or loopback(),
        )

    def duplex(self, a: str, b: str, link: Optional[LinkModel] = None):
        """Convenience: a pair of channels (a->b, b->a) over one link."""
        return self.connect(a, b, link), self.connect(b, a, link)
