"""Network-facing VFC connections and the ground-station client.

The portal gives users "access information for the virtual drone, notably
its IP address and port information" (Section 2); the user then connects
a ground station (APM Planner in the paper's Section 6.5 trial) to the
VFC over the per-container VPN.  :class:`VfcServer` is the drone-side
endpoint: it decodes MAVLink frames from the tenant, feeds them through
the VFC's filtering, streams back the *virtualized* telemetry (heartbeat
at 1 Hz, position at 4 Hz, queued statustexts) in the rounds of the
:class:`~repro.mavproxy.proxy.MavProxy` it registers on, and returns
command acks.
:class:`GroundStation` is the matching client.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mavlink.connection import MavlinkConnection
from repro.mavlink.messages import (
    CommandAck,
    CommandLong,
    GlobalPositionInt,
    Heartbeat,
    ManualControl,
    MavlinkMessage,
    SetPositionTarget,
    Statustext,
)
from repro.mavproxy.vfc import VirtualFlightController
from repro.net.network import Network


class VfcServer:
    """Serves one tenant's VFC over the simulated network."""

    def __init__(self, vfc: VirtualFlightController, network: Network,
                 local_address: str, remote_address: str, link=None,
                 session=None):
        self.vfc = vfc
        self.connection = MavlinkConnection(
            network, local_address, remote_address, link, sysid=1,
            session=session)
        self.connection.on_message(self._on_message)
        self.commands_handled = 0
        # Telemetry is emitted by the proxy's rounds (start_telemetry).
        vfc.proxy.servers.append(self)

    # -- inbound ----------------------------------------------------------------
    def _on_message(self, msg: MavlinkMessage, sysid: int, compid: int) -> None:
        if isinstance(msg, (CommandLong, SetPositionTarget, ManualControl)):
            self.commands_handled += 1
            reply = self.vfc.send(msg)
            if reply is not None:
                self.connection.send(reply)
            self._flush_outbox()

    # -- outbound telemetry (called by the proxy's rounds) ------------------------
    def emit_heartbeat(self) -> None:
        self.connection.send(self.vfc.heartbeat())
        self._flush_outbox()

    def emit_position(self) -> None:
        self.connection.send(self.vfc.global_position())

    def _flush_outbox(self) -> None:
        for message in self.vfc.drain_outbox():
            self.connection.send(message)


class GroundStation:
    """A tenant-side MAVLink client (the APM Planner role)."""

    def __init__(self, sim, network: Network, local_address: str,
                 remote_address: str, link=None, session=None):
        self.sim = sim
        self.connection = MavlinkConnection(
            network, local_address, remote_address, link, sysid=255,
            session=session)
        self.connection.on_message(self._on_message)
        self.heartbeats: List[Heartbeat] = []
        self.positions: List[GlobalPositionInt] = []
        self.statustexts: List[str] = []
        self.acks: List[CommandAck] = []

    def _on_message(self, msg: MavlinkMessage, sysid: int, compid: int) -> None:
        if isinstance(msg, Heartbeat):
            self.heartbeats.append(msg)
        elif isinstance(msg, GlobalPositionInt):
            self.positions.append(msg)
        elif isinstance(msg, Statustext):
            self.statustexts.append(msg.text)
        elif isinstance(msg, CommandAck):
            self.acks.append(msg)

    def send_command(self, command: CommandLong) -> None:
        self.connection.send(command)

    def send(self, msg: MavlinkMessage) -> None:
        self.connection.send(msg)

    def last_position(self) -> Optional[GlobalPositionInt]:
        return self.positions[-1] if self.positions else None

    def last_heartbeat(self) -> Optional[Heartbeat]:
        return self.heartbeats[-1] if self.heartbeats else None

    def wait_for_ack(self, command: int, timeout_us: int = 2_000_000) -> Optional[CommandAck]:
        """Run the simulation until an ack for ``command`` arrives."""
        deadline = self.sim.now + timeout_us
        while self.sim.now < deadline:
            for ack in self.acks:
                if ack.command == command:
                    return ack
            self.sim.run(until=min(deadline, self.sim.now + 100_000))
        for ack in self.acks:
            if ack.command == command:
                return ack
        return None
