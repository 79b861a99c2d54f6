"""The encrypted, rekeyable drone↔cloud channel.

Seeded-sim "crypto": this is a deterministic *model* of an AEAD channel
(think DTLS over the per-container VPN of Section 4.4), not real
cryptography.  What it reproduces faithfully is the security
*state machine* an adversarial-tenant scenario exercises:

* a per-tenant **session secret** only the two endpoints hold, from
  which per-epoch keys are derived (SHA-256 KDF);
* **sequence-numbered frames** carrying a MAC-style tag over
  ``key | epoch | seq | payload``, so an off-path attacker who can reach
  the endpoint address (the simulated network is unauthenticated by
  design) can neither mint frames (:class:`ChannelAuthError`) nor
  replay captured ones (:class:`ReplayError`, sliding window);
* **scheduled rekey**: the key schedule bumps the epoch on the sim
  clock; in-flight frames from the immediately previous epoch stay
  valid (one-epoch grace), anything older is rejected.

A :class:`SecureChannel` is one *direction* of traffic;
:class:`TenantSession` bundles the uplink (GCS→VFC) and downlink
(VFC→GCS) over one shared :class:`KeySchedule` and hands each side a
:class:`SecureEndpoint` (``seal`` outbound / ``open`` inbound) that a
:class:`~repro.mavlink.connection.MavlinkConnection` plugs in.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Set

import repro.obs as obs
from repro.security.errors import (
    ChannelAuthError,
    ReplayError,
    SecurityConfigError,
)
from repro.sim import Periodic

#: Framing overhead billed to the link per sealed frame (epoch + seq +
#: truncated tag), so secure traffic pays a modest, honest bandwidth tax.
FRAME_OVERHEAD_BYTES = 24

#: How many epochs of key history a receiver accepts: the current epoch
#: plus one of grace for frames sealed just before a rekey landed.
EPOCH_GRACE = 1


def _derive_key(secret: str, epoch: int) -> str:
    return hashlib.sha256(f"{secret}|epoch{epoch}".encode()).hexdigest()


def _payload_digest(payload) -> str:
    data = payload if isinstance(payload, (bytes, bytearray)) \
        else repr(payload).encode()
    return hashlib.sha256(bytes(data)).hexdigest()


class SecureFrame:
    """One sealed frame on the wire: ``(epoch, seq, payload, tag)``."""

    __slots__ = ("epoch", "seq", "payload", "tag")

    def __init__(self, epoch: int, seq: int, payload, tag: str):
        self.epoch = epoch
        self.seq = seq
        self.payload = payload
        self.tag = tag

    def __repr__(self) -> str:
        return f"<SecureFrame epoch={self.epoch} seq={self.seq}>"


class KeySchedule:
    """Shared per-session key state: epoch counter + scheduled rekey."""

    def __init__(self, secret: str, rekey_interval_s: float = 30.0,
                 tenant: str = ""):
        if rekey_interval_s <= 0:
            raise SecurityConfigError(
                f"rekey_interval_s must be positive, got {rekey_interval_s}")
        self.secret = secret
        self.tenant = tenant
        self.rekey_interval_us = int(rekey_interval_s * 1e6)
        self.epoch = 0
        self.rekeys = 0
        self._keys: Dict[int, str] = {0: _derive_key(secret, 0)}
        #: the rekey loop, made by the first :meth:`start`.
        self._loop: Optional[Periodic] = None

    def key_for(self, epoch: int) -> Optional[str]:
        """The key for ``epoch`` if it is still accepted, else None."""
        if self.epoch - EPOCH_GRACE <= epoch <= self.epoch:
            return self._keys.get(epoch)
        return None

    def rekey(self) -> int:
        """Advance to the next epoch; returns the new epoch number."""
        self.epoch += 1
        self.rekeys += 1
        self._keys[self.epoch] = _derive_key(self.secret, self.epoch)
        stale = [e for e in self._keys if e < self.epoch - EPOCH_GRACE]
        for epoch in stale:
            del self._keys[epoch]
        obs.counter("sec.channel.rekeys", tenant=self.tenant).inc()
        return self.epoch

    def start(self, sim) -> "KeySchedule":
        """Schedule periodic rekeys on the sim clock."""
        if self._loop is None:
            self._loop = Periodic(sim, self.rekey_interval_us, self.rekey,
                                  key="sec.rekey")
        self._loop.start(delay=self.rekey_interval_us)
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.stop()


class SecureChannel:
    """One direction of a secure session: a sender seq counter plus the
    receiver's per-epoch replay window."""

    def __init__(self, keys: KeySchedule, replay_window: int = 64):
        if replay_window < 1:
            raise SecurityConfigError(
                f"replay_window must be >= 1, got {replay_window}")
        self.keys = keys
        self.replay_window = replay_window
        self._next_seq = 0
        #: per-epoch receive state: (high-water seq, seqs seen below it).
        self._rx_high: Dict[int, int] = {}
        self._rx_seen: Dict[int, Set[int]] = {}

    # -- sender side -----------------------------------------------------------
    def seal(self, payload) -> SecureFrame:
        epoch = self.keys.epoch
        seq = self._next_seq
        self._next_seq += 1
        tag = self._tag(self.keys.key_for(epoch), epoch, seq, payload)
        return SecureFrame(epoch, seq, payload, tag)

    # -- receiver side ---------------------------------------------------------
    def open(self, frame):
        if not isinstance(frame, SecureFrame):
            raise ChannelAuthError(
                "unauthenticated frame (no session framing)", reason="naked")
        key = self.keys.key_for(frame.epoch)
        if key is None:
            raise ChannelAuthError(
                f"epoch {frame.epoch} outside the rekey grace window "
                f"(current {self.keys.epoch})", reason="epoch")
        if frame.tag != self._tag(key, frame.epoch, frame.seq, frame.payload):
            raise ChannelAuthError("bad frame tag", reason="tag")
        self._check_replay(frame.epoch, frame.seq)
        return frame.payload

    def _check_replay(self, epoch: int, seq: int) -> None:
        high = self._rx_high.get(epoch, -1)
        seen = self._rx_seen.setdefault(epoch, set())
        if seq > high:
            self._rx_high[epoch] = seq
            seen.add(seq)
        elif seq <= high - self.replay_window or seq in seen:
            raise ReplayError(
                f"replayed frame: epoch {epoch} seq {seq} "
                f"(high-water {high})")
        else:
            seen.add(seq)
        floor = self._rx_high[epoch] - self.replay_window
        if len(seen) > 2 * self.replay_window:
            self._rx_seen[epoch] = {s for s in seen if s > floor}

    @staticmethod
    def _tag(key: Optional[str], epoch: int, seq: int, payload) -> str:
        digest = _payload_digest(payload)
        return hashlib.sha256(
            f"{key}|{epoch}|{seq}|{digest}".encode()).hexdigest()[:16]


class SecureEndpoint:
    """One side's view of a session: seal outbound on ``tx``, open
    inbound from ``rx``, counting ``sec.channel.*`` and feeding auth
    failures to the anomaly detector.

    Auth failures are attributed to the **link** (``link:<tenant>``),
    never to the tenant itself: a frame that fails to open is by
    definition unauthenticated, so pinning it on the session's tenant
    would let any off-path spoofer get the *victim* demoted.  The
    channel's rejection IS the containment; the detector flag just makes
    the attack visible."""

    def __init__(self, tx: SecureChannel, rx: SecureChannel,
                 tenant: str = "", detector=None):
        self.tx = tx
        self.rx = rx
        self.tenant = tenant
        self.detector = detector
        self.sealed = 0
        self.opened = 0
        self.rejected = 0

    def seal(self, payload) -> SecureFrame:
        self.sealed += 1
        return self.tx.seal(payload)

    def open(self, frame):
        try:
            payload = self.rx.open(frame)
        except ChannelAuthError as denied:
            self.rejected += 1
            obs.counter("sec.channel.rejected", tenant=self.tenant,
                        reason=denied.reason).inc()
            if self.detector is not None:
                self.detector.record("channel", f"link:{self.tenant}",
                                     admitted=False, reason=denied.reason)
            raise
        self.opened += 1
        return payload


class TenantSession:
    """One tenant's secure GCS↔VFC session: both directions over one
    shared key schedule.  ``endpoint_for("vfc")`` is the drone side
    (seals the downlink, opens the uplink); ``endpoint_for("gcs")`` the
    user side."""

    def __init__(self, secret: str, tenant: str = "",
                 rekey_interval_s: float = 30.0, replay_window: int = 64,
                 detector=None):
        self.tenant = tenant
        self.keys = KeySchedule(secret, rekey_interval_s, tenant=tenant)
        self.uplink = SecureChannel(self.keys, replay_window)
        self.downlink = SecureChannel(self.keys, replay_window)
        self.detector = detector

    def endpoint_for(self, side: str) -> SecureEndpoint:
        if side == "vfc":
            return SecureEndpoint(self.downlink, self.uplink,
                                  tenant=self.tenant, detector=self.detector)
        if side == "gcs":
            return SecureEndpoint(self.uplink, self.downlink,
                                  tenant=self.tenant, detector=self.detector)
        raise SecurityConfigError(
            f"session side must be 'vfc' or 'gcs', got {side!r}")

    def start(self, sim) -> "TenantSession":
        self.keys.start(sim)
        return self

    def stop(self) -> None:
        self.keys.stop()
