"""The flight battery: the Turnigy 5000 mAh 3S pack of the prototype.

Energy is AnDrone's billing unit (Section 2), so the battery tracks total
joules drawn and supports per-account attribution: the power model charges
compute draw to the platform and flight draw to whichever virtual drone
holds flight control at its waypoint.
"""

from __future__ import annotations

from typing import Dict


#: Nominal 3S LiPo pack voltage.
NOMINAL_VOLTAGE = 11.1
#: Share of the pack a flight may draw: LiPo packs shouldn't be run flat.
USABLE_FRACTION = 0.85


class BatteryDepletedError(RuntimeError):
    """Drawn past usable capacity."""


class Battery:
    """Coulomb/energy counter over a fixed capacity."""

    def __init__(self, name: str = "battery", capacity_wh: float = 55.5):
        # 5000 mAh * 11.1 V = 55.5 Wh.
        self.name = name
        self.capacity_j = capacity_wh * 3600.0
        self.usable_j = self.capacity_j * USABLE_FRACTION
        self.drawn_j = 0.0
        self._pack_start_j = 0.0
        self._per_account: Dict[str, float] = {}

    @property
    def remaining_j(self) -> float:
        return max(0.0, self.usable_j - self.drawn_j)

    @property
    def depleted(self) -> bool:
        return self.drawn_j >= self.usable_j

    def draw(self, power_w: float, duration_s: float, account: str = "platform") -> float:
        """Draw energy; returns joules consumed.  Raises when depleted."""
        if power_w < 0 or duration_s < 0:
            raise ValueError("power and duration must be non-negative")
        energy = power_w * duration_s
        if self.drawn_j + energy > self.usable_j:
            raise BatteryDepletedError(
                f"{self.name}: draw of {energy:.0f} J exceeds remaining "
                f"{self.remaining_j:.0f} J"
            )
        self.drawn_j += energy
        self._per_account[account] = self._per_account.get(account, 0.0) + energy
        return energy

    def drawn_by(self, account: str) -> float:
        return self._per_account.get(account, 0.0)

    def accounts(self) -> Dict[str, float]:
        return dict(self._per_account)

    def swap_pack(self) -> None:
        """Install a fresh pack between flights.

        Accounting is cumulative (drawn totals and per-account attribution
        survive the swap); only the usable budget is extended by one full
        pack, as the VDC's energy billing spans flights.
        """
        self.usable_j = self.drawn_j + self.capacity_j * USABLE_FRACTION
        self._pack_start_j = self.drawn_j

    def voltage(self) -> float:
        """Loaded pack voltage, sagging linearly with depth of discharge."""
        depth = min(1.0, (self.drawn_j - self._pack_start_j) / self.capacity_j)
        return NOMINAL_VOLTAGE * (1.05 - 0.15 * depth)
