"""Geodesy helpers: geographic coordinates and local ENU frames.

Uses the equirectangular approximation, accurate to centimeters over the
few-kilometer scales drone flights cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

M_PER_DEG_LAT = 111_320.0


@dataclass(frozen=True)
class GeoPoint:
    """Latitude/longitude in degrees, altitude in meters (above home)."""

    latitude: float
    longitude: float
    altitude_m: float = 0.0

    def horizontal_distance_to(self, other: "GeoPoint") -> float:
        east, north, _ = enu_between(self, other)
        return math.hypot(east, north)

    def distance_to(self, other: "GeoPoint") -> float:
        east, north, up = enu_between(self, other)
        return math.sqrt(east * east + north * north + up * up)


def enu_between(origin: GeoPoint, target: GeoPoint) -> Tuple[float, float, float]:
    """(east, north, up) meters from origin to target."""
    north = (target.latitude - origin.latitude) * M_PER_DEG_LAT
    east = (
        (target.longitude - origin.longitude)
        * M_PER_DEG_LAT
        * math.cos(math.radians(origin.latitude))
    )
    up = target.altitude_m - origin.altitude_m
    return east, north, up


def offset_geopoint(origin: GeoPoint, east: float, north: float, up: float = 0.0) -> GeoPoint:
    """The point east/north/up meters from origin."""
    lat = origin.latitude + north / M_PER_DEG_LAT
    lon = origin.longitude + east / (
        M_PER_DEG_LAT * math.cos(math.radians(origin.latitude))
    )
    return GeoPoint(lat, lon, origin.altitude_m + up)
