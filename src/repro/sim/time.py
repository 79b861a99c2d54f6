"""Time units for the simulator.

The simulated clock ticks in integer microseconds.  These helpers make call
sites read naturally (``seconds(2)`` instead of ``2_000_000``) and perform
the rounding in one place.
"""

MICROS_PER_MS = 1_000
MICROS_PER_SEC = 1_000_000


def micros(us: float) -> int:
    """Round a microsecond quantity to an integer tick count."""
    return int(round(us))


def millis(ms: float) -> int:
    """Convert milliseconds to integer microseconds."""
    return int(round(ms * MICROS_PER_MS))


def seconds(s: float) -> int:
    """Convert seconds to integer microseconds."""
    return int(round(s * MICROS_PER_SEC))


def to_seconds(us: int) -> float:
    """Convert integer microseconds back to float seconds."""
    return us / MICROS_PER_SEC
