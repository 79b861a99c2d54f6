"""Resilience policies: retry with exponential backoff.

:class:`RetryPolicy` is the schedule math (a base delay doubled per retry
up to a cap); :func:`retry_call` applies it to a synchronous callable, and
:func:`record_failure` is its per-failure step for callers that run the
attempt loop themselves.

Backoff delays are *accounted, not slept*: binder and device-service calls
are synchronous within a single simulator event, so a retrying caller
cannot suspend mid-call.  Instead the computed delay for every retry is
recorded (``fault.retry_backoff_us`` histogram) and the retries execute
immediately.  Components that *can* wait — the VDC supervision loop, link
recovery — use real simulator delays.  Determinism: the schedule is a
pure function of the attempt number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Type

import repro.obs as obs

#: Growth of the backoff delay from one retry to the next.
BACKOFF_MULTIPLIER = 2.0


class RetriesExhausted(RuntimeError):
    """A retried call failed on every attempt; ``last`` is the final error."""

    def __init__(self, label: str, attempts: int, last: BaseException):
        super().__init__(
            f"{label or 'call'} failed after {attempts} attempt(s): {last}")
        self.label = label
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base * BACKOFF_MULTIPLIER^(n-1)`` capped at
    ``cap``."""

    max_attempts: int = 4
    base_us: int = 10_000
    cap_us: int = 1_000_000

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_us < 0 or self.cap_us < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff_us(self, attempt: int) -> int:
        """Delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(float(self.cap_us),
                    self.base_us * BACKOFF_MULTIPLIER ** (attempt - 1))
        return int(round(delay))


def retry_call(
    fn: Callable,
    policy: RetryPolicy,
    *,
    retry_on: Tuple[Type[BaseException], ...] = (RuntimeError,),
    label: str = "",
):
    """Call ``fn()`` under ``policy``, retrying on ``retry_on`` exceptions.

    Raises :class:`RetriesExhausted` (chaining the last error) once the
    attempt budget is spent.  Non-matching exceptions propagate
    immediately.  The success path adds no work beyond the loop check.
    """
    attempt = 1
    while True:
        try:
            return fn()
        except retry_on as exc:
            record_failure(policy, attempt, exc, label=label)
            attempt += 1


def record_failure(policy: RetryPolicy, attempt: int, exc: BaseException,
                   *, label: str = "") -> None:
    """Account the failure of attempt number ``attempt`` (1-based).

    Raises :class:`RetriesExhausted` (chaining ``exc``) when it was the
    last attempt ``policy`` allows; otherwise counts the retry and its
    backoff delay, and the caller makes the next attempt.  The one
    failure rule of :func:`retry_call` and of callers that run their
    own attempt loop on a hot path (the HAL sensor bridge).
    """
    call = label or "call"
    if attempt >= policy.max_attempts:
        obs.counter("fault.retries_exhausted", call=call).inc()
        raise RetriesExhausted(label, attempt, exc) from exc
    backoff = policy.backoff_us(attempt)
    obs.counter("fault.retries", call=call).inc()
    obs.histogram("fault.retry_backoff_us", unit="us",
                  call=call).observe(backoff)
