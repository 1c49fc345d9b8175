"""Small, dependency-free arithmetic the benchmark reports with.

Percentiles are nearest-rank (no interpolation), so every reported
latency is one that was actually observed.  A percentile is only
*trusted* when at least ``MIN_BEYOND`` samples lie above it; every
printed percentile carries its sample count, flagged when it is not
trusted (:func:`sample_note`).
"""

from __future__ import annotations

import math
import re

#: Samples that must lie strictly beyond a percentile for it to be trusted.
MIN_BEYOND = 10

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The smallest observed value with at least ``q`` percent of the samples
    at or below it.  Raises ``ValueError`` on an empty sample.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    if n <= 0:
        return 0
    return n - max(math.ceil(q / 100.0 * n), 1)


def trusted(n: int, q: float) -> bool:
    """True when the ``q``-th percentile of ``n`` samples has at least
    :data:`MIN_BEYOND` samples beyond it."""
    return beyond(n, q) >= MIN_BEYOND


def sample_note(n: int, q: float | None = None) -> str:
    """The sample count printed beside a figure, flagged when the figure
    is a ``q``-th percentile that ``n`` samples cannot support."""
    if q is None or trusted(n, q):
        return f"n={n}"
    return f"n={n}, untrusted: fewer than {MIN_BEYOND} beyond p{q:g}"


def due_times(start: float, rate: float, count: int) -> list[float]:
    """Open-loop arrival schedule: request ``i`` is due at ``start + i / rate``.

    The schedule is fixed before the first request is sent and never
    adapts to how fast the system answers.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return [start + i / rate for i in range(count)]


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


def open_loop_latency(due: float, done: float) -> float:
    """Latency of an open-loop request, timed from when it was *due*.

    Timing from the due time (not the send time) charges a request for
    any stall that delayed the generator, which is the wait a user
    arriving on schedule would have seen.
    """
    return done - due


def lag_is_growing(lags: list[float], slack_s: float = 0.05) -> bool:
    """True when generator lateness trends upward across a rung.

    Compares the median lateness of the last fifth of the rung's arrivals
    with that of the first fifth; a backlog that keeps building shows as a
    later fifth that is more than ``slack_s`` later than the first.
    """
    if len(lags) < 10:
        return False
    fifth = len(lags) // 5
    head = percentile(lags[:fifth], 50)
    tail = percentile(lags[-fifth:], 50)
    return tail - head > slack_s


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ``ValueError`` if it is not a
    valid metric name (``[A-Za-z0-9_.-]+``, starting with a letter or digit)."""
    if not METRIC_NAME.fullmatch(name) or not name[0].isalnum():
        raise ValueError(f"invalid metric name {name!r}")
    return name
