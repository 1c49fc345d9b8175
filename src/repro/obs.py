"""Lightweight observability: named counters.

The performance work (vectorized mod-p kernels, parallel sweeps) needs
numbers, not vibes: how many span-membership checks were answered by the
cheap mod-p filter, how many DP subrectangles the exact search actually
solved, how many bits crossed the wire.  This module is the one registry
those numbers flow through:

    from repro import obs

    obs.counter("truth_builder.span_cache_hit").inc()
    print(obs.snapshot())

Wall time is not measured here: :mod:`repro.trace` spans time blocks
(and attribute counter deltas to them).

Design constraints:

* **zero overhead when idle** — a counter increment is a dict lookup and an
  integer add; nothing is ever written unless :func:`snapshot` is called;
* **process-local** — :func:`repro.util.parallel.parmap` workers each get
  their own registry; callers that care about worker-side counts must fold
  them into the task's return value (the bench harness does);
* **test-friendly** — :func:`reset` restores a clean slate, and
  :func:`scoped` gives a context manager that isolates a block's counts.

Everything hangs off a module-level default :class:`Registry`; passing an
explicit registry is supported for isolation but rarely needed.
"""

from __future__ import annotations

from contextlib import contextmanager
from threading import Lock


class Counter:
    """A named monotone counter (resettable only through its registry)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Registry:
    """A namespace of counters, snapshot-able and resettable."""

    def __init__(self):
        self._lock = Lock()
        self._counters: dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # Access (creating on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created at 0 on first use."""
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    # ------------------------------------------------------------------
    # Inspection and lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All current values, JSON-ready.

        ``{"counters": {name: int}}`` — sorted keys so diffs are stable.
        """
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
            }

    def reset(self) -> None:
        """Forget every counter."""
        with self._lock:
            self._counters.clear()


#: The process-wide default registry; the module-level helpers below use it.
REGISTRY = Registry()


def counter(name: str) -> Counter:
    """``REGISTRY.counter(name)``."""
    return REGISTRY.counter(name)


def snapshot() -> dict:
    """``REGISTRY.snapshot()``."""
    return REGISTRY.snapshot()


def reset() -> None:
    """``REGISTRY.reset()``."""
    REGISTRY.reset()


@contextmanager
def scoped():
    """Run a block against a fresh default registry, then restore.

    For tests that need isolated counts:

    >>> with scoped() as reg:
    ...     counter("x").inc()
    ...     reg.snapshot()["counters"]["x"]
    1
    """
    global REGISTRY
    saved = REGISTRY
    REGISTRY = Registry()
    try:
        yield REGISTRY
    finally:
        REGISTRY = saved
