"""Persistence plumbing shared by :mod:`repro.cache` and :mod:`repro.trace`.

Two things both packages need, kept in one place so they cannot drift:

* :func:`atomic_write` — the write discipline every persisted file goes
  through: the bytes land in a ``<name>.<pid>.<tid>.tmp`` scratch file
  beside the target, then ``os.replace`` swaps it in, so a reader never
  sees a torn file and two writers never share a scratch name.
  :meth:`repro.cache.store.CacheStore.orphaned_tmp` parses that name to
  tell an abandoned scratch from an in-flight one.
* :class:`Activation` — the process-wide "which instance is active" rule:
  an explicit ``configure`` beats the environment variable, configuring
  ``None`` disables even when the variable is set, and scoped blocks
  restore whatever was in force before them.  ``repro.cache`` resolves
  ``REPRO_CACHE_DIR`` to a ``CacheStore`` through one, ``repro.trace``
  resolves ``REPRO_TRACE_DIR`` to a ``Tracer`` through another.

Importing this module touches nothing on disk; it imports nothing from
:mod:`repro`, so ``repro.trace.core`` (which :mod:`repro.util` imports)
can use it without a cycle.
"""

from __future__ import annotations

import atexit
import os
import threading
from contextlib import contextmanager
from pathlib import Path


def atomic_write(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a pid+tid-unique scratch file.

    The pid and thread id keep concurrent writers — processes and threads —
    off each other's scratch; neither ever reaches the persisted bytes.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class Activation:
    """Resolves the active instance: explicit configuration, then ``env_var``.

    ``factory(path)`` builds the instance a non-empty ``env_var`` names;
    one instance per distinct path is memoized for the life of the process.
    ``at_exit``, when given, runs once per memoized environment instance at
    interpreter exit (the trace layer flushes its env-activated tracers
    this way).

    :meth:`active` is the hot path: one attribute read when configured, an
    environment lookup otherwise, and no lock unless a new environment
    instance has to be built.  The unlocked read is benign — a concurrent
    reconfigure swaps one tuple, so a caller sees the old or the new
    state, never half of each.
    """

    def __init__(self, env_var: str, factory, at_exit=None):
        self.env_var = env_var
        self._factory = factory
        self._at_exit = at_exit
        self._lock = threading.Lock()
        #: (explicitly configured?, the configured instance or None)
        self._state: tuple[bool, object] = (False, None)
        self._from_env: dict[str, object] = {}

    def configure(self, instance):
        """Pin the active instance (None disables); returns it."""
        self._state = (True, instance)
        return instance

    def unconfigure(self) -> None:
        """Drop any explicit configuration; the environment rules again."""
        self._state = (False, None)

    def active(self):
        """The configured instance, else the one ``env_var`` names, or None."""
        configured, instance = self._state
        if configured:
            return instance
        env = os.environ.get(self.env_var)
        if env is None or not env.strip():
            return None
        path = env.strip()
        instance = self._from_env.get(path)
        if instance is None:
            with self._lock:
                instance = self._from_env.get(path)
                if instance is None:
                    instance = self._from_env[path] = self._factory(path)
                    if self._at_exit is not None:
                        atexit.register(self._at_exit, instance)
        return instance

    def instances(self) -> list:
        """Every instance this resolver knows of: environment-built ones,
        then the configured one (if any)."""
        with self._lock:
            known = list(self._from_env.values())
        configured, instance = self._state
        if configured and instance is not None:
            known.append(instance)
        return known

    @contextmanager
    def scoped(self, instance):
        """Configure ``instance`` for the block, then restore the previous
        resolution state (explicit or environment) exactly."""
        saved = self._state
        self.configure(instance)
        try:
            yield instance
        finally:
            self._state = saved
