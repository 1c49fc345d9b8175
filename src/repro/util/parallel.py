"""Deterministic process-pool fan-out for the experiment sweeps.

The rule that makes parallelism safe in this codebase is **seed-per-task**:
a task never draws randomness from shared RNG state, it derives its own
stream from ``derive_seed(root, *path)`` where the path names the task's
position in the sweep (row index, run index, ...).  Then the result of a
sweep is a pure function of the root seed and the task list — bit-identical
at any worker count, on any machine, under any scheduling, because the pool
only changes *where* tasks run, never *what* they compute.

:func:`parmap` is the one entry point: order-preserving, chunked, and
serial (no pool, no pickling) when one worker is resolved — so the default
behavior of every caller is exactly the old sequential code path.

Worker-count resolution (:func:`resolve_workers`): an explicit argument
wins, then the ``REPRO_WORKERS`` environment variable, then 1.  The CLI
``--workers`` flags feed the explicit argument.

Pooled calls share one module-level process pool.  It starts lazily on
the first pooled call and is reused for as long as its **fork-time
fingerprint** holds: the process id, the resolved worker count, the active
tracer, the active cache store and the ``REPRO_*`` environment variables.
When any of them changes the old pool is shut down and a new one forked,
so a worker never runs against a stale store, tracer or environment.  A
call that fails discards the pool (the next call forks a fresh one), and
:func:`shutdown_pool` — also called at interpreter exit and by
:func:`repro.comm.exhaustive.clear_search_cache` — reaps it on demand.

Caveats worth knowing:

* task functions must be module-level (picklable) and tasks/results must
  pickle; keep them plain tuples and dataclasses;
* workers see the parent as it was when the pool was forked: state set in
  the parent after that (a monkeypatch, a module global, a cleared LRU)
  reaches them only if it is part of the fingerprint or the pool is shut
  down first;
* :mod:`repro.obs` counters are process-local — a worker's counts stay in
  it unless the task folds them into its return value, and a reused
  worker's registry accumulates across calls, so fold deltas, not totals;
* pooled calls from several threads take turns on the one pool.
"""

from __future__ import annotations

import atexit
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

from repro import obs
from repro.trace import core as trace

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

_ENV_VAR = "REPRO_WORKERS"


class _TracedShard:
    """Picklable wrapper adding a ``parmap.shard`` span around one task.

    Used only when tracing is active: a worker inherits the parent's tracer
    at fork (emptied by :func:`_init_worker`), so its shard spans land in
    its own per-process trace file, flushed after every task because worker
    processes never run atexit hooks (obs counters stay process-local, and
    so do trace rings — the same contract).
    """

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, indexed):
        index, task = indexed
        with trace.span("parmap.shard", index=index):
            result = self.fn(task)
        # Pool workers exit through os._exit, which skips atexit hooks —
        # flush after every task so an env-activated worker tracer actually
        # reaches its per-process file (atomic full rewrite, so repeating
        # it per task just keeps the file current).
        tracer = trace.active_tracer()
        if tracer is not None and tracer.sink_dir is not None:
            tracer.flush()
        return result


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count: explicit arg > ``REPRO_WORKERS`` env > 1.

    Values below 1 are clamped to 1; a malformed environment value raises
    (better loud than silently serial).
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_ENV_VAR)
    if env is None or not env.strip():
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"{_ENV_VAR} must be an integer, got {env!r}"
        ) from None


class SharedBound:
    """A cross-process monotone-min integer, carried by a small file.

    The parallel branch-and-bound drivers (see
    :mod:`repro.comm.exhaustive`) hand every pool worker the same path;
    whenever a worker *witnesses* a cost it calls :meth:`publish`, and
    other workers fold :meth:`get` into their pruning incumbent.  Reads
    may be stale — a stale or missing bound only weakens pruning, it can
    never change a computed result, because callers are required to
    publish *witnessed* values only (costs they actually achieved and will
    themselves return).

    The file is an append-only log of ``\\n<value>\\n`` records and the
    bound is the minimum over its complete lines.  One ``O_APPEND`` write
    per record keeps concurrent publishers from overwriting each other, so
    the file always holds the minimum ever published; a record still being
    written has no final newline yet and is not read, so a torn read can
    never yield a smaller, unwitnessed value.  Every filesystem error
    degrades to "no bound", never to a raise.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def get(self) -> int | None:
        """The smallest published value, or None (missing/corrupt file)."""
        try:
            text = self.path.read_text(encoding="ascii")
        except (OSError, ValueError):
            return None
        best = None
        for line in text.split("\n")[:-1]:
            try:
                value = int(line)
            except ValueError:
                continue
            if best is None or value < best:
                best = value
        return best

    def publish(self, value: int) -> int:
        """Merge ``value`` in; returns the best value known afterwards."""
        value = int(value)
        current = self.get()
        if current is not None and current <= value:
            return current
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, f"\n{value}\n".encode("ascii"))
            finally:
                os.close(fd)
        except OSError:
            return value if current is None else min(value, current)
        seen = self.get()
        return value if seen is None else min(value, seen)


_POOL_LOCK = threading.Lock()
_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple | None = None


def _fork_fingerprint(n_workers: int) -> tuple:
    """What a worker inherits at fork; the pool is reused while it holds.

    The tracer and store compare by identity (neither defines ``__eq__``),
    and the tuple keeps them alive, so a recycled ``id`` can never match.
    """
    from repro import cache  # here, so serial-only importers skip it

    env = tuple(
        sorted((k, v) for k, v in os.environ.items() if k.startswith("REPRO_"))
    )
    return (
        os.getpid(), n_workers, trace.active_tracer(), cache.active_store(), env
    )


def _init_worker() -> None:
    """Pool initializer: start the worker with no pool and an empty trace.

    A forked worker inherits the parent's pool handle (and its lock, held
    while the pool forks) and the parent's trace ring; the parent owns
    and exports both, so the worker forgets them.  A pool the worker starts
    itself (a nested ``parmap``) must be reaped before the worker's exit
    joins its children, and workers skip atexit, hence the finalizer; its
    priority runs it before the queues' own (10) stop their feeder threads,
    which would strand the pool's shutdown sentinels.
    """
    global _POOL, _POOL_KEY, _POOL_LOCK
    from multiprocessing import util

    _POOL = _POOL_KEY = None
    _POOL_LOCK = threading.Lock()
    trace.forget_inherited()
    util.Finalize(None, shutdown_pool, exitpriority=20)


def _drop_pool() -> None:
    """Forget the shared pool; shut it down if this process started it.

    Caller holds ``_POOL_LOCK``.  A pool inherited through some other fork
    belongs to the parent and is only forgotten.
    """
    global _POOL, _POOL_KEY
    pool, key = _POOL, _POOL_KEY
    _POOL = _POOL_KEY = None
    if pool is not None and key[0] == os.getpid():
        pool.shutdown(wait=True, cancel_futures=True)


def _shared_pool(n_workers: int) -> ProcessPoolExecutor:
    """The shared pool, forked anew unless its fingerprint still holds.

    Caller holds ``_POOL_LOCK``.
    """
    global _POOL, _POOL_KEY
    # Imported here so serial users never pay for the machinery.
    from concurrent.futures import ProcessPoolExecutor

    key = _fork_fingerprint(n_workers)
    if _POOL is not None and _POOL_KEY == key:
        obs.counter("parallel.pool_reuses").inc()
        return _POOL
    _drop_pool()
    with trace.span("parmap.pool_start", workers=n_workers):
        pool = ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker
        )
        _POOL, _POOL_KEY = pool, key
        # Fork every worker now, inside the span, not in the first map.
        pool.submit(os.getpid).result()
    obs.counter("parallel.pool_starts").inc()
    return pool


def shutdown_pool() -> None:
    """Shut the shared pool down and reap its workers (no-op if none)."""
    with _POOL_LOCK:
        _drop_pool()


atexit.register(shutdown_pool)


def parmap(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    workers: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """``[fn(t) for t in tasks]``, fanned out over a process pool.

    Order-preserving: result ``i`` always corresponds to task ``i``.  With
    one resolved worker (the default) this *is* the list comprehension — no
    pool, no pickling, no subprocess, so tests and small runs pay nothing.

    Determinism contract: ``fn`` must derive any randomness it needs from
    the task value itself (see the module docstring); under that contract
    the output is bit-identical for every ``workers`` setting.

    ``chunksize`` tunes pickling overhead against tail latency: the
    default (~4 chunks per worker) suits many cheap uniform tasks, but
    heavy uneven tasks — exact D(f) searches, truth-matrix blocks —
    should pass ``chunksize=1`` so one slow task never strands a queue of
    finished work behind it.

    Pooled calls run on the shared pool described in the module docstring.
    """
    task_list: Sequence[T] = list(tasks)
    n_workers = resolve_workers(workers)
    tracing = trace.active_tracer() is not None
    if n_workers == 1 or len(task_list) <= 1:
        if not tracing:
            return [fn(t) for t in task_list]
        with trace.span("parmap", tasks=len(task_list), workers=1):
            out: list[R] = []
            for index, task in enumerate(task_list):
                with trace.span("parmap.shard", index=index):
                    out.append(fn(task))
            return out
    busy = min(n_workers, len(task_list))
    if chunksize is None:
        # Aim for ~4 chunks per worker: amortizes pickling without leaving
        # stragglers at the tail of uneven task costs.
        chunksize = max(1, len(task_list) // (4 * busy))
    if tracing:
        # Shard spans record in each worker's own tracer; the wrapper
        # changes nothing about what fn computes.
        fn, task_list = _TracedShard(fn), list(enumerate(task_list))
    with trace.span("parmap", tasks=len(task_list), workers=busy):
        with _POOL_LOCK:
            try:
                pool = _shared_pool(n_workers)
                return list(pool.map(fn, task_list, chunksize=chunksize))
            except BaseException:
                # The pool may be broken, or still running the failed
                # call's other tasks: the next call gets a fresh one.
                _drop_pool()
                raise
