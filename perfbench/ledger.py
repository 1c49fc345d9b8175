"""The outside-in layer ledger of the traced run.

The benchmark never edits the program.  For a traced run it swaps the
program's public entry points for thin wrappers that open a span in this
module's :class:`Ledger` (name, layer, start, end, parent via the span
stack), then restores the originals.  Every layer is a ``repro`` module:

========== ==============================================================
layer      entry points wrapped
========== ==============================================================
serve      ``repro.serve.service.PURE_HANDLERS`` (one span per method),
           ``repro.serve.wire.decode_frame`` / ``encode_frame`` /
           ``validate_request`` (the codec)
exhaustive ``communication_complexity``, ``partition_number``
parallel   ``repro.util.parallel.parmap`` (tasks wrapped by :class:`TaskProbe`)
truth_builder ``sharded_truth_matrix``
cache      ``CacheStore`` get / merge / shard / cell methods
comm       ``run_supervised``, ``repro.comm.chaos.sweep``
costs      ``scenario_shape`` (pricing), ``repro.costs.run_sweep``
matrix     ``repro.matrix.run_sweep``
========== ==============================================================

``repro.obs`` counters are process-local and forked pool workers would
otherwise lose theirs, so the traced ``parmap`` wraps each task in a
picklable :class:`TaskProbe` that returns the task's duration, its
``repro.obs`` counter delta and its ledger delta alongside the result.
The parent folds those in; per-process trace files are never read.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Ledger:
    """In-memory span accounting for one process.

    ``busy[layer]`` is inclusive time in the layer's outermost spans (a
    layer re-entered below itself is not counted twice); ``self_s[layer]``
    is span time minus the part covered by child spans of any layer;
    ``named[name]`` is inclusive time of one named entry point;
    ``root_s`` is the time covered by spans with no parent, which is what
    ``trace.attributed_frac`` compares with the timed wall time.
    """

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.named: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[list] = []  # [layer, name, start, child_s]

    @contextmanager
    def span(self, layer: str, name: str | None = None):
        """Time one call into ``layer`` (``name`` also keys ``named``)."""
        frame = [layer, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[2]
            self.self_s[layer] += elapsed - frame[3]
            self.calls[layer] += 1
            if not any(f[0] == layer for f in self._stack):
                self.busy[layer] += elapsed
            if name is not None:
                self.calls[name] += 1
                if not any(f[1] == name for f in self._stack):
                    self.named[name] += elapsed
            if self._stack:
                self._stack[-1][3] += elapsed
            else:
                self.root_s += elapsed

    def snapshot(self) -> dict:
        """A picklable copy of the totals (for worker deltas)."""
        return {
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "named": dict(self.named),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def fold(self, delta: dict) -> None:
        """Add another process's totals (a :meth:`delta`) into this ledger.

        Worker time is summed across processes, so a layer's busy time can
        exceed wall time when pool workers overlap; ``root_s`` is never
        folded, so attribution stays a parent-process wall-time share.
        """
        for table in ("busy", "self_s", "named", "calls", "counts"):
            mine = getattr(self, table)
            for key, value in delta[table].items():
                mine[key] += value


def delta(before: dict, after: dict) -> dict:
    """``after - before`` for two :meth:`Ledger.snapshot` results."""
    out = {}
    for table, values in after.items():
        base = before.get(table, {})
        out[table] = {
            key: value - base.get(key, 0)
            for key, value in values.items()
            if value != base.get(key, 0)
        }
    return out


def counter_delta(before: dict, after: dict) -> dict:
    """``after - before`` for two ``repro.obs`` counter snapshots."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


#: The ledger the installed wrappers write to.  Set by :class:`Tracer`;
#: forked pool workers inherit it together with the wrappers.
ACTIVE: Ledger | None = None


class TaskProbe:
    """Picklable task wrapper: ``fn(task)`` plus what the worker measured.

    Returns ``(result, seconds, obs_delta, ledger_delta)``.  When the task
    runs in the parent process itself (serial ``parmap``) the deltas are
    ``None``: the parent's registry and ledger already hold them.
    """

    def __init__(self, fn, parent_pid: int):
        self.fn = fn
        self.parent_pid = parent_pid

    def __call__(self, task):
        from repro import obs

        in_worker = os.getpid() != self.parent_pid
        if in_worker:
            if ACTIVE is not None:
                ACTIVE._stack = []  # frames inherited from the parent at fork
            counters = obs.snapshot()["counters"]
            spans = ACTIVE.snapshot() if ACTIVE is not None else None
        start = time.perf_counter()
        result = self.fn(task)
        seconds = time.perf_counter() - start
        if not in_worker:
            return result, seconds, None, None
        counts = counter_delta(counters, obs.snapshot()["counters"])
        spans_delta = (
            delta(spans, ACTIVE.snapshot()) if ACTIVE is not None else None
        )
        return result, seconds, counts, spans_delta


class Tracer:
    """Installs the span wrappers over the program's entry points.

    Use as a context manager; on exit every original is restored and
    :attr:`counters` holds the ``repro.obs`` counts of the traced block:
    the parent's own plus the worker-side deltas the traced ``parmap``
    folded in.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.counters: dict[str, int] = defaultdict(int)
        self._before: dict[str, int] = {}
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- patching helpers ---------------------------------------------------
    def _set(self, owner, attr: str, value, is_item: bool = False) -> None:
        if is_item:
            self._saved.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, value)

    def _wrap_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded ``repro`` module that
        imported it by name (``from x import f`` copies the reference)."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _spanned(self, fn, layer: str, name: str | None = None, after=None):
        ledger = self.ledger

        def wrapper(*args, **kwargs):
            with ledger.span(layer, name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore --------------------------------------------------
    def __enter__(self) -> "Tracer":
        global ACTIVE
        import repro.comm.agents as agents
        import repro.comm.chaos as chaos
        import repro.comm.exhaustive as exhaustive
        import repro.costs as costs
        import repro.matrix as matrix
        import repro.serve.service as service
        import repro.serve.wire as wire
        import repro.singularity.truth_builder as truth_builder
        import repro.util.parallel as parallel
        from repro import obs
        from repro.cache.store import CacheStore

        self._before = obs.snapshot()["counters"]
        ACTIVE = self.ledger
        ledger = self.ledger
        for method, handler in list(service.PURE_HANDLERS.items()):
            self._set(
                service.PURE_HANDLERS,
                method,
                self._spanned(handler, "serve", f"serve.handler_s.{method}"),
                is_item=True,
            )
        for fn_name in ("decode_frame", "encode_frame", "validate_request"):
            original = getattr(wire, fn_name)
            self._wrap_everywhere(
                original, self._spanned(original, "serve", "serve.codec_s")
            )
        for fn_name in ("communication_complexity", "partition_number"):
            original = getattr(exhaustive, fn_name)
            self._wrap_everywhere(
                original, self._spanned(original, "exhaustive")
            )

        def count_entries(tm) -> None:
            ledger.counts["truth_builder.entries"] += tm.shape[0] * tm.shape[1]

        original = truth_builder.sharded_truth_matrix
        self._wrap_everywhere(
            original, self._spanned(original, "truth_builder", after=count_entries)
        )
        for method in (
            "get",
            "merge",
            "get_shard_manifest",
            "put_shard_manifest",
            "get_shard",
            "put_shard",
            "get_cell",
            "put_cell",
        ):
            original = getattr(CacheStore, method)
            self._set(CacheStore, method, self._spanned(original, "cache"))
        original = agents.run_supervised
        self._wrap_everywhere(
            original, self._spanned(original, "comm", "comm.run_busy_s")
        )
        self._wrap_everywhere(chaos.sweep, self._spanned(chaos.sweep, "comm"))
        original = costs.scenario_shape
        self._wrap_everywhere(
            original, self._spanned(original, "costs", "costs.price_busy_s")
        )
        self._wrap_everywhere(
            costs.run_sweep, self._spanned(costs.run_sweep, "costs")
        )
        self._wrap_everywhere(
            matrix.run_sweep, self._spanned(matrix.run_sweep, "matrix")
        )
        self._wrap_everywhere(parallel.parmap, self._traced_parmap(parallel))
        return self

    def __exit__(self, *exc) -> None:
        global ACTIVE
        from repro import obs

        own = counter_delta(self._before, obs.snapshot()["counters"])
        for name, value in own.items():
            self.counters[name] += value
        for owner, attr, value, is_item in reversed(self._saved):
            if is_item:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved.clear()
        ACTIVE = None

    def _traced_parmap(self, parallel):
        ledger = self.ledger
        real = parallel.parmap
        tracer = self

        def parmap(fn, tasks, workers=None, chunksize=None):
            task_list = list(tasks)
            n_workers = min(parallel.resolve_workers(workers), max(1, len(task_list)))
            pooled = n_workers > 1 and len(task_list) > 1
            probe = TaskProbe(fn, os.getpid())
            start = time.perf_counter()
            with ledger.span("parallel"):
                wrapped = real(probe, task_list, workers=workers, chunksize=chunksize)
            wall = time.perf_counter() - start
            ledger.counts["parallel.calls"] += 1
            ledger.counts["parallel.tasks"] += len(task_list)
            results = []
            task_s = 0.0
            for result, seconds, counts, spans in wrapped:
                results.append(result)
                task_s += seconds
                if counts:
                    for name, value in counts.items():
                        tracer.counters[name] += value
                if spans:
                    ledger.fold(spans)
            ledger.counts["parallel.task_s"] += task_s
            if pooled:
                ledger.counts["parallel.pool_calls"] += 1
                ledger.counts["parallel.pool_task_s"] += task_s
                ledger.counts["parallel.pool_capacity_s"] += n_workers * wall
            return results

        parmap.__wrapped__ = real
        return parmap
