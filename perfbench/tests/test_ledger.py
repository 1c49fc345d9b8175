"""The traced run's ledger: span arithmetic, and that wrapping the
program's entry points (including pool tasks) changes no result."""

import json
from dataclasses import asdict

import numpy as np
import pytest

import ledger


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(ledger.time, "perf_counter", fake)
    return fake


class TestSpanArithmetic:
    def test_self_time_excludes_children(self, clock):
        book = ledger.Ledger()
        with book.span("matrix"):
            clock.now += 1.0
            with book.span("parallel"):
                clock.now += 3.0
            clock.now += 0.5
        assert book.busy["matrix"] == pytest.approx(4.5)
        assert book.self_s["matrix"] == pytest.approx(1.5)
        assert book.self_s["parallel"] == pytest.approx(3.0)
        assert book.root_s == pytest.approx(4.5)

    def test_reentered_layer_is_not_counted_twice(self, clock):
        book = ledger.Ledger()
        with book.span("cache", "cache.get"):
            clock.now += 1.0
            with book.span("cache", "cache.get"):
                clock.now += 2.0
        assert book.busy["cache"] == pytest.approx(3.0)
        assert book.named["cache.get"] == pytest.approx(3.0)
        assert book.self_s["cache"] == pytest.approx(3.0)
        assert book.calls["cache"] == 2
        assert book.calls["cache.get"] == 2

    def test_disjoint_roots_add_up(self, clock):
        book = ledger.Ledger()
        for _ in range(3):
            with book.span("exhaustive"):
                clock.now += 0.25
            clock.now += 1.0  # unattributed time between spans
        assert book.root_s == pytest.approx(0.75)

    def test_fold_adds_a_worker_delta(self, clock):
        book = ledger.Ledger()
        worker = ledger.Ledger()
        before = worker.snapshot()
        with worker.span("comm", "comm.run_busy_s"):
            clock.now += 2.0
        book.fold(ledger.delta(before, worker.snapshot()))
        assert book.busy["comm"] == pytest.approx(2.0)
        assert book.named["comm.run_busy_s"] == pytest.approx(2.0)
        assert book.root_s == 0.0  # worker time is never parent wall time

    def test_counter_delta(self):
        assert ledger.counter_delta({"a": 1, "b": 2}, {"a": 4, "b": 2, "c": 1}) == {
            "a": 3,
            "c": 1,
        }


def _sweeps(workers):
    from repro import cache
    from repro.comm import chaos
    from repro.matrix import run_sweep

    with cache.disabled():
        cells = run_sweep(quick=True, seed=3, workers=workers)
        points = chaos.sweep(
            protocols=["equality", "trivial"], runs=3, seed=3, workers=workers
        )
    return json.dumps(cells, sort_keys=True) + json.dumps(
        [asdict(p) for p in points], sort_keys=True
    )


def _search():
    from repro import cache
    from repro.comm.exhaustive import (
        clear_search_cache,
        communication_complexity,
        partition_number,
    )
    from repro.comm.truth_matrix import TruthMatrix

    rng = np.random.default_rng(11)
    out = []
    with cache.disabled():
        for n in (5, 6):
            clear_search_cache()
            data = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
            tm = TruthMatrix(data, tuple(range(n)), tuple(range(n)))
            out.append(
                (communication_complexity(tm, workers=2), partition_number(tm, workers=2))
            )
    return out


class TestWrappedProgramIsUnchanged:
    def test_sweeps_are_byte_identical_with_and_without_the_wrapper(self):
        plain = _sweeps(workers=2)
        book = ledger.Ledger()
        with ledger.Tracer(book) as tracer:
            traced = _sweeps(workers=2)
        assert traced == plain
        assert traced == _sweeps(workers=1)
        # Worker-side counts and task times came back through the probe.
        assert book.counts["parallel.pool_calls"] >= 2
        assert book.counts["parallel.task_s"] > 0
        assert book.busy["matrix"] > 0 and book.busy["comm"] > 0
        # Worker-side counts are folded in: the traced totals do not
        # depend on where the tasks ran.
        serial = ledger.Tracer(ledger.Ledger())
        with serial:
            _sweeps(workers=1)
        for name in ("channel.wire_bits", "cache.cell.lookups"):
            assert tracer.counters.get(name, 0) == serial.counters.get(name, 0)
        assert tracer.counters["channel.wire_bits"] > 0

    def test_parallel_search_is_identical_with_and_without_the_wrapper(self):
        plain = _search()
        book = ledger.Ledger()
        with ledger.Tracer(book):
            traced = _search()
        assert traced == plain
        assert book.calls["exhaustive"] == 4

    def test_originals_are_restored(self):
        import repro.comm.exhaustive as exhaustive
        import repro.matrix as matrix
        import repro.matrix.sweep as sweep
        import repro.serve.service as service
        import repro.util.parallel as parallel
        from repro.cache.store import CacheStore

        before = (
            dict(service.PURE_HANDLERS),
            matrix.run_sweep,
            sweep.parmap,
            parallel.parmap,
            exhaustive.communication_complexity,
            CacheStore.get,
        )
        with ledger.Tracer(ledger.Ledger()):
            assert parallel.parmap is not before[3]
            assert sweep.parmap is parallel.parmap  # every importer is wrapped
        after = (
            dict(service.PURE_HANDLERS),
            matrix.run_sweep,
            sweep.parmap,
            parallel.parmap,
            exhaustive.communication_complexity,
            CacheStore.get,
        )
        assert after == before
        assert ledger.ACTIVE is None

    def test_probe_returns_worker_deltas_only_from_other_processes(self):
        import os

        probe = ledger.TaskProbe(abs, os.getpid())
        result, seconds, counts, spans = probe(-3)
        assert result == 3 and seconds >= 0
        assert counts is None and spans is None
