"""Tests for the deterministic process-pool fan-out (repro.util.parallel)."""

import os
import time
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest

from repro import cache, obs
from repro.comm import exhaustive
from repro.comm.truth_matrix import TruthMatrix
from repro.trace import core as trace
from repro.util import parallel
from repro.util.parallel import SharedBound, parmap, resolve_workers


def _square(x):
    return x * x


def _pid_tag(x):
    return (x, os.getpid())


class TestResolveWorkers:
    def test_explicit_wins(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "7"}):
            assert resolve_workers(3) == 3

    def test_env_fallback(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "5"}):
            assert resolve_workers(None) == 5

    def test_default_is_serial(self):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_WORKERS"}
        with mock.patch.dict(os.environ, env, clear=True):
            assert resolve_workers(None) == 1

    def test_clamped_below_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_malformed_env_raises(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "many"}):
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                resolve_workers(None)


class TestParmap:
    def test_serial_basic(self):
        assert parmap(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty(self):
        assert parmap(_square, [], workers=4) == []

    def test_single_task_stays_serial(self):
        (result,) = parmap(_pid_tag, [9], workers=8)
        assert result == (9, os.getpid())

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_order_and_values_worker_invariant(self, workers):
        tasks = list(range(30))
        assert parmap(_square, tasks, workers=workers) == [
            x * x for x in tasks
        ]

    def test_parallel_really_forks(self):
        results = parmap(_pid_tag, list(range(8)), workers=2)
        assert [x for x, _ in results] == list(range(8))  # order preserved
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids  # ran in child processes

    def test_accepts_any_iterable(self):
        assert parmap(_square, range(4), workers=1) == [0, 1, 4, 9]


def _publish_task(task):
    path, value = task
    return SharedBound(path).publish(value)


class TestSharedBound:
    def test_missing_file_is_none(self, tmp_path):
        assert SharedBound(tmp_path / "bound").get() is None

    def test_publish_then_get(self, tmp_path):
        bound = SharedBound(tmp_path / "bound")
        assert bound.publish(7) == 7
        assert bound.get() == 7

    def test_min_merge(self, tmp_path):
        bound = SharedBound(tmp_path / "bound")
        bound.publish(9)
        assert bound.publish(4) == 4
        # A worse value never regresses the file.
        assert bound.publish(12) == 4
        assert bound.get() == 4

    def test_corrupt_file_degrades_to_none(self, tmp_path):
        path = tmp_path / "bound"
        path.write_text("not-an-int")
        bound = SharedBound(path)
        assert bound.get() is None
        # Publishing over corruption repairs the file.
        bound.publish(3)
        assert bound.get() == 3

    def test_unterminated_record_is_not_read(self, tmp_path):
        # A record caught mid-append ("\n12\n" seen as "\n1") must never
        # read as a smaller bound than any complete record.
        path = tmp_path / "bound"
        path.write_text("\n3\n\n1")
        assert SharedBound(path).get() == 3

    def test_cross_process_convergence(self, tmp_path):
        path = tmp_path / "bound"
        values = [9, 5, 8, 3, 7, 6, 4, 11]
        parmap(_publish_task, [(path, v) for v in values], workers=4)
        assert SharedBound(path).get() == min(values)

    def test_no_tmp_litter(self, tmp_path):
        bound = SharedBound(tmp_path / "bound")
        for value in (9, 3, 5):
            bound.publish(value)
        assert [p.name for p in tmp_path.iterdir()] == ["bound"]


def _slow_pid(x):
    time.sleep(0.02)
    return os.getpid()


def _pids(workers=2):
    """The worker PID set of one pooled call; the tasks are slow enough
    that every worker of the pool takes some."""
    return set(parmap(_slow_pid, range(4 * workers), workers=workers, chunksize=1))


def _die(x):
    if x == 0:
        os._exit(3)
    return x


def _lru_size(x):
    return exhaustive.search_cache_stats()["size"]


def _search_in_worker(x):
    """Fill this worker's search LRU (slowly, so every worker takes some)."""
    time.sleep(0.02)
    data = np.array([[x % 2, 1], [0, 1], [1, 0]], dtype=np.uint8)
    return exhaustive.communication_complexity(
        TruthMatrix(data, (0, 1, 2), (0, 1)), workers=1
    )


def _nested(x):
    return os.getpid(), _pids()


@pytest.fixture
def fresh_pool():
    parallel.shutdown_pool()
    yield
    parallel.shutdown_pool()


@pytest.mark.usefixtures("fresh_pool")
class TestSharedPool:
    def test_calls_reuse_worker_pids(self):
        first = _pids()
        assert first == _pids()
        assert os.getpid() not in first

    def test_worker_count_forks_new_pool(self):
        first = _pids(workers=2)
        assert _pids(workers=3).isdisjoint(first)

    def test_cache_scope_forks_new_pool(self, tmp_path):
        with cache.directory(tmp_path / "a"):
            first = _pids()
            assert _pids() == first
        with cache.directory(tmp_path / "b"):
            assert _pids().isdisjoint(first)

    def test_tracer_forks_new_pool(self):
        first = _pids()
        with trace.capture():
            assert _pids().isdisjoint(first)

    def test_repro_env_forks_new_pool(self):
        first = _pids()
        with mock.patch.dict(os.environ, {"REPRO_SEARCH_CACHE_LIMIT": "3"}):
            assert _pids().isdisjoint(first)

    def test_broken_pool_raises_then_recovers(self):
        first = _pids()
        with pytest.raises(BrokenProcessPool):
            parmap(_die, list(range(4)), workers=2, chunksize=1)
        after = _pids()
        assert after.isdisjoint(first)
        assert _pids() == after

    def test_clear_search_cache_empties_worker_lru(self):
        parmap(_search_in_worker, range(8), workers=2, chunksize=1)
        # The workers outlive the call, and so do their caches.
        assert min(parmap(_lru_size, range(4), workers=2)) > 0
        exhaustive.clear_search_cache()
        assert parmap(_lru_size, list(range(4)), workers=2) == [0] * 4

    def test_nested_pool_leaves_parent_pool_alone(self):
        outer = _pids()
        pool = parallel._POOL
        for pid, inner in parmap(_nested, list(range(2)), workers=2):
            assert pid in outer
            assert inner.isdisjoint(outer | {os.getpid()})
        assert parallel._POOL is pool
        assert _pids() == outer

    def test_starts_and_reuses_are_counted(self, tmp_path):
        with obs.scoped() as registry:
            with cache.directory(tmp_path / "a"):
                _pids()
                _pids()
            counts = registry.snapshot()["counters"]
            assert counts["parallel.pool_starts"] == 1
            assert counts["parallel.pool_reuses"] == 1
            with cache.directory(tmp_path / "b"):
                _pids()
            assert registry.snapshot()["counters"]["parallel.pool_starts"] == 2

    def test_pool_start_is_a_span(self):
        with trace.capture() as tracer:
            _pids()
            _pids()
        starts = [
            e for e in tracer.events()
            if e.name == "parmap.pool_start" and e.kind == "span_end"
        ]
        assert len(starts) == 1

    def test_worker_trace_holds_no_parent_span(self, tmp_path):
        with trace.directory(tmp_path):
            with trace.span("parent.marker"):
                workers = _pids()
        for pid in workers:
            names = {
                e.name
                for e in trace.load_jsonl(tmp_path / f"trace-{pid}.jsonl")
            }
            assert "parmap.shard" in names
            assert not names & {"parent.marker", "parmap", "parmap.pool_start"}
