"""The search entry points round-tripping through a real store on disk."""

import numpy as np
import pytest

from repro import cache, obs
from repro.comm.exhaustive import (
    ENGINES,
    clear_search_cache,
    communication_complexity,
    optimal_protocol_tree,
    partition_number,
)
from repro.comm.truth_matrix import TruthMatrix


def tm_from(array) -> TruthMatrix:
    a = np.array(array, dtype=np.uint8)
    return TruthMatrix(a, tuple(range(a.shape[0])), tuple(range(a.shape[1])))


def gt(n):
    return tm_from([[1 if i > j else 0 for j in range(n)] for i in range(n)])


@pytest.fixture(autouse=True)
def hermetic(monkeypatch):
    """No ambient store leaks in; the LRU starts empty."""
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    clear_search_cache()
    yield
    clear_search_cache()


@pytest.mark.parametrize("engine", ENGINES)
class TestRoundTrip:
    def test_d_survives_the_process_boundary_simulation(self, tmp_path, engine):
        tm = gt(6)
        with cache.directory(tmp_path):
            cold = communication_complexity(tm, engine=engine)
            clear_search_cache()  # simulate a fresh process
            with obs.scoped():
                warm = communication_complexity(tm, engine=engine)
                counters = obs.snapshot()["counters"]
        assert warm == cold
        assert counters["cache.hits"] == 1
        # A disk hit answers without rebuilding the search at all.
        assert counters.get("exhaustive.subproblems", 0) == 0

    def test_partition_number_survives(self, tmp_path, engine):
        tm = gt(5)
        with cache.directory(tmp_path):
            cold = partition_number(tm, engine=engine)
            clear_search_cache()
            with obs.scoped():
                warm = partition_number(tm, engine=engine)
                counters = obs.snapshot()["counters"]
        assert warm == cold
        assert counters.get("exhaustive.subproblems", 0) == 0

    def test_tree_rebuilt_from_cached_serial_computes_the_function(
        self, tmp_path, engine
    ):
        tm = tm_from([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
        with cache.directory(tmp_path):
            cost_cold, _ = optimal_protocol_tree(tm, engine=engine)
            clear_search_cache()
            with obs.scoped():
                cost_warm, tree = optimal_protocol_tree(tm, engine=engine)
                counters = obs.snapshot()["counters"]
        assert cost_warm == cost_cold
        assert counters.get("exhaustive.subproblems", 0) == 0
        assert tree.depth() == cost_warm
        for i, rl in enumerate(tm.row_labels):
            for j, cl in enumerate(tm.col_labels):
                assert tree.evaluate(rl, cl)[0] == tm.data[i, j]

    def test_queries_accumulate_in_one_record(self, tmp_path, engine):
        tm = gt(4)
        with cache.directory(tmp_path) as store:
            communication_complexity(tm, engine=engine)
            optimal_protocol_tree(tm, engine=engine)
            partition_number(tm, engine=engine)
            stats = store.stats()
            assert store.verify() == []
        assert stats["entries"] == 1
        assert stats["fields"] == {"d": 1, "leaves": 1, "tree": 1}

    def test_disabled_store_never_touches_disk(self, tmp_path, engine):
        tm = gt(4)
        cache.configure(tmp_path)
        try:
            with cache.disabled(), obs.scoped():
                communication_complexity(tm, engine=engine)
                counters = obs.snapshot()["counters"]
            assert counters.get("cache.lookups", 0) == 0
            assert cache.active_store().stats()["entries"] == 0
        finally:
            cache.unconfigure()


class TestCrossEngineIsolation:
    def test_engines_write_distinct_records(self, tmp_path):
        tm = gt(4)
        with cache.directory(tmp_path) as store:
            d_bitset = communication_complexity(tm, engine="bitset")
            clear_search_cache()
            d_legacy = communication_complexity(tm, engine="legacy")
            stats = store.stats()
        assert d_bitset == d_legacy
        assert stats["entries"] == 2
        assert stats["engines"] == {"bitset-1": 1, "tuple-1": 1}

    def test_corrupt_record_falls_back_to_search(self, tmp_path):
        tm = gt(5)
        with cache.directory(tmp_path) as store:
            cold = communication_complexity(tm)
            for path in sorted(store.objects.glob("*.json")):
                path.write_text("garbage")
            clear_search_cache()
            assert communication_complexity(tm) == cold
