"""Tests for the counter registry (repro.obs)."""

import threading

from repro import obs


class TestCounters:
    def test_inc_and_snapshot(self):
        with obs.scoped():
            obs.counter("a").inc()
            obs.counter("a").inc(4)
            obs.counter("b").inc(0)
            snap = obs.snapshot()
        assert snap["counters"] == {"a": 5, "b": 0}

    def test_same_name_same_counter(self):
        with obs.scoped():
            c1 = obs.counter("x")
            c2 = obs.counter("x")
            assert c1 is c2

    def test_reset(self):
        with obs.scoped():
            obs.counter("x").inc()
            obs.reset()
            assert obs.snapshot()["counters"] == {}

    def test_thread_safety(self):
        with obs.scoped():
            def worker():
                for _ in range(1000):
                    obs.counter("hits").inc()

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert obs.snapshot()["counters"]["hits"] == 4000


class TestScoped:
    def test_isolates_default_registry(self):
        obs.reset()
        obs.counter("outer").inc()
        with obs.scoped():
            obs.counter("inner").inc()
            assert "outer" not in obs.snapshot()["counters"]
        assert obs.snapshot()["counters"].get("outer") == 1
        assert "inner" not in obs.snapshot()["counters"]
        obs.reset()

    def test_snapshot_sorted(self):
        with obs.scoped():
            obs.counter("zz").inc()
            obs.counter("aa").inc()
            names = list(obs.snapshot()["counters"])
        assert names == sorted(names)
