"""The scenario-matrix cells tier and the shard-tmp orphan race.

Two contracts pinned here:

* ``cells/``: canonical, versioned cell documents round-trip through
  :meth:`CacheStore.put_cell`/:meth:`get_cell`, show up in stats and
  verify, and vanish on clear;
* the in-flight-vs-orphan rule for ``.tmp`` scratch files: a shard tmp
  at least as new as its build's committed manifest is an in-flight
  write and must survive ``sweep-tmp``; a tmp older than the manifest —
  or any tmp in ``objects/``/``cells/`` — is an orphan.
"""

import os

import pytest

from repro import cache, obs

CELL = {
    "bounds": {},
    "family": "equality",
    "measured": {"clean": {"total_bits": 17}, "faulted": None},
    "mismatches": [],
    "model": "deterministic",
    "params": {"n_bits": 16},
    "predicted": {"total_bits": 17},
    "regime": {"kind": None, "name": "clean", "rate_permille": 0, "runs": 1},
    "seed": 7,
    "verdict": "MATCH",
}

KEY = cache.cell_key(
    "repro.matrix/1", {"builder": "_det_equality", "seed": 0}
)


@pytest.fixture
def store(tmp_path):
    return cache.CacheStore(tmp_path / "c")


class TestCellKeys:
    def test_key_ignores_dict_insertion_order(self):
        a = cache.cell_key("e/1", {"x": 1, "params": {"a": 1, "b": 2}})
        b = cache.cell_key("e/1", {"params": {"b": 2, "a": 1}, "x": 1})
        assert a == b

    def test_key_separates_engines_and_coords(self):
        base = cache.cell_key("e/1", {"x": 1})
        assert base != cache.cell_key("e/2", {"x": 1})
        assert base != cache.cell_key("e/1", {"x": 2})

    def test_key_domain_separated_from_other_tiers(self):
        # Same folding inputs must never collide across prefixes.
        assert cache.cell_key("e", {"a": 1}) != cache.build_key("e", {"a": 1})

    def test_rejects_bad_engine_tags(self):
        with pytest.raises(ValueError):
            cache.cell_key("", {"a": 1})
        with pytest.raises(ValueError):
            cache.cell_key("e\0vil", {"a": 1})


class TestCellTier:
    def test_round_trip_and_counters(self, store):
        with obs.scoped():
            assert store.get_cell(KEY) is None
            store.put_cell(KEY, CELL)
            assert store.get_cell(KEY) == CELL
            counters = obs.snapshot()["counters"]
        assert counters["cache.cell.misses"] == 1
        assert counters["cache.cell.stores"] == 1
        assert counters["cache.cell.hits"] == 1

    def test_documents_are_canonical_bytes(self, store):
        store.put_cell(KEY, CELL)
        text = (store.cells / f"{KEY}.json").read_text()
        record = {"v": cache.CELL_RECORD_VERSION, "cell": CELL}
        assert text == cache.encode_record(record)

    def test_foreign_version_is_a_miss(self, store):
        store.put_cell(KEY, CELL)
        path = store.cells / f"{KEY}.json"
        path.write_text(path.read_text().replace('"v":1', '"v":999'))
        assert store.get_cell(KEY) is None

    def test_stats_verify_and_clear(self, store):
        store.put_cell(KEY, CELL)
        stats = store.stats()
        assert stats["cells"]["entries"] == 1
        assert stats["cells"]["verdicts"] == {"MATCH": 1}
        assert store.verify() == []
        (store.cells / "bad.json").write_text("not json")
        assert any("unparseable" in p for p in store.verify())
        store.clear()
        assert store.stats()["cells"]["entries"] == 0
        assert store.verify() == []


class TestTmpOrphanRace:
    def _committed_build(self, store):
        key = cache.build_key("modnp-1", {"family": "eq", "cols": 4})
        store.put_shard_manifest(
            key, cache.shard_manifest_record(2, 4, 2, "modnp-1")
        )
        return key

    def _shard_tmp(self, store, key, age_ns=None):
        name = f"{cache.shard_name(key, 0, 2)}.bin.123.456.tmp"
        path = store.shards / name
        path.write_bytes(b"\x00\x01\x00\x01")
        if age_ns is not None:
            os.utime(path, ns=(age_ns, age_ns))
        return path

    def test_fresh_shard_tmp_is_in_flight_not_orphan(self, store):
        key = self._committed_build(store)
        tmp = self._shard_tmp(store, key)  # mtime >= manifest's
        assert store.orphaned_tmp() == []
        assert store.sweep_tmp() == 0
        assert tmp.exists(), "sweep-tmp must not kill an in-flight write"
        assert store.stats()["tmp"] == {"files": 1, "orphaned": 0}

    def test_shard_tmp_older_than_manifest_is_an_orphan(self, store):
        key = self._committed_build(store)
        manifest_mtime = (store.shards / f"{key}.manifest.json").stat().st_mtime_ns
        tmp = self._shard_tmp(store, key, age_ns=manifest_mtime - 10**9)
        assert store.orphaned_tmp() == [tmp]
        assert store.sweep_tmp() == 1
        assert not tmp.exists()

    def test_shard_tmp_without_manifest_is_an_orphan(self, store):
        key = cache.build_key("modnp-1", {"family": "eq", "cols": 4})
        tmp = self._shard_tmp(store, key)  # no manifest ever committed
        assert store.orphaned_tmp() == [tmp]

    def test_objects_and_cells_tmp_are_always_orphans(self, store):
        a = store.objects / "rec.json.1.2.tmp"
        b = store.cells / "cell.json.1.2.tmp"
        a.write_text("{}")
        b.write_text("{}")
        assert store.orphaned_tmp() == sorted([b, a])
        assert store.sweep_tmp() == 2

    def test_clear_removes_even_in_flight_tmp(self, store):
        key = self._committed_build(store)
        tmp = self._shard_tmp(store, key)
        store.clear()
        assert not tmp.exists()
